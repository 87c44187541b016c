"""The one CSV writer: comma-joined fields, ``None`` as an empty field.

Fields are written with ``str``; none of lobexec's fields holds a comma,
quote or newline, so no quoting is needed. ``csv_lines`` formats rows and
``csv_text`` puts a header line above them. ``SessionLog`` calls
``csv_lines`` while its session runs and writes each line at once to the
sink its caller handed it; it keeps no text.
"""


def csv_template(n_fields: int) -> str:
    """The ``%s`` template of a row of ``n_fields`` fields."""
    return ",".join(["%s"] * n_fields)


def csv_lines(template: str, rows) -> str:
    """One line per row, each ending in a newline; "" for no rows.

    Each row is a tuple of exactly one field per ``%s`` of ``template``; a
    field is written as ``str(field)``, except that ``None`` is written as an
    empty field. A row is formatted with the template (``"%s" % v`` is
    ``str(v)``); only a line that then reads ``None`` somewhere is formatted
    again field by field, so rows without ``None`` cost no per-field check.
    """
    lines = []
    for row in rows:
        line = template % row
        if "None" in line:
            line = ",".join(["" if v is None else str(v) for v in row])
        lines.append(line)
    lines.append("")
    return "\n".join(lines)


def csv_text(header, rows) -> str:
    """A header line, then one line per row (an iterable of one field per
    header column), each ending in a newline."""
    return ",".join(header) + "\n" + csv_lines(csv_template(len(header)),
                                               map(tuple, rows))
