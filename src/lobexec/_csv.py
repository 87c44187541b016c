"""The one CSV writer: comma-joined fields, ``None`` as an empty field.

Fields are written with ``str``; none of lobexec's fields holds a comma,
quote or newline, so no quoting is needed.
"""


def csv_text(header, rows) -> str:
    """A header line, then one line per row, each ending in a newline.

    Each row is an iterable of exactly one field per header column; a field
    is written as ``str(field)``, except that ``None`` is written as an empty
    field. A row is formatted with one ``%s`` template (``"%s" % v`` is
    ``str(v)``); only a line that then reads ``None`` somewhere is formatted
    again field by field, so rows without ``None`` cost no per-field check.
    Rows are read one at a time, so a generator of rows is never held whole.
    """
    template = ",".join(["%s"] * len(header))
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        line = template % row
        if "None" in line:
            line = ",".join(["" if v is None else str(v) for v in row])
        lines.append(line)
    lines.append("")
    return "\n".join(lines)
