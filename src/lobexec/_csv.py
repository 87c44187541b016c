"""The one CSV writer: comma-joined fields, ``None`` as an empty field.

Fields are written with ``str``; none of lobexec's fields holds a comma,
quote or newline, so no quoting is needed.
"""


def csv_text(header, rows) -> str:
    """A header line, then one line per row, each ending in a newline."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(["" if v is None else str(v) for v in row]))
    lines.append("")
    return "\n".join(lines)
