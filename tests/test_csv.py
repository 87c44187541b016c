from lobexec._csv import csv_text


def join_writer(header, rows):
    """The comma-join writer csv_text replaced, field by field."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(["" if v is None else str(v) for v in row]))
    lines.append("")
    return "\n".join(lines)


def test_csv_text_matches_join_writer():
    header = ["a", "b", "c", "d"]
    rows = [
        (1, None, "x", repr(0.1)),
        [None, None, None, None],
        (True, False, -7, 2**70),
        ["None", "NoneType", repr(1e-300), 3.5],  # "None" as text, not a None
        (0, "", repr(-0.0), None),
    ]
    expected = ("a,b,c,d\n"
                "1,,x,0.1\n"
                ",,,\n"
                "True,False,-7,1180591620717411303424\n"
                "None,NoneType,1e-300,3.5\n"
                "0,,-0.0,\n")
    assert join_writer(header, rows) == expected
    assert csv_text(header, rows) == expected
    assert csv_text(header, (row for row in rows)) == expected  # streamed rows
    assert csv_text(header, []) == "a,b,c,d\n"
    assert csv_text(["only"], ((v,) for v in (None, 1, "s"))) == "only\n\n1\ns\n"
