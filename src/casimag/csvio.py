"""Deterministic CSV emission and the one CSV parser.

All floating-point output uses scientific notation with 12 significant
digits, locale-independent, so identical inputs produce byte-identical
files on every platform.
"""

from __future__ import annotations

import sys


def fmt_float(x: float) -> str:
    """Scientific notation, 12 significant digits."""
    return f"{x:.11e}"


def fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


def write_csv(path: str, header: list[str], rows) -> None:
    """Write rows (sequences of values) under a header; '-' is stdout."""
    text = "\n".join([",".join(header)]
                     + [",".join(fmt_value(v) for v in row) for row in rows])
    text += "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


class CsvRow(list):
    """The fields of one data row; ``line`` is its line number in the file."""

    def __init__(self, fields: list[str], line: int):
        super().__init__(fields)
        self.line = line


def read_csv(path: str) -> tuple[list[str], list[CsvRow]]:
    """Read (header, rows) from a CSV file: the output of this package or
    one of its input tables.

    Skips blank lines and '#' comments; performs no type conversion.
    Errors name a row by its line number in the file.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1)]
    lines = [(n, ln) for n, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    header = lines[0][1].split(",")
    rows = [CsvRow(ln.split(","), n) for n, ln in lines[1:]]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"{path}: row {row.line}: expected "
                             f"{len(header)} columns")
    return header, rows


def read_numeric_csv(path: str, header: str) -> list[list[float]]:
    """Rows of floats from a CSV whose header is ``header`` (spaces in
    the file's header are ignored)."""
    names, rows = read_csv(path)
    if ",".join(names).replace(" ", "") != header:
        raise ValueError(f"{path}: expected header '{header}'")
    values = []
    for row in rows:
        try:
            values.append([float(v) for v in row])
        except ValueError:
            raise ValueError(f"{path}: row {row.line}: non-numeric "
                             "value") from None
    return values
