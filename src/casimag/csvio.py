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


def read_numeric_csv(path: str, header: str) -> list[list[float]]:
    """Rows of floats from a CSV whose header is ``header`` (spaces in
    the file's header are ignored), read in one pass.

    Skips blank lines and '#' comments, and a leading UTF-8 byte-order
    mark.  Errors name a row by its line number in the file.
    """
    columns = header.count(",") + 1
    values = None
    # not "utf-8-sig" for the BOM: its codec's import takes ~0.3 ms a run
    with open(path, encoding="utf-8") as fh:
        text = fh.read().removeprefix("\ufeff")
    for n, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if values is None:
            if line.replace(" ", "") != header:
                raise ValueError(f"{path}: expected header '{header}'")
            values = []
            continue
        fields = line.split(",")
        if len(fields) != columns:
            raise ValueError(f"{path}: row {n}: expected {columns} columns")
        try:
            values.append(list(map(float, fields)))
        except ValueError:
            raise ValueError(f"{path}: row {n}: non-numeric value") from None
    if values is None:
        raise ValueError(f"{path}: empty CSV")
    return values
