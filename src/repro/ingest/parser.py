"""Text-format parsing: CSV matrices in, CSV matrices out.

Statistical datasets arrive as delimited text an order of magnitude bulkier
than the binary tiles Cumulon computes on; this module is the real parsing
path used by the ingestion loader (and its costs are what the ingestion
job template charges for).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

#: Average serialized bytes per value in delimited text (sign, digits,
#: decimal point, separator) — used by the ingestion cost model.
TEXT_BYTES_PER_VALUE = 14


def parse_csv_matrix(text: str, delimiter: str = ",",
                     comment: str = "#") -> np.ndarray:
    """Parse delimited text into a dense 2-D float64 array.

    Blank lines and lines starting with ``comment`` are skipped; all data
    rows must have the same number of fields.
    """
    if not delimiter:
        raise ValidationError("delimiter must be non-empty")
    rows: list[list[float]] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith(comment):
            continue
        fields = line.split(delimiter)
        try:
            row = [float(field) for field in fields]
        except ValueError as error:
            raise ValidationError(
                f"line {line_number}: cannot parse {raw_line!r}: {error}"
            ) from None
        rows.append(row)
    if not rows:
        raise ValidationError("no data rows found")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ValidationError(
            f"ragged rows: widths {sorted(widths)} found"
        )
    return np.asarray(rows, dtype=np.float64)


def format_csv_matrix(array: np.ndarray, delimiter: str = ",",
                      precision: int = 6) -> str:
    """Serialize a 2-D array as delimited text (round-trips parse)."""
    array = np.atleast_2d(np.asarray(array, dtype=np.float64))
    if array.ndim != 2:
        raise ValidationError(f"expected 2-D array, got {array.ndim}-D")
    if precision < 1:
        raise ValidationError("precision must be >= 1")
    lines = [delimiter.join(f"{value:.{precision}g}" for value in row)
             for row in array]
    return "\n".join(lines) + "\n"
