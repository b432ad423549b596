"""Text interchange formats of :mod:`gstft.cli`; the ``perfbench`` harness imports them too.

Floats are always written with 17 significant digits, which round-trips
float64 exactly; complex entries use the "re+imj" form accepted by Python's
``complex()``. Matrix and signal CSV files may carry a leading metadata
comment line of the form

    # meta {"n": 8, "t": 1.0, "graph_sha256": "..."}

so downstream files self-describe their provenance. Writers go through
:func:`write_text_atomic` (temp file + rename in the target directory).
"""
from __future__ import annotations

import hashlib
import json
import os

import numpy as np

META_PREFIX = "# meta "
# 100x the CLI's default 101-point grid; each point costs one heat kernel.
MAX_T_GRID_POINTS = 10_001


def meta_line(meta: dict) -> str:
    return META_PREFIX + json.dumps(meta, sort_keys=True, separators=(",", ":"))


def split_meta(text: str) -> tuple[dict, list[tuple[int, str]]]:
    """Separate a leading metadata comment (if any) from the data lines.

    Data lines are returned stripped, each with its 1-based line number in
    ``text``; other '#' comment lines and blank lines are dropped. A meta line
    that is not valid JSON raises ValueError naming its line.
    """
    meta: dict = {}
    data_lines = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(META_PREFIX):
            try:
                meta = json.loads(stripped[len(META_PREFIX):])
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: malformed '# meta' line: {exc}") from None
        elif stripped.startswith("#"):
            continue
        else:
            data_lines.append((lineno, stripped))
    return meta, data_lines


def signal_to_csv(values) -> str:
    """One "re,im" line per vertex."""
    values = np.asarray(values, dtype=np.complex128)
    return matrix_to_csv(np.column_stack([values.real, values.imag]))


def signal_from_csv(text: str) -> np.ndarray:
    """Parse "re,im" lines ("re" alone means a real value); errors name the line.

    NaN and infinite values are refused.
    """
    _, lines = split_meta(text)
    values = []
    for lineno, line in lines:
        parts = line.split(",")
        if len(parts) > 2:
            raise ValueError(f"line {lineno}: expected 're' or 're,im', got {line!r}")
        try:
            values.append(complex(*(float(part) for part in parts)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not values:
        raise ValueError("no signal values")
    signal = np.asarray(values, dtype=np.complex128)
    finite = np.isfinite(signal)
    if not finite.all():
        lineno, line = lines[np.argmin(finite)]
        raise ValueError(f"line {lineno}: non-finite value {line!r}")
    return signal


def matrix_to_csv(matrix, meta: dict | None = None) -> str:
    """Row-major CSV with 17-significant-digit entries and an optional meta line.

    Complex entries are "re+imj" with the imaginary part always signed: "+0"
    for -0 and "-nan" for NaN.
    """
    matrix = np.atleast_2d(np.asarray(matrix))
    lines = [] if meta is None else [meta_line(meta)]
    cell, rows = "%.17g", matrix
    if np.iscomplexobj(matrix):  # one template over interleaved re/im; -0+0j adds +0 to imag only
        cell, rows = "%.17g%+.17gj", ((row + complex(-0.0, 0.0)).view(np.float64) for row in matrix)
    template = ",".join([cell] * matrix.shape[1])
    lines.extend((template % tuple(row.tolist())).replace("+nanj", "-nanj") for row in rows)
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str) -> tuple[np.ndarray, dict]:
    """Parse a matrix CSV into a complex128 array and its metadata; errors name the row and line.

    NaN and infinite entries are refused.
    """
    meta, lines = split_meta(text)
    if not lines:
        raise ValueError("no matrix rows")
    rows = []
    for row, (lineno, line) in enumerate(lines, start=1):
        rows.append([])
        try:
            for cell in line.split(","):
                rows[-1].append(complex(cell))
        except ValueError:
            raise ValueError(f"row {row} (line {lineno}): invalid complex value {cell!r}") from None
        if len(rows[-1]) != len(rows[0]):
            raise ValueError(
                f"row {row} (line {lineno}) has {len(rows[-1])} entries but row 1 has {len(rows[0])}"
            )
    matrix = np.asarray(rows, dtype=np.complex128)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"row {row + 1} (line {lines[row][0]}): non-finite entry")
    return matrix, meta


def parse_t_grid(text: str) -> np.ndarray:
    """Parse "start:stop:step" into an inclusive ascending nonnegative finite grid.

    Grids of more than ``MAX_T_GRID_POINTS`` points are refused before allocating.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"t-grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not np.isfinite([start, stop, step]).all():
        raise ValueError(f"t-grid values must be finite, got {text!r}")
    if step <= 0:
        raise ValueError(f"t-grid step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"t-grid stop {stop} is below start {start}")
    if start < 0:
        raise ValueError(f"t-grid start must be nonnegative, got {start}")
    count = np.floor((stop - start) / step + 1e-9) + 1
    if count > MAX_T_GRID_POINTS:
        raise ValueError(f"t-grid {text!r} has more than {MAX_T_GRID_POINTS} points")
    return start + step * np.arange(int(count))


def graph_sha256(serialized: str) -> str:
    return hashlib.sha256(serialized.encode("utf-8")).hexdigest()


def write_text_atomic(path: str, text: str) -> None:
    """Write via a uniquely named temp file in the same directory, then rename into place.

    Concurrent writers never share a temp file, and a failed write removes its
    temp file and leaves ``path`` untouched. The temp file is created
    exclusively (mode ``"x"``), so the final file gets the permissions a plain
    ``open(path, "w")`` would give it.
    """
    tmp_path = f"{path}.{os.urandom(8).hex()}.tmp"
    handle = open(tmp_path, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise
