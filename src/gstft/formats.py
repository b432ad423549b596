"""Every CLI document but the graph: matrix and signal CSV, report tables and
JSON report and coefficient documents; the ``perfbench`` harness imports them too.

Floats are written with 17 significant digits, which round-trips float64
exactly; complex entries are "re+imj". A CSV or t-grid number is ASCII text
with no "_" that ``float()`` or ``complex()`` parses, and a CSV line ends at
"\\n" only: edge-list text keeps both rules, written once in :mod:`gstft.graphs`.
A JSON number is an int or a float, never a bool. Matrix and signal CSV may
carry one meta line before any data,

    # meta {"n": 8, "t": 1.0, "graph_sha256": "..."}

so downstream files self-describe their provenance. Writers join a document's
lines once for :func:`write_text_atomic` (temp file + rename); readers parse
each line as they reach it, the matrix reader into one complex128 array per
row. The graph codec stays in :mod:`gstft.graphs`, where perfbench times it.
"""
from __future__ import annotations

import hashlib
import json
import os
import stat
from collections.abc import Iterator

import numpy as np

from .graphs import _lines, _number_text

META_PREFIX = "# meta "
# The point count of 0:10:0.001, a grid 100 times as fine as the CLI's default
# 0:10:0.1 (not 100 times its 101 points); each point costs one heat kernel.
MAX_T_GRID_POINTS = 10_001


def _json_array(a: np.ndarray) -> list:
    """Arrays in JSON documents are nested lists; a complex entry becomes ``[re, im]``."""
    return (np.stack([a.real, a.imag], axis=-1) if np.iscomplexobj(a) else a).tolist()


def json_document(doc: dict) -> str:
    """``doc`` as one line of JSON: sorted keys, compact separators, arrays as nested lists."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_json_array) + "\n"


def meta_line(meta: dict) -> str:
    return META_PREFIX + json_document(meta).rstrip("\n")


def split_meta(text: str) -> tuple[dict, Iterator[tuple[int, str]]]:
    r"""Separate a leading metadata comment (if any) from the data lines, in one pass.

    Returns on reaching the meta line or the first data line; the data lines,
    stripped and with their 1-based line numbers, are handed out as they are
    reached. Other '#' comment lines and blank lines are dropped. A meta line
    that is not valid JSON, or that follows a meta or data line, raises
    ValueError naming its line. Lines follow :func:`gstft.graphs._lines`, so a
    lone "\r", in a data, comment or meta line, raises ValueError naming its
    line before that line is parsed or dropped, and an old-Mac "\r" line end
    never hides data in a comment.
    """
    def walk():  # the meta object (at the meta line or the first data line), then each data line
        leading = True  # no meta or data line reached yet
        for lineno, line in _lines(text):
            if line.startswith(META_PREFIX):
                if not leading:
                    raise ValueError(f"line {lineno}: a '# meta' line must come before the data, and only once")
                try:
                    meta = json.loads(line[len(META_PREFIX):])
                except json.JSONDecodeError as exc:
                    raise ValueError(f"line {lineno}: malformed '# meta' line: {exc}") from None
                leading = False
                yield meta
            elif line and not line.startswith("#"):
                if leading:
                    leading = False
                    yield {}
                yield lineno, line

    lines = walk()
    return next(lines, {}), lines


def signal_to_csv(values) -> str:
    """One "re,im" line per vertex."""
    values = np.asarray(values, dtype=np.complex128)
    return matrix_to_csv(np.column_stack([values.real, values.imag]))


def signal_from_csv(text: str) -> np.ndarray:
    """Parse "re,im" lines ("re" alone means a real value); errors name the line.

    NaN and infinite values are refused.
    """
    values = []
    for lineno, line in split_meta(text)[1]:
        if not _number_text(line):
            raise ValueError(f"line {lineno}: a number must be ASCII text with no '_', got {line!r}")
        parts = line.split(",")
        if len(parts) > 2:
            raise ValueError(f"line {lineno}: expected 're' or 're,im', got {line!r}")
        try:
            values.append(complex(*(float(part) for part in parts)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not np.isfinite(values[-1]):
            raise ValueError(f"line {lineno}: non-finite value {line!r}")
    if not values:
        raise ValueError("no signal values")
    return np.asarray(values, dtype=np.complex128)


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
    return "\n".join([*lines, ""]) or "\n"  # a matrix with no rows and no meta is one empty line


def csv_cell(value) -> str:
    """A table cell: ``true``/``false``, a bare integer, or a float with 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return "%.17g" % value


def csv_table(meta: dict, columns, rows) -> str:
    """A meta line, a header naming ``columns``, then one line per row."""
    lines = [meta_line(meta), ",".join(columns)]
    lines.extend(",".join(csv_cell(x) for x in row) for row in rows)
    return "\n".join([*lines, ""])


def matrix_from_csv(text: str) -> tuple[np.ndarray, dict]:
    """Parse a matrix CSV into a complex128 array and its metadata; errors name the row and line.

    NaN and infinite entries are refused.
    """
    meta, lines = split_meta(text)
    rows = []
    for row, (lineno, line) in enumerate(lines, start=1):
        if not _number_text(line):
            raise ValueError(f"row {row} (line {lineno}): a number must be ASCII text with no '_'")
        try:  # one row of Python complex at a time; ``cell :=`` keeps the text complex() refuses
            rows.append(np.array([complex(cell := entry) for entry in line.split(",")], dtype=np.complex128))
        except ValueError:
            raise ValueError(f"row {row} (line {lineno}): invalid complex value {cell!r}") from None
        if len(rows[-1]) != len(rows[0]):
            raise ValueError(
                f"row {row} (line {lineno}) has {len(rows[-1])} entries but row 1 has {len(rows[0])}"
            )
        if not np.isfinite(rows[-1]).all():
            raise ValueError(f"row {row} (line {lineno}): non-finite entry")
    if not rows:
        raise ValueError("no matrix rows")
    return np.asarray(rows, dtype=np.complex128), meta


def coefficients_from_json(text: str) -> tuple[np.ndarray, object]:
    """The complex128 ``matrix`` of a JSON coefficient document and its unchecked ``meta`` (default {})."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ValueError("document has no 'matrix' key")
    pairs = np.array(doc["matrix"], dtype=object)  # entries keep their JSON types; ragged rows give another shape
    try:  # a (rows, columns, 2) array of int and float entries, none an integer beyond float range
        if pairs.ndim != 3 or pairs.shape[-1] != 2 or not set(map(type, pairs.flat)) <= {int, float}:
            raise TypeError
        matrix = pairs.astype(np.float64).view(np.complex128)[..., 0]
    except (TypeError, OverflowError):
        raise ValueError("'matrix' must be a list of equal-length rows, each entry a [re, im] pair of numbers") from None
    if not np.isfinite(matrix).all():
        raise ValueError("'matrix' entries must be finite")
    return matrix, doc.get("meta", {})


def coefficient_meta(meta) -> dict:
    """``meta`` if it is an object whose ``n``, ``t`` and ``graph_sha256`` are well typed where present."""
    if not isinstance(meta, dict):
        raise ValueError("'meta' must be an object")
    for key, types, kind in (("n", int, "an integer"), ("t", (int, float), "a number"),
                             ("graph_sha256", str, "a string")):
        if key in meta and (isinstance(meta[key], bool) or not isinstance(meta[key], types)):
            raise ValueError(f"meta '{key}' must be {kind}")
    return meta


def parse_t_grid(text: str) -> np.ndarray:
    """Parse "start:stop:step" into an inclusive strictly ascending nonnegative finite grid.

    Grids of more than ``MAX_T_GRID_POINTS`` points are refused before allocating,
    and grids whose points collapse under rounding once built.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"t-grid must be start:stop:step, got {text!r}")
    try:  # a part outside the number grammar leaves too few values to unpack
        start, stop, step = (float(p) for p in parts if _number_text(p))
    except ValueError:
        raise ValueError(f"t-grid values must be numbers, got {text!r}") from None
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
    grid = start + step * np.arange(int(count))
    if (np.diff(grid) <= 0).any():
        raise ValueError(f"t-grid {text!r} has repeated points; its step is lost to rounding")
    return grid


def graph_sha256(serialized: str) -> str:
    return hashlib.sha256(serialized.encode("utf-8")).hexdigest()


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` where ``open(path, "w")`` would, replacing a regular file atomically.

    A symlink is followed, so its target gets the text and the link stays a
    link. A FIFO, device or other file that is not a regular file is written in
    place, with no temp file. Otherwise the text goes to a uniquely named temp
    file in the target's directory, which is then renamed into place:
    concurrent writers never share a temp file, and a failed write removes its
    temp file and leaves ``path`` untouched. An existing file keeps its
    permission bits; a new one gets those of a plain ``open(path, "w")``, as
    the temp file is created exclusively (mode ``"x"``).
    """
    path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    tmp_path = f"{path}.{os.urandom(8).hex()}.tmp"
    handle = open(tmp_path, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        if mode is not None:
            os.chmod(tmp_path, mode & 0o777)
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise
