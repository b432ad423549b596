"""Command-line front end.

Subcommands: gen, spectrum, heat, gstft, reconstruct, frame-report,
sweep-decay, spectrogram. Each report command hands one writer a way to
render its JSON document and its CSV text; the writer renders only the format
``--format`` asks for (CSV by default) and writes it atomically. A CSV report
may add a companion file named ``<root>_<suffix><ext or .csv>`` next to
``--out``, which must then be a path. Every invocation is deterministic given
its inputs and seed, so repeated runs produce byte-identical files. Errors,
usage errors included, print a single "error: ..." line on stderr and exit
with status 1. A value that starts with ``-`` but is not a plain negative
number must be attached to its option: ``--t=-inf``, ``--t-grid=-1:1:0.5``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import classical, gabor, graphs, heat, spectral
from .formats import (
    graph_sha256,
    matrix_from_csv,
    matrix_to_csv,
    meta_line,
    parse_t_grid,
    signal_from_csv,
    signal_to_csv,
    write_text_atomic,
)

DEFAULT_T_GRID = "0:10:0.1"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _read_signal(path: str) -> np.ndarray:
    text = _read_text(path)
    try:
        return signal_from_csv(text)
    except ValueError as exc:
        raise ValueError(f"signal file {path}: {exc}") from None


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            write_text_atomic(path, text)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _write_report(args, doc, csv, companion=None) -> None:
    """Render and write only the format ``--format`` names. ``doc`` and ``csv``
    return the JSON document and the CSV text; ``companion`` is an optional
    ``(suffix, render)`` pair for a second CSV file next to ``--out``."""
    if args.format == "json":
        text = json.dumps(doc(), sort_keys=True, separators=(",", ":"), default=_json_array)
        _write_output(args.out, text + "\n")
        return
    if companion is not None and args.out == "-":
        raise ValueError(f"{args.command} CSV writes a companion file; --out must be a path")
    _write_output(args.out, csv())
    if companion is not None:
        suffix, render = companion
        root, ext = os.path.splitext(args.out)
        _write_output(f"{root}_{suffix}{ext or '.csv'}", render())


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return "%.17g" % value


def _csv_table(meta: dict, columns, rows) -> str:
    """A meta line, a header naming ``columns``, then one line per row."""
    lines = [meta_line(meta), ",".join(columns)]
    lines.extend(",".join(_csv_cell(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_array(a: np.ndarray) -> list:
    """Arrays in JSON documents are nested lists; a complex entry becomes ``[re, im]``."""
    return (np.stack([a.real, a.imag], axis=-1) if np.iscomplexobj(a) else a).tolist()


def _require(args, name: str):
    """The value of ``--<name>``, which the chosen family needs."""
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"--{name} is required for {args.family}")
    return value


# Family name -> builder from the parsed arguments; the keys are --family's choices.
FAMILIES = {
    "ring": lambda args: graphs.ring_graph(_require(args, "n")),
    "complete": lambda args: graphs.complete_graph(_require(args, "n")),
    "hypercube": lambda args: graphs.hypercube_graph(_require(args, "d")),
    "petersen": lambda args: graphs.petersen_graph(),
    "shrikhande": lambda args: graphs.shrikhande_graph(),
    "random-regular": lambda args: graphs.random_regular_graph(
        _require(args, "n"), _require(args, "k"), args.seed
    ),
    "from-edgelist": lambda args: graphs.graph_from_edge_list_text(
        _read_text(_require(args, "edgelist")), args.n
    ),
}


def _resolve_graph(args) -> graphs.Graph:
    if args.graph is not None:
        return graphs.deserialize(_read_text(args.graph))
    return FAMILIES[args.family](args)


def _graph_meta(g: graphs.Graph, **extra) -> dict:
    return {"n": g.n, "graph_sha256": graph_sha256(graphs.serialize(g)), **extra}


def _decompose(g: graphs.Graph) -> spectral.SpectralDecomposition:
    return spectral.decompose(spectral.laplacian(g))


def _resolve_t_grid(args) -> np.ndarray:
    if args.t is not None:
        return np.array([args.t])
    return parse_t_grid(args.t_grid if args.t_grid is not None else DEFAULT_T_GRID)


def cmd_gen(args) -> None:
    g = FAMILIES[args.family](args)
    _write_output(args.out, graphs.serialize(g) + "\n")


def cmd_spectrum(args) -> None:
    g = _resolve_graph(args)
    dec = _decompose(g)
    _write_report(
        args,
        lambda: {"meta": _graph_meta(g), "eigenvalues": dec.eigenvalues, "eigenvectors": dec.eigenvectors},
        lambda: matrix_to_csv(np.column_stack([dec.eigenvalues, dec.eigenvectors])),
    )
    print("%.17g" % dec.fiedler_value)


def cmd_heat(args) -> None:
    g = _resolve_graph(args)
    hk = heat.heat_kernel(_decompose(g), args.t)
    _write_report(
        args,
        lambda: {"meta": _graph_meta(g, t=hk.t), "matrix": hk.matrix},
        lambda: matrix_to_csv(hk.matrix),
    )


def cmd_gstft(args) -> None:
    g = _resolve_graph(args)
    f = _read_signal(args.signal)
    dec = _decompose(g)
    hk = heat.heat_kernel(dec, args.t)
    coeffs = gabor.gstft(dec, hk, f)
    meta = _graph_meta(g, t=hk.t)
    _write_report(
        args,
        lambda: {"meta": meta, "matrix": coeffs.matrix},
        lambda: matrix_to_csv(coeffs.matrix, meta=meta),
    )


def _read_coefficients(path: str) -> tuple[np.ndarray, dict]:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        matrix, meta = _json_coefficients(path, text)
    else:
        try:
            matrix, meta = matrix_from_csv(text)
        except ValueError as exc:
            raise ValueError(f"coefficient file {path}: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"coefficient file {path}: 'meta' must be an object")
    for key, types, kind in (("n", int, "an integer"), ("t", (int, float), "a number"),
                             ("graph_sha256", str, "a string")):
        if key in meta and (isinstance(meta[key], bool) or not isinstance(meta[key], types)):
            raise ValueError(f"coefficient file {path}: meta '{key}' must be {kind}")
    return matrix, meta


def _json_coefficients(path: str, text: str) -> tuple[np.ndarray, object]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"coefficient file {path} is not valid JSON: {exc}") from exc
    if "matrix" not in doc:
        raise ValueError(f"coefficient file {path} has no 'matrix' key")
    rows = doc["matrix"]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == len(rows[0]) for row in rows
    ):
        raise ValueError(f"coefficient file {path}: 'matrix' must be a list of equal-length rows")
    try:
        matrix = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128)
    except (TypeError, ValueError):
        raise ValueError(f"coefficient file {path}: each 'matrix' entry must be a [re, im] pair of numbers") from None
    if not np.isfinite(matrix).all():
        raise ValueError(f"coefficient file {path}: 'matrix' entries must be finite")
    return matrix, doc.get("meta", {})


def cmd_reconstruct(args) -> None:
    g = _resolve_graph(args)
    matrix, meta = _read_coefficients(args.coeffs)
    if "n" in meta and meta["n"] != g.n:
        raise ValueError(f"coefficient file is for n={meta['n']} but graph has n={g.n}")
    if matrix.shape != (g.n, g.n):
        raise ValueError(f"coefficient matrix shape {matrix.shape} does not match n={g.n}")
    graph_meta = _graph_meta(g)  # serializing and hashing a large graph is costly: do it once
    if "graph_sha256" in meta and meta["graph_sha256"] != graph_meta["graph_sha256"]:
        raise ValueError("coefficient file was produced from a different graph")
    meta_t = meta.get("t")
    if args.t is None and meta_t is None:
        raise ValueError("no window time available: pass --t or use a coefficient file with metadata")
    if args.t is not None and meta_t is not None and args.t != meta_t:
        raise ValueError(f"--t {args.t} conflicts with coefficient metadata t={meta_t}")
    t = meta_t if meta_t is not None else args.t

    dec = _decompose(g)
    hk = heat.heat_kernel(dec, t)
    f = gabor.inverse_gstft(dec, hk, gabor.GstftCoefficients(t=hk.t, matrix=matrix))
    _write_report(
        args,
        lambda: {"meta": {**graph_meta, "t": hk.t}, "signal": f},
        lambda: signal_to_csv(f),
    )


def cmd_frame_report(args) -> None:
    g = _resolve_graph(args)
    grid = _resolve_t_grid(args)
    sweep = gabor.tightness_sweep(_decompose(g), grid)
    meta = _graph_meta(g, fiedler_value=sweep.fiedler_value)
    columns = ("t", "A", "B", "gap", "ratio", "tight")
    rows = [(r.t, r.bound_a, r.bound_b, r.gap, r.ratio, r.tight) for r in sweep.reports]
    gamma_columns = ("t", *(f"gamma_{j}" for j in range(g.n)))
    _write_report(
        args,
        lambda: {
            "meta": meta,
            "reports": [dict(zip(columns, row)) for row in rows],
            "gammas": [r.gammas for r in sweep.reports],
        },
        lambda: _csv_table(meta, columns, rows),
        ("gammas", lambda: _csv_table(meta, gamma_columns, ())
         + matrix_to_csv(np.column_stack([sweep.ts, [r.gammas for r in sweep.reports]]))),
    )


def cmd_sweep_decay(args) -> None:
    try:
        k_values = [int(part) for part in args.k_list.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--k-list must be comma-separated integers, got {args.k_list!r}") from None
    if not k_values:
        raise ValueError("--k-list must name at least one degree")
    seen = set()
    for k in k_values:  # a repeat would sample and sweep the same graph again
        if k in seen:
            raise ValueError(f"--k-list names degree {k} more than once")
        seen.add(k)
    grid = _resolve_t_grid(args)

    rows = []
    for k in k_values:
        g = graphs.random_regular_graph(args.n, k, args.seed)
        sweep = gabor.tightness_sweep(_decompose(g), grid)
        rows.extend((k, sweep.fiedler_value, float(t), float(gap)) for t, gap in zip(sweep.ts, sweep.gaps))

    meta = {"n": args.n, "seed": args.seed, "k_list": k_values}
    columns = ("k", "lambda2", "t", "gap")
    _write_report(
        args,
        lambda: {"meta": meta, "rows": [dict(zip(columns, row)) for row in rows]},
        lambda: _csv_table(meta, columns, rows),
    )


def cmd_spectrogram(args) -> None:
    # dstft holds N x N complex arrays (256 MiB each at N = 4096); refuse long signals up front
    if args.signal is not None:
        f = _read_signal(args.signal)
        n = f.size
    else:
        n = args.n if args.n is not None else 256
    if n > graphs.MAX_VERTICES:
        raise ValueError(f"signal length {n} exceeds the {graphs.MAX_VERTICES}-sample spectrogram limit")
    if args.signal is None:
        f = classical.piecewise_cosine(n)

    width = args.width if args.window == "boxcar" else 1  # the delta window is a width-1 boxcar
    power = classical.spectrogram(f, classical.boxcar_window(n, width))
    f_hat = classical.dft(f)
    dft_power = (f_hat * f_hat.conj()).real
    meta = {"n": n, "window": args.window, "width": width}
    _write_report(
        args,
        lambda: {"meta": meta, "spectrogram": power, "dft_magnitude": dft_power},
        lambda: matrix_to_csv(power, meta=meta),
        ("dft", lambda: matrix_to_csv(dft_power[:, None], meta=meta)),
    )


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so :func:`main` reports them like any other."""

    def error(self, message):
        raise ValueError(message)


def _add_family_source(parser: argparse.ArgumentParser, group=None) -> None:
    """Add --family and its parameters; --family joins ``group`` if given, else it is required."""
    (group or parser).add_argument(
        "--family", choices=FAMILIES, required=group is None, help="graph family to generate"
    )
    parser.add_argument("--n", type=int, help="vertex count (ring, complete, random-regular)")
    parser.add_argument("--k", type=int, help="degree (random-regular)")
    parser.add_argument("--d", type=int, help="dimension (hypercube)")
    parser.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    parser.add_argument("--edgelist", metavar="FILE", help="edge-list text file (from-edgelist)")


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", metavar="FILE", help="graph JSON file")
    _add_family_source(parser, source)


def _add_common_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="gstft",
        description="Heat-windowed short-time Fourier analysis on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen", help="generate a graph and write its JSON document")
    _add_family_source(p)
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("spectrum", help="Laplacian eigendecomposition CSV; prints the Fiedler value")
    _add_graph_source(p)
    _add_common_output(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("heat", help="heat-kernel matrix at a fixed time")
    _add_graph_source(p)
    p.add_argument("--t", type=float, required=True, help="window time (>= 0)")
    _add_common_output(p)
    p.set_defaults(func=cmd_heat)

    p = sub.add_parser("gstft", help="transform a vertex signal")
    _add_graph_source(p)
    p.add_argument("--signal", required=True, metavar="FILE", help="signal CSV ('re,im' per line)")
    p.add_argument("--t", type=float, required=True, help="window time (>= 0)")
    _add_common_output(p)
    p.set_defaults(func=cmd_gstft)

    p = sub.add_parser("reconstruct", help="invert a coefficient file back to a signal")
    _add_graph_source(p)
    p.add_argument("--coeffs", required=True, metavar="FILE", help="coefficient file from 'gstft'")
    p.add_argument("--t", type=float, help="window time if the coefficient file lacks metadata")
    _add_common_output(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("frame-report", help="frame bounds A, B, gap, ratio over a time grid")
    _add_graph_source(p)
    times = p.add_mutually_exclusive_group()
    times.add_argument("--t", type=float, help="single window time")
    times.add_argument("--t-grid", metavar="A:B:STEP", help=f"inclusive time grid (default {DEFAULT_T_GRID})")
    _add_common_output(p)
    p.set_defaults(func=cmd_frame_report)

    p = sub.add_parser("sweep-decay", help="gap decay dataset for random regular graphs")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--k-list", required=True, metavar="K1,K2,...", help="degrees to sweep")
    p.add_argument("--seed", type=int, default=0, help="pairing-model seed (default 0)")
    p.add_argument("--t-grid", metavar="A:B:STEP", help=f"inclusive time grid (default {DEFAULT_T_GRID})")
    _add_common_output(p)
    p.set_defaults(func=cmd_sweep_decay, t=None)

    p = sub.add_parser("spectrogram", help="DFT magnitude and windowed-transform spectrogram")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--signal", metavar="FILE", help="signal CSV; default is the built-in piecewise cosine")
    source.add_argument("--n", type=int, help="length of the built-in signal (default 256)")
    p.add_argument("--window", choices=("boxcar", "delta"), default="boxcar", help="window shape")
    p.add_argument("--width", type=int, default=32, help="boxcar width (default 32)")
    _add_common_output(p)
    p.set_defaults(func=cmd_spectrogram)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except Exception as exc:  # single reporting point: one parseable line on stderr
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
