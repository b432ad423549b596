"""Command-line front end.

Subcommands: gen, spectrum, heat, gstft, reconstruct, frame-report,
sweep-decay, spectrogram. Outputs are plot-ready CSV (default) or JSON,
written atomically; every invocation is deterministic given its inputs and
seed, so repeated runs produce byte-identical files. Errors print a single
"error: ..." line on stderr and exit with status 1.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import classical, gabor, graphs, heat, spectral
from .formats import (
    format_float,
    graph_sha256,
    matrix_from_csv,
    matrix_to_csv,
    meta_line,
    parse_t_grid,
    signal_from_csv,
    signal_to_csv,
    write_text_atomic,
)

FAMILIES = (
    "ring",
    "complete",
    "hypercube",
    "petersen",
    "shrikhande",
    "random-regular",
    "from-edgelist",
)
DEFAULT_T_GRID = "0:10:0.1"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        write_text_atomic(path, text)


def _companion_path(path: str, suffix: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_{suffix}{ext or '.csv'}"


def _json_dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _complex_pairs(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _require(value, flag: str, context: str):
    if value is None:
        raise ValueError(f"{flag} is required for {context}")
    return value


def _build_family(args) -> graphs.Graph:
    family = args.family
    if family is None:
        raise ValueError("--family is required")
    if family == "ring":
        return graphs.ring_graph(_require(args.n, "--n", "ring"))
    if family == "complete":
        return graphs.complete_graph(_require(args.n, "--n", "complete"))
    if family == "hypercube":
        return graphs.hypercube_graph(_require(args.d, "--d", "hypercube"))
    if family == "petersen":
        return graphs.petersen_graph()
    if family == "shrikhande":
        return graphs.shrikhande_graph()
    if family == "random-regular":
        n = _require(args.n, "--n", "random-regular")
        k = _require(args.k, "--k", "random-regular")
        return graphs.random_regular_graph(n, k, args.seed)
    if family == "from-edgelist":
        path = _require(args.edgelist, "--edgelist", "from-edgelist")
        return graphs.graph_from_edge_list_text(_read_text(path), args.n)
    raise ValueError(f"unknown family {family!r}")


def _resolve_graph(args) -> graphs.Graph:
    if (args.graph is None) == (args.family is None):
        raise ValueError("exactly one graph source is required: --graph FILE or --family NAME")
    if args.graph is not None:
        return graphs.deserialize(_read_text(args.graph))
    return _build_family(args)


def _graph_meta(g: graphs.Graph) -> dict:
    return {"n": g.n, "graph_sha256": graph_sha256(graphs.serialize(g))}


def _decompose(g: graphs.Graph) -> spectral.SpectralDecomposition:
    return spectral.decompose(spectral.laplacian(g))


def _resolve_t_grid(args) -> np.ndarray:
    if args.t is not None and args.t_grid is not None:
        raise ValueError("--t and --t-grid are mutually exclusive")
    if args.t is not None:
        if args.t < 0:
            raise ValueError(f"t must be nonnegative, got {args.t}")
        return np.array([args.t])
    grid = parse_t_grid(args.t_grid if args.t_grid is not None else DEFAULT_T_GRID)
    if grid.size == 0:
        raise ValueError("t-grid is empty")
    return grid


def cmd_gen(args) -> None:
    g = _build_family(args)
    _write_output(args.out, graphs.serialize(g) + "\n")


def cmd_spectrum(args) -> None:
    g = _resolve_graph(args)
    dec = _decompose(g)
    if args.format == "json":
        doc = {
            "meta": _graph_meta(g),
            "eigenvalues": dec.eigenvalues.tolist(),
            "eigenvectors": dec.eigenvectors.tolist(),
        }
        text = _json_dump(doc)
    else:
        table = np.column_stack([dec.eigenvalues, dec.eigenvectors])
        text = matrix_to_csv(table)
    _write_output(args.out, text)
    print(format_float(dec.fiedler_value))


def cmd_heat(args) -> None:
    g = _resolve_graph(args)
    if args.t is None:
        raise ValueError("--t is required")
    hk = heat.heat_kernel(_decompose(g), args.t)
    if args.format == "json":
        doc = {
            "meta": {**_graph_meta(g), "t": hk.t},
            "matrix": hk.matrix.tolist(),
        }
        text = _json_dump(doc)
    else:
        text = matrix_to_csv(hk.matrix)
    _write_output(args.out, text)


def cmd_gstft(args) -> None:
    g = _resolve_graph(args)
    if args.t is None:
        raise ValueError("--t is required")
    f = signal_from_csv(_read_text(args.signal))
    dec = _decompose(g)
    hk = heat.heat_kernel(dec, args.t)
    coeffs = gabor.gstft(dec, hk, f)
    meta = {**_graph_meta(g), "t": hk.t}
    if args.format == "json":
        text = _json_dump({"meta": meta, "matrix": _complex_pairs(coeffs.matrix)})
    else:
        text = matrix_to_csv(coeffs.matrix, complex_entries=True, meta=meta)
    _write_output(args.out, text)


def _read_coefficients(path: str) -> tuple[np.ndarray, dict]:
    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        if "matrix" not in doc:
            raise ValueError(f"coefficient file {path} has no 'matrix' key")
        matrix = np.array(
            [[complex(re, im) for re, im in row] for row in doc["matrix"]],
            dtype=np.complex128,
        )
        return matrix, doc.get("meta", {})
    return matrix_from_csv(text, complex_entries=True)


def cmd_reconstruct(args) -> None:
    g = _resolve_graph(args)
    matrix, meta = _read_coefficients(args.coeffs)
    if "n" in meta and meta["n"] != g.n:
        raise ValueError(f"coefficient file is for n={meta['n']} but graph has n={g.n}")
    if matrix.shape != (g.n, g.n):
        raise ValueError(f"coefficient matrix shape {matrix.shape} does not match n={g.n}")
    if "graph_sha256" in meta:
        actual = graph_sha256(graphs.serialize(g))
        if meta["graph_sha256"] != actual:
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
    if args.format == "json":
        doc = {
            "meta": {**_graph_meta(g), "t": hk.t},
            "signal": [[float(z.real), float(z.imag)] for z in f],
        }
        text = _json_dump(doc)
    else:
        text = signal_to_csv(f)
    _write_output(args.out, text)


def _report_rows(reports) -> list[dict]:
    return [
        {
            "t": r.t,
            "A": r.bound_a,
            "B": r.bound_b,
            "gap": r.gap,
            "ratio": r.ratio,
            "tight": r.tight,
        }
        for r in reports
    ]


def cmd_frame_report(args) -> None:
    g = _resolve_graph(args)
    grid = _resolve_t_grid(args)
    sweep = gabor.tightness_sweep(_decompose(g), grid)
    meta = {**_graph_meta(g), "fiedler_value": sweep.fiedler_value}

    if args.format == "json":
        doc = {
            "meta": meta,
            "reports": _report_rows(sweep.reports),
            "gammas": [r.gammas.tolist() for r in sweep.reports],
        }
        _write_output(args.out, _json_dump(doc))
        return

    if args.out == "-":
        raise ValueError("frame-report CSV writes a companion file; --out must be a path")
    lines = [meta_line(meta), "t,A,B,gap,ratio,tight"]
    for r in sweep.reports:
        lines.append(
            ",".join(
                [
                    format_float(r.t),
                    format_float(r.bound_a),
                    format_float(r.bound_b),
                    format_float(r.gap),
                    format_float(r.ratio),
                    "true" if r.tight else "false",
                ]
            )
        )
    _write_output(args.out, "\n".join(lines) + "\n")

    gamma_header = "t," + ",".join(f"gamma_{j}" for j in range(g.n))
    gamma_lines = [meta_line(meta), gamma_header]
    for r in sweep.reports:
        gamma_lines.append(
            format_float(r.t) + "," + ",".join(format_float(x) for x in r.gammas)
        )
    _write_output(_companion_path(args.out, "gammas"), "\n".join(gamma_lines) + "\n")


def cmd_sweep_decay(args) -> None:
    if not args.k_list.strip():
        raise ValueError("--k-list must name at least one degree")
    k_values = [int(part) for part in args.k_list.split(",") if part.strip()]
    if not k_values:
        raise ValueError("--k-list must name at least one degree")
    grid = parse_t_grid(args.t_grid if args.t_grid is not None else DEFAULT_T_GRID)

    rows = []
    for k in k_values:
        g = graphs.random_regular_graph(args.n, k, args.seed)
        sweep = gabor.tightness_sweep(_decompose(g), grid)
        for t, gap in zip(sweep.ts, sweep.gaps):
            rows.append({"k": k, "lambda2": sweep.fiedler_value, "t": float(t), "gap": float(gap)})

    meta = {"n": args.n, "seed": args.seed, "k_list": k_values}
    if args.format == "json":
        _write_output(args.out, _json_dump({"meta": meta, "rows": rows}))
        return
    lines = [meta_line(meta), "k,lambda2,t,gap"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row["k"]),
                    format_float(row["lambda2"]),
                    format_float(row["t"]),
                    format_float(row["gap"]),
                ]
            )
        )
    _write_output(args.out, "\n".join(lines) + "\n")


def cmd_spectrogram(args) -> None:
    if args.signal is not None and args.n is not None:
        raise ValueError("use either --signal FILE or --n LENGTH, not both")
    if args.signal is not None:
        f = signal_from_csv(_read_text(args.signal))
    else:
        f = classical.piecewise_cosine(args.n if args.n is not None else 256)
    n = f.size

    if args.window == "delta":
        window = classical.delta_window(n)
    else:
        window = classical.boxcar_window(n, args.width)

    power = classical.spectrogram(f, window)
    f_hat = classical.dft(f)
    dft_power = (f_hat * f_hat.conj()).real
    meta = {"n": n, "window": args.window, "width": args.width if args.window == "boxcar" else 1}

    if args.format == "json":
        doc = {
            "meta": meta,
            "spectrogram": power.tolist(),
            "dft_magnitude": dft_power.tolist(),
        }
        _write_output(args.out, _json_dump(doc))
        return
    if args.out == "-":
        raise ValueError("spectrogram CSV writes a companion file; --out must be a path")
    _write_output(args.out, matrix_to_csv(power, meta=meta))
    dft_lines = [meta_line(meta)]
    dft_lines.extend(format_float(x) for x in dft_power)
    _write_output(_companion_path(args.out, "dft"), "\n".join(dft_lines) + "\n")


def _add_family_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=FAMILIES, help="graph family to generate")
    parser.add_argument("--n", type=int, help="vertex count (ring, complete, random-regular)")
    parser.add_argument("--k", type=int, help="degree (random-regular)")
    parser.add_argument("--d", type=int, help="dimension (hypercube)")
    parser.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    parser.add_argument("--edgelist", metavar="FILE", help="edge-list text file (from-edgelist)")


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", metavar="FILE", help="graph JSON file")
    _add_family_source(parser)


def _add_common_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--t", type=float, help="window time (>= 0)")
    _add_common_output(p)
    p.set_defaults(func=cmd_heat)

    p = sub.add_parser("gstft", help="transform a vertex signal")
    _add_graph_source(p)
    p.add_argument("--signal", required=True, metavar="FILE", help="signal CSV ('re,im' per line)")
    p.add_argument("--t", type=float, help="window time (>= 0)")
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
    p.add_argument("--t", type=float, help="single window time")
    p.add_argument("--t-grid", metavar="A:B:STEP", help=f"inclusive time grid (default {DEFAULT_T_GRID})")
    _add_common_output(p)
    p.set_defaults(func=cmd_frame_report)

    p = sub.add_parser("sweep-decay", help="gap decay dataset for random regular graphs")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--k-list", required=True, metavar="K1,K2,...", help="degrees to sweep")
    p.add_argument("--seed", type=int, default=0, help="pairing-model seed (default 0)")
    p.add_argument("--t-grid", metavar="A:B:STEP", help=f"inclusive time grid (default {DEFAULT_T_GRID})")
    _add_common_output(p)
    p.set_defaults(func=cmd_sweep_decay)

    p = sub.add_parser("spectrogram", help="DFT magnitude and windowed-transform spectrogram")
    p.add_argument("--signal", metavar="FILE", help="signal CSV; default is the built-in piecewise cosine")
    p.add_argument("--n", type=int, help="length of the built-in signal (default 256)")
    p.add_argument("--window", choices=("boxcar", "delta"), default="boxcar", help="window shape")
    p.add_argument("--width", type=int, default=32, help="boxcar width (default 32)")
    _add_common_output(p)
    p.set_defaults(func=cmd_spectrogram)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # single reporting point: one parseable line on stderr
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
