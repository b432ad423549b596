"""Command-line front end.

Subcommands: gen, spectrum, heat, gstft, reconstruct, frame-report,
spectrogram. Every graph command, ``gen`` included, takes its graph from a
``--graph`` file (JSON or edge-list text) or from ``--family``: ring and
complete read ``--n``, hypercube ``--d``, random-regular ``--n``, ``--k``
and ``--seed`` (0 by default), petersen, shrikhande and ``--graph`` none,
and an option the source does not read is refused ("error: --n does not
apply to --family petersen"). A report command renders only the format
``--format`` asks for (CSV by default) and writes it where ``open()`` would;
a CSV report may add a companion file ``<root>_<suffix><ext or .csv>`` next
to ``--out``, which must then be a path. The graph report commands
(spectrum, heat, gstft, reconstruct, frame-report) run one pipeline: resolve
the graph, check the inputs, decompose, compute, write. Every command
refuses inputs in three tiers, each before any costly work: usage errors
(argparse's, and an option the graph source does not read); then each input
file, read and checked whole, the graph (or its ``--family``) first; then
argument values (times, ``--width``, a companion's ``--out``). Every
invocation is deterministic given its inputs and seed, so repeated runs
write byte-identical files. Errors, usage errors included, print a single
"error: ..." line on stderr and exit with status 1. A number argument keeps
the files' number grammar, ASCII text with no "_". A value that starts with
``-`` but is not a plain negative number must be attached to its option:
``--t=-inf``, ``--t-grid=-1:1:0.5``.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys

import numpy as np

from . import classical, formats, gabor, graphs, heat, spectral
# perfbench's traced replay times these four by wrapping them here, so calls go through these names.
from .formats import matrix_from_csv, matrix_to_csv, signal_from_csv, write_text_atomic

DEFAULT_T_GRID = "0:10:0.1"


def _number(parse):
    """``parse`` of text in the number grammar (:func:`gstft.graphs._number_text`), else ValueError; named
    as ``parse`` is, so argparse refuses "--n 1_0" with "invalid int value: '1_0'"."""
    def number(text: str):
        if not graphs._number_text(text):
            raise ValueError(f"{text!r} is not in the number grammar")
        return parse(text)
    number.__name__ = parse.__name__
    return number


_INT, _FLOAT = _number(int), _number(float)


def _read(path: str, kind: str, parse, check=lambda value: value, parse_json=None):
    """``check(parse(text))`` of the UTF-8 text in ``path`` after one leading byte-order mark, with
    ``parse_json`` in place of ``parse`` when it is given and the text's first non-blank character is '{'.
    A ValueError of either is prefixed "<kind> file <path>: ", and a file that cannot be read raises
    "cannot read <path>: ..."."""
    try:
        with open(path, "r", encoding="utf-8") as handle:  # not utf-8-sig: byte offsets in errors stay the file's
            text = handle.read().removeprefix("\ufeff")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if parse_json is not None and text.lstrip().startswith("{"):
        parse = parse_json
    try:
        return check(parse(text))
    except ValueError as exc:
        raise ValueError(f"{kind} file {path}: {exc}") from None


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            write_text_atomic(path, text)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _write_report(args, doc, csv, companion=None, suffix=None) -> None:
    """Render and write only the format ``--format`` names. ``doc`` and ``csv`` return the JSON
    document and the CSV text, and ``companion`` the text of a second CSV file
    ``<root>_<suffix><ext or .csv>`` next to ``--out``, which :func:`_require_companion_path` allowed."""
    if args.format == "json":
        _write_output(args.out, formats.json_document(doc()))
        return
    _write_output(args.out, csv())
    if companion is not None:
        root, ext = os.path.splitext(args.out)
        _write_output(f"{root}_{suffix}{ext or '.csv'}", companion())


def _require_companion_path(args) -> None:
    if args.format == "csv" and args.out == "-":
        raise ValueError(f"{args.command} CSV writes a companion file; --out must be a path")


# The options a family may read, each with its help text.
FAMILY_OPTIONS = {"n": "vertex count", "k": "degree", "d": "dimension", "seed": "generator seed, default 0"}

# Family name -> (builder, the options it reads in argument order); the keys are --family's choices.
FAMILIES = {
    "ring": (graphs.ring_graph, ("n",)),
    "complete": (graphs.complete_graph, ("n",)),
    "hypercube": (graphs.hypercube_graph, ("d",)),
    "petersen": (graphs.petersen_graph, ()),
    "shrikhande": (graphs.shrikhande_graph, ()),
    "random-regular": (graphs.random_regular_graph, ("n", "k", "seed")),
}


def _resolve_graph(args) -> graphs.Graph:
    """The graph ``--graph`` or ``--family`` names; an option its source does not read is refused first."""
    build, reads = FAMILIES.get(args.family, (None, ()))
    for name in FAMILY_OPTIONS:
        if getattr(args, name) is not None and name not in reads:
            raise ValueError(f"--{name} does not apply to " + (f"--family {args.family}" if build else "--graph"))
    if build is None:
        return _read(args.graph, "graph", graphs.graph_from_edge_list_text, parse_json=graphs.deserialize)
    for name in reads:
        if getattr(args, name) is None and name != "seed":
            raise ValueError(f"--{name} is required for {args.family}")
    return build(*(getattr(args, name) or 0 for name in reads))  # an unset --seed is 0


def _graph_meta(g: graphs.Graph, **extra) -> dict:
    return {"n": g.n, "graph_sha256": formats.graph_sha256(graphs.serialize(g)), **extra}


def _graph_report(args, inputs, compute, suffix=None) -> spectral.SpectralDecomposition:
    """Run a graph report command in the one order that refuses every input before any decomposition,
    and return the decomposition: resolve the graph ``g``; ``inputs(g)`` reads and checks every other
    input file, then every argument value, and a CSV report with a companion file, named by its
    ``suffix``, needs an ``--out`` path; decompose into ``dec``; ``compute(g, dec, *inputs)`` returns
    the renderers :func:`_write_report` takes; write them."""
    g = _resolve_graph(args)
    values = inputs(g)
    if suffix is not None:
        _require_companion_path(args)
    dec = spectral.decompose(spectral.laplacian(g))
    _write_report(args, *compute(g, dec, *values), suffix=suffix)
    return dec


def cmd_gen(args) -> None:
    g = _resolve_graph(args)
    _write_output(args.out, graphs.serialize(g) + "\n")


def cmd_spectrum(args) -> None:
    def compute(g, dec):
        dec.fiedler_value  # a one-vertex graph is refused before writing
        return (lambda: {"meta": _graph_meta(g), "eigenvalues": dec.eigenvalues, "eigenvectors": dec.eigenvectors},
                lambda: matrix_to_csv(np.column_stack([dec.eigenvalues, dec.eigenvectors])))

    dec = _graph_report(args, lambda g: (), compute)
    if args.out != "-":  # on stdout the document stands alone
        print(formats.csv_cell(dec.fiedler_value))


def cmd_heat(args) -> None:
    def compute(g, dec, t):
        hk = heat.heat_kernel(dec, t)
        return lambda: {"meta": _graph_meta(g, t=hk.t), "matrix": hk.matrix}, lambda: matrix_to_csv(hk.matrix)

    _graph_report(args, lambda g: (heat._window_time(args.t),), compute)


def cmd_gstft(args) -> None:
    def inputs(g):
        f = _read(args.signal, "signal", signal_from_csv, lambda f: spectral.as_signal(f, g.n))
        return heat._window_time(args.t), f

    def compute(g, dec, t, f):
        hk = heat.heat_kernel(dec, t)
        coeffs = gabor.gstft(dec, hk, f)
        meta = _graph_meta(g, t=hk.t)
        return lambda: {"meta": meta, "matrix": coeffs.matrix}, lambda: matrix_to_csv(coeffs.matrix, meta=meta)

    _graph_report(args, inputs, compute)


def cmd_reconstruct(args) -> None:
    def inputs(g):
        def check(decoded):
            matrix, meta = decoded
            meta = formats.coefficient_meta(meta)
            if "t" in meta:  # a bad time is an error in this file
                heat._window_time(meta["t"])
            if "n" in meta and meta["n"] != g.n:
                raise ValueError(f"coefficients are for n={meta['n']} but graph has n={g.n}")
            if matrix.shape != (g.n, g.n):
                raise ValueError(f"coefficient matrix shape {matrix.shape} does not match n={g.n}")
            graph_meta = _graph_meta(g)  # serializing and hashing a large graph is costly: do it once
            if "graph_sha256" in meta and meta["graph_sha256"] != graph_meta["graph_sha256"]:
                raise ValueError("coefficients were produced from a different graph")
            return matrix, meta, graph_meta

        matrix, meta, graph_meta = _read(args.coeffs, "coefficient", matrix_from_csv, check, formats.coefficients_from_json)
        t = meta.get("t", args.t)
        if t is None:
            raise ValueError("no window time available: pass --t or use a coefficient file with metadata")
        if args.t is not None and args.t != t:
            raise ValueError(f"--t {args.t} conflicts with coefficient metadata t={t}")
        return heat._window_time(t), matrix, graph_meta

    def compute(g, dec, t, matrix, graph_meta):
        hk = heat.heat_kernel(dec, t)
        f = gabor.inverse_gstft(dec, hk, gabor.GstftCoefficients(t=hk.t, matrix=matrix))
        return lambda: {"meta": {**graph_meta, "t": hk.t}, "signal": f}, lambda: formats.signal_to_csv(f)

    _graph_report(args, inputs, compute)


def cmd_frame_report(args) -> None:
    def inputs(g):
        return (formats.parse_t_grid(args.t_grid) if args.t is None else np.array([heat._window_time(args.t)]),)

    def compute(g, dec, grid):
        sweep = gabor.tightness_sweep(dec, grid)
        meta = _graph_meta(g, fiedler_value=sweep.fiedler_value)
        columns = ("t", "A", "B", "gap", "ratio", "tight")
        rows = [(r.t, r.bound_a, r.bound_b, r.gap, r.ratio, r.tight) for r in sweep.reports]
        gammas = [r.gammas for r in sweep.reports]
        gamma_columns = ("t", *(f"gamma_{j}" for j in range(g.n)))
        return (
            lambda: {"meta": meta, "reports": [dict(zip(columns, row)) for row in rows], "gammas": gammas},
            lambda: formats.csv_table(meta, columns, rows),
            lambda: formats.csv_table(meta, gamma_columns, ()) + matrix_to_csv(np.column_stack([sweep.ts, gammas])),
        )

    _graph_report(args, inputs, compute, suffix="gammas")


def cmd_spectrogram(args) -> None:
    def limited(n):  # dstft holds N x N complex arrays (256 MiB each at N = 4096): refuse long signals up front
        if n > graphs.MAX_VERTICES:
            raise ValueError(f"signal length {n} exceeds the {graphs.MAX_VERTICES}-sample spectrogram limit")
        return n

    if args.signal is None:
        f = classical.piecewise_cosine(limited(256 if args.n is None else args.n))
    else:
        f = _read(args.signal, "signal", signal_from_csv, lambda f: f[:limited(f.size)])  # all of f, checked
    n = f.size
    width = min(32, n) if args.width is None else args.width
    window = classical.boxcar_window(n, width)
    _require_companion_path(args)  # after the O(n) size checks, before the O(n^2 log n) spectrogram
    power = classical.spectrogram(f, window)
    f_hat = classical.dft(f)
    dft_power = (f_hat * f_hat.conj()).real
    meta = {"n": n, "window": "boxcar", "width": width}
    _write_report(
        args,
        lambda: {"meta": meta, "spectrogram": power, "dft_magnitude": dft_power},
        lambda: matrix_to_csv(power, meta=meta),
        lambda: matrix_to_csv(dft_power[:, None], meta=meta),
        suffix="dft",
    )


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so :func:`main` reports them like any other."""

    def error(self, message):
        raise ValueError(message)


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    """Add the required graph source, --graph or --family, and the options families read."""
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", metavar="FILE", help="graph file: a JSON document or edge-list text")
    source.add_argument("--family", choices=FAMILIES, help="graph family to generate")
    for name, text in FAMILY_OPTIONS.items():
        families = ", ".join(family for family, (_, reads) in FAMILIES.items() if name in reads)
        parser.add_argument(f"--{name}", type=_INT, help=f"{text} ({families} only)")


def _add_common_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="gstft",
        description="Heat-windowed short-time Fourier analysis on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen", help="write a graph's JSON document")
    _add_graph_source(p)
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("spectrum", help="Laplacian eigendecomposition; prints the Fiedler value when --out is a path")
    _add_graph_source(p)
    _add_common_output(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("heat", help="heat-kernel matrix at a fixed time")
    _add_graph_source(p)
    p.add_argument("--t", type=_FLOAT, required=True, help="window time (>= 0)")
    _add_common_output(p)
    p.set_defaults(func=cmd_heat)

    p = sub.add_parser("gstft", help="transform a vertex signal")
    _add_graph_source(p)
    p.add_argument("--signal", required=True, metavar="FILE", help="signal CSV ('re,im' per line)")
    p.add_argument("--t", type=_FLOAT, required=True, help="window time (>= 0)")
    _add_common_output(p)
    p.set_defaults(func=cmd_gstft)

    p = sub.add_parser("reconstruct", help="invert a coefficient file back to a signal")
    _add_graph_source(p)
    p.add_argument("--coeffs", required=True, metavar="FILE", help="coefficient file from 'gstft'")
    p.add_argument("--t", type=_FLOAT, help="window time if the coefficient file lacks metadata")
    _add_common_output(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("frame-report", help="frame bounds A, B, gap, ratio over a time grid")
    _add_graph_source(p)
    times = p.add_mutually_exclusive_group()
    times.add_argument("--t", type=_FLOAT, help="single window time")
    times.add_argument("--t-grid", default=DEFAULT_T_GRID, metavar="A:B:STEP", help="inclusive time grid (default %(default)s)")
    _add_common_output(p)
    p.set_defaults(func=cmd_frame_report)

    p = sub.add_parser("spectrogram", help="DFT magnitude and windowed-transform spectrogram")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--signal", metavar="FILE", help="signal CSV; default is the built-in piecewise cosine")
    source.add_argument("--n", type=_INT, help="length of the built-in signal (default 256)")
    p.add_argument("--width", type=_INT, help="boxcar window width, 1 for the unit impulse (default min(32, length))")
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


def run() -> None:
    """Process entry: run :func:`main` on ``sys.argv`` and exit with its status.

    ``gc.freeze()`` first moves every live object to the collector's permanent
    generation, so the full collections of interpreter shutdown skip the heap
    that numpy and the standard library built at import (~40 ms of CPU per
    process). Objects are still freed by reference count, and atexit handlers,
    the stdio flush and the exit status are as after :func:`main`. In-process
    callers use :func:`main`, which never freezes.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
