"""The three gstft workloads and the closed loop that times them.

Each workload is a single caller that waits for every operation before it
starts the next one, in this one process (subprocesses, where used, run one
at a time). Inputs come only from the workload seed. Operations are timed
without their correctness gates; a gate that fails, or an exception, marks
the operation failed and the loop goes on. Only operations whose gates passed
enter the timing metrics.

Every operation is timed twice: wall time, what a user waits, and CPU time
(user + system, of this process or of the CLI subprocesses). The bounded
metrics are CPU times scaled by the host's speed at the time, which a fixed
reference kernel measures between the steps of operations (see ``Reference``
and ``Steps``); wall times are reported beside them.
"""
from __future__ import annotations

import bisect
import contextlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from gstft import cli, formats, gabor, graphs, heat, spectral

import checks
from spans import Tracer, patched

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SUBPROCESS_TIMEOUT_S = 120
IMPORT_PROBE = "import time; s = time.process_time(); import gstft; print(time.process_time() - s)"


def child_env() -> dict[str, str]:
    """This environment (BLAS threads already pinned) with the checkout's sources first."""
    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": pythonpath}


def python(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], env=child_env(), capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S, check=False,
    )


def import_cpu_s() -> tuple[float, float]:
    """CPU time to import numpy and gstft in a fresh interpreter, and the wall time of it all."""
    start = time.perf_counter()
    proc = python(["-c", IMPORT_PROBE])
    if proc.returncode != 0:
        raise RuntimeError(f"importing gstft failed: {proc.stderr.strip()}")
    return float(proc.stdout), time.perf_counter() - start


def children_cpu_s() -> float:
    """CPU time of every child process this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Reference:
    """A fixed kernel, timed between timed steps, that tracks the host's speed.

    On a shared host, co-tenant load slows all single-threaded work alike, by
    up to 1.6x, switching from one second to the next and in phases of
    minutes. The kernel mixes what the program spends its time on
    (interpreted loops, row updates on small arrays, a BLAS product) and takes
    about ``NOMINAL_S`` on a quiet core of the host the benchmark was tuned
    on. A CPU time multiplied by ``scale(start, end)`` is that time at the
    nominal speed, as the kernel measured it around the interval. The kernel
    is benchmark code and its inputs are fixed, so no change to gstft moves it.
    """

    NOMINAL_S = 0.010
    SHARE = 0.05

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.standard_normal((64, 64))
        self.product = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, CPU seconds)
        self.started = time.perf_counter()
        self.total_s = 0.0

    def _kernel(self) -> None:
        total = 0.0
        for i in range(100_000):
            total += i * 0.5
        a = self.rows.copy()
        for i in range(1000):
            p = i % 63
            row_p, row_q = a[p, :].copy(), a[p + 1, :].copy()
            a[p, :] = 0.8 * row_p - 0.6 * row_q
            a[p + 1, :] = 0.6 * row_p + 0.8 * row_q
        for _ in range(3):
            self.product @ self.product

    def keep_up(self) -> None:
        """Time the kernel until it has had ``SHARE`` of the time so far."""
        while not self.samples or self.total_s < self.SHARE * (time.perf_counter() - self.started):
            now, start = time.perf_counter(), time.process_time()
            self._kernel()
            self.samples.append((now, time.process_time() - start))
            self.total_s += time.perf_counter() - now

    def scale(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the mean kernel time around ``[start, end]`` (``perf_counter`` times).

        The samples used are those started within one interval length before
        ``start`` or after ``end``, and at least the last one before and the
        first one after the interval: a long step is scaled by the host's
        speed over about as long as the step took, a short one by the nearest
        samples.
        """
        times = [t for t, _ in self.samples]
        span = end - start
        first = min(bisect.bisect_left(times, start - span), max(bisect.bisect_left(times, start) - 1, 0))
        last = max(bisect.bisect_right(times, end + span), bisect.bisect_left(times, end) + 1)
        return self.NOMINAL_S / statistics.fmean(cpu for _, cpu in self.samples[first:last])


class Steps:
    """The timed steps of one operation or of set-up.

    The reference kernel is timed before each step when it is behind its
    share, so every step is bracketed by samples and scaled by the host's
    speed around that step alone.
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        self.timed: list[tuple[float, float, float]] = []  # (perf_counter at start, wall s, CPU s)

    @contextlib.contextmanager
    def step(self, cpu_clock=time.process_time):
        self.reference.keep_up()
        start, cpu_start = time.perf_counter(), cpu_clock()
        try:
            yield
        finally:
            self.timed.append((start, time.perf_counter() - start, cpu_clock() - cpu_start))

    def wall_s(self) -> float:
        return sum(wall for _, wall, _ in self.timed)

    def cpu_s(self) -> float:
        return sum(cpu for _, _, cpu in self.timed)

    def scaled(self) -> list[float]:
        """Each step's CPU time at the reference speed."""
        return [cpu * self.reference.scale(start, start + wall) for start, wall, cpu in self.timed]


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _random_signal(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


@dataclass(frozen=True)
class CliConfig:
    sizes: tuple[int, ...] = (64, 128)


class CliRoundtrip:
    """``gstft gen`` -> ``gstft gstft --t 1.0`` -> ``gstft reconstruct``, as subprocesses.

    Sizes alternate so every size gets the same number of round trips. A
    traced run also replays each subcommand in process through
    ``gstft.cli.main`` with the layer names the CLI imports wrapped, and
    times ``python -c "import gstft"`` as the interpreter start-up cost.
    """

    name = "cli-roundtrip"
    min_ops = 2
    degree = 3
    t = 1.0

    def __init__(self, config: CliConfig = CliConfig()):
        self.config = config

    def setup(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def targets(self):
        return [
            (cli, "matrix_to_csv", "formats.matrix_to_csv"),
            (cli, "matrix_from_csv", "formats.matrix_from_csv", ("formats.bytes_read", 0)),
            (cli, "signal_from_csv", "formats.signal_from_csv", ("formats.bytes_read", 0)),
            (cli, "write_text_atomic", "formats.write_text_atomic", ("formats.bytes_written", 1)),
            (graphs, "deserialize", "graphs.deserialize"),
            (graphs, "random_regular_graph", "graphs.random_regular_graph"),
            (spectral, "laplacian", "spectral.laplacian"),
            (spectral, "decompose", "spectral.decompose"),
            (heat, "heat_kernel", "heat.heat_kernel"),
            (gabor, "gstft", "gabor.gstft"),
            (gabor, "inverse_gstft", "gabor.inverse_gstft"),
        ]

    def _argvs(self, n: int, seed: int, tag: str) -> list[list[str]]:
        d = self.workdir
        graph, coeffs, out = d / f"graph{tag}.json", d / f"coeffs{tag}.csv", d / f"out{tag}.csv"
        return [
            ["gen", "--family", "random-regular", "--n", str(n), "--k", str(self.degree),
             "--seed", str(seed), "--out", str(graph)],
            ["gstft", "--graph", str(graph), "--signal", str(d / "signal.csv"),
             "--t", repr(self.t), "--out", str(coeffs)],
            ["reconstruct", "--graph", str(graph), "--coeffs", str(coeffs), "--out", str(out)],
        ]

    def _read_signal(self, path: Path) -> np.ndarray:
        pairs = np.loadtxt(path, delimiter=",", ndmin=2)
        return pairs[:, 0] + 1j * pairs[:, 1]

    def operation(self, index: int, tracer: Tracer | None, steps: Steps):
        n = self.config.sizes[index % len(self.config.sizes)]
        seed = _seed(self.rng)
        f = _random_signal(self.rng, n)
        (self.workdir / "signal.csv").write_text(
            "".join(f"{x!r},{y!r}\n" for x, y in zip(f.real.tolist(), f.imag.tolist())),
            encoding="utf-8",
        )
        argvs = self._argvs(n, seed, "")

        for argv in argvs:
            with steps.step(children_cpu_s), _span(tracer, f"cli.{argv[0]}"):
                proc = python(["-m", "gstft", *argv])
            if proc.returncode != 0:
                return n, f"gstft {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}"
        failure = checks.roundtrip(f, self._read_signal(Path(argvs[-1][-1])))
        if failure is None and tracer is not None:
            failure = self._traced_replay(n, seed, f, tracer)
        return n, failure

    def metrics(self, ops, wall_s):
        """This workload's own metrics, ``name -> (unit, value, samples)``,
        from the operations that passed and the timed loop's wall time."""
        return {"roundtrip_s": ("s", *group_median(ops, "wall_s"))}

    def _traced_replay(self, n: int, seed: int, f: np.ndarray, tracer: Tracer) -> str | None:
        with tracer.span("cli.startup"):
            proc = python(["-c", "import gstft"])
        if proc.returncode != 0:
            return f"python -c 'import gstft' exited {proc.returncode}: {proc.stderr.strip()}"
        argvs = self._argvs(n, seed, "-inproc")
        for argv in argvs:
            with tracer.span("cli"):
                code = cli.main(argv)
            if code != 0:
                return f"in-process gstft {argv[0]} returned {code}"
        return checks.roundtrip(f, self._read_signal(Path(argvs[-1][-1])))


@dataclass(frozen=True)
class StreamConfig:
    hypercube_dim: int = 7
    random_n: int = 192


class StreamTransform:
    """``heat_kernel`` -> ``gstft`` -> ``inverse_gstft`` for one random complex signal.

    The graphs are decomposed during set-up. Each request picks one graph and
    one of a few window times at random, so heat kernels repeat across
    requests.
    """

    name = "stream-transform"
    min_ops = 2
    degree = 3
    ts = (0.25, 0.5, 1.0, 2.0)

    def __init__(self, config: StreamConfig = StreamConfig()):
        self.config = config

    def setup(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        c = self.config
        family = [
            (f"hypercube-{2**c.hypercube_dim}", graphs.hypercube_graph(c.hypercube_dim)),
            (f"random-{c.random_n}",
             graphs.random_regular_graph(c.random_n, self.degree, _seed(self.rng))),
        ]
        self.decompositions = [
            (label, spectral.decompose(spectral.laplacian(g))) for label, g in family
        ]

    def targets(self):
        return [
            (heat, "heat_kernel", "heat.heat_kernel"),
            (gabor, "gstft", "gabor.gstft"),
            (gabor, "inverse_gstft", "gabor.inverse_gstft"),
        ]

    def operation(self, index: int, tracer: Tracer | None, steps: Steps):
        label, dec = self.decompositions[self.rng.integers(len(self.decompositions))]
        t = self.ts[self.rng.integers(len(self.ts))]
        f = _random_signal(self.rng, dec.n)
        with steps.step():
            hk = heat.heat_kernel(dec, t)
            coefficients = gabor.gstft(dec, hk, f)
            recovered = gabor.inverse_gstft(dec, hk, coefficients)
        return label, checks.roundtrip(f, recovered)

    def metrics(self, ops, wall_s):
        latencies = [op.wall_s * 1e3 for op in ops]
        p99 = float(np.percentile(latencies, 99))
        median_s, samples = group_median(ops, "wall_s")
        return {
            "transform_ms": ("ms", median_s * 1e3, samples),
            "transform_ms.p99": ("ms", p99, {"n": len(latencies), "beyond": sum(x > p99 for x in latencies)}),
            "transform_per_s": ("1/s", len(ops) / wall_s, {"requests": len(ops), "wall_s": wall_s}),
        }


@dataclass(frozen=True)
class CertifyConfig:
    hypercube_dim: int = 6
    ring_n: int = 96
    random_n: int = 100
    degrees: tuple[int, ...] = (3, 5, 7)


class CertifyDecay:
    """One pass certifies the graph set, one graph at a time.

    Per graph: build it (deserialize the fixed families, sample the random
    ones) -> ``detect_srg_parameters`` -> ``decompose(laplacian)`` ->
    ``tightness_sweep`` over the grid. Every grid time is distinct, so no
    heat kernel repeats.
    """

    name = "certify-decay"
    min_ops = 2
    t_grid = "0:10:0.1"
    # The pairing sampler needs a geometric number of ~15 us attempts, about
    # 2.6e5 on average at k=7 (0.2-11 s over seeds 0..11). Drawing that seed
    # from the workload seed would make certify_s spread by more than any
    # bound, so this degree uses one fixed seed, the repo's canonical 42.
    PINNED_SEEDS = {7: 42}

    def __init__(self, config: CertifyConfig = CertifyConfig()):
        self.config = config

    def setup(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        c = self.config
        self.fixed = [
            ("petersen", graphs.serialize(graphs.petersen_graph())),
            ("shrikhande", graphs.serialize(graphs.shrikhande_graph())),
            (f"hypercube-{2**c.hypercube_dim}", graphs.serialize(graphs.hypercube_graph(c.hypercube_dim))),
            (f"ring-{c.ring_n}", graphs.serialize(graphs.ring_graph(c.ring_n))),
        ]
        self.grid = formats.parse_t_grid(self.t_grid)

    def targets(self):
        return [
            (graphs, "deserialize", "graphs.deserialize"),
            (graphs, "random_regular_graph", "graphs.random_regular_graph"),
            (graphs, "detect_srg_parameters", "graphs.detect_srg_parameters"),
            (spectral, "laplacian", "spectral.laplacian"),
            (spectral, "decompose", "spectral.decompose"),
            (gabor, "tightness_sweep", "gabor.tightness_sweep"),
            (gabor, "heat_kernel", "heat.heat_kernel"),
            (gabor, "frame_report", "gabor.frame_report"),
        ]

    def _certify(self, g: graphs.Graph):
        graphs.detect_srg_parameters(g)
        lap = spectral.laplacian(g)
        dec = spectral.decompose(lap)
        return lap, dec.fiedler_value, gabor.tightness_sweep(dec, self.grid).reports

    def operation(self, index: int, tracer: Tracer | None, steps: Steps):
        c = self.config
        seeds = [(k, self.PINNED_SEEDS[k] if k in self.PINNED_SEEDS else _seed(self.rng)) for k in c.degrees]
        results = []
        for label, text in self.fixed:
            with steps.step():
                results.append((label, checks.tight_at_every_t, self._certify(graphs.deserialize(text))))
        for k, seed in seeds:
            with steps.step():
                g = graphs.random_regular_graph(c.random_n, k, seed)
                results.append((f"random-{c.random_n}-k{k}", checks.untight_somewhere, self._certify(g)))

        for label, tightness_gate, (lap, fiedler_value, reports) in results:
            failure = tightness_gate(reports) or checks.fiedler(fiedler_value, lap)
            if failure is not None:
                return "pass", f"{label}: {failure}"
        return "pass", None

    def metrics(self, ops, wall_s):
        return {"certify_s": ("s", *group_median(ops, "wall_s"))}


WORKLOADS = {w.name: w for w in (CliRoundtrip, StreamTransform, CertifyDecay)}
SETUP_REPEATS = 3
# Importing takes ~0.1 s, so it is sampled more often than set-up.
IMPORT_REPEATS = 9

# The layer metrics of a traced run, each per operation. "<span>.s" is the
# total time inside that span, "<span>.self_s" the part not covered by child
# spans, "<span>.calls" the number of spans; other names are counters.
PER_LAYER = (
    "spectral.decompose.s", "spectral.decompose.calls", "spectral.laplacian.s",
    "graphs.random_regular_graph.s", "graphs.random_regular_graph.calls",
    "graphs.deserialize.s", "graphs.detect_srg_parameters.s",
    "heat.heat_kernel.s", "heat.heat_kernel.calls",
    "gabor.gstft.s", "gabor.inverse_gstft.s",
    "gabor.tightness_sweep.self_s", "gabor.frame_report.s", "gabor.frame_report.calls",
    "formats.matrix_to_csv.s", "formats.matrix_from_csv.s", "formats.signal_from_csv.s",
    "formats.write_text_atomic.s", "formats.bytes_written", "formats.bytes_read",
    "cli.startup.s", "cli.gen.s", "cli.gstft.s", "cli.reconstruct.s", "cli.self_s",
)


class Op(NamedTuple):
    group: str  # graph size, or graph: operations of one group do the same work
    start: float  # seconds since the timed loop started
    steps: int
    wall_s: float
    cpu_s: float
    scaled_s: float  # cpu_s at the reference speed
    failed: bool


def group_median(ops: list[Op], field: str) -> tuple[float | None, dict[str, int]]:
    """The median of ``field`` per group, averaged over the groups.

    Averaging per group keeps the mix of groups in a run from moving the
    figure. ``None`` when no operation passed.
    """
    groups: dict[str, list[float]] = {}
    for op in ops:
        groups.setdefault(op.group, []).append(getattr(op, field))
    value = statistics.fmean(statistics.median(xs) for xs in groups.values()) if groups else None
    return value, {g: len(xs) for g, xs in groups.items()}


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.startswith("formats.bytes_"):
        return "B"
    return "s"


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    totals = tracer.totals()
    values = {}
    for name in PER_LAYER:
        if name.startswith("formats.bytes_"):
            total = tracer.counters.get(name, 0.0)
        else:
            span, field = name.rsplit(".", 1)
            total = totals.get(span, {}).get(field, 0.0)
        values[name] = total / ops
    return values


def record_path(workload: str, seed: int, trace: int) -> Path:
    """Where a run's full record is written."""
    return OUT / f"{workload}-seed{seed}-trace{trace}.json"


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest of its (sequential) children."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kib + child_kib) / 1024.0


def _metric(unit: str, value: float | None, samples) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def run(name: str, seed: int, seconds: float, traced: bool, config=None) -> dict:
    """Set up ``SETUP_REPEATS`` times, then run operations for about ``seconds``.

    Set-up is importing numpy and gstft (timed ``IMPORT_REPEATS`` times in a
    fresh interpreter, since this process imports them once) plus the
    workload's own set-up; ``setup_s`` adds the two medians of CPU time. The
    reference kernel is timed between all of these and between the steps of
    each operation, and scales the CPU time of each.
    """
    workload = WORKLOADS[name]() if config is None else WORKLOADS[name](config)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    tracer = Tracer() if traced else None
    reference = Reference()
    try:
        imports, setups = Steps(reference), Steps(reference)
        for _ in range(IMPORT_REPEATS):
            reference.keep_up()
            start = time.perf_counter()
            cpu_s, wall_s = import_cpu_s()
            imports.timed.append((start, wall_s, cpu_s))
        for _ in range(SETUP_REPEATS):
            with setups.step():
                workload.setup(seed, workdir)

        runs: list[tuple[str, float, Steps, bool]] = []  # (group, start, steps, failed)
        failures: list[str] = []
        started = time.perf_counter()
        # Start another operation only if one of average length still fits.
        with patched(tracer, workload.targets()) if traced else contextlib.nullcontext():
            while len(runs) < workload.min_ops or (
                (time.perf_counter() - started) * (1 + 1 / len(runs)) <= seconds
            ):
                steps = Steps(reference)
                op_start = time.perf_counter()
                try:
                    group, failure = workload.operation(len(runs), tracer, steps)
                except Exception as exc:  # a program error is a failed operation
                    group, failure = "error", repr(exc)
                runs.append((str(group), op_start - started, steps, failure is not None))
                if failure is not None:
                    failures.append(failure)
        loop_s = time.perf_counter() - started
        reference.keep_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [
        Op(group, start, len(steps.timed), steps.wall_s(), steps.cpu_s(), sum(steps.scaled()), failed)
        for group, start, steps, failed in runs
    ]
    passed = [op for op in ops if not op.failed]
    op_s, op_samples = group_median(passed, "scaled_s")
    setup = _metric(
        "s", statistics.median(imports.scaled()) + statistics.median(setups.scaled()),
        {"import": IMPORT_REPEATS, "setup": SETUP_REPEATS, "reference": len(reference.samples)},
    )
    peak_rss = _metric("MiB", peak_rss_mib(), 1)
    named = {
        "setup_s": setup,
        "failed_frac": _metric("fraction", len(failures) / len(ops), len(ops)),
        "peak_rss_mb": peak_rss,
    }
    if passed:
        named.update((k, _metric(*m)) for k, m in workload.metrics(passed, loop_s).items())

    def since_start(t):
        return t - started

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        "wall_s": loop_s,
        "end_to_end": {
            "setup_s": setup,
            "op_ms": _metric(
                "ms", None if op_s is None else op_s * 1e3,
                {**op_samples, "reference": len(reference.samples)},
            ),
            "peak_rss_mb": peak_rss,
        },
        "named_metrics": named,
        # Times below are seconds since the timed loop started.
        "ops": [op._asdict() for op in ops],
        "steps": [[(since_start(t), w, c) for t, w, c in steps.timed] for _, _, steps, _ in runs],
        "setup_steps": {
            "import": [(since_start(t), w, c) for t, w, c in imports.timed],
            "setup": [(since_start(t), w, c) for t, w, c in setups.timed],
        },
        "reference": [(since_start(t), cpu) for t, cpu in reference.samples],
        "layers": {
            k: {"value": v, "unit": layer_unit(k)} for k, v in layer_metrics(tracer, len(ops)).items()
        } if traced else None,
        "spans": tracer.spans if traced else None,
    }
