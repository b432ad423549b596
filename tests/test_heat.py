"""Heat semigroup H_t = exp(-tL): closed forms, semigroup laws, column norms.

scipy.linalg.expm is the independent oracle for the matrix exponential; the
library's own path goes through the eigendecomposition.
"""
import dataclasses
import gc
import math
import re
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import expm

from gstft import gabor, graphs, heat, spectral


def make(g):
    dec = spectral.decompose(spectral.laplacian(g))
    return g, dec


def test_t_zero_is_exact_identity():
    _, dec = make(graphs.petersen_graph())
    hk = heat.heat_kernel(dec, 0.0)
    assert np.array_equal(hk.matrix, np.eye(10))
    assert not hk.matrix.min() > 0.0


def test_k2_closed_form():
    _, dec = make(graphs.complete_graph(2))
    hk = heat.heat_kernel(dec, 1.0)
    plus = (1.0 + math.exp(-2.0)) / 2.0
    minus = (1.0 - math.exp(-2.0)) / 2.0
    assert np.abs(hk.matrix - [[plus, minus], [minus, plus]]).max() <= 1e-12


@pytest.mark.parametrize("t", [0.3, 1.7])
def test_matches_expm_oracle(t):
    for g in (graphs.ring_graph(9), graphs.petersen_graph(), graphs.shrikhande_graph()):
        lap = spectral.laplacian(g)
        dec = spectral.decompose(lap)
        hk = heat.heat_kernel(dec, t)
        assert np.abs(hk.matrix - expm(-t * lap)).max() <= 1e-11


def test_semigroup_identity():
    _, dec = make(graphs.ring_graph(8))
    rng = np.random.default_rng(21)
    for _ in range(20):
        s, t = rng.uniform(0.0, 10.0, size=2)
        hs = heat.heat_kernel(dec, s).matrix
        ht = heat.heat_kernel(dec, t).matrix
        hst = heat.heat_kernel(dec, s + t).matrix
        assert np.abs(hs @ ht - hst).max() <= 1e-10


def test_half_time_squares_to_full():
    _, dec = make(graphs.ring_graph(8))
    h_half = heat.heat_kernel(dec, 0.5).matrix
    h_full = heat.heat_kernel(dec, 1.0).matrix
    assert np.abs(h_half @ h_half - h_full).max() <= 1e-10


@pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 10.0])
def test_structure_invariants(t):
    for g in (graphs.ring_graph(6), graphs.petersen_graph()):
        _, dec = make(g)
        hk = heat.heat_kernel(dec, t)
        assert np.array_equal(hk.matrix, hk.matrix.T)
        assert np.abs(hk.matrix.sum(axis=1) - 1.0).max() <= 1e-10
        assert hk.matrix.min() > -1e-12
        if t > 0:
            assert hk.matrix.min() > 0.0


@pytest.mark.parametrize("t", [0.25, 1.0, 2.0])
def test_exactly_symmetric_by_construction(t):
    """H_t = X X^T is symmetric bit for bit, with no symmetrizing pass."""
    _, dec = make(graphs.random_regular_graph(192, 3, seed=5))
    hk = heat.heat_kernel(dec, t)
    assert np.array_equal(hk.matrix, hk.matrix.T)


def test_heat_equation_residual():
    # forward difference of H_t against -L H_t; the second-order Taylor term
    # bounds the residual
    g, dec = make(graphs.ring_graph(8))
    lap = spectral.laplacian(g)
    delta = 1e-4
    for t in (0.2, 1.0):
        ht = heat.heat_kernel(dec, t).matrix
        ht_next = heat.heat_kernel(dec, t + delta).matrix
        residual = np.abs((ht_next - ht) / delta + lap @ ht).max()
        taylor = np.abs(lap @ (lap @ ht)).max()
        assert residual <= 0.51 * taylor * delta + 1e-12


def test_negative_and_nan_t_rejected():
    _, dec = make(graphs.ring_graph(4))
    for t in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            heat.heat_kernel(dec, t)


def test_nan_kernel_entries_rejected():
    """Finite eigenvectors of size 1e200 would overflow in the eigenexpansion.
    BLAS kernels that sum in several lanes turn +inf and -inf into NaN
    entries; others (OpenBLAS ``syrk``) saturate to +-inf. The same overflow
    in Phi Phi^T refuses the decomposition, so no such kernel is built."""
    n = 32
    phi = np.full((n, n), 1e200)
    phi[1::2, 1::2] *= -1
    with pytest.raises(ValueError, match=r"^eigenvectors are not orthonormal: max\|Phi Phi\^T - I\| = "):
        spectral.SpectralDecomposition(eigenvalues=np.zeros(n), eigenvectors=phi)


@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.zeros((3, 3)), "heat kernel rows deviate from stochasticity by 1.000e+00"),
        (-np.eye(3), "heat kernel entry -1.000e+00 below -1e-12"),
        (np.full((2, 3), 1 / 3), "heat kernel must be a nonempty square matrix, got shape (2, 3)"),
        (np.zeros((0, 0)), "heat kernel must be a nonempty square matrix, got shape (0, 0)"),
        (np.full((3, 3), np.nan), "heat kernel entry nan below -1e-12"),
        (np.full((3, 3), np.inf), "heat kernel rows deviate from stochasticity by inf"),
        (np.full((3, 3), -np.inf), "heat kernel entry -inf below -1e-12"),
    ],
    ids=["zero", "negative-identity", "non-square", "empty", "nan", "inf", "minus-inf"],
)
def test_constructor_refuses_invalid_matrix(matrix, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        heat.HeatKernel(1.0, matrix)


@pytest.mark.parametrize(
    "t, error, message",
    [
        (float("nan"), ValueError, "t must not be NaN"),
        (float("inf"), ValueError, "t must be finite, got inf"),
        (float("-inf"), ValueError, "t must be finite, got -inf"),
        (-1e-300, ValueError, "t must be nonnegative, got -1e-300"),
        (-0.5, ValueError, "t must be nonnegative, got -0.5"),
        ("x", TypeError, "t must be a real number, got str"),
        (True, TypeError, "t must be a real number, got bool"),
        (10**400, ValueError, "t must be finite, got a number beyond float range"),
    ],
    ids=["nan", "inf", "minus-inf", "tiny-negative", "negative", "string", "bool", "integer-beyond-float"],
)
def test_constructor_refuses_invalid_time(t, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        heat.HeatKernel(t, np.eye(3))


@pytest.mark.parametrize(
    "t, name",
    [(True, "bool"), (False, "bool"), (np.True_, type(np.True_).__name__), ("0.5", "str"), (None, "NoneType"),
     (1 + 0j, "complex")],
    ids=["true", "false", "numpy-bool", "string", "none", "complex"],
)
def test_heat_kernel_refuses_a_time_that_is_no_real_number(t, name):
    # a bool or a numeric string would otherwise pass float() as a time
    _, dec = make(graphs.petersen_graph())
    with pytest.raises(TypeError, match=f"^t must be a real number, got {name}$"):
        heat.heat_kernel(dec, t)


@pytest.mark.parametrize("t", [1, np.int64(2), np.float32(0.5), 0.25], ids=["int", "int64", "float32", "float"])
def test_heat_kernel_accepts_every_real_number_type(t):
    _, dec = make(graphs.petersen_graph())
    assert heat.heat_kernel(dec, t).t == float(t)


def test_constructor_stores_time_as_float():
    hk = heat.HeatKernel(np.float32(0.5), np.eye(3))
    assert type(hk.t) is float and hk.t == 0.5


@pytest.mark.parametrize("first", [0.0, -0.0], ids=["plus-first", "minus-first"])
def test_minus_zero_time_is_stored_as_plus_zero(first):
    # 0.0 and -0.0 are one reuse key, so a kept kernel's sign must not depend on which came first
    _, dec = make(graphs.ring_graph(4))
    kernels = [heat.heat_kernel(dec, t) for t in (first, -first, -0.0)] + [heat.HeatKernel(-0.0, np.eye(3))]
    assert [math.copysign(1.0, hk.t) for hk in kernels] == [1.0] * 4


def test_nan_time_kernel_never_reaches_a_round_trip():
    _, dec = make(graphs.ring_graph(4))
    with pytest.raises(ValueError, match="^t must not be NaN$"):
        hk = heat.HeatKernel(float("nan"), np.eye(4))
        gabor.inverse_gstft(dec, hk, gabor.gstft(dec, hk, np.ones(4)))


def test_each_built_kernel_is_validated_once(monkeypatch):
    _, dec = make(graphs.petersen_graph())
    checked = []
    post_init = heat.HeatKernel.__post_init__
    monkeypatch.setattr(heat.HeatKernel, "__post_init__", lambda hk: checked.append(hk.t) or post_init(hk))
    kernels = [heat.heat_kernel(dec, 0.5) for _ in range(3)]
    assert checked == [0.5, 0.5]  # built on the first two requests, kept from the second on
    assert kernels[2] is kernels[1]


def test_negative_spectrum_rejected():
    dec = spectral.SpectralDecomposition(np.array([-1.0, 0.0]), np.eye(2))
    with pytest.raises(ValueError, match="genuinely negative eigenvalue"):
        heat.heat_kernel(dec, 1.0)


def test_nan_decomposition_rejected():
    with pytest.raises(ValueError, match="NaN"):
        spectral.SpectralDecomposition(
            eigenvalues=np.array([0.0, float("nan")]),
            eigenvectors=np.eye(2),
        )


class TestColumnNorms:
    def test_identity_at_zero(self):
        _, dec = make(graphs.ring_graph(5))
        hk = heat.heat_kernel(dec, 0.0)
        for j in range(5):
            assert hk.column_norms_sq[j] == 1.0

    def test_k2_closed_form(self):
        # spectral sum: (1/2) e^0 + (1/2) e^{-4t} at t = 1
        _, dec = make(graphs.complete_graph(2))
        hk = heat.heat_kernel(dec, 1.0)
        assert abs(hk.column_norms_sq[0] - (1.0 + math.exp(-4.0)) / 2.0) <= 1e-12

    def test_direct_equals_spectral_sum(self):
        for g in (graphs.ring_graph(8), graphs.petersen_graph(), graphs.shrikhande_graph()):
            _, dec = make(g)
            for t in (0.0, 0.4, 3.0):
                hk = heat.heat_kernel(dec, t)
                assert np.abs(
                    hk.column_norms_sq - gabor.frame_report(dec, hk).gammas
                ).max() <= 1e-10

    def test_derived_from_the_matrix(self):
        _, dec = make(graphs.petersen_graph())
        hk = heat.heat_kernel(dec, 0.7)
        assert [f.name for f in dataclasses.fields(hk) if f.init] == ["t", "matrix"]
        assert np.array_equal(hk.column_norms_sq, (hk.matrix * hk.matrix).sum(axis=0))
        assert not hk.column_norms_sq.flags.writeable

    def test_large_t_limit_is_one_over_n(self):
        # only the zero eigenvalue survives: e^0 * |1/sqrt(N)|^2 = 1/N
        _, dec = make(graphs.ring_graph(4))
        hk = heat.heat_kernel(dec, 50.0)
        assert np.abs(hk.column_norms_sq - 0.25).max() <= 1e-8

    def test_monotone_decay(self):
        _, dec = make(graphs.petersen_graph())
        norms = np.stack(
            [gabor.frame_report(dec, heat.heat_kernel(dec, t)).gammas for t in np.linspace(0.0, 5.0, 26)]
        )
        assert (np.diff(norms, axis=0) <= 1e-12).all()


HUGE_TIMES = [1e300, 1e307, 9e307, 1e308, sys.float_info.max]


# eigh returns the zero eigenvalue of ring 64, K10 and K50 slightly positive, of ring 5 and K100 negative.
LIMIT_GRAPHS = {
    "ring5": graphs.ring_graph(5), "ring64": graphs.ring_graph(64),
    "K10": graphs.complete_graph(10), "K50": graphs.complete_graph(50), "K100": graphs.complete_graph(100),
}


@pytest.mark.parametrize("g", list(LIMIT_GRAPHS.values()), ids=list(LIMIT_GRAPHS))
def test_huge_times_reach_the_uniform_limit(g):
    # t * lambda_max overflows for the largest times; the kernel is then the
    # t -> infinity limit 11^T / n, with no warning (pytest turns them into errors).
    _, dec = make(g)
    limit = heat.heat_kernel(dec, HUGE_TIMES[0]).matrix
    assert np.abs(limit - 1.0 / g.n).max() <= 1e-15
    for t in HUGE_TIMES[1:]:
        assert np.array_equal(heat.heat_kernel(dec, t).matrix, limit)


class TestWindowColumn:
    def test_delta_at_zero(self):
        _, dec = make(graphs.ring_graph(5))
        hk = heat.heat_kernel(dec, 0.0)
        column = hk.matrix[:, 2]
        expected = np.zeros(5)
        expected[2] = 1.0
        assert np.array_equal(column, expected)

    def test_k2_values(self):
        _, dec = make(graphs.complete_graph(2))
        column = heat.heat_kernel(dec, 1.0).matrix[:, 0]
        plus = (1.0 + math.exp(-2.0)) / 2.0
        minus = (1.0 - math.exp(-2.0)) / 2.0
        assert np.abs(column - [plus, minus]).max() <= 1e-12

    def test_entries_sum_to_one(self):
        _, dec = make(graphs.petersen_graph())
        for t in (0.0, 0.7, 6.0):
            hk = heat.heat_kernel(dec, t)
            for i in (0, 5, 9):
                assert abs(hk.matrix[:, i].sum() - 1.0) <= 1e-10


def test_trace_identity():
    _, dec = make(graphs.shrikhande_graph())
    for t in (0.2, 1.0, 4.0):
        hk = heat.heat_kernel(dec, t)
        assert abs(np.trace(hk.matrix) - np.exp(-t * dec.eigenvalues).sum()) <= 1e-9


def kept_kernels(dec):
    """The kernels heat_kernel currently keeps for ``dec``, oldest first."""
    return [v for v in heat._slots.get(dec, {}).values() if isinstance(v, heat.HeatKernel)]


class TestReuse:
    def test_same_object_from_second_request_on(self):
        _, dec = make(graphs.petersen_graph())
        first = heat.heat_kernel(dec, 0.5)
        second = heat.heat_kernel(dec, 0.5)
        assert second is not first  # a time asked for once is not kept
        assert kept_kernels(dec) == [second]
        for t in (0.5, np.float64(0.5), 1 / 2):
            assert heat.heat_kernel(dec, t) is second

    @pytest.mark.parametrize("t", [0.0, 0.25, 2.0])
    def test_reused_kernel_equals_fresh_one(self, t):
        _, dec = make(graphs.random_regular_graph(192, 3, seed=5))
        heat.heat_kernel(dec, t)
        kept = heat.heat_kernel(dec, t)
        assert heat.heat_kernel(dec, t) is kept
        twin = spectral.SpectralDecomposition(dec.eigenvalues.copy(), dec.eigenvectors.copy())
        fresh = heat.heat_kernel(twin, t)
        assert kept.t == fresh.t
        assert np.array_equal(kept.matrix, fresh.matrix)
        assert np.array_equal(kept.column_norms_sq, fresh.column_norms_sq)

    def test_sweep_keeps_no_kernel(self):
        _, dec = make(graphs.petersen_graph())
        gabor.tightness_sweep(dec, np.linspace(0.0, 10.0, 101))
        assert kept_kernels(dec) == []
        assert len(heat._slots[dec]) == heat._REUSE_SLOTS

    def test_slot_bound_drops_oldest_first(self):
        _, dec = make(graphs.ring_graph(12))
        ts = [0.1 * i for i in range(1, 10)]
        for t in ts:
            heat.heat_kernel(dec, t)
            heat.heat_kernel(dec, t)
            assert len(heat._slots[dec]) <= heat._REUSE_SLOTS
        assert [hk.t for hk in kept_kernels(dec)] == ts[-heat._REUSE_SLOTS:]
        newest = heat.heat_kernel(dec, ts[-1])
        assert heat.heat_kernel(dec, ts[-1]) is newest
        dropped = heat.heat_kernel(dec, ts[0])
        assert heat.heat_kernel(dec, ts[0]) is not dropped

    def test_kept_kernels_freed_with_decomposition(self):
        _, dec = make(graphs.petersen_graph())
        heat.heat_kernel(dec, 1.0)
        kernel = weakref.ref(heat.heat_kernel(dec, 1.0))
        decomposition = weakref.ref(dec)
        assert kernel() is not None
        del dec
        gc.collect()
        assert decomposition() is None
        assert kernel() is None

    def test_threads_sharing_a_decomposition(self):
        _, dec = make(graphs.random_regular_graph(64, 3, seed=2))
        ts = (0.25, 0.5, 1.0, 2.0)
        twin = spectral.SpectralDecomposition(dec.eigenvalues.copy(), dec.eigenvectors.copy())
        expected = {t: heat.heat_kernel(twin, t).matrix for t in ts}

        def requests(worker):
            return [heat.heat_kernel(dec, ts[(worker + i) % len(ts)]) for i in range(40)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(requests, w) for w in range(8)]
                results = [hk for f in futures for hk in f.result(timeout=60)]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 8 * 40
        for hk in results:
            assert np.array_equal(hk.matrix, expected[hk.t])
        assert {id(hk) for hk in kept_kernels(dec)} == {id(heat.heat_kernel(dec, t)) for t in ts}

    def test_invalid_times_rejected_before_lookup(self):
        _, dec = make(graphs.ring_graph(4))
        for t in (0.0, 0.0, 1.0, 1.0):
            heat.heat_kernel(dec, t)
        slots = dict(heat._slots[dec])
        for t in (-0.5, -1e-300, float("nan"), float("inf"), float("-inf"), 10**400):
            with pytest.raises(ValueError, match="t must"):
                heat.heat_kernel(dec, t)
        assert heat._slots[dec] == slots

    def test_kernel_failing_validation_never_kept(self):
        # orthonormal, but no Laplacian: H_1 = diag(1, e^-1, e^-2), its last row sums to e^-2
        bad = spectral.SpectralDecomposition(np.array([0.0, 1.0, 2.0]), np.eye(3))
        for _ in range(3):
            with pytest.raises(ValueError, match="heat kernel rows deviate from stochasticity by 8.647e-01"):
                heat.heat_kernel(bad, 1.0)
        assert bad not in heat._slots
