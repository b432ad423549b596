"""Classical DFT, windowed transform, and full Gabor systems on C^N."""
import numpy as np
import pytest

from gstft import classical

import oracles


def random_vector(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestDft:
    @pytest.mark.parametrize("n", [1, 4, 8, 16, 64])
    def test_unitary(self, n):
        # column j is the library's DFT of the unit vector e_j
        w = np.stack([classical.dft(e) for e in np.eye(n)], axis=1)
        assert np.abs(w @ w.conj().T - np.eye(n)).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 7, 97])
    def test_matches_dft_matrix(self, n):
        # primes take pocketfft's non-radix-2 path
        f = random_vector(n, seed=200 + n)
        expected = oracles.dft_matrix(n) @ f
        assert np.abs(classical.dft(f) - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_constant_signal(self):
        f_hat = classical.dft(np.full(8, 2.5))
        assert abs(f_hat[0] - 2.5 * np.sqrt(8)) <= 1e-12
        assert np.abs(f_hat[1:]).max() <= 1e-12

    def test_impulse(self):
        delta = np.zeros(8)
        delta[0] = 1.0
        assert np.abs(classical.dft(delta) - 1.0 / np.sqrt(8)).max() <= 1e-12

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_round_trip_and_parseval(self, n):
        f = random_vector(n, seed=n)
        f_hat = classical.dft(f)
        assert np.abs(oracles.idft(f_hat) - f).max() <= 1e-12
        assert abs(np.linalg.norm(f_hat) - np.linalg.norm(f)) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classical.dft(np.array([]))

    def test_piecewise_cosine_peaks(self):
        f = classical.piecewise_cosine(256)
        power = np.abs(classical.dft(f)) ** 2
        top_two = set(np.argsort(power[: 256 // 2 + 1])[-2:])
        assert top_two == {8, 32}


class TestShifts:
    def test_translate_impulse(self):
        delta = np.zeros(6)
        delta[0] = 1.0
        shifted = oracles.translate(delta, 4)
        assert shifted[4] == 1.0 and np.abs(shifted).sum() == 1.0

    def test_modulate_constant_gives_harmonic(self):
        n = 8
        harmonic = oracles.modulate(np.ones(n), 3)
        expected = np.exp(2j * np.pi * 3 * np.arange(n) / n)
        assert np.abs(harmonic - expected).max() <= 1e-12

    def test_index_validation(self):
        with pytest.raises(ValueError):
            oracles.translate(np.ones(4), 4)
        with pytest.raises(ValueError):
            oracles.modulate(np.ones(4), -1)

    @pytest.mark.parametrize("n", [5, 8, 16])
    def test_fourier_modulation_commutation(self, n):
        # F M_l = T_l F
        f = random_vector(n, seed=100 + n)
        for l in range(n):
            lhs = classical.dft(oracles.modulate(f, l))
            rhs = oracles.translate(classical.dft(f), l)
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_shift_operators_are_unitary(self):
        f = random_vector(9, seed=1)
        for k in range(9):
            assert abs(np.linalg.norm(oracles.time_frequency_shift(f, k, (k * 2) % 9)) - np.linalg.norm(f)) <= 1e-12


class TestDstft:
    def test_impulse_window_formula(self):
        n = 8
        f = random_vector(n, seed=2)
        v = classical.dstft(f, classical.boxcar_window(n, 1))
        grid = np.arange(n)
        expected = f[:, None] * np.exp(-2j * np.pi * np.outer(grid, grid) / n)
        assert np.abs(v - expected).max() <= 1e-12

    def test_matches_atom_inner_products(self):
        n = 8
        f = random_vector(n, seed=3)
        g = random_vector(n, seed=4)
        v = classical.dstft(f, g)
        for k in range(n):
            for l in range(n):
                atom = oracles.time_frequency_shift(g, k, l)
                assert abs(v[k, l] - np.vdot(atom, f)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 97])
    def test_matches_harmonic_product(self, n):
        # V_g f(k, l) = sum_m f(m) conj(g(m - k)) e^(-2 pi i l m / N) as one explicit product
        f = random_vector(n, seed=300 + n)
        g = random_vector(n, seed=400 + n)
        grid = np.arange(n)
        shifted = np.stack([np.roll(g, k) for k in range(n)])
        assert np.array_equal(classical._shifted_windows(g), shifted)
        windowed = f * shifted.conj()
        expected = windowed @ np.exp(-2j * np.pi * np.outer(grid, grid) / n).T
        assert np.abs(classical.dstft(f, g) - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="signal length 4 does not match window length 3"):
            classical.dstft(np.ones(4), np.ones(3))

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            classical.dstft(np.ones(4), np.zeros(4))

    def test_spectrogram_localizes_frequency_switch(self):
        n = 256
        f = classical.piecewise_cosine(n)
        width = 32
        power = classical.spectrogram(f, classical.boxcar_window(n, width))
        # dominant positive-frequency bin per translate k, away from the wrap;
        # boxcar leakage can nudge the argmax one bin off the carrier
        dominant = 1 + np.argmax(power[:, 1 : n // 2 + 1], axis=1)
        early = slice(0, n // 2 - width)
        late = slice(n // 2 + width, n - width)
        assert np.abs(dominant[early] - 8).max() <= 1
        assert np.abs(dominant[late] - 32).max() <= 1
        # the 8-vs-32 comparison flips only inside the transition region
        high_wins = power[:, 32] > power[:, 8]
        assert not high_wins[early].any()
        assert high_wins[late].all()


class TestReconstruction:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_round_trip(self, n):
        f = random_vector(n, seed=5 * n)
        g = random_vector(n, seed=5 * n + 1)
        back = oracles.dstft_reconstruct(classical.dstft(f, g), g)
        assert np.abs(back - f).max() <= 1e-9

    def test_impulse_window_round_trip(self):
        n = 8
        f = random_vector(n, seed=6)
        g = classical.boxcar_window(n, 1)
        back = oracles.dstft_reconstruct(classical.dstft(f, g), g)
        assert np.abs(back - f).max() <= 1e-12

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_total_energy_identity(self, n):
        # sum |V_g f|^2 = N ||g||^2 ||f||^2: the full system is a tight frame
        f = random_vector(n, seed=7 * n)
        g = random_vector(n, seed=7 * n + 1)
        v = classical.dstft(f, g)
        expected = n * np.linalg.norm(g) ** 2 * np.linalg.norm(f) ** 2
        assert abs(np.linalg.norm(v) ** 2 - expected) <= 1e-9 * expected

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            oracles.dstft_reconstruct(np.zeros((4, 4)), np.zeros(4))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            oracles.dstft_reconstruct(np.zeros((3, 4)), np.ones(4))


class TestFullGaborSystem:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_frame_operator_is_tight(self, n):
        g = random_vector(n, seed=8 * n)
        g /= np.linalg.norm(g)
        atoms = classical.full_gabor_system(g)
        assert atoms.shape == (n * n, n)
        s = atoms.T @ atoms.conj()
        assert np.abs(s - n * np.eye(n)).max() <= 1e-10

    def test_atom_norms_match_window(self):
        g = random_vector(6, seed=9)
        norms = np.linalg.norm(classical.full_gabor_system(g), axis=1)
        assert np.abs(norms - np.linalg.norm(g)).max() <= 1e-12

    def test_atom_order_row_major(self):
        g = random_vector(4, seed=10)
        atoms = classical.full_gabor_system(g)
        k, l = 2, 3
        assert np.abs(atoms[k * 4 + l] - oracles.time_frequency_shift(g, k, l)).max() <= 1e-12

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            classical.full_gabor_system(np.zeros(4))


class TestWindows:
    def test_boxcar_bounds(self):
        with pytest.raises(ValueError):
            classical.boxcar_window(8, 0)
        with pytest.raises(ValueError):
            classical.boxcar_window(8, 9)
        assert classical.boxcar_window(8, 3).sum() == 3.0

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: classical.piecewise_cosine(2.5), "signal length must be an integer, got float"),
            (lambda: classical.piecewise_cosine(True), "signal length must be an integer, got bool"),
            (lambda: classical.boxcar_window(5, True), "window width must be an integer, got bool"),
            (lambda: classical.boxcar_window(5, 2.5), "window width must be an integer, got float"),
            (lambda: classical.boxcar_window(4.0, 2), "signal length must be an integer, got float"),
            (lambda: classical.boxcar_window(4.0, 9.5), "signal length must be an integer, got float"),
        ],
        ids=["cosine-float", "cosine-bool", "boxcar-bool-width", "boxcar-float-width", "boxcar-float-length",
             "length-before-width"],
    )
    def test_sizes_follow_the_integer_rule(self, make, message):
        # the rule of the graph families: a Python or NumPy integer, never a bool, before any range check
        with pytest.raises(TypeError, match=f"^{message}$"):
            make()

    def test_numpy_integer_sizes_accepted(self):
        assert classical.piecewise_cosine(np.int32(4)).shape == (4,)
        assert classical.boxcar_window(np.int64(4), np.uint8(2)).tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_piecewise_cosine_needs_two_samples(self):
        with pytest.raises(ValueError, match="signal length must be >= 2, got 1"):
            classical.piecewise_cosine(1)

    def test_piecewise_cosine_halves(self):
        f = classical.piecewise_cosine(64)
        m = np.arange(64)
        assert np.abs(f[:32] - np.cos(2 * np.pi * 8 * m[:32] / 64)).max() <= 1e-12
        assert np.abs(f[32:] - np.cos(2 * np.pi * 32 * m[32:] / 64)).max() <= 1e-12
