"""Command-line interface: subcommands, formats, errors, determinism."""
import errno
import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from gstft import graphs
from gstft.cli import main
from gstft.formats import (
    matrix_from_csv, matrix_to_csv, signal_from_csv, signal_to_csv, split_meta, write_text_atomic,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_ok(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert err == ""
    return out


def run_err(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    return err


class TestGen:
    def test_shrikhande(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run_ok(capsys, "gen", "--family", "shrikhande", "--out", str(out))
        g = graphs.deserialize(out.read_text())
        assert g.n == 16 and g.edge_count == 48

    def test_random_regular_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_ok(capsys, "gen", "--family", "random-regular", "--n", "100", "--k", "3", "--seed", "42", "--out", str(a))
        run_ok(capsys, "gen", "--family", "random-regular", "--n", "100", "--k", "3", "--seed", "42", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert graphs.deserialize(a.read_text()).edge_count == 150

    def test_ring_too_small_fails(self, tmp_path, capsys):
        err = run_err(capsys, "gen", "--family", "ring", "--n", "2", "--out", str(tmp_path / "g.json"))
        assert "3" in err

    def test_disconnected_degree_fails(self, tmp_path, capsys):
        err = run_err(capsys, "gen", "--family", "random-regular", "--n", "6", "--k", "1",
                      "--out", str(tmp_path / "g.json"))
        assert err.count("\n") == 1
        assert "n = k + 1" in err
        assert not (tmp_path / "g.json").exists()

    def test_from_edgelist(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("# triangle\n0 1\n1 2\n2 0\n")
        out = tmp_path / "g.json"
        run_ok(capsys, "gen", "--family", "from-edgelist", "--edgelist", str(edges), "--out", str(out))
        assert graphs.deserialize(out.read_text()).n == 3

    def test_stdout_output(self, capsys):
        out = run_ok(capsys, "gen", "--family", "ring", "--n", "4")
        assert json.loads(out) == {"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}

    def test_missing_parameter(self, tmp_path, capsys):
        run_err(capsys, "gen", "--family", "ring", "--out", str(tmp_path / "g.json"))


class TestSpectrum:
    def test_ring4_eigenvalues_and_fiedler(self, tmp_path, capsys):
        out = tmp_path / "dec.csv"
        stdout = run_ok(capsys, "spectrum", "--family", "ring", "--n", "4", "--out", str(out))
        assert abs(float(stdout.strip()) - 2.0) <= 1e-10
        table = matrix_from_csv(out.read_text())[0].real
        assert table.shape == (4, 5)
        assert np.abs(table[:, 0] - [0.0, 2.0, 2.0, 4.0]).max() <= 1e-10

    def test_k2(self, tmp_path, capsys):
        out = tmp_path / "dec.csv"
        run_ok(capsys, "spectrum", "--family", "complete", "--n", "2", "--out", str(out))
        table = matrix_from_csv(out.read_text())[0].real
        assert np.abs(table[:, 0] - [0.0, 2.0]).max() <= 1e-12

    def test_disconnected_graph_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n":3,"edges":[[0,1]]}')
        err = run_err(capsys, "spectrum", "--graph", str(bad), "--out", str(tmp_path / "dec.csv"))
        assert "disconnected" in err

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "dec.json"
        run_ok(capsys, "spectrum", "--family", "ring", "--n", "4", "--format", "json", "--out", str(out))
        doc = json.loads(out.read_text())
        assert len(doc["eigenvalues"]) == 4
        assert doc["meta"]["n"] == 4


class TestHeat:
    def test_matrix_properties(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        run_ok(capsys, "heat", "--family", "ring", "--n", "6", "--t", "1.0", "--out", str(out))
        h = matrix_from_csv(out.read_text())[0].real
        assert h.shape == (6, 6)
        assert np.abs(h.sum(axis=1) - 1.0).max() <= 1e-10
        assert np.abs(h - h.T).max() == 0.0

    def test_requires_t(self, tmp_path, capsys):
        run_err(capsys, "heat", "--family", "ring", "--n", "6", "--out", str(tmp_path / "h.csv"))

    def test_negative_t_fails(self, tmp_path, capsys):
        run_err(capsys, "heat", "--family", "ring", "--n", "6", "--t", "-1", "--out", str(tmp_path / "h.csv"))


@pytest.fixture(name="ring8_setup")
def ring8_setup_fixture(tmp_path, capsys):
    graph_path = tmp_path / "ring8.json"
    run_ok(capsys, "gen", "--family", "ring", "--n", "8", "--out", str(graph_path))
    rng = np.random.default_rng(12)
    f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    signal_path = tmp_path / "f.csv"
    signal_path.write_text(signal_to_csv(f))
    return graph_path, signal_path, f


class TestTransformRoundTrip:
    def test_round_trip(self, tmp_path, capsys, ring8_setup):
        graph_path, signal_path, f = ring8_setup
        coeffs = tmp_path / "coeffs.csv"
        run_ok(capsys, "gstft", "--graph", str(graph_path), "--signal", str(signal_path), "--t", "1.0", "--out", str(coeffs))
        back = tmp_path / "back.csv"
        run_ok(capsys, "reconstruct", "--graph", str(graph_path), "--coeffs", str(coeffs), "--out", str(back))
        recovered = signal_from_csv(back.read_text())
        assert np.abs(recovered - f).max() <= 1e-9

    def test_round_trip_t_zero(self, tmp_path, capsys, ring8_setup):
        graph_path, signal_path, f = ring8_setup
        coeffs = tmp_path / "c0.csv"
        run_ok(capsys, "gstft", "--graph", str(graph_path), "--signal", str(signal_path), "--t", "0", "--out", str(coeffs))
        back = tmp_path / "b0.csv"
        run_ok(capsys, "reconstruct", "--graph", str(graph_path), "--coeffs", str(coeffs), "--out", str(back))
        assert np.abs(signal_from_csv(back.read_text()) - f).max() <= 1e-12

    def test_json_coefficients_round_trip(self, tmp_path, capsys, ring8_setup):
        graph_path, signal_path, f = ring8_setup
        coeffs = tmp_path / "coeffs.json"
        run_ok(capsys, "gstft", "--graph", str(graph_path), "--signal", str(signal_path), "--t", "0.5", "--format", "json", "--out", str(coeffs))
        back = tmp_path / "back.csv"
        run_ok(capsys, "reconstruct", "--graph", str(graph_path), "--coeffs", str(coeffs), "--out", str(back))
        assert np.abs(signal_from_csv(back.read_text()) - f).max() <= 1e-9

    def test_reconstruct_serializes_the_graph_once(self, tmp_path, capsys, ring8_setup, monkeypatch):
        # the metadata check and the JSON output share one digest; serializing K1024 alone takes ~0.6 s
        graph_path, signal_path, _ = ring8_setup
        coeffs = tmp_path / "coeffs.json"
        run_ok(capsys, "gstft", "--graph", str(graph_path), "--signal", str(signal_path), "--t", "1.0", "--format", "json", "--out", str(coeffs))
        calls = []
        serialize = graphs.serialize
        monkeypatch.setattr(graphs, "serialize", lambda g: calls.append(g) or serialize(g))
        back = tmp_path / "back.json"
        run_ok(capsys, "reconstruct", "--graph", str(graph_path), "--coeffs", str(coeffs), "--format", "json", "--out", str(back))
        assert len(calls) == 1
        assert json.loads(back.read_text())["meta"] == json.loads(coeffs.read_text())["meta"]

    def test_wrong_n_fails(self, tmp_path, capsys, ring8_setup):
        graph_path, signal_path, _ = ring8_setup
        coeffs = tmp_path / "coeffs.csv"
        run_ok(capsys, "gstft", "--graph", str(graph_path), "--signal", str(signal_path), "--t", "1.0", "--out", str(coeffs))
        err = run_err(capsys, "reconstruct", "--family", "ring", "--n", "5", "--coeffs", str(coeffs), "--out", "-")
        assert "n=" in err

    def test_t_mismatch_fails(self, tmp_path, capsys, ring8_setup):
        graph_path, signal_path, _ = ring8_setup
        coeffs = tmp_path / "coeffs.csv"
        run_ok(capsys, "gstft", "--graph", str(graph_path), "--signal", str(signal_path), "--t", "1.0", "--out", str(coeffs))
        err = run_err(capsys, "reconstruct", "--graph", str(graph_path), "--coeffs", str(coeffs), "--t", "2.0", "--out", "-")
        assert "conflicts" in err

    def test_different_graph_fails(self, tmp_path, capsys, ring8_setup):
        graph_path, signal_path, _ = ring8_setup
        coeffs = tmp_path / "coeffs.csv"
        run_ok(capsys, "gstft", "--graph", str(graph_path), "--signal", str(signal_path), "--t", "1.0", "--out", str(coeffs))
        err = run_err(capsys, "reconstruct", "--family", "complete", "--n", "8", "--coeffs", str(coeffs), "--out", "-")
        assert "different graph" in err

    @pytest.mark.parametrize(
        "text, problem",
        [
            ('{"meta": {"n": 8, "t": 1.0}}', "has no 'matrix' key"),
            ('{"matrix": [[1, 2], [3]]}', "list of equal-length rows"),
            ('{"matrix": 5}', "list of equal-length rows"),
            ('{"matrix": [[[1, 0]', "is not valid JSON"),
            ('{"matrix": [[[1, 0], 2]]}', "[re, im] pair of numbers"),
            ('{"matrix": [[["a", "b"]]]}', "[re, im] pair of numbers"),
            ('{"matrix": [[[NaN, 0]]]}', "'matrix' entries must be finite"),
            ('{"matrix": [[[0, -Infinity]]]}', "'matrix' entries must be finite"),
            ('{"meta": 5, "matrix": [[[1, 0]]]}', "'meta' must be an object"),
            ('{"meta": {"n": "3"}, "matrix": [[[1, 0]]]}', "meta 'n' must be an integer"),
            ('{"meta": {"t": "1"}, "matrix": [[[1, 0]]]}', "meta 't' must be a number"),
            ('{"meta": {"graph_sha256": 7}, "matrix": [[[1, 0]]]}', "meta 'graph_sha256' must be a string"),
            ("# meta [1,2]\n1+0j\n", "'meta' must be an object"),
            ("# meta {bad\n1+0j\n", "line 1: malformed '# meta' line"),
            ("abc,1+0j\n", "row 1 (line 1): invalid complex value 'abc'"),
            ('# meta {"n": 8}\n\n1+0j,2+0j\n1+0j\n', "row 2 (line 4) has 1 entries but row 1 has 2"),
            ("1+0j,2+0j\n# note\n1+0j,nan+0j\n", "row 2 (line 3): non-finite entry"),
            ("1+0j\n0+infj\n", "row 2 (line 2): non-finite entry"),
            ('# meta {"n": 8}\n# no rows\n', "no matrix rows"),
        ],
        ids=[
            "no-matrix", "ragged", "scalar", "truncated", "bare-number", "strings", "nan", "infinity",
            "meta-scalar", "meta-n-string", "meta-t-string", "meta-sha-number", "csv-meta-list", "csv-meta-truncated",
            "csv-cell", "csv-ragged", "csv-nan", "csv-inf", "csv-no-rows",
        ],
    )
    def test_json_coefficients_without_matrix_fail(self, tmp_path, capsys, ring8_setup, text, problem):
        graph_path, _, _ = ring8_setup
        coeffs = tmp_path / ("bad.json" if text.startswith("{") else "bad.csv")
        coeffs.write_text(text)
        err = run_err(capsys, "reconstruct", "--graph", str(graph_path), "--coeffs", str(coeffs), "--t", "1", "--out", "-")
        assert str(coeffs) in err
        assert problem in err

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("# meta {bad\n1,0\n2,0\n3,0\n", "line 1: malformed '# meta' line"),
            ("1,0\n# a comment\n\nx\n3,0\n", "line 4: could not convert string to float: 'x'"),
            ("1,0\nnan,0\n3,0\n", "line 2: non-finite value 'nan,0'"),
            ("1,0\n2,-inf\n3,0\n", "line 2: non-finite value '2,-inf'"),
            ("1,0\n2,0,0\n3,0\n", "line 2: expected 're' or 're,im', got '2,0,0'"),
            ("# meta {}\n# no values\n", "no signal values"),
        ],
        ids=["meta-truncated", "entry", "nan", "infinity", "three-parts", "empty"],
    )
    @pytest.mark.parametrize("command", ["gstft", "spectrogram"])
    def test_malformed_signal_names_file_and_line(self, tmp_path, capsys, command, text, problem):
        signal = tmp_path / "sig.csv"
        signal.write_text(text)
        graph = ("--family", "ring", "--n", "3", "--t", "1") if command == "gstft" else ()
        err = run_err(capsys, command, *graph, "--signal", str(signal), "--out", "-")
        assert f"signal file {signal}: {problem}" in err

    @pytest.mark.parametrize(
        "size, t, problem",
        [
            (2, ("--t", "1"), "coefficient matrix shape (2, 2) does not match n=8"),
            (8, (), "no window time available: pass --t or use a coefficient file with metadata"),
        ],
        ids=["wrong-shape", "no-time"],
    )
    def test_coefficients_without_metadata_fail(self, tmp_path, capsys, ring8_setup, size, t, problem):
        graph_path, _, _ = ring8_setup
        coeffs = tmp_path / "bare.csv"
        coeffs.write_text(matrix_to_csv(np.eye(size, dtype=complex)))
        err = run_err(capsys, "reconstruct", "--graph", str(graph_path), "--coeffs", str(coeffs), *t, "--out", "-")
        assert err == f"error: {problem}\n"

    def test_signal_length_mismatch_fails(self, tmp_path, capsys, ring8_setup):
        graph_path, _, _ = ring8_setup
        short = tmp_path / "short.csv"
        short.write_text("1,0\n2,0\n")
        run_err(capsys, "gstft", "--graph", str(graph_path), "--signal", str(short), "--t", "1.0", "--out", "-")


class TestFrameReport:
    def test_shrikhande_all_tight(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        run_ok(capsys, "frame-report", "--family", "shrikhande", "--t-grid", "0:10:1", "--out", str(out))
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert lines[0] == "t,A,B,gap,ratio,tight"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 11
        assert all(row[5] == "true" for row in rows)
        t0 = rows[0]
        assert abs(float(t0[1]) - 1.0) <= 1e-12 and abs(float(t0[2]) - 1.0) <= 1e-12

    def test_path_graph_not_tight(self, tmp_path, capsys):
        edges = tmp_path / "p3.txt"
        edges.write_text("0 1\n1 2\n")
        out = tmp_path / "report.csv"
        run_ok(
            capsys, "frame-report", "--family", "from-edgelist", "--edgelist", str(edges),
            "--t-grid", "0:2:1", "--out", str(out),
        )
        rows = [l.split(",") for l in out.read_text().splitlines() if l and not l.startswith("#")][1:]
        assert rows[0][5] == "true"  # t = 0
        assert rows[1][5] == "false" and rows[2][5] == "false"

    def test_gamma_companion(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        run_ok(capsys, "frame-report", "--family", "ring", "--n", "5", "--t-grid", "0:1:0.5", "--out", str(out))
        gammas = tmp_path / "report_gammas.csv"
        lines = [l for l in gammas.read_text().splitlines() if l and not l.startswith("#")]
        assert lines[0] == "t,gamma_0,gamma_1,gamma_2,gamma_3,gamma_4"
        assert len(lines) == 4

    def test_default_grid(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        run_ok(capsys, "frame-report", "--family", "ring", "--n", "5", "--out", str(out))
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(rows) == 1 + 101  # header + t in {0, 0.1, ..., 10}

    def test_malformed_grid_fails(self, tmp_path, capsys):
        run_err(capsys, "frame-report", "--family", "ring", "--n", "5", "--t-grid", "1:0:0.1", "--out", str(tmp_path / "r.csv"))

    def test_t_and_grid_conflict(self, tmp_path, capsys):
        err = run_err(
            capsys, "frame-report", "--family", "ring", "--n", "5",
            "--t", "1", "--t-grid", "0:1:1", "--out", str(tmp_path / "r.csv"),
        )
        assert "not allowed with argument --t" in err

    def test_single_t(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        run_ok(capsys, "frame-report", "--family", "ring", "--n", "5", "--t", "1.0", "--out", str(out))
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(rows) == 2


class TestSweepDecay:
    def test_empty_k_list_fails(self, tmp_path, capsys):
        run_err(capsys, "sweep-decay", "--n", "20", "--k-list", "", "--t-grid", "0:1:0.5", "--out", str(tmp_path / "d.csv"))

    def test_non_integer_k_list_names_the_flag(self, tmp_path, capsys):
        err = run_err(capsys, "sweep-decay", "--n", "20", "--k-list", "3,x", "--out", str(tmp_path / "d.csv"))
        assert err == "error: --k-list must be comma-separated integers, got '3,x'\n"

    def test_repeated_degree_refused_before_sampling(self, tmp_path, capsys, monkeypatch):
        sampled = []
        monkeypatch.setattr(graphs, "random_regular_graph", lambda *a: sampled.append(a))
        started = time.monotonic()
        err = run_err(capsys, "sweep-decay", "--n", "200", "--k-list", ",".join(["3"] * 10_000),
                      "--out", str(tmp_path / "d.csv"))
        assert time.monotonic() - started < 1.0
        assert err == "error: --k-list names degree 3 more than once\n"
        err = run_err(capsys, "sweep-decay", "--n", "20", "--k-list", "5,3, 05", "--out", str(tmp_path / "d.csv"))
        assert err == "error: --k-list names degree 5 more than once\n"
        assert sampled == [] and not (tmp_path / "d.csv").exists()

    def test_matches_frame_report_gaps(self, tmp_path, capsys):
        decay = tmp_path / "decay.csv"
        run_ok(capsys, "sweep-decay", "--n", "24", "--k-list", "3", "--seed", "7", "--t-grid", "0.1:2:0.5", "--out", str(decay))
        report = tmp_path / "report.csv"
        run_ok(
            capsys, "frame-report", "--family", "random-regular", "--n", "24", "--k", "3", "--seed", "7",
            "--t-grid", "0.1:2:0.5", "--out", str(report),
        )
        decay_gaps = [l.split(",")[3] for l in decay.read_text().splitlines() if l and not l.startswith(("#", "k,"))]
        report_gaps = [l.split(",")[3] for l in report.read_text().splitlines() if l and not l.startswith(("#", "t,"))]
        assert decay_gaps == report_gaps  # identical computation, identical text

    def test_monotone_gap_columns_at_moderate_times(self, tmp_path, capsys):
        out = tmp_path / "decay.csv"
        run_ok(capsys, "sweep-decay", "--n", "60", "--k-list", "3,5", "--seed", "42", "--t-grid", "2:6:0.5", "--out", str(out))
        rows = [l.split(",") for l in out.read_text().splitlines() if l and not l.startswith(("#", "k,"))]
        by_k = {}
        for row in rows:
            by_k.setdefault(row[0], []).append(float(row[3]))
        for gaps in by_k.values():
            assert all(b <= a * (1 + 1e-9) for a, b in zip(gaps, gaps[1:]))


class TestSpectrogram:
    def test_builtin_signal_switches_bins(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        run_ok(capsys, "spectrogram", "--out", str(out))
        power, meta = matrix_from_csv(out.read_text())
        power = power.real
        assert meta["n"] == 256 and power.shape == (256, 256)
        assert (tmp_path / "spec_dft.csv").exists()
        high_wins = power[:, 32] > power[:, 8]
        assert not high_wins[: 128 - 32].any()
        assert high_wins[128 + 32 : 256 - 32].all()

    def test_dft_companion_peaks(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        run_ok(capsys, "spectrogram", "--out", str(out))
        lines = [l for l in (tmp_path / "spec_dft.csv").read_text().splitlines() if not l.startswith("#")]
        power = np.array([float(l) for l in lines])
        assert set(np.argsort(power[:129])[-2:]) == {8, 32}

    def test_constant_signal_concentrates_at_zero(self, tmp_path, capsys):
        signal = tmp_path / "const.csv"
        signal.write_text("".join("1,0\n" for _ in range(64)))
        out = tmp_path / "spec.csv"
        run_ok(capsys, "spectrogram", "--signal", str(signal), "--width", "16", "--out", str(out))
        power = matrix_from_csv(out.read_text())[0].real
        assert int(np.argmax(power.sum(axis=0))) == 0

    def test_zero_width_fails(self, tmp_path, capsys):
        run_err(capsys, "spectrogram", "--width", "0", "--out", str(tmp_path / "s.csv"))

    def test_delta_window(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        run_ok(capsys, "spectrogram", "--n", "32", "--window", "delta", "--out", str(out))
        power = matrix_from_csv(out.read_text())[0].real
        assert power.shape == (32, 32)

    def test_signal_and_n_conflict(self, tmp_path, capsys):
        signal = tmp_path / "s.csv"
        signal.write_text("1,0\n")
        run_err(capsys, "spectrogram", "--signal", str(signal), "--n", "16", "--out", str(tmp_path / "x.csv"))

    @pytest.mark.parametrize("source", ["n", "signal"])
    def test_longer_than_vertex_limit_refused(self, tmp_path, capsys, source):
        length = graphs.MAX_VERTICES + 1
        if source == "n":
            argv = ["--n", str(length)]
        else:
            signal = tmp_path / "long.csv"
            signal.write_text("1,0\n" * length)
            argv = ["--signal", str(signal)]
        out = tmp_path / "spec.csv"
        err = run_err(capsys, "spectrogram", *argv, "--out", str(out))
        assert err.count("\n") == 1
        assert f"signal length {length} exceeds" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, problem",
    [
        (["heat", "--family", "ring", "--n", "4", "--t", "inf"], "finite"),
        (["frame-report", "--family", "ring", "--n", "4", "--t", "inf", "--format", "json"], "finite"),
        (["frame-report", "--family", "ring", "--n", "4", "--t-grid", "0:inf:1"], "finite"),
        (["frame-report", "--family", "ring", "--n", "4", "--t-grid", "0:1:1e-7"], "'0:1:1e-7' has more than 10001 points"),
        (["frame-report", "--family", "ring", "--n", "4", "--t-grid", "0:1e300:1e-300"], "more than 10001 points"),
        (["heat", "--family", "ring", "--n", "4", "--t=-inf"], "t must be finite, got -inf"),
        (["frame-report", "--family", "ring", "--n", "4", "--t", "-1"], "t must be nonnegative, got -1.0"),
        (["frame-report", "--family", "ring", "--n", "4", "--t-grid", "0:1"], "t-grid must be start:stop:step"),
        (["frame-report", "--family", "ring", "--n", "4", "--t-grid", "0:1:0"], "t-grid step must be positive"),
        (["frame-report", "--family", "ring", "--n", "4", "--t-grid=-1:1:0.5"], "t-grid start must be nonnegative"),
    ],
    ids=[
        "heat-t", "frame-report-t", "frame-report-grid", "grid-too-fine", "grid-count-overflows",
        "heat-attached-negative-inf", "frame-report-negative-t", "grid-shape", "grid-step", "grid-negative-start",
    ],
)
def test_non_finite_time_fails(tmp_path, capsys, argv, problem):
    out = tmp_path / "r.out"
    err = run_err(capsys, *argv, "--out", str(out))
    assert problem in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, problem",
    [
        ([], "the following arguments are required: command"),
        (["gen", "--family", "ring", "--n", "4", "--bogus"], "unrecognized arguments: --bogus"),
        (["heat", "--family", "ring", "--n", "4", "--t", "abc"], "argument --t: invalid float value: 'abc'"),
        (["frame-report", "--family", "petersen", "--t", "-inf"], "argument --t: expected one argument"),
        (["frame-report", "--family", "petersen", "--t-grid", "-1:1:0.5"], "argument --t-grid: expected one argument"),
        (["heat", "--family", "ring", "--n", "4"], "the following arguments are required: --t"),
        (["gstft", "--family", "ring", "--n", "4", "--signal", "f.csv"], "the following arguments are required: --t"),
        (["gen", "--n", "4"], "the following arguments are required: --family"),
        (["spectrum", "--graph", "g.json", "--family", "ring"], "argument --family: not allowed with argument --graph"),
        (["spectrum", "--n", "4"], "one of the arguments --graph --family is required"),
        (["frame-report", "--family", "petersen", "--t", "1", "--t-grid", "0:1:1"],
         "argument --t-grid: not allowed with argument --t"),
        (["spectrogram", "--signal", "f.csv", "--n", "16"], "argument --n: not allowed with argument --signal"),
    ],
    ids=[
        "no-subcommand", "unknown-flag", "t-not-a-number", "t-negative-inf", "grid-negative-start", "heat-missing-t",
        "gstft-missing-t", "gen-missing-family", "both-graph-sources", "no-graph-source", "t-and-grid", "signal-and-n",
    ],
)
def test_usage_errors_print_one_line_and_return_1(capsys, argv, problem):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {problem}\n")


@pytest.mark.parametrize("argv", [["--help"], ["frame-report", "--help"]], ids=["top", "subcommand"])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gstft")


def test_unreadable_input_names_the_path(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    err = run_err(capsys, "spectrum", "--graph", str(missing))
    assert err.startswith(f"error: cannot read {missing}: ")
    assert err.count("\n") == 1


def _csv_rows(text):
    meta, lines = split_meta(text)
    return meta, [line.split(",") for _, line in lines]


def _agree_heat(csv, doc):
    matrix, meta = matrix_from_csv(csv["r.csv"])
    matrix = matrix.real
    assert meta == {}  # heat CSV carries no meta line
    assert np.array_equal(matrix, np.array(doc["matrix"]))
    assert (doc["meta"]["n"], doc["meta"]["t"]) == (6, 0.7)


def _agree_reconstruct(csv, doc):
    assert split_meta(csv["r.csv"])[0] == {}  # signal CSV carries no meta line
    pairs = np.array(doc["signal"])
    assert np.array_equal(signal_from_csv(csv["r.csv"]), pairs[:, 0] + 1j * pairs[:, 1])
    assert (doc["meta"]["n"], doc["meta"]["t"]) == (8, 0.5)


def _agree_frame_report(csv, doc):
    meta, rows = _csv_rows(csv["r.csv"])
    assert meta == doc["meta"]
    assert rows[0] == ["t", "A", "B", "gap", "ratio", "tight"]
    assert len(rows) - 1 == len(doc["reports"]) == 3
    for row, report in zip(rows[1:], doc["reports"]):
        assert [float(x) for x in row[:5]] == [report[key] for key in rows[0][:5]]
        assert row[5] == ("true" if report["tight"] else "false")
    gamma_meta, gamma_rows = _csv_rows(csv["r_gammas.csv"])
    assert gamma_meta == doc["meta"]
    assert gamma_rows[0] == ["t"] + [f"gamma_{j}" for j in range(5)]
    values = [[float(x) for x in row] for row in gamma_rows[1:]]
    assert values == [[r["t"], *g] for r, g in zip(doc["reports"], doc["gammas"])]


def _agree_sweep_decay(csv, doc):
    meta, rows = _csv_rows(csv["r.csv"])
    assert meta == doc["meta"] == {"n": 20, "seed": 3, "k_list": [3, 5]}
    assert rows[0] == ["k", "lambda2", "t", "gap"]
    assert len(rows) - 1 == len(doc["rows"]) == 6
    for row, expected in zip(rows[1:], doc["rows"]):
        assert int(row[0]) == expected["k"]
        assert [float(x) for x in row[1:]] == [expected[key] for key in rows[0][1:]]


def _agree_spectrogram(csv, doc):
    power, meta = matrix_from_csv(csv["r.csv"])
    power = power.real
    assert meta == doc["meta"] == {"n": 16, "window": "boxcar", "width": 4}
    assert np.array_equal(power, np.array(doc["spectrogram"]))
    dft, dft_meta = matrix_from_csv(csv["r_dft.csv"])
    dft = dft.real
    assert dft_meta == doc["meta"]
    assert np.array_equal(dft[:, 0], np.array(doc["dft_magnitude"]))


@pytest.mark.parametrize(
    "argv, agree",
    [
        (["heat", "--family", "ring", "--n", "6", "--t", "0.7"], _agree_heat),
        (["reconstruct", "--family", "ring", "--n", "8", "--coeffs", "c.csv"], _agree_reconstruct),
        (["frame-report", "--family", "ring", "--n", "5", "--t-grid", "0:1:0.5"], _agree_frame_report),
        (["sweep-decay", "--n", "20", "--k-list", "3,5", "--seed", "3", "--t-grid", "0:1:0.5"], _agree_sweep_decay),
        (["spectrogram", "--n", "16", "--width", "4"], _agree_spectrogram),
    ],
    ids=["heat", "reconstruct", "frame-report", "sweep-decay", "spectrogram"],
)
def test_csv_and_json_reports_agree(tmp_path, capsys, argv, agree):
    """Both formats of one report carry the same numbers and meta; CSV companions included."""
    rng = np.random.default_rng(5)
    (tmp_path / "f.csv").write_text(signal_to_csv(rng.standard_normal(8) + 1j * rng.standard_normal(8)))
    run_ok(capsys, "gstft", "--family", "ring", "--n", "8", "--signal", str(tmp_path / "f.csv"),
           "--t", "0.5", "--out", str(tmp_path / "c.csv"))
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    csv_dir, json_dir = tmp_path / "csv", tmp_path / "json"
    csv_dir.mkdir()
    json_dir.mkdir()
    run_ok(capsys, *argv, "--out", str(csv_dir / "r.csv"))
    run_ok(capsys, *argv, "--format", "json", "--out", str(json_dir / "r.json"))
    assert [p.name for p in json_dir.iterdir()] == ["r.json"]
    csv = {p.name: p.read_text() for p in csv_dir.iterdir()}
    agree(csv, json.loads((json_dir / "r.json").read_text()))


@pytest.mark.parametrize(
    "argv",
    [
        ["frame-report", "--family", "ring", "--n", "5", "--t-grid", "0:1:1"],
        ["spectrogram", "--n", "16", "--width", "4"],
    ],
    ids=["frame-report", "spectrogram"],
)
def test_csv_companion_needs_an_out_path(capsys, argv):
    code, out, err = run(capsys, *argv, "--out", "-")
    assert code == 1 and out == ""
    assert err == f"error: {argv[0]} CSV writes a companion file; --out must be a path\n"


class TestAtomicWrite:
    def test_failed_write_leaves_directory_unchanged(self, tmp_path):
        target = tmp_path / "w.csv"
        target.write_text("old\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(str(target), "bad \ud800\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize(
        "target, errno_",
        [("nodir/g.json", errno.ENOENT), ("adir", errno.EISDIR)],
        ids=["missing-directory", "directory"],
    )
    def test_cli_failure_names_the_path_and_leaves_no_temp_file(self, tmp_path, capsys, target, errno_):
        (tmp_path / "adir").mkdir()
        before = sorted(tmp_path.rglob("*"))
        path = tmp_path / target
        err = run_err(capsys, "gen", "--family", "ring", "--n", "4", "--out", str(path))
        assert err == f"error: cannot write {path}: {os.strerror(errno_)}\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_mode_matches_plain_open(self, tmp_path):
        plain = tmp_path / "plain.csv"
        with open(plain, "w", encoding="utf-8") as handle:
            handle.write("x\n")
        atomic = tmp_path / "atomic.csv"
        write_text_atomic(str(atomic), "x\n")
        assert atomic.read_text() == "x\n"
        assert os.stat(atomic).st_mode == os.stat(plain).st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic.csv", "plain.csv"]


# One complex signal on the 8-ring; the second entry has a negative-zero imaginary part.
PINNED_SIGNAL = "1,0\n-0.5,-0\n0.25,2\n3,-1.5\n0,0.125\n-2,4\n0.75,-0.25\n1e-3,1e3\n"

# Arguments, stdout and the SHA-256 of every file each CSV report writes,
# recorded with the per-entry CSV writer on Linux x86-64, numpy 2.4.6, one
# OpenBLAS thread; byte identity is promised only at such a fixed scope.
PINNED = {
    "spectrum": (["spectrum", "--family", "petersen"], "1.9999999999999989\n", {
        "r.csv": "a12dfd468e06170065d6ffff50179e97a18f34266998740a5a9dc0d145b5b804"}),
    "heat": (["heat", "--family", "ring", "--n", "6", "--t", "0.7"], "", {
        "r.csv": "df230a89332c7d75d3cb7a2f41b577725870799e7bffb419dfc8291cb2d626ce"}),
    "gstft": (["gstft", "--family", "ring", "--n", "8", "--signal", "f.csv", "--t", "0.5"], "", {
        "r.csv": "13b816e44b9f29c4d1bffb8d2a72d1bd2371c72fb3cf2245971a12dd147f7fdf"}),
    "reconstruct-csv": (["reconstruct", "--family", "ring", "--n", "8", "--coeffs", "c.csv"], "", {
        "r.csv": "2618e077e657f0b84780096d6f69c51aafb0bb8061c77bbeabd53dced6f25dc8"}),
    "reconstruct-json": (["reconstruct", "--family", "ring", "--n", "8", "--coeffs", "c.json"], "", {
        "r.csv": "2618e077e657f0b84780096d6f69c51aafb0bb8061c77bbeabd53dced6f25dc8"}),
    "frame-report": (["frame-report", "--family", "ring", "--n", "5", "--t-grid", "0:1:0.5"], "", {
        "r.csv": "d4bb4c360c8b6b5aac351e9e0a58522ede62d9a329952e775b77862439ef5bb1",
        "r_gammas.csv": "3380a6b5a1aefb41ec2d02dd945f0d5d469026d772c40ee31711f895351767aa"}),
    "sweep-decay": (["sweep-decay", "--n", "20", "--k-list", "3,5", "--seed", "3", "--t-grid", "0:1:0.5"], "", {
        "r.csv": "fc7cc29e398478373ca695e5eb038db7ff082a5619fcf94149c07855cf02c249"}),
    "spectrogram": (["spectrogram", "--n", "16", "--width", "4"], "", {
        "r.csv": "672daf2cd141e77adcad8a7b547d4b22fa5d8363171d1b187ff1db1090a51e1a",
        "r_dft.csv": "147f7f22ba5738cc563bbb3b9ebe5371196bd5043f8fa373bb6e14bbca964338"}),
}


# The SHA-256 of the one file each PINNED command writes with --format json,
# recorded at the same scope as the CSV digests; stdout is as in PINNED.
PINNED_JSON = {
    "spectrum": "d96d21985f6c3b82968f814f2115d0108ae5b127727e4f9d2b4933468bfc5627",
    "heat": "99c084f116291930b145fc3e819ac53788e5e6e5bf4b7401e505915625c65bff",
    "gstft": "542951d2a592d91dd72e3c62e8b13810c9255d7ca58cd9e12c67271b3ad91c71",
    "reconstruct-csv": "26cc7b58556985a8f0c28e07ef89aa37e0c618423aafd0757b548cb40d133fdb",
    "reconstruct-json": "26cc7b58556985a8f0c28e07ef89aa37e0c618423aafd0757b548cb40d133fdb",
    "frame-report": "ae14ece13c441f23498d14889a072c16aca9e10f90152a6ce0802c06f6a69f5a",
    "sweep-decay": "d5b050a299e44866c504fa1c4b00fed966eac76f645ed17e60e5e2e715afad3a",
    "spectrogram": "d580791d2b75f872f1df12ca66823296183d67c432c08cbb9b20004acf4a9bb7",
}


@pytest.mark.parametrize("name", list(PINNED))
def test_csv_reports_match_pinned_digests(tmp_path, capsys, name):
    (tmp_path / "f.csv").write_text(PINNED_SIGNAL)
    for fmt in ("csv", "json"):
        run_ok(capsys, "gstft", "--family", "ring", "--n", "8", "--signal", str(tmp_path / "f.csv"),
               "--t", "0.5", "--format", fmt, "--out", str(tmp_path / f"c.{fmt}"))
    argv, expected_stdout, expected_digests = PINNED[name]
    argv = [str(tmp_path / a) if a.endswith((".csv", ".json")) else a for a in argv]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    stdout = run_ok(capsys, *argv, "--out", str(out_dir / "r.csv"))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    assert (stdout, digests) == (expected_stdout, expected_digests)


@pytest.mark.parametrize("name", list(PINNED_JSON))
def test_json_reports_match_pinned_digests(tmp_path, capsys, name):
    (tmp_path / "f.csv").write_text(PINNED_SIGNAL)
    for fmt in ("csv", "json"):
        run_ok(capsys, "gstft", "--family", "ring", "--n", "8", "--signal", str(tmp_path / "f.csv"),
               "--t", "0.5", "--format", fmt, "--out", str(tmp_path / f"c.{fmt}"))
    argv, expected_stdout, _ = PINNED[name]
    argv = [str(tmp_path / a) if a.endswith((".csv", ".json")) else a for a in argv]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    stdout = run_ok(capsys, *argv, "--format", "json", "--out", str(out_dir / "r.json"))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    assert (stdout, digests) == (expected_stdout, {"r.json": PINNED_JSON[name]})


DOCUMENTED = [
    ["gen", "--family", "shrikhande", "--out", "graph.json"],
    ["gen", "--family", "random-regular", "--n", "100", "--k", "3", "--seed", "42", "--out", "rr.json"],
    ["gen", "--family", "ring", "--n", "16", "--out", "ring.json"],
    ["spectrum", "--graph", "ring.json", "--out", "spectrum.csv"],
    ["heat", "--graph", "ring.json", "--t", "1.0", "--out", "heat.csv"],
    ["gstft", "--graph", "ring.json", "--signal", "signal.csv", "--t", "1.0", "--out", "coeffs.csv"],
    ["reconstruct", "--graph", "ring.json", "--coeffs", "coeffs.csv", "--out", "recovered.csv"],
    ["frame-report", "--family", "shrikhande", "--t-grid", "0:10:1", "--out", "report.csv"],
    ["sweep-decay", "--n", "60", "--k-list", "3,5", "--seed", "42", "--t-grid", "0.1:4:0.1", "--out", "decay.csv"],
    ["spectrogram", "--out", "spectrogram.csv"],
]


def run_documented(base, capsys):
    base.mkdir(exist_ok=True)
    signal = np.full(16, 0.5)
    signal[3] = 2.0
    (base / "signal.csv").write_text(signal_to_csv(signal.astype(complex)))
    stdout_chunks = []
    for argv in DOCUMENTED:
        argv = [str(base / a) if a.endswith((".json", ".csv")) else a for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        stdout_chunks.append(captured.out)
    files = {p.name: p.read_bytes() for p in sorted(base.iterdir())}
    return stdout_chunks, files


def test_documented_invocations_are_deterministic(tmp_path, capsys):
    out_a, files_a = run_documented(tmp_path / "a", capsys)
    out_b, files_b = run_documented(tmp_path / "b", capsys)
    assert out_a == out_b
    assert sorted(files_a) == sorted(files_b)
    for name in files_a:
        assert files_a[name] == files_b[name], f"{name} differs between runs"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gstft", "gen", "--family", "ring", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 4


def test_module_entry_point_error_status():
    proc = subprocess.run(
        [sys.executable, "-m", "gstft", "gen", "--family", "ring", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")


def test_module_entry_point_usage_error_status():
    proc = subprocess.run([sys.executable, "-m", "gstft"], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: the following arguments are required: command\n"
