"""Command-line interface: subcommands, formats, errors, determinism."""
import errno
import gc
import hashlib
import importlib
import json
import os
import runpy
import shlex
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gstft import classical, cli, gabor, graphs, heat, spectral
from gstft.cli import main
from gstft.formats import (
    graph_sha256, matrix_from_csv, matrix_to_csv, signal_from_csv, signal_to_csv, split_meta, write_text_atomic,
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


def edge_list_text(g):
    """``g``'s edges as edge-list text, last edge first, each pair reversed, with comments."""
    return "# edges, last first\n" + "".join(f"{j} {i}  # edge\n" for i, j in g.edges.tolist()[::-1])


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

    def test_negative_seed_fails_naming_the_seed(self, tmp_path, capsys):
        code, out, err = run(capsys, "gen", "--family", "random-regular", "--n", "4", "--k", "3", "--seed", "-1",
                             "--out", str(tmp_path / "g.json"))
        assert (code, out, err) == (1, "", "error: seed must be a nonnegative integer, got -1\n")
        assert not (tmp_path / "g.json").exists()

    def test_from_edgelist(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("# triangle\n0 1\n1 2\n2 0\n")
        out = tmp_path / "g.json"
        run_ok(capsys, "gen", "--graph", str(edges), "--out", str(out))
        assert out.read_text() == '{"n":3,"edges":[[0,1],[0,2],[1,2]]}\n'

    def test_edge_list_json_and_family_write_the_same_document(self, tmp_path, capsys):
        g = graphs.petersen_graph()
        (tmp_path / "g.txt").write_text(edge_list_text(g))
        (tmp_path / "g.json").write_text(json.dumps({"n": 10, "edges": g.edges.tolist()[::-1]}, indent=1))
        sources = {"text": ["--graph", str(tmp_path / "g.txt")], "json": ["--graph", str(tmp_path / "g.json")],
                   "family": ["--family", "petersen"]}
        written = {name: run_ok(capsys, "gen", *argv) for name, argv in sources.items()}
        assert written == dict.fromkeys(sources, graphs.serialize(g) + "\n")

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_holds_the_document_alone(self, capsys, fmt):
        # the Fiedler value is printed only beside a document written to a file
        stdout = run_ok(capsys, "spectrum", "--family", "petersen", "--format", fmt, "--out", "-")
        if fmt == "json":
            assert len(json.loads(stdout)["eigenvalues"]) == 10
        else:
            assert [len(row.split(",")) for row in stdout.splitlines()] == [11] * 10

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
        assert err == f"error: coefficient file {coeffs}: coefficients are for n=8 but graph has n=5\n"

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
        assert err == f"error: coefficient file {coeffs}: coefficients were produced from a different graph\n"

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
            ('{"matrix": [[[1%s, 0]]]}' % ("0" * 400), "[re, im] pair of numbers"),
            ('{"matrix": []}', "list of equal-length rows"),
        ],
        ids=[
            "no-matrix", "ragged", "scalar", "truncated", "bare-number", "strings", "nan", "infinity",
            "meta-scalar", "meta-n-string", "meta-t-string", "meta-sha-number", "csv-meta-list", "csv-meta-truncated",
            "csv-cell", "csv-ragged", "csv-nan", "csv-inf", "csv-no-rows", "integer-beyond-float", "empty",
        ],
    )
    def test_json_coefficients_without_matrix_fail(self, tmp_path, capsys, ring8_setup, text, problem):
        graph_path, _, _ = ring8_setup
        coeffs = tmp_path / ("bad.json" if text.startswith("{") else "bad.csv")
        coeffs.write_text(text)
        err = run_err(capsys, "reconstruct", "--graph", str(graph_path), "--coeffs", str(coeffs), "--t", "1", "--out", "-")
        assert err.startswith(f"error: coefficient file {coeffs}: ")
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
            (2, ("--t", "1"), "coefficient file {coeffs}: coefficient matrix shape (2, 2) does not match n=8"),
            (8, (), "no window time available: pass --t or use a coefficient file with metadata"),
        ],
        ids=["wrong-shape", "no-time"],
    )
    def test_coefficients_without_metadata_fail(self, tmp_path, capsys, ring8_setup, size, t, problem):
        graph_path, _, _ = ring8_setup
        coeffs = tmp_path / "bare.csv"
        coeffs.write_text(matrix_to_csv(np.eye(size, dtype=complex)))
        err = run_err(capsys, "reconstruct", "--graph", str(graph_path), "--coeffs", str(coeffs), *t, "--out", "-")
        assert err == f"error: {problem.format(coeffs=coeffs)}\n"

    @pytest.mark.parametrize(
        "name, meta_t, problem",
        [
            ("c.csv", "1e999", "t must be finite, got inf"),
            ("c.csv", "NaN", "t must not be NaN"),
            ("c.json", "-Infinity", "t must be finite, got -inf"),
            ("c.csv", "1" + "0" * 400, "t must be finite, got a number beyond float range"),
            ("c.json", "1" + "0" * 400, "t must be finite, got a number beyond float range"),
        ],
        ids=["csv-overflow", "csv-nan", "json-minus-infinity", "csv-integer-beyond-float", "json-integer-beyond-float"],
    )
    def test_bad_meta_time_names_the_file(self, tmp_path, capsys, ring8_setup, name, meta_t, problem):
        graph_path, _, _ = ring8_setup
        coeffs = tmp_path / name
        meta = f'{{"n": 8, "t": {meta_t}}}'
        if name.endswith(".json"):
            coeffs.write_text(f'{{"meta": {meta}, "matrix": {json.dumps([[[0, 0]] * 8] * 8)}}}')
        else:
            coeffs.write_text(f"# meta {meta}\n" + matrix_to_csv(np.zeros((8, 8), complex)))
        err = run_err(capsys, "reconstruct", "--graph", str(graph_path), "--coeffs", str(coeffs), "--out", "-")
        assert err == f"error: coefficient file {coeffs}: {problem}\n"

    @pytest.mark.parametrize("where, line", [("after", 10), ("before", 2)], ids=["after-the-data", "second-leading"])
    def test_meta_line_must_come_before_the_data_and_once(self, tmp_path, capsys, ring8_setup, where, line):
        # a later meta line used to override the leading one: t=2.0 scaled the signal back by ~1.13
        graph_path, signal_path, _ = ring8_setup
        coeffs = tmp_path / "coeffs.csv"
        run_ok(capsys, "gstft", "--graph", str(graph_path), "--signal", str(signal_path), "--t", "1.0", "--out", str(coeffs))
        text = coeffs.read_text()
        other = text.splitlines()[0].replace('"t":1.0', '"t":2.0')
        coeffs.write_text(text + other + "\n" if where == "after" else other + "\n" + text)
        err = run_err(capsys, "reconstruct", "--graph", str(graph_path), "--coeffs", str(coeffs), "--out", "-")
        assert err == f"error: coefficient file {coeffs}: line {line}: a '# meta' line must come before the data, and only once\n"

    def test_signal_length_mismatch_fails(self, tmp_path, capsys, ring8_setup):
        graph_path, _, _ = ring8_setup
        short = tmp_path / "short.csv"
        short.write_text("1,0\n2,0\n")
        err = run_err(capsys, "gstft", "--graph", str(graph_path), "--signal", str(short), "--t", "1.0", "--out", "-")
        assert err == f"error: signal file {short}: signal length 2 does not match n=8\n"


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
            capsys, "frame-report", "--graph", str(edges), "--t-grid", "0:2:1", "--out", str(out),
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

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["frame-report", "--t=-0"], "0,0.99999999999999956,"),
            (["heat", "--t=-0", "--format", "json"], '"t":0.0'),
            (["frame-report", "--t-grid=-0:1:1", "--format", "json"], '"t":0.0'),
        ],
        ids=["frame-report-csv", "heat-json", "grid-json"],
    )
    def test_minus_zero_time_is_written_as_zero(self, tmp_path, capsys, argv, expected):
        out = tmp_path / "r.out"
        run_ok(capsys, *argv, "--family", "ring", "--n", "4", "--out", str(out))
        assert expected in out.read_text() and "-0" not in out.read_text()

    def test_huge_time_reports_the_uniform_limit(self, capsys, family="ring", n=5, t="1e308"):
        size = ("--d", str(n.bit_length() - 1)) if family == "hypercube" else ("--n", str(n))
        out = run_ok(capsys, "frame-report", "--family", family, *size, "--t", t, "--format", "json", "--out", "-")

        def refuse(name):
            raise ValueError(f"non-finite JSON constant {name}")

        doc = json.loads(out, parse_constant=refuse)
        (report,) = doc["reports"]
        assert report["tight"] is True
        assert max(abs(g - 1 / n) for g in doc["gammas"][0]) <= 1e-15

    # eigh returns the zero eigenvalue of K10 and ring 64 slightly positive (4.0e-15 and 5.1e-16), and
    # that of Q8 (n = 256) positive or negative depending on the BLAS thread count (3.3e-15 at one thread).
    @pytest.mark.parametrize("family, n, t", [("complete", 10, "3e4"), ("ring", 64, "1e6"), ("hypercube", 256, "1e300")])
    def test_large_time_reports_the_uniform_limit_despite_roundoff(self, capsys, family, n, t):
        self.test_huge_time_reports_the_uniform_limit(capsys, family, n, t)


    def test_monotone_gap_columns_at_moderate_times(self, tmp_path, capsys):
        for k in ("3", "5"):
            out = tmp_path / f"rr{k}.csv"
            run_ok(capsys, "frame-report", "--family", "random-regular", "--n", "60", "--k", k, "--seed", "42",
                   "--t-grid", "2:6:0.5", "--out", str(out))
            gaps = [float(row[3]) for row in _csv_rows(out.read_text())[1][1:]]
            assert len(gaps) == 9
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
        # width 1 is the unit impulse: the power rows are those the removed `--window delta` wrote,
        # pinned at the scope of PINNED below
        out = tmp_path / "spec.csv"
        run_ok(capsys, "spectrogram", "--n", "32", "--width", "1", "--out", str(out))
        meta_line, rows = out.read_text().split("\n", 1)
        assert meta_line == '# meta {"n":32,"width":1,"window":"boxcar"}'
        assert hashlib.sha256(rows.encode()).hexdigest() == (
            "3964604b6203e45d2151a60133e7ecdb408533471b3630c83ac843c8157920e9")

    @pytest.mark.parametrize("argv, width", [([], 32), (["--width", "8"], 8), (["--width", "1"], 1)],
                             ids=["default", "boxcar-8", "delta"])
    def test_meta_names_the_width_used(self, tmp_path, capsys, argv, width):
        out = tmp_path / "spec.csv"
        run_ok(capsys, "spectrogram", "--n", "64", *argv, "--out", str(out))
        assert matrix_from_csv(out.read_text())[1]["width"] == width

    @pytest.mark.parametrize("source, n", [("n", 16), ("signal", 5)])
    def test_default_width_fits_a_short_signal(self, tmp_path, capsys, source, n):
        signal = tmp_path / "s.csv"
        signal.write_text("1,0\n" * n)
        argv = ["--n", str(n)] if source == "n" else ["--signal", str(signal)]
        out = tmp_path / "spec.csv"
        run_ok(capsys, "spectrogram", *argv, "--out", str(out))
        power, meta = matrix_from_csv(out.read_text())
        assert meta == {"n": n, "window": "boxcar", "width": n}
        assert power.shape == (n, n)

    @pytest.mark.parametrize("source", ["n", "signal"])
    @pytest.mark.parametrize("width", ["1", "8"])
    def test_width_with_delta_window_refused_before_any_work(self, tmp_path, capsys, source, width):
        # --width is the one window setting; the removed --window option is a usage error
        argv = ["--n", "16"] if source == "n" else ["--signal", str(tmp_path / "missing.csv")]
        out = tmp_path / "spec.csv"
        err = run_err(capsys, "spectrogram", *argv, "--window", "delta", "--width", width, "--out", str(out))
        assert err == "error: unrecognized arguments: --window delta\n"
        assert not out.exists()

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
        prefix = "error: " if source == "n" else f"error: signal file {signal}: "
        assert err.startswith(f"{prefix}signal length {length} exceeds")
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
    "argv",
    [
        ["frame-report", "--graph", "{graph}", "--t-grid", "0:1:0.5"],
        ["frame-report", "--family", "random-regular", "--n", "1", "--k", "0", "--t", "1"],
        ["spectrum", "--graph", "{graph}"],
    ],
    ids=["frame-report-graph-file", "frame-report-family", "spectrum"],
)
def test_one_vertex_graph_refused_before_any_work(tmp_path, capsys, monkeypatch, argv):
    # a one-vertex graph has no lambda_2: refused before any heat kernel is built or any file written
    graph = tmp_path / "g.json"
    graph.write_text('{"n": 1, "edges": []}')
    built = []
    monkeypatch.setattr(gabor, "heat_kernel", lambda d, t: built.append(t) or heat.heat_kernel(d, t))
    out = tmp_path / "r.csv"
    err = run_err(capsys, *(arg.format(graph=graph) for arg in argv), "--out", str(out))
    assert err == "error: Fiedler value is undefined for a single-vertex graph\n"
    assert built == []
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
        (["gen", "--n", "4"], "one of the arguments --graph --family is required"),
        (["spectrum", "--graph", "g.json", "--family", "ring"], "argument --family: not allowed with argument --graph"),
        (["spectrum", "--n", "4"], "one of the arguments --graph --family is required"),
        (["frame-report", "--family", "petersen", "--t", "1", "--t-grid", "0:1:1"],
         "argument --t-grid: not allowed with argument --t"),
        (["spectrogram", "--signal", "f.csv", "--n", "16"], "argument --n: not allowed with argument --signal"),
        # argparse tells an option given from one left at its default by identity with the default
        (["spectrogram", "--signal", "f.csv", "--n", "256"], "argument --n: not allowed with argument --signal"),
        (["frame-report", "--family", "petersen", "--t", "1", "--t-grid", "0:10:0.1"],
         "argument --t-grid: not allowed with argument --t"),
        # each of --n/--k/--d/--seed that the graph source does not read is refused; g.json does not exist
        (["gen", "--family", "petersen", "--n", "7"], "--n does not apply to --family petersen"),
        (["spectrum", "--family", "ring", "--n", "4", "--k", "3"], "--k does not apply to --family ring"),
        (["frame-report", "--family", "hypercube", "--d", "3", "--seed", "1", "--t", "1"],
         "--seed does not apply to --family hypercube"),
        (["gen", "--family", "random-regular", "--n", "10", "--k", "3", "--d", "2"],
         "--d does not apply to --family random-regular"),
        (["heat", "--graph", "g.json", "--n", "4", "--t", "1"], "--n does not apply to --graph"),
        (["gen", "--family", "ring"], "--n is required for ring"),
        (["gen", "--family", "random-regular", "--n", "10"], "--k is required for random-regular"),
        # every number argparse parses keeps the files' number grammar: ASCII with no '_'
        (["gen", "--family", "ring", "--n", "1_0"], "argument --n: invalid int value: '1_0'"),
        (["heat", "--family", "ring", "--n", "4", "--t", "\u0660.5"], "argument --t: invalid float value: '\u0660.5'"),
        (["spectrogram", "--n", "16", "--width", "\u0663"], "argument --width: invalid int value: '\u0663'"),
        (["gen", "--family", "random-regular", "--n", "10", "--k", "3", "--seed", "4_2"],
         "argument --seed: invalid int value: '4_2'"),
    ],
    ids=[
        "no-subcommand", "unknown-flag", "t-not-a-number", "t-negative-inf", "grid-negative-start", "heat-missing-t",
        "gstft-missing-t", "gen-missing-family", "both-graph-sources", "no-graph-source", "t-and-grid", "signal-and-n",
        "signal-and-default-n", "t-and-default-grid", "petersen-n", "ring-k", "hypercube-seed", "random-regular-d",
        "graph-file-n", "ring-missing-n", "random-regular-missing-k", "n-underscore", "t-arabic-indic-digit",
        "width-arabic-indic-digit", "seed-underscore",
    ],
)
def test_usage_errors_print_one_line_and_return_1(capsys, argv, problem):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {problem}\n")


@pytest.mark.parametrize(
    "argv, problem",
    [
        (["gen", "--family", "shrikhande", "--seed", "0"], "--seed does not apply to --family shrikhande"),
        (["gstft", "--graph", "{graph}", "--signal", "{signal}", "--t", "1", "--k", "3"], "--k does not apply to --graph"),
        (["frame-report", "--family", "complete", "--n", "5", "--d", "2", "--format", "json"],
         "--d does not apply to --family complete"),
    ],
    ids=["gen-family", "gstft-graph-file", "frame-report-family"],
)
def test_unread_graph_option_refused_before_any_input_or_output(tmp_path, capsys, monkeypatch, argv, problem):
    graph, signal, out = tmp_path / "g.json", tmp_path / "f.csv", tmp_path / "r.out"
    graph.write_text('{"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}')
    signal.write_text("1,0\n0,0\n0,0\n")
    read = []
    monkeypatch.setattr(cli, "_read", lambda path, *rest: read.append(path))
    err = run_err(capsys, *(arg.format(graph=graph, signal=signal) for arg in argv), "--out", str(out))
    assert err == f"error: {problem}\n"
    assert read == []
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["frame-report", "--help"]], ids=["top", "subcommand"])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gstft")


@pytest.mark.parametrize("command", ["gen", "spectrum", "frame-report"])
def test_removed_edge_list_spellings_are_usage_errors(tmp_path, capsys, command):
    # edge-list text is read through --graph; there is no family or option for it
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n2 0\n")
    err = run_err(capsys, command, "--family", "from-edgelist", "--edgelist", str(edges))
    assert err.startswith("error: argument --family: invalid choice: 'from-edgelist' (choose from ")
    err = run_err(capsys, command, "--graph", str(edges), "--edgelist", str(edges))
    assert err == f"error: unrecognized arguments: --edgelist {edges}\n"


def test_unreadable_input_names_the_path(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    err = run_err(capsys, "spectrum", "--graph", str(missing))
    assert err == f"error: cannot read {missing}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv, content, problem",
    [
        (["spectrum", "--graph"], b'{"n": 4, "edges": [[0, 1], [2, 3]]}', "graph file {}: graph is disconnected"),
        (["spectrum", "--graph"], b"0 1\n1 x\n",
         "graph file {}: edge-list line 2: invalid literal for int() with base 10: 'x'"),
        (["spectrum", "--graph"], b'{"n": 2, "edges": [[0, 1]]}\xff',
         "cannot read {}: not UTF-8 text (invalid start byte at byte 27)"),
        (["spectrogram", "--signal"], b"1,0\n\xff\n", "cannot read {}: not UTF-8 text (invalid start byte at byte 4)"),
        (["spectrum", "--graph"], b'{"n": 3, "edges": [[0, 1], [1, 1%s]]}' % (b"0" * 30),
         "graph file {}: edge (1,1%s) out of range for n=3" % ("0" * 30)),
        (["spectrum", "--graph"], b"0 1\n1 1%s\n" % (b"0" * 30),
         "graph file {}: graph on 1%s1 vertices exceeds the 4096-vertex limit" % ("0" * 29)),
        (["spectrum", "--graph"], b"-1 -2\n", "graph file {}: edge (-1,-2) out of range for n=1"),
        (["spectrum", "--graph"], b'{"n": 3, "edges": [[0, 1], [1, 1.5]]}',
         "graph file {}: graph document: edge endpoints must be integers, got (1,1.5)"),
        (["spectrum", "--graph"], b'{"n": 3, "edges": [[0, 1], [true, 2]]}',
         "graph file {}: graph document: edge endpoints must be integers, got (True,2)"),
    ],
    ids=["disconnected-graph", "edge-list-line", "graph-not-utf8", "signal-not-utf8", "graph-endpoint-beyond-int64",
         "edge-list-endpoint-beyond-int64", "edge-list-all-negative", "graph-float-endpoint", "graph-bool-endpoint"],
)
def test_input_file_errors_name_the_file(tmp_path, capsys, argv, content, problem):
    path = tmp_path / "input"
    path.write_bytes(content)
    err = run_err(capsys, *argv, str(path), "--out", str(tmp_path / "r.csv"))
    assert err == f"error: {problem.format(path)}\n"


@pytest.mark.parametrize("kind", ["graph-json", "graph-edge-list", "signal", "coeffs-csv", "coeffs-json"])
def test_leading_byte_order_mark_is_not_data(tmp_path, capsys, ring8_setup, kind):
    graph_path, signal_path, _ = ring8_setup
    edges = tmp_path / "ring8.txt"
    edges.write_text(edge_list_text(graphs.ring_graph(8)))
    coeffs = {fmt: tmp_path / f"coeffs.{fmt}" for fmt in ("csv", "json")}
    for fmt, path in coeffs.items():
        run_ok(capsys, "gstft", "--graph", str(graph_path), "--signal", str(signal_path), "--t", "1", "--format", fmt,
               "--out", str(path))
    source, argv = {
        "graph-json": (graph_path, ["gen", "--graph"]),
        "graph-edge-list": (edges, ["gen", "--graph"]),
        "signal": (signal_path, ["gstft", "--graph", str(graph_path), "--t", "1", "--signal"]),
        "coeffs-csv": (coeffs["csv"], ["reconstruct", "--graph", str(graph_path), "--coeffs"]),
        "coeffs-json": (coeffs["json"], ["reconstruct", "--graph", str(graph_path), "--coeffs"]),
    }[kind]
    marked = tmp_path / f"bom-{source.name}"
    marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    outputs = []
    for path in (source, marked):
        out = tmp_path / f"out-{path.name}"
        run_ok(capsys, *argv, str(path), "--out", str(out))
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# Readers of the ring-8 inputs below, each with its file's kind as the error prefix names it.
RING8_READERS = {
    "signal": ["gstft", "--family", "ring", "--n", "8", "--t", "0.5", "--signal"],
    "coefficient": ["reconstruct", "--family", "ring", "--n", "8", "--t", "0.5", "--coeffs"],
    "graph": ["gen", "--graph"],
}
RING8_SIGNAL = "1,0\n2,0.5\n-1,0\n0.25,-2\n3,1\n0,0\n-0.5,0.5\n1e-3,7\n"
RING8_EDGE_LIST = "".join(f"{i} {(i + 1) % 8}\n" for i in range(8))
IDENTITY8_CSV = matrix_to_csv(np.eye(8, dtype=complex))


def _with_entry(entry):
    """The 8 x 8 identity as a JSON coefficient document, with ``entry`` at row 2, column 3."""
    matrix = [[[float(i == j), 0.0] for j in range(8)] for i in range(8)]
    matrix[1][2] = entry
    return json.dumps({"matrix": matrix})


@pytest.mark.parametrize(
    "kind, text, problem",
    [
        ("signal", RING8_SIGNAL.replace("1,0", "1_0,0", 1), "line 1: a number must be ASCII text with no '_', got '1_0,0'"),
        ("signal", RING8_SIGNAL.replace("3,1", "\u0663,1"), "line 5: a number must be ASCII text with no '_', got '\u0663,1'"),
        ("coefficient", IDENTITY8_CSV.replace("1+0j", "1_0+0j", 1), "row 1 (line 1): a number must be ASCII text with no '_'"),
        ("coefficient", _with_entry([True, False]),
         "'matrix' must be a list of equal-length rows, each entry a [re, im] pair of numbers"),
        ("coefficient", _with_entry([1, True]),
         "'matrix' must be a list of equal-length rows, each entry a [re, im] pair of numbers"),
        ("graph", RING8_EDGE_LIST.replace("0 1", "0_0 1"),
         "edge-list line 1: expected two ASCII vertex indices with no '_', got '0_0 1'"),
        ("graph", RING8_EDGE_LIST.replace("1 2", "1 \u0662"),
         "edge-list line 2: expected two ASCII vertex indices with no '_', got '1 \u0662'"),
    ],
    ids=["signal-underscore", "signal-arabic-indic-digit", "coefficient-csv-underscore", "coefficient-json-bools",
         "coefficient-json-bool-part", "edge-list-underscore", "edge-list-arabic-indic-digit"],
)
def test_number_forms_no_writer_emits_are_refused(tmp_path, capsys, kind, text, problem):
    # Python's float(), complex() and int() read 1_0 as 10 and an Arabic-Indic digit as its value, and
    # NumPy reads a JSON true as 1; the readers keep one grammar, ASCII with no '_' and no JSON boolean
    path, out = tmp_path / "input", tmp_path / "out"
    path.write_text(text, encoding="utf-8")
    err = run_err(capsys, *RING8_READERS[kind], str(path), "--out", str(out))
    assert err == f"error: {kind} file {path}: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, text, commented",
    [
        ("signal", RING8_SIGNAL, "# café\n" + RING8_SIGNAL.replace("3,1\n", "3,1\n  # café\n")),
        ("coefficient", IDENTITY8_CSV, "# café\n" + IDENTITY8_CSV.replace("\n", "\n# café\n", 1)),
        ("graph", RING8_EDGE_LIST, "# café\n" + RING8_EDGE_LIST.replace("1 2\n", "1 2  # café\n")),
    ],
    ids=["signal", "coefficient-csv", "edge-list"],
)
def test_non_ascii_comments_are_not_data(tmp_path, capsys, kind, text, commented):
    # the number grammar holds for data: comment lines, and an edge list's end-of-line comment, may hold any text
    outputs = []
    for name, content in (("plain", text), ("commented", commented)):
        path, out = tmp_path / name, tmp_path / f"out-{name}"
        path.write_text(content, encoding="utf-8")
        run_ok(capsys, *RING8_READERS[kind], str(path), "--out", str(out))
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


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
        (["spectrogram", "--n", "16", "--width", "4"], _agree_spectrogram),
    ],
    ids=["heat", "reconstruct", "frame-report", "spectrogram"],
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


@pytest.fixture(name="costly_calls")
def costly_calls_fixture(monkeypatch):
    """Every decomposition, graph sampling and spectrogram the CLI starts, by name."""
    calls = []
    for module, name in ((spectral, "decompose"), (graphs, "random_regular_graph"), (classical, "spectrogram")):
        def traced(*args, _name=name, _original=getattr(module, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(module, name, traced)
    return calls


@pytest.mark.parametrize(
    "argv, line",
    [
        (["heat", "--family", "ring", "--n", "40", "--t", "-1"], "t must be nonnegative, got -1.0"),
        (["heat", "--family", "ring", "--n", "40", "--t", "nan"], "t must not be NaN"),
        (["gstft", "--family", "ring", "--n", "40", "--signal", "two.csv", "--t", "1"],
         "signal file two.csv: signal length 2 does not match n=40"),
        # each file is read and checked before any argument value
        (["gstft", "--family", "ring", "--n", "40", "--signal", "two.csv", "--t=-inf"],
         "signal file two.csv: signal length 2 does not match n=40"),
        (["reconstruct", "--family", "ring", "--n", "4", "--coeffs", "meta.csv"],
         "coefficient file meta.csv: t must be nonnegative, got -1.0"),
        (["reconstruct", "--family", "ring", "--n", "4", "--coeffs", "bare.csv", "--t", "inf"],
         "t must be finite, got inf"),
        (["reconstruct", "--family", "ring", "--n", "5", "--coeffs", "ring4.csv"],
         "coefficient file ring4.csv: coefficients are for n=4 but graph has n=5"),
        (["reconstruct", "--family", "ring", "--n", "5", "--coeffs", "bare.csv", "--t", "1"],
         "coefficient file bare.csv: coefficient matrix shape (4, 4) does not match n=5"),
        (["reconstruct", "--family", "complete", "--n", "4", "--coeffs", "ring4.csv"],
         "coefficient file ring4.csv: coefficients were produced from a different graph"),
        (["reconstruct", "--family", "ring", "--n", "4", "--coeffs", "ring4.csv", "--t", "2"],
         "--t 2.0 conflicts with coefficient metadata t=0.5"),
        (["reconstruct", "--family", "ring", "--n", "4", "--coeffs", "bare.csv"],
         "no window time available: pass --t or use a coefficient file with metadata"),
        (["frame-report", "--family", "ring", "--n", "40", "--t", "-1", "--out", "r.csv"],
         "t must be nonnegative, got -1.0"),
        (["frame-report", "--family", "ring", "--n", "40", "--out", "-"],
         "frame-report CSV writes a companion file; --out must be a path"),
        (["spectrogram", "--n", "64", "--out", "-"], "spectrogram CSV writes a companion file; --out must be a path"),
        # sizes are checked before the companion --out, as with --out F
        (["spectrogram", "--n", "0", "--out", "-"], "signal length must be >= 2, got 0"),
        (["spectrogram", "--n", "8", "--width", "0", "--out", "-"], "window width must be in 1..8, got 0"),
        (["frame-report", "--family", "random-regular", "--n", "60", "--k", "9", "--out", "r.csv"],
         "pairing model needs about 1.3e+09 attempts for a simple 9-regular graph on 60 vertices, "
         "more than a third of the 1000000 attempts allowed"),
        (["frame-report", "--family", "random-regular", "--n", "200", "--k", "100", "--out", "r.csv"],
         "pairing model needs about 3.8e+1266 attempts for a simple 100-regular graph on 200 vertices, "
         "more than a third of the 1000000 attempts allowed"),
        (["frame-report", "--family", "random-regular", "--n", "21", "--k", "3", "--out", "r.csv"],
         "n*k must be even, got n=21, k=3"),
        (["frame-report", "--family", "random-regular", "--n", "20", "--k", "20", "--out", "r.csv"],
         "degree must satisfy 0 <= k < n, got k=20, n=20"),
        (["frame-report", "--family", "random-regular", "--n", "20", "--k", "1", "--out", "r.csv"],
         "no 1-regular graph on 20 vertices is connected; k <= 1 needs n = k + 1"),
        # 1e16 + 1 rounds back to 1e16, so the grid's first two points collapse
        (["frame-report", "--family", "ring", "--n", "5", "--t-grid", "1e16:1.0000000000000002e16:1", "--out", "r.csv"],
         "t-grid '1e16:1.0000000000000002e16:1' has repeated points; its step is lost to rounding"),
        (["frame-report", "--family", "ring", "--n", "5", "--t-grid", "a:1:1", "--out", "r.csv"],
         "t-grid values must be numbers, got 'a:1:1'"),
        (["frame-report", "--family", "random-regular", "--n", "20", "--k", "3", "--seed", "-1", "--out", "r.csv"],
         "seed must be a nonnegative integer, got -1"),
        (["frame-report", "--family", "petersen", "--t-grid", "0:1_0:5", "--out", "r.csv"],
         "t-grid values must be numbers, got '0:1_0:5'"),
    ],
    ids=[
        "heat-negative-t", "heat-nan-t", "gstft-signal-length", "gstft-length-before-time", "reconstruct-meta-t",
        "reconstruct-t", "reconstruct-meta-n", "reconstruct-shape", "reconstruct-digest", "reconstruct-t-conflict",
        "reconstruct-no-time", "frame-report-t", "frame-report-stdout", "spectrogram-stdout",
        "spectrogram-stdout-length", "spectrogram-stdout-width", "random-regular-estimate",
        "random-regular-beyond-float", "random-regular-parity", "random-regular-range", "random-regular-disconnected",
        "frame-report-collapsed-grid", "frame-report-grid-not-numbers", "random-regular-negative-seed",
        "frame-report-grid-underscore",
    ],
)
def test_argument_errors_refused_before_costly_work(tmp_path, capsys, monkeypatch, costly_calls, argv, line):
    # times, signal length, degrees and a companion --out are refused before any decomposition,
    # sampling or transform, with the same line as when they were refused after it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two.csv").write_text("1\n2\n")
    (tmp_path / "meta.csv").write_text(matrix_to_csv(np.zeros((4, 4), complex), meta={"n": 4, "t": -1}))
    (tmp_path / "bare.csv").write_text(matrix_to_csv(np.zeros((4, 4), complex)))
    ring4 = {"n": 4, "t": 0.5, "graph_sha256": graph_sha256(graphs.serialize(graphs.ring_graph(4)))}
    (tmp_path / "ring4.csv").write_text(matrix_to_csv(np.zeros((4, 4), complex), meta=ring4))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {line}\n")
    assert costly_calls == []
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--family", "hypercube", "--d", "20000"], "hypercube on 2^20000 vertices exceeds the 4096-vertex limit"),
        (["--family", "random-regular", "--n", "200", "--k", "100"],
         "pairing model needs about 3.8e+1266 attempts for a simple 100-regular graph on 200 vertices, "
         "more than a third of the 1000000 attempts allowed"),
    ],
    ids=["hypercube", "random-regular"],
)
def test_gen_refuses_a_size_beyond_float_and_string_range(tmp_path, capsys, argv, line):
    code, out, err = run(capsys, "gen", *argv, "--out", str(tmp_path / "g.json"))
    assert (code, out, err) == (1, "", f"error: {line}\n")
    assert not (tmp_path / "g.json").exists()


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestMatrixCsvMemory:
    """The codec holds a document once: a joined text, or one line and one complex128 array per row."""

    @pytest.fixture(scope="class")
    def matrix(self):
        rng = np.random.default_rng(5)
        return rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))

    def test_writer_peaks_near_two_texts(self, matrix):
        # the lines and the joined text, each about the text's size; one more copy of the text reaches 3x
        text, peak = _traced_peak(lambda: matrix_to_csv(matrix))
        assert peak <= 2.2 * len(text)

    def test_reader_holds_no_python_complex_per_cell(self, matrix):
        # the row arrays and the matrix (16 B a cell each) and 8 B a cell of slack; the data lines held
        # together (about 41 B a cell) or every cell as a Python complex and its list slot (40 B) break it
        text = matrix_to_csv(matrix)
        (back, _), peak = _traced_peak(lambda: matrix_from_csv(text))
        assert np.array_equal(back, matrix)
        assert peak <= 40 * matrix.size


@pytest.mark.parametrize(
    "read, text, problem",
    [
        (matrix_from_csv, '# note\n# meta {"n": 2}\n\n1+0j,2+0j\n# note\n3+0j,4-1j\n', None),
        (matrix_from_csv, '# meta {"n": 2}\n1+0j,2+0j\n\n3+0j,x\n', "row 2 (line 4): invalid complex value 'x'"),
        (matrix_from_csv, "1+0j,2+0j\n\n3+0j\n", "row 2 (line 3) has 1 entries but row 1 has 2"),
        (matrix_from_csv, "1+0j\n\n0+infj\n", "row 2 (line 3): non-finite entry"),
        (matrix_from_csv, "1+0j\n\n# meta {}\n", "line 3: a '# meta' line must come before the data, and only once"),
        # one pass: the first fault in the text is the one reported
        (matrix_from_csv, "1+0j,nan+0j\nabc,1+0j\n", "row 1 (line 1): non-finite entry"),
        (matrix_from_csv, "abc\n# meta {}\n", "row 1 (line 1): invalid complex value 'abc'"),
        (signal_from_csv, "# meta {}\n1,0\n\n-2.5\n", None),
        (signal_from_csv, "1,0\n\nnan,0\n", "line 3: non-finite value 'nan,0'"),
        (signal_from_csv, "1,0\n\n2,0,0\n", "line 3: expected 're' or 're,im', got '2,0,0'"),
    ],
    ids=["matrix", "matrix-cell", "matrix-ragged", "matrix-inf", "matrix-late-meta", "matrix-nan-before-cell",
         "matrix-cell-before-meta", "signal", "signal-nan", "signal-three-parts"],
)
def test_crlf_text_reads_as_its_lf_form(read, text, problem):
    # "\r\n" ends are stripped with their line, and lines are numbered as in the "\n" form
    crlf = text.replace("\n", "\r\n")
    if problem is None:
        np.testing.assert_equal(read(crlf), read(text))
        return
    for form in (text, crlf):
        with pytest.raises(ValueError) as info:
            read(form)
        assert str(info.value) == problem


@pytest.mark.parametrize(
    "read, text, lineno",
    [
        (signal_from_csv, "# note\r1,0\n2,0\n", 1),  # the comment would swallow the 1,0 row
        (signal_from_csv, "1,0\r2,0\n", 1),
        (signal_from_csv, "1,0\r\n2,0\r", 2),  # a last line ending in a lone "\r"
        (signal_from_csv, '# meta {"n": 2}\r\n1,0\r\r\n2,0\r\n', 2),
        (matrix_from_csv, '# meta {"n": 1}\r1+0j\n', 1),
        (matrix_from_csv, "1+0j,2+0j\r\n\r\n3+0j,\r4+0j\r\n", 3),
        (matrix_from_csv, "1+0j\n\n# note\r# note\r\n2+0j\n", 3),
        (graphs.graph_from_edge_list_text, "0 1\r1 2\n", 1),
        (graphs.graph_from_edge_list_text, "0 1\r\n# note\r1 2\n", 2),  # the comment would swallow the 1 2 edge
    ],
    ids=["signal-after-comment", "signal-data", "signal-last-line", "signal-crlf-then-cr", "matrix-after-meta",
         "matrix-inside-row", "matrix-comment", "edge-list-data", "edge-list-comment"],
)
def test_lone_carriage_return_refused_at_its_line(read, text, lineno):
    with pytest.raises(ValueError) as info:
        read(text)
    assert str(info.value) == f"line {lineno}: '\\r' not followed by '\\n'"


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

    def test_symlink_stays_a_link_and_its_target_gets_the_text(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to("target.csv")
        write_text_atomic(str(link), "new\n")
        assert link.is_symlink() and os.readlink(link) == "target.csv"
        assert target.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def test_existing_file_keeps_its_permission_bits(self, tmp_path):
        target = tmp_path / "private.csv"
        target.write_text("old\n")
        target.chmod(0o600)
        write_text_atomic(str(target), "new\n")
        assert target.read_text() == "new\n"
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o600

    def test_fifo_is_written_in_place_to_its_reader(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        text = "0.5,-1\n" * 20_000  # more than a pipe buffer holds, so the reader drains it as it is written
        # a read-write descriptor counts as a writer: the reader's open returns at once, and the reader sees
        # end of file once this descriptor closes, whether the text reached the FIFO or not
        stand_in = os.open(fifo, os.O_RDWR)
        received = []
        with open(fifo, "rb") as pipe:
            reader = threading.Thread(target=lambda: received.append(pipe.read()))
            reader.start()
            try:
                write_text_atomic(str(fifo), text)
            finally:
                os.close(stand_in)
            reader.join(timeout=60)
            assert not reader.is_alive()
        assert received == [text.encode("utf-8")]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


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
    "frame-report-random-regular": (
        ["frame-report", "--family", "random-regular", "--n", "20", "--k", "3", "--seed", "3", "--t-grid", "0:1:0.5"], "", {
            "r.csv": "c5c5889c01ac8fcc1819fb3d0922b20f386e6c9ce2ea41eea1acc95915c301c5",
            "r_gammas.csv": "49c8f7e6bd9644282712c2f85b3b88a227981e5e095941e703d6014edf2b8baa"}),
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
    "frame-report-random-regular": "7496b197d0a4fe8b573a6fc208e9ce15438711e8e4e2a40936a72783f6d80cfc",
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


# Every command that reads a graph, and its other arguments; f.csv and c.csv are written first.
GRAPH_COMMANDS = {
    "gen": [],
    "spectrum": [],
    "heat": ["--t", "0.5"],
    "gstft": ["--signal", "f.csv", "--t", "0.5"],
    "reconstruct": ["--coeffs", "c.csv"],
    "frame-report": ["--t-grid", "0:1:0.5"],
}


@pytest.mark.parametrize(
    "command, fmt", [(c, f) for c in GRAPH_COMMANDS for f in ("csv", "json") if c != "gen" or f == "csv"]
)  # gen writes only the graph document
def test_graph_file_reads_edge_list_text_as_its_json_document(tmp_path, capsys, command, fmt):
    g = graphs.ring_graph(8)
    (tmp_path / "g.json").write_text(graphs.serialize(g))
    (tmp_path / "g.txt").write_text(edge_list_text(g))
    (tmp_path / "f.csv").write_text(PINNED_SIGNAL)
    run_ok(capsys, "gstft", "--graph", str(tmp_path / "g.json"), "--signal", str(tmp_path / "f.csv"),
           "--t", "0.5", "--out", str(tmp_path / "c.csv"))
    argv = [command, *(str(tmp_path / a) if a.endswith(".csv") else a for a in GRAPH_COMMANDS[command])]
    if command != "gen":
        argv += ["--format", fmt]
    runs = {}
    for source in ("g.json", "g.txt"):
        out_dir = tmp_path / source.replace(".", "-")
        out_dir.mkdir()
        stdout = run_ok(capsys, *argv, "--graph", str(tmp_path / source), "--out", str(out_dir / "r.out"))
        runs[source] = stdout, {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert runs["g.txt"] == runs["g.json"]
    if command in ("gstft", "frame-report"):  # the report names the graph by its digest
        doc = runs["g.txt"][1]["r.out"].decode()
        meta = json.loads(doc)["meta"] if fmt == "json" else split_meta(doc)[0]
        assert meta["graph_sha256"] == graph_sha256(graphs.serialize(g))


def documented_invocations():
    """The argument lists of the `gstft` lines in README's command-line `sh` block, comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command-line tool\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    invocations = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert invocations and all(argv[0] == "gstft" for argv in invocations)
    return [argv[1:] for argv in invocations]


def run_documented(base, capsys):
    base.mkdir(exist_ok=True)
    signal = np.full(16, 0.5)
    signal[3] = 2.0
    (base / "signal.csv").write_text(signal_to_csv(signal.astype(complex)))
    (base / "edges.txt").write_text("# a triangle\n0 1\n1 2\n2 0\n")
    stdout_chunks = []
    for argv in documented_invocations():
        argv = [str(base / a) if a.endswith((".json", ".csv", ".txt")) else a for a in argv]
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


# Both module entries run the command through cli.run.
MODULE_ENTRIES = pytest.mark.parametrize("module", ["gstft", "gstft.cli"])


@MODULE_ENTRIES
def test_module_entry_point(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "gen", "--family", "ring", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 4


@MODULE_ENTRIES
def test_module_entry_point_error_status(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "gen", "--family", "ring", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")


@MODULE_ENTRIES
def test_module_entry_point_usage_error_status(module):
    proc = subprocess.run([sys.executable, "-m", module], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: the following arguments are required: command\n"


@pytest.mark.parametrize("n, status", [("4", 0), ("2", 1)])
def test_main_never_freezes_the_heap(capsys, n, status):
    frozen = gc.get_freeze_count()
    code, _, _ = run(capsys, "gen", "--family", "ring", "--n", n)
    assert code == status
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("n, status", [("4", 0), ("2", 1)])
def test_run_freezes_once_after_main_and_exits_with_its_status(monkeypatch, n, status):
    events = []
    real_main = cli.main

    def traced_main(argv=None):
        events.append("main")
        return real_main(argv)

    monkeypatch.setattr(cli, "main", traced_main)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["gstft", "gen", "--family", "ring", "--n", n])
    with pytest.raises(SystemExit) as exit_info:
        cli.run()
    assert exit_info.value.code == status
    assert events == ["main", "freeze"]


def test_console_script_calls_what_python_m_gstft_calls(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["gstft"]
    calls = []
    monkeypatch.setattr(cli, "run", lambda: calls.append("run"))
    module, _, name = target.partition(":")
    script = getattr(importlib.import_module(module), name)
    runpy.run_module("gstft", run_name="__main__")  # executes __main__.py as `python -m gstft` does
    assert script is cli.run and calls == ["run"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_spectrum_is_byte_identical_at_one_blas_thread_count(tmp_path, threads):
    # README promises byte identity per platform and BLAS thread count; across counts the last bits may differ
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
    runs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "gstft", "spectrum", "--family", "random-regular", "--n", "600", "--k", "3",
             "--out", str(out)],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, out.read_bytes()))
    assert runs[0] == runs[1]
