"""Tests for the command-line interface."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metricmanova.cli import _json_payload, demo_correlation_table, main
from metricmanova.dataset import loads_msd, save_msd
from metricmanova.errors import DataError
from metricmanova.samples import GroupedMultiSample
from metricmanova.spaces import distance_matrix_space, euclidean_space


def run_cli(args):
    return main(args)


class TestPowerCommand:
    def test_csv_output_and_determinism(self, tmp_path):
        out1 = tmp_path / "p1.csv"
        out2 = tmp_path / "p2.csv"
        args = [
            "power", "--scenario", "1", "--study", "1", "--grid", "2",
            "--nsims", "3", "--B", "5", "--tests", "Pillai_d,Pillai",
            "--seed", "7", "--format", "csv",
        ]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        assert "# seed=7" in text
        data_lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert data_lines[0] == "test,parameter,rate,mc_se,nsims"
        assert len(data_lines) == 1 + 2 * 2  # header + tests x grid points

    def test_json_output(self, tmp_path):
        out = tmp_path / "p.json"
        code = run_cli([
            "power", "--scenario", "1", "--study", "2", "--grid", "2",
            "--nsims", "2", "--B", "4", "--tests", "Pillai",
            "--seed", "3", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["seed"] == 3
        assert len(payload["estimates"]) == 2
        assert all(0.0 <= e["rate"] <= 1.0 for e in payload["estimates"])

    def test_scenario2_sweep(self, tmp_path):
        out = tmp_path / "p2.csv"
        code = run_cli([
            "power", "--scenario", "2", "--study", "3", "--grid", "2",
            "--nsims", "2", "--B", "4", "--tests", "R_LERM,Pillai_d",
            "--n1", "6", "--n2", "6", "--nodes", "6",
            "--seed", "13", "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        data_lines = [
            l for l in out.read_text().splitlines() if l and not l.startswith("#")
        ]
        assert len(data_lines) == 1 + 2 * 2


class TestSimulateAndTest:
    def test_simulate_then_test_roundtrip(self, tmp_path):
        data = tmp_path / "d.msd"
        assert run_cli([
            "simulate", "--scenario", "1", "--study", "1", "--effect", "0.8",
            "--n1", "25", "--n2", "25", "--seed", "11", "--out", str(data),
        ]) == 0
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        targs = [
            "test", "--input", str(data), "--tests", "R_Euc,Pillai_d",
            "--alpha", "0.05", "--B", "20", "--seed", "2", "--format", "json",
        ]
        assert run_cli(targs + ["--out", str(out1)]) == 0
        assert run_cli(targs + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert {r["test_name"] for r in payload["reports"]} == {"R_Euc", "Pillai_d"}
        assert payload["config"]["B"] == 20
        for report in payload["reports"]:
            for comp in report["components"]:
                if comp["p_value"] is not None:
                    assert 0.0 < comp["p_value"] <= 1.0

    def test_csv_reports(self, tmp_path):
        data = tmp_path / "d.msd"
        run_cli([
            "simulate", "--scenario", "2", "--study", "1", "--n1", "6",
            "--n2", "6", "--seed", "4", "--out", str(data),
        ])
        out = tmp_path / "r.csv"
        assert run_cli([
            "test", "--input", str(data), "--tests", "T_FA", "--seed", "1",
            "--B", "4", "--format", "csv", "--out", str(out),
        ]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("test,component,")
        assert len(lines) == 4  # header + T_1, T_2, T_1_2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_is_the_out_file(self, tmp_path, capsys, fmt):
        # without --out the same text goes to stdout, ended by one newline:
        # the JSON text has none of its own, the CSV text ends in one
        data = tmp_path / "d.msd"
        assert run_cli([
            "simulate", "--scenario", "1", "--study", "1", "--n1", "10",
            "--n2", "10", "--seed", "4", "--out", str(data),
        ]) == 0
        out = tmp_path / f"r.{fmt}"
        args = ["test", "--input", str(data), "--tests", "R_Euc,T_FA",
                "--seed", "1", "--B", "9", "--format", fmt]
        assert run_cli(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert run_cli(args) == 0
        text = out.read_bytes().decode("utf-8")
        assert text.endswith("\n") == (fmt == "csv")
        captured = capsys.readouterr()
        assert captured.out == (text + "\n" if fmt == "json" else text)
        assert captured.err == ""


class TestDemoCorrelation:
    def test_linear_scenario_signs(self):
        rows = demo_correlation_table(seed=5, n=400)
        assert len(rows) == 5
        linear = rows[0]
        assert linear["shape"] == "linear"
        assert linear["noncentered"] > 0.9
        assert linear["centered"] > 0.9
        negative = rows[1]
        assert negative["noncentered"] > 0.9  # both deviate from center together
        assert negative["centered"] > 0.9
        independent = rows[4]
        assert abs(independent["centered"]) < 0.2

    def test_cli_json(self, tmp_path):
        out = tmp_path / "demo.json"
        assert run_cli([
            "demo-correlation", "--seed", "9", "--n", "100",
            "--format", "json", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["correlations"]) == 5


class TestExitCodes:
    def test_usage_error_unknown_test(self, tmp_path, capsys):
        code = run_cli(["test", "--input", "x.msd", "--tests", "bogus", "--seed", "1"])
        assert code == 1

    @pytest.mark.parametrize("command", ["test", "power"])
    def test_repeated_test_name_is_usage_error(self, tmp_path, capsys, command):
        # a repeated name used to add its rejections twice: power reported a
        # rate of 2 and failed with "data error: math domain error", exit 2
        args = {
            "test": ["test", "--input", str(tmp_path / "absent.msd")],
            "power": ["power", "--scenario", "1", "--study", "1", "--grid", "1",
                      "--nsims", "40", "--B", "1", "--n1", "30", "--n2", "30"],
        }[command]
        assert run_cli(args + ["--tests", "Pillai_d,Pillai_d", "--seed", "5"]) == 1
        assert "'Pillai_d' requested twice" in capsys.readouterr().err

    def test_usage_error_missing_argument(self):
        assert run_cli(["power", "--scenario", "1"]) == 1

    def test_missing_input_file(self, tmp_path):
        assert run_cli([
            "test", "--input", str(tmp_path / "absent.msd"), "--seed", "1",
        ]) == 2

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.msd"
        bad.write_text("not a dataset\n")
        assert run_cli(["test", "--input", str(bad), "--seed", "1"]) == 2

    def test_numerical_degeneracy(self, tmp_path):
        # a space whose observations are all identical within each group makes
        # the moment variances vanish: T_FA reports degeneracy
        lines = ["msd 1", "observations 4", "spaces 1", "labels 1 1 2 2",
                 "space X gaussian"]
        lines += ["0.0 1.0", "0.0 1.0", "3.0 1.0", "3.0 1.0"]
        bad = tmp_path / "degenerate.msd"
        bad.write_text("\n".join(lines) + "\n")
        assert run_cli([
            "test", "--input", str(bad), "--tests", "T_FA", "--seed", "1",
        ]) == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_observed_statistic_writes_no_file(self, tmp_path, capsys):
        # observation 0's distances near 1e200 overflow the profile moments;
        # Pillai_d used to exit 0 and write "p_value": NaN, which is not JSON
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(12, 2))
        dist = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        dist[0] *= 1e200
        dist[:, 0] *= 1e200
        spaces = [distance_matrix_space("D", dist), euclidean_space("E", rng.normal(size=(12, 1)))]
        data = tmp_path / "far.msd"
        save_msd(data, GroupedMultiSample(spaces, [1] * 6 + [2] * 6))
        out = tmp_path / "out.json"
        assert run_cli([
            "test", "--input", str(data), "--tests", "Pillai_d", "--seed", "1",
            "--out", str(out),
        ]) == 3
        assert "observed statistic nan" in capsys.readouterr().err
        assert not out.exists()

    def test_json_output_refuses_nan(self):
        with pytest.raises(ValueError):
            _json_payload({"command": "test"}, "reports", [{"p_value": float("nan")}])

    def test_truncated_distance_block(self, tmp_path):
        # the header promises 60000 observations but one distance row follows;
        # the reader must say so before allocating a 60000 x 60000 matrix
        n = 60000
        lines = ["msd 1", f"observations {n}", "spaces 1",
                 "labels " + " ".join(["1", "2"] * (n // 2)), "space X distances", "1.0"]
        bad = tmp_path / "truncated.msd"
        bad.write_text("\n".join(lines) + "\n")
        assert run_cli(["test", "--input", str(bad), "--seed", "1"]) == 2

    @pytest.mark.parametrize("size", ["nodes -2", "dim x"])
    def test_malformed_size_in_space_header(self, tmp_path, size):
        kind = "laplacian" if size.startswith("nodes") else "euclidean-l2"
        lines = ["msd 1", "observations 4", "spaces 1", "labels 1 1 2 2",
                 f"space X {kind} {size}"] + ["0.0 0.0 0.0 0.0"] * 4  # (-2)**2 entries
        text = "\n".join(lines) + "\n"
        # numpy's reshape or int() used to raise a bare ValueError here
        with pytest.raises(DataError, match="^space X: ") as info:
            loads_msd(text)
        assert type(info.value) is DataError
        bad = tmp_path / "bad.msd"
        bad.write_text(text)
        assert run_cli(["test", "--input", str(bad), "--seed", "1"]) == 2

    @pytest.mark.parametrize("header", ["space X gaussian dim 7", "space X distances nodes 9"])
    def test_extra_words_in_space_header(self, tmp_path, header):
        rows = ["0.0 1.0"] * 4 if "gaussian" in header else ["1.0", "1.0 1.0", "1.0 1.0 1.0"]
        lines = ["msd 1", "observations 4", "spaces 1", "labels 1 1 2 2", header] + rows
        text = "\n".join(lines) + "\n"
        with pytest.raises(DataError, match="^space X: ") as info:
            loads_msd(text)
        assert type(info.value) is DataError
        bad = tmp_path / "bad.msd"
        bad.write_text(text)
        assert run_cli(["test", "--input", str(bad), "--seed", "1"]) == 2

    @pytest.mark.parametrize("effect", [[], ["--effect", "0.5"]])
    def test_unknown_simulation_study_is_usage_error(self, tmp_path, effect):
        # the study id is checked before the effect reaches the generator
        assert run_cli([
            "simulate", "--scenario", "1", "--study", "9", "--seed", "1",
            "--out", str(tmp_path / "d.msd"),
        ] + effect) == 1

    @pytest.mark.parametrize("S", [4, 7])  # n - J - S = 0 and -3
    def test_pillai_d_sample_too_small(self, tmp_path, S):
        rng = np.random.default_rng(5)
        spaces = [euclidean_space(f"e{s}", rng.normal(size=(6, 3))) for s in range(S)]
        data = tmp_path / "small.msd"
        save_msd(data, GroupedMultiSample(spaces, [1, 1, 1, 2, 2, 2]))
        assert run_cli([
            "test", "--input", str(data), "--tests", "Pillai_d", "--seed", "1",
        ]) == 2

    def test_invalid_alpha_is_data_error(self, tmp_path):
        data = tmp_path / "d.msd"
        run_cli([
            "simulate", "--scenario", "1", "--study", "1", "--n1", "5",
            "--n2", "5", "--seed", "2", "--out", str(data),
        ])
        assert run_cli([
            "test", "--input", str(data), "--alpha", "2.0", "--seed", "1",
        ]) == 2


def _fuzz_base_lines():
    """A small valid file: 8 observations, a Gaussian and a distance block."""
    rng = np.random.default_rng(12)
    n = 8
    pts = rng.normal(size=(n, 2))
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    lines = ["msd 1", f"observations {n}", "spaces 2", "labels a a a a b b b b",
             "space G gaussian"]
    gauss = np.column_stack([rng.normal(size=n), rng.uniform(0.5, 2.0, n)])
    lines += [f"{float(mu)!r} {float(sigma)!r}" for mu, sigma in gauss]
    lines.append("space D distances")
    lines += [" ".join(repr(float(d)) for d in dist[i, :i]) for i in range(1, n)]
    return lines


class TestFuzzedInput:
    BASE = _fuzz_base_lines()

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(
        cut=st.integers(min_value=0, max_value=len(BASE)),
        line=st.integers(min_value=0, max_value=len(BASE) - 1),
        token=st.integers(min_value=0, max_value=7),
        text=st.none()
        | st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
        | st.floats().map(repr)
        | st.integers(min_value=-3, max_value=12).map(str),
    )
    @example(cut=len(BASE), line=0, token=0, text=None)
    def test_only_documented_exit_codes(self, cut, line, token, text):
        """The file truncated after ``cut`` lines (``text`` None), or whole
        with one token of ``line`` replaced by ``text``, exits 0, 2 or 3 and
        never raises."""
        lines = list(self.BASE)
        if text is None:
            del lines[cut:]
        else:
            words = lines[line].split()
            words[token % len(words)] = text
            lines[line] = " ".join(words)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzzed.msd")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            code = run_cli(["test", "--input", path, "--B", "9", "--seed", "1",
                            "--out", os.path.join(tmp, "out.json")])
        assert code in (0, 2, 3)
        if len(lines) == len(self.BASE) and text is None:
            assert code == 0
