from pathlib import Path

import numpy as np
import pytest

from deepbnmf.cli import run_command
from deepbnmf.dataio import read_matrix, write_matrix

DATA = Path(__file__).resolve().parent.parent / "data" / "synthetic_30x20.csv"


def factorize_args(out, extra=()):
    return [
        "factorize",
        "--input", str(DATA),
        "--method", "deep",
        "--beta", "1",
        "--ranks", "8,4",
        "--lambda", "auto",
        "--sweeps", "50",
        "--warm-sweeps", "20",
        "--seed", "1",
        "--out", str(out),
        *extra,
    ]


class TestFactorize:
    def test_deep_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert run_command(factorize_args(out)) == 0
        for name in ("W_1.bin", "W_2.bin", "H_1.bin", "H_2.bin", "X.bin",
                     "trace.csv", "manifest.txt"):
            assert (out / name).exists()
        W1 = read_matrix(out / "W_1.bin", "binary")
        assert W1.shape == (30, 8)
        trace_lines = (out / "trace.csv").read_text().strip().splitlines()
        assert len(trace_lines) == 51

    def test_manifest_lists_resolved_defaults(self, tmp_path):
        out = tmp_path / "run"
        assert run_command(factorize_args(out)) == 0
        manifest = (out / "manifest.txt").read_text()
        for key in ("rho = 100.0", "admm_tol = 1e-06", "delta = 0.1", "seed = 1"):
            assert key in manifest, key
        assert "eps_floor" not in manifest  # the factor floor is a constant
        lam_line = [l for l in manifest.splitlines() if l.startswith("lambda = ")][0]
        values = [float(v) for v in lam_line.split(" = ")[1].split(",")]
        assert len(values) == 2 and all(v > 0 for v in values)

    def test_minvol_beta_validation(self, tmp_path, capsys):
        args = factorize_args(tmp_path / "x")
        args[args.index("--method") + 1] = "minvol"
        args[args.index("--beta") + 1] = "0.5"
        assert run_command(args) == 2
        assert "beta" in capsys.readouterr().err

    def test_deep_beta_two_runs(self, tmp_path):
        out = tmp_path / "x"
        args = factorize_args(out)
        args[args.index("--beta") + 1] = "2"
        assert run_command(args) == 0
        assert "beta = 2.0\n" in (out / "manifest.txt").read_text()

    @pytest.mark.parametrize("beta", ["0.7", "one"])
    def test_unsupported_beta_is_usage_error(self, tmp_path, capsys, beta):
        args = factorize_args(tmp_path / "x")
        args[args.index("--beta") + 1] = beta
        assert run_command(args) == 2
        assert "--beta" in capsys.readouterr().err

    def test_unknown_flag_fails(self, tmp_path):
        assert run_command(factorize_args(tmp_path / "x", ["--bogus", "1"])) == 2

    def test_minvol_requires_alpha(self, tmp_path):
        args = factorize_args(tmp_path / "x")
        args[args.index("--method") + 1] = "minvol"
        assert run_command(args) == 2

    def test_deterministic_trace_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_command(factorize_args(out_a)) == 0
        assert run_command(factorize_args(out_b)) == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        for name in ("W_1.bin", "W_2.bin", "H_1.bin", "H_2.bin"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_missing_input_is_runtime_error(self, tmp_path):
        args = factorize_args(tmp_path / "x")
        args[args.index("--input") + 1] = str(tmp_path / "absent.csv")
        assert run_command(args) == 1

    def test_multilayer_method(self, tmp_path):
        out = tmp_path / "ml"
        args = factorize_args(out)
        args[args.index("--method") + 1] = "multilayer"
        assert run_command(args) == 0
        assert (out / "trace.csv").exists()

    def test_explicit_lambda_list(self, tmp_path):
        out = tmp_path / "run"
        args = factorize_args(out)
        args[args.index("--lambda") + 1] = "4,1"
        assert run_command(args) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "lambda = 4,1" in manifest

    def test_lambda_length_mismatch(self, tmp_path):
        args = factorize_args(tmp_path / "x")
        args[args.index("--lambda") + 1] = "4,2,1"
        assert run_command(args) == 2

    @pytest.mark.parametrize("flag, value, name", [
        ("--delta", "inf", "delta"), ("--rho", "inf", "rho"), ("--admm-tol", "inf", "admm_tol"),
        ("--rel-obj-tol", "nan", "rel_obj_tol"), ("--rel-obj-tol", "inf", "rel_obj_tol"),
        ("--lambda", "inf,1", "lam"), ("--lambda", "nan,1", "lam"),
    ])
    def test_non_finite_setting_is_runtime_error(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "x"
        args = factorize_args(out)
        if flag in args:
            args[args.index(flag) + 1] = value
        else:
            args += [flag, value]
        assert run_command(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be") and "Traceback" not in err
        assert not out.exists()

    def test_non_finite_alpha_is_runtime_error(self, tmp_path, capsys):
        args = factorize_args(tmp_path / "x", ["--alpha", "inf,0.05"])
        args[args.index("--method") + 1] = "minvol"
        assert run_command(args) == 1
        assert capsys.readouterr().err.startswith("error: alpha must be")

    def test_minvol_end_to_end(self, tmp_path):
        out = tmp_path / "mv"
        args = factorize_args(out, ["--alpha", "0.2,0.05"])
        args[args.index("--method") + 1] = "minvol"
        args[args.index("--sweeps") + 1] = "15"
        args[args.index("--warm-sweeps") + 1] = "10"
        import warnings

        with warnings.catch_warnings():
            # Stalled inner solves on this tiny smoke input are reported via
            # a RuntimeWarning; the artifacts are still written.
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run_command(args) == 0
        assert (out / "trace.csv").exists()
        W1 = read_matrix(out / "W_1.bin", "binary")
        assert np.abs(W1.sum(axis=0) - 1.0).max() <= 1e-6


class TestCompareRenderMetrics:
    @pytest.fixture()
    def two_runs(self, tmp_path):
        deep_out = tmp_path / "deep"
        ml_out = tmp_path / "ml"
        assert run_command(factorize_args(deep_out)) == 0
        ml_args = factorize_args(ml_out)
        ml_args[ml_args.index("--method") + 1] = "multilayer"
        ml_args[ml_args.index("--sweeps") + 1] = "70"
        assert run_command(ml_args) == 0
        return deep_out, ml_out

    def test_compare_emits_csv(self, two_runs, capsys):
        deep_out, ml_out = two_runs
        assert run_command(["compare", "--deep", str(deep_out), "--baseline", str(ml_out)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("layer,error_ratio")
        assert len(lines) == 3

    def test_compare_to_file(self, two_runs, tmp_path):
        deep_out, ml_out = two_runs
        target = tmp_path / "cmp.csv"
        assert run_command([
            "compare", "--deep", str(deep_out), "--baseline", str(ml_out),
            "--out", str(target),
        ]) == 0
        assert target.read_text().startswith("layer,error_ratio")

    def test_compare_negative_factor_is_runtime_error(self, two_runs, capsys):
        deep_out, ml_out = two_runs
        W1 = read_matrix(deep_out / "W_1.bin", "binary")
        W1[0, 0] = -1.0  # layer 2 approximates W_1, so its divergence sees the entry
        write_matrix(W1, deep_out / "W_1.bin", "binary")
        assert run_command(["compare", "--deep", str(deep_out), "--baseline", str(ml_out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: beta divergence arguments must be nonnegative\n"

    def test_compare_bad_manifest_beta_is_runtime_error(self, two_runs, capsys):
        deep_out, ml_out = two_runs
        manifest = deep_out / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("beta = 1.0\n", "beta = one\n"))
        assert run_command(["compare", "--deep", str(deep_out), "--baseline", str(ml_out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: beta must be one of (0.0, 0.5, 1.0, 1.5, 2.0), got one\n"

    def test_render_mosaic(self, two_runs, tmp_path):
        deep_out, _ = two_runs
        target = tmp_path / "mosaic.pgm"
        assert run_command([
            "render", "--factors", str(deep_out), "--layer", "1",
            "--tile", "4x5", "--grid", "3", "--out", str(target),
        ]) == 0
        assert target.read_bytes().startswith(b"P5\n")

    def test_render_bad_tile(self, two_runs):
        deep_out, _ = two_runs
        assert run_command([
            "render", "--factors", str(deep_out), "--layer", "1",
            "--tile", "3x3", "--grid", "3",
        ]) == 1  # 9 != 20 entries per feature row

    def test_render_negative_tile(self, two_runs, capsys):
        deep_out, _ = two_runs
        assert run_command([
            "render", "--factors", str(deep_out), "--layer", "1",
            "--tile=-4x-5", "--grid", "2",
        ]) == 1  # (-4)(-5) = 20 entries, as many as a feature row holds
        assert capsys.readouterr().err.startswith("error:")
        assert list(deep_out.glob("*.pgm")) == []

    def test_metrics_report(self, tmp_path, capsys):
        path = tmp_path / "H.csv"
        write_matrix(np.eye(3), path, "csv")
        assert run_command(["metrics", "--h-file", str(path)]) == 0
        assert capsys.readouterr().out == (
            "row,hoyer_sparsity,zero_count,ssc_pass\n"
            "0,1,2,1\n1,1,2,1\n2,1,2,1\n"
            "# contained_pairs: \n"
        )

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_metrics_rejects_non_finite(self, tmp_path, capsys, bad):
        path = tmp_path / "H.csv"
        path.write_text(f"1,0,{bad}\n0,1,0\n")
        assert run_command(["metrics", "--h-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.filterwarnings("ignore:.*negative entries:RuntimeWarning")
    @pytest.mark.parametrize("text", ["1,-1,0\n0,1,0\n", "1\n2\n"], ids=["negative", "one-column"])
    def test_metrics_bad_file_writes_nothing(self, tmp_path, capsys, text):
        path = tmp_path / "H.csv"
        path.write_text(text)
        assert run_command(["metrics", "--h-file", str(path)]) == 1
        assert capsys.readouterr().out == ""
