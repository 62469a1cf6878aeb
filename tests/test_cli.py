"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.toeplitz import kms_toeplitz, paper_example_matrix


@pytest.fixture
def first_row_file(tmp_path):
    path = tmp_path / "row.npy"
    np.save(path, kms_toeplitz(16, 0.6).first_scalar_row())
    return str(path)


@pytest.fixture
def dense_file(tmp_path):
    path = tmp_path / "dense.npy"
    np.save(path, kms_toeplitz(12, 0.5).dense())
    return str(path)


@pytest.fixture
def rhs_file(tmp_path):
    path = tmp_path / "b.npy"
    np.save(path, np.ones(16))
    return str(path)


class TestInfo:
    def test_first_row_input(self, first_row_file, capsys):
        assert main(["info", first_row_file]) == 0
        out = capsys.readouterr().out
        assert "order:" in out and "16" in out
        assert "positive definite" in out
        assert "displacement rank:  2" in out

    def test_dense_input(self, dense_file, capsys):
        assert main(["info", dense_file, "--block-size", "3"]) == 0
        out = capsys.readouterr().out
        assert "block size:         3" in out

    def test_indefinite_detected(self, tmp_path, capsys):
        path = tmp_path / "p.npy"
        np.save(path, paper_example_matrix().first_scalar_row())
        assert main(["info", str(path)]) == 0
        assert "indefinite" in capsys.readouterr().out


class TestFactor:
    def test_spd(self, first_row_file, capsys, tmp_path):
        out_file = str(tmp_path / "fact.npz")
        assert main(["factor", first_row_file, "-o", out_file]) == 0
        out = capsys.readouterr().out
        assert "SPD Cholesky" in out
        with np.load(out_file) as data:
            r = data["r"]
        t = kms_toeplitz(16, 0.6)
        np.testing.assert_allclose(r.T @ r, t.dense(), atol=1e-9)

    def test_indefinite_path(self, tmp_path, capsys):
        path = tmp_path / "p.npy"
        np.save(path, paper_example_matrix().first_scalar_row())
        assert main(["factor", str(path)]) == 0
        out = capsys.readouterr().out
        assert "indefinite factorization" in out
        assert "perturbation" in out

    def test_representation_choice(self, first_row_file, capsys):
        assert main(["factor", first_row_file,
                     "--representation", "yty"]) == 0
        assert "yty" in capsys.readouterr().out


class TestSolve:
    @pytest.mark.parametrize("method", ["auto", "gko", "levinson"])
    def test_methods(self, first_row_file, rhs_file, tmp_path, capsys,
                     method):
        out_file = str(tmp_path / "x.npy")
        assert main(["solve", first_row_file, rhs_file,
                     "--method", method, "-o", out_file]) == 0
        x = np.load(out_file)
        t = kms_toeplitz(16, 0.6)
        np.testing.assert_allclose(t.dense() @ x, np.ones(16),
                                   atol=1e-7)

    def test_prints_solution_without_output(self, first_row_file,
                                            rhs_file, capsys):
        assert main(["solve", first_row_file, rhs_file]) == 0
        out = capsys.readouterr().out
        assert "x =" in out
        assert "‖T x − b‖₂" in out

    def test_singular_minor_system(self, tmp_path, capsys):
        mp = tmp_path / "p.npy"
        rp = tmp_path / "b.npy"
        t = paper_example_matrix()
        np.save(mp, t.first_scalar_row())
        np.save(rp, t.dense() @ np.ones(6))
        assert main(["solve", str(mp), str(rp)]) == 0
        assert "refinement" in capsys.readouterr().out


class TestProfile:
    @pytest.fixture(autouse=True)
    def _restore_obs(self):
        import repro.obs as obs
        was = obs.enabled()
        yield
        obs.enable() if was else obs.disable()

    def test_solve_profile_prints_span_tree(self, first_row_file,
                                            rhs_file, capsys):
        assert main(["solve", first_row_file, rhs_file,
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "engine.execute" in out
        assert "factor" in out and "solve" in out
        assert "ms" in out
        assert "model_flops" in out
        assert "repro_engine_executions_total" in out

    def test_solve_trace_out_jsonl(self, first_row_file, rhs_file,
                                   tmp_path, capsys):
        import repro.obs as obs
        trace = str(tmp_path / "trace.jsonl")
        assert main(["solve", first_row_file, rhs_file,
                     "--trace-out", trace]) == 0
        records = obs.read_jsonl(trace)
        assert records[0]["name"] == "engine.execute"
        assert records[0]["source"] == "engine"
        assert all(r["v"] == obs.SCHEMA_VERSION for r in records)

    def test_factor_profile(self, tmp_path, capsys):
        # a matrix no other test factors, so the cache can't elide the
        # schur spans
        path = tmp_path / "row.npy"
        np.save(path, kms_toeplitz(20, 0.37).first_scalar_row())
        assert main(["factor", str(path), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "engine.factor" in out
        assert "schur.eliminate" in out

    def test_simulate_trace_out(self, first_row_file, tmp_path, capsys):
        import repro.obs as obs
        trace = str(tmp_path / "sim.jsonl")
        assert main(["simulate", first_row_file, "--nproc", "4",
                     "--trace-out", trace]) == 0
        records = obs.read_jsonl(trace)
        assert records and records[0]["source"] == "simulator"
        assert all(r["rank"] is not None for r in records)


class TestSimulate:
    def test_simulate(self, first_row_file, capsys):
        assert main(["simulate", first_row_file, "--nproc", "4"]) == 0
        out = capsys.readouterr().out
        assert "simulated T3D" in out
        assert "time to factor" in out

    def test_version3(self, tmp_path, capsys):
        path = tmp_path / "row.npy"
        np.save(path, kms_toeplitz(32, 0.5).first_scalar_row())
        assert main(["simulate", str(path), "--block-size", "4",
                     "--nproc", "4", "--b", "0.5"]) == 0
        assert "v3" in capsys.readouterr().out

    def test_invalid_b_is_an_error(self, first_row_file, capsys):
        assert main(["simulate", first_row_file, "--nproc", "4",
                     "--b", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestMisc:
    def test_bench_info(self, capsys):
        assert main(["bench-info"]) == 0
        out = capsys.readouterr().out
        assert "bench_fig6_exp1.py" in out
        assert "Figure 10" in out

    def test_missing_file_errors(self, capsys):
        assert main(["info", "/nonexistent/file.npy"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_matrix_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.npy"
        np.save(path, np.arange(12.0).reshape(3, 4))
        assert main(["info", str(path)]) == 1

    def test_txt_input(self, tmp_path, capsys):
        path = tmp_path / "row.txt"
        np.savetxt(path, kms_toeplitz(8, 0.4).first_scalar_row())
        assert main(["info", str(path)]) == 0

    def test_npz_input(self, tmp_path, capsys):
        path = tmp_path / "row.npz"
        np.savez(path, row=kms_toeplitz(8, 0.4).first_scalar_row())
        assert main(["info", str(path)]) == 0


class TestTuneCommand:
    def test_tune_serial(self, first_row_file, capsys):
        assert main(["tune", first_row_file]) == 0
        out = capsys.readouterr().out
        assert "recommendation:" in out
        assert "m_s" in out

    def test_tune_parallel(self, tmp_path, capsys):
        path = tmp_path / "row.npy"
        np.save(path, kms_toeplitz(256, 0.5).first_scalar_row())
        assert main(["tune", str(path), "--block-size", "4",
                     "--nproc", "8"]) == 0
        out = capsys.readouterr().out
        assert "Version" in out
        assert "top distribution candidates:" in out
