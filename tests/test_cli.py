import json
from dataclasses import asdict

import pytest

import otsolve.cli
from otsolve import SinkhornConfig, SolveReport, SolverConfig, load_instance
from otsolve.cli import main


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "inst.txt"
    assert main([
        "gen", "--class", "cauchy_like", "--resolution", "3",
        "--norm", "l2", "--seed", "4", "--out", str(path),
    ]) == 0
    return path


class TestGen:
    def test_generates_loadable_instance(self, instance_file):
        prob = load_instance(instance_file)
        assert prob.m == prob.n == 9
        assert instance_file.read_text().splitlines()[2] == "cost l2"

    def test_deterministic_given_seed(self, tmp_path, instance_file):
        other = tmp_path / "again.txt"
        main([
            "gen", "--class", "cauchy_like", "--resolution", "3",
            "--norm", "l2", "--seed", "4", "--out", str(other),
        ])
        assert other.read_bytes() == instance_file.read_bytes()


class TestSolve:
    def test_pdot_report(self, instance_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main([
            "solve", "--instance", str(instance_file), "--method", "pdot",
            "--tol", "1e-5", "--out", str(out),
        ])
        assert rc == 0
        report = SolveReport.from_json(out.read_text())
        assert report.method == "pdot"
        assert report.solved
        assert report.final_relative_kkt <= 1e-5
        assert "pdot" in capsys.readouterr().out

    def test_sinkhorn_report(self, instance_file, tmp_path):
        out = tmp_path / "report.json"
        rc = main([
            "solve", "--instance", str(instance_file), "--method", "sinkhorn",
            "--penalty", "0.01", "--tol", "1e-6", "--out", str(out),
        ])
        assert rc == 0
        report = SolveReport.from_json(out.read_text())
        assert report.method == "sinkhorn"
        assert report.solved

    def test_deterministic_reports_identical(self, instance_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main([
                "solve", "--instance", str(instance_file), "--method", "pdot",
                "--tol", "1e-5", "--deterministic", "--out", str(out),
            ])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("method, config", [("pdot", SolverConfig), ("sinkhorn", SinkhornConfig)])
    @pytest.mark.parametrize("deterministic", [True, False])
    def test_settings_not_given_take_the_config_defaults(
        self, tmp_path, method, config, deterministic
    ):
        path = tmp_path / "tiny.txt"
        path.write_text("2 2\ncost explicit\n1 2\n2 1\n0.5 0.5\n0.5 0.5\n")
        out = tmp_path / "report.json"
        flags = ["--deterministic"] if deterministic else []
        rc = main(["solve", "--instance", str(path), "--method", method, "--out", str(out), *flags])
        assert rc == 0
        report = SolveReport.from_json(out.read_text())
        assert report.config_echo == asdict(config())
        if deterministic:
            assert report.wall_time_s == 0.0
        else:
            assert report.wall_time_s > 0.0

    def test_fixed_restart_flag(self, instance_file, tmp_path):
        out = tmp_path / "report.json"
        rc = main([
            "solve", "--instance", str(instance_file), "--method", "pdot",
            "--restart", "fixed", "--beta", "0.4", "--tol", "1e-5",
            "--out", str(out),
        ])
        assert rc == 0
        report = SolveReport.from_json(out.read_text())
        assert report.config_echo["restart_mode"] == "fixed"
        assert report.config_echo["beta"] == 0.4

    def test_missing_instance_errors(self, tmp_path, capsys):
        rc = main([
            "solve", "--instance", str(tmp_path / "nope.txt"), "--method", "pdot",
            "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err


    def test_overflowing_marginal_errors(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("2 2\ncost explicit\n1 2\n2 1\n1e308 1e308\n0.5 0.5\n")
        rc = main([
            "solve", "--instance", str(path), "--method", "pdot",
            "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1
        assert "error: marginal mass overflows" in capsys.readouterr().err

    def test_nan_setting_errors(self, instance_file, tmp_path, capsys):
        rc = main([
            "solve", "--instance", str(instance_file), "--method", "pdot",
            "--tol", "nan", "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "r.json").exists()

    def test_huge_grid_with_bad_marginal_errors(self, tmp_path, capsys):
        # the marginal lines are checked before the 4e6 x 4e6 grid cost is built
        path = tmp_path / "huge.txt"
        path.write_text("4000000 4000000\ncost l1\n1\n1\n")
        rc = main([
            "solve", "--instance", str(path), "--method", "pdot",
            "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: dimension mismatch in row marginal\n"

    def test_memory_error_errors(self, instance_file, tmp_path, capsys, monkeypatch):
        def too_big(path):
            raise MemoryError("Unable to allocate 233. TiB")

        monkeypatch.setattr(otsolve.cli, "load_instance", too_big)
        rc = main([
            "solve", "--instance", str(instance_file), "--method", "pdot",
            "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: Unable to allocate 233. TiB\n"

    def test_solver_failure_errors(self, tmp_path, capsys):
        # a penalty this small overflows the scaled cost
        path = tmp_path / "tiny.txt"
        path.write_text("2 2\ncost explicit\n1 2\n2 1\n0.5 0.5\n0.5 0.5\n")
        rc = main([
            "solve", "--instance", str(path), "--method", "sinkhorn",
            "--penalty", "1e-320", "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1
        assert "error: numerical failure" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_infinite_penalty_errors(self, instance_file, tmp_path, capsys):
        rc = main([
            "solve", "--instance", str(instance_file), "--method", "sinkhorn",
            "--penalty", "inf", "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: penalty must be positive and finite\n"
        assert not (tmp_path / "r.json").exists()


class TestBench:
    def test_end_to_end(self, tmp_path, capsys):
        inst_dir = tmp_path / "instances"
        inst_dir.mkdir()
        for seed in (1, 2):
            main([
                "gen", "--class", "whitenoise", "--resolution", "3",
                "--norm", "l1", "--seed", str(seed),
                "--out", str(inst_dir / f"wn{seed}.txt"),
            ])
        summary_csv = tmp_path / "summary.csv"
        summary_json = tmp_path / "summary.json"
        rc = main([
            "bench", "--instances", str(inst_dir),
            "--methods", "pdot,sinkhorn:0.01",
            "--summary", str(summary_csv), "--json", str(summary_json),
            "--tol", "1e-4",
        ])
        assert rc == 0
        payload = json.loads(summary_json.read_text())
        assert len(payload["cells"]) == 4
        assert set(payload["groups"]) == {"pdot", "sinkhorn(0.01)"}
        assert "pdot" in capsys.readouterr().out
        assert len(summary_csv.read_text().strip().splitlines()) == 5

    @pytest.mark.filterwarnings("error")
    def test_failing_cell_keeps_the_sweep(self, tmp_path, capsys):
        inst_dir = tmp_path / "instances"
        inst_dir.mkdir()
        path = inst_dir / "tiny.txt"
        path.write_text("2 2\ncost explicit\n1 2\n2 1\n0.5 0.5\n0.5 0.5\n")
        summary_csv = tmp_path / "summary.csv"
        summary_json = tmp_path / "summary.json"
        rc = main([
            "bench", "--instances", str(inst_dir), "--methods", "pdot,sinkhorn:1e-320",
            "--summary", str(summary_csv), "--json", str(summary_json),
        ])
        assert rc == 0
        [err] = capsys.readouterr().err.splitlines()
        assert err == (f"failed: {path} sinkhorn(1e-320): "
                       "numerical failure: penalty 1e-320 too small for max |C| 2.0")
        payload = json.loads(summary_json.read_text())
        pdot, sinkhorn = (payload["groups"][c["method"]] for c in payload["cells"])
        assert pdot["solved"] == 1
        assert sinkhorn["solved"] == 0 and sinkhorn["geomean_gap"] is None
        assert len(summary_csv.read_text().strip().splitlines()) == 3

    @pytest.mark.parametrize("make_dir", [True, False])
    def test_no_instances_errors(self, tmp_path, capsys, make_dir):
        inst_dir = tmp_path / "instances"
        if make_dir:
            inst_dir.mkdir()
        rc = main([
            "bench", "--instances", str(inst_dir), "--methods", "pdot",
            "--summary", str(tmp_path / "s.csv"), "--json", str(tmp_path / "s.json"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: no *.txt instance files in {inst_dir}\n"
        assert not (tmp_path / "s.csv").exists()
