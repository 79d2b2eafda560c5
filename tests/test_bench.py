import csv
import json
import math
from dataclasses import asdict

import pytest

import otsolve.bench
from otsolve import (
    SinkhornConfig,
    SolverConfig,
    geomean_gap,
    grid_problem,
    load_instance,
    run_bench,
    save_instance,
    sgm10,
)
from otsolve.bench import parse_methods, write_summary_csv, write_summary_json

from _oracles import exact_oracle


class TestSGM10:
    def test_constant_times(self):
        assert sgm10([10.0, 10.0], [True, True], 3600.0) == pytest.approx(10.0, abs=1e-12)

    def test_hand_computation(self):
        # sqrt(10 * 40) - 10 = 10
        assert sgm10([0.0, 30.0], [True, True], 3600.0) == pytest.approx(10.0, abs=1e-12)

    def test_unsolved_substitution(self):
        # unsolved entry counts as the 3600 s limit: sqrt(3610 * 10) - 10 = 180
        assert sgm10([5.0, 0.0], [False, True], 3600.0) == pytest.approx(180.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sgm10([], [], 3600.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sgm10([1.0], [], 3600.0)


class TestGeomeanGap:
    def test_constant(self):
        assert geomean_gap([0.37, 0.37]) == pytest.approx(0.37, rel=1e-12)

    def test_log_mean(self):
        assert geomean_gap([1e-2, 1e-4]) == pytest.approx(1e-3, rel=1e-12)

    def test_zero_floored(self):
        assert geomean_gap([0.0]) == pytest.approx(1e-16, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geomean_gap([])


class TestParseMethods:
    def test_full_sweep(self):
        specs = parse_methods("pdot,sinkhorn:0.01,sinkhorn")
        labels = [s.label(s.config()) for s in specs]
        assert labels == ["pdot", "sinkhorn(0.01)", "sinkhorn(0.001)"]

    def test_plain_sinkhorn_takes_the_config_default(self):
        [spec] = parse_methods("sinkhorn")
        assert spec.config() == SinkhornConfig()

    def test_settings_left_to_the_config(self):
        # None, and settings the method does not have, leave the config's defaults
        pdot, sinkhorn = parse_methods("pdot,sinkhorn:0.01")
        assert pdot.config(tol=None, penalty=0.5) == SolverConfig()
        assert sinkhorn.config(tol=1e-6, beta=0.3) == SinkhornConfig(penalty=0.01, tol=1e-6)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            parse_methods("pdot,newton")

    def test_empty(self):
        with pytest.raises(ValueError):
            parse_methods(" , ")


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("instances")
    save_instance(grid_problem("whitenoise", 3, "l2", seed=1), root / "wn3.txt")
    save_instance(grid_problem("cauchy_like", 3, "l1", seed=2), root / "cl3.txt")
    return root


class TestRunBench:
    def test_pdot_smoke(self, instance_dir):
        paths = sorted(instance_dir.glob("*.txt"))
        summary = run_bench(paths, methods_csv="pdot", tol=1e-5)
        assert len(summary.cells) == 2
        group = summary.groups["pdot"]
        assert group["solved"] == 2
        assert math.isfinite(group["sgm10_time"])
        assert group["geomean_gap"] > 0

    def test_pdot_beats_sinkhorn_gap(self, instance_dir):
        paths = sorted(instance_dir.glob("*.txt"))
        summary = run_bench(paths, methods_csv="pdot,sinkhorn:0.01", tol=1e-5)
        assert (
            summary.groups["pdot"]["geomean_gap"]
            < summary.groups["sinkhorn(0.01)"]["geomean_gap"]
        )

    def test_penalty_tradeoff(self, instance_dir):
        paths = [instance_dir / "cl3.txt"]
        summary = run_bench(paths, methods_csv="sinkhorn:0.01,sinkhorn:0.001", tol=1e-4)
        cells = {c.method: c.report for c in summary.cells}
        assert cells["sinkhorn(0.001)"].duality_gap < cells["sinkhorn(0.01)"].duality_gap
        assert cells["sinkhorn(0.001)"].iterations > cells["sinkhorn(0.01)"].iterations
        assert cells["sinkhorn(0.001)"].wall_time_s > cells["sinkhorn(0.01)"].wall_time_s

    def test_missing_instances_listed(self, instance_dir, tmp_path):
        bogus = tmp_path / "nope.txt"
        garbled = tmp_path / "garbled.txt"
        garbled.write_text("not an instance\n")
        paths = [instance_dir / "wn3.txt", bogus, garbled]
        summary = run_bench(paths, methods_csv="pdot", tol=1e-4)
        assert len(summary.cells) == 1
        assert len(summary.missing) == 2

    def test_non_utf8_instance_listed(self, instance_dir, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe2 2\n")
        summary = run_bench([instance_dir / "wn3.txt", bad], methods_csv="pdot", tol=1e-4)
        assert [c.instance for c in summary.cells] == [str(instance_dir / "wn3.txt")]
        assert summary.missing == [f"{bad}: instance file is not UTF-8 text"]

    def test_instance_too_large_to_build_listed(self, instance_dir, monkeypatch):
        # a 128x128 grid file makes grid_cost ask for a 4.3 GB temporary; the
        # sweep records the MemoryError and goes on
        real_load = otsolve.bench.load_instance

        def load(path):
            if path.name == "cl3.txt":
                raise MemoryError("Unable to allocate 4.00 GiB")
            return real_load(path)

        monkeypatch.setattr(otsolve.bench, "load_instance", load)
        summary = run_bench(sorted(instance_dir.glob("*.txt")), methods_csv="pdot", tol=1e-4)
        assert [c.instance for c in summary.cells] == [str(instance_dir / "wn3.txt")]
        assert summary.missing == [f"{instance_dir / 'cl3.txt'}: Unable to allocate 4.00 GiB"]

    def test_writers(self, instance_dir, tmp_path):
        paths = sorted(instance_dir.glob("*.txt"))
        summary = run_bench(paths, methods_csv="pdot", tol=1e-4)
        csv_path = tmp_path / "summary.csv"
        json_path = tmp_path / "summary.json"
        write_summary_csv(summary, csv_path)
        write_summary_json(summary, json_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].split(",") == [
            "instance", "method", "penalty", "time_s", "solved",
            "iterations", "relative_kkt", "objective", "gap",
        ]
        assert len(lines) == 3
        payload = json.loads(json_path.read_text())
        assert len(payload["cells"]) == 2
        assert "pdot" in payload["groups"]

    def test_failing_cell_recorded(self, tmp_path):
        # a penalty this small overflows the scaled cost, so the Sinkhorn cell
        # fails; the pdot cell before it must survive, and both summaries stay valid
        path = tmp_path / "tiny.txt"
        path.write_text("2 2\ncost explicit\n1 2\n2 1\n0.5 0.5\n0.5 0.5\n")
        summary = run_bench([path], methods_csv="pdot,sinkhorn:1e-320", time_limit_s=100.0)
        pdot, failed = (c.report for c in summary.cells)
        label = summary.cells[1].method
        assert label == "sinkhorn(1e-320)"  # the exact penalty, though it is subnormal
        assert pdot.solved
        assert not failed.solved
        assert failed.termination_reason == "numerical_failure"
        assert failed.duality_gap is None and failed.rounded_objective is None
        assert summary.failed == [
            f"{path} {label}: numerical failure: penalty 1e-320 too small for max |C| 2.0"
        ]
        group = summary.groups[label]
        assert group["geomean_gap"] is None and group["solved"] == 0
        assert group["sgm10_time"] == pytest.approx(100.0, rel=1e-12)  # counted at the limit
        assert summary.groups["pdot"]["geomean_gap"] == pytest.approx(pdot.duality_gap)

        csv_path = tmp_path / "summary.csv"
        json_path = tmp_path / "summary.json"
        write_summary_csv(summary, csv_path)
        write_summary_json(summary, json_path)

        def reject(constant):
            raise AssertionError(f"{constant} in the JSON summary")

        payload = json.loads(json_path.read_text(), parse_constant=reject)
        assert [c["report"]["termination_reason"] for c in payload["cells"]] == [
            "tolerance", "numerical_failure"
        ]
        assert payload["failed"] == summary.failed
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        assert len(rows) == 3
        assert rows[2][:3] == [str(path), label, "1e-320"]
        assert rows[2][4:] == ["False", "", "", "", ""]

    def test_bad_method_fails_before_any_solve(self, instance_dir, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("no cell may run before every config is built")

        monkeypatch.setattr(otsolve.bench, "solve", boom)
        with pytest.raises(ValueError):
            run_bench(sorted(instance_dir.glob("*.txt")), methods_csv="pdot,sinkhorn:-1")

    def test_infinite_penalty_fails_before_any_solve(self, instance_dir, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("no cell may run before every config is built")

        monkeypatch.setattr(otsolve.bench, "solve", boom)
        monkeypatch.setattr(otsolve.bench, "sinkhorn_solve", boom)
        with pytest.raises(ValueError, match="positive and finite"):
            run_bench(sorted(instance_dir.glob("*.txt")), methods_csv="pdot,sinkhorn:inf")

    def test_close_penalties_stay_apart(self, instance_dir):
        paths = [instance_dir / "cl3.txt"]
        summary = run_bench(paths, methods_csv="sinkhorn:0.0010000001,sinkhorn:0.001")
        assert list(summary.groups) == ["sinkhorn(0.0010000001)", "sinkhorn(0.001)"]
        assert [g["instances"] for g in summary.groups.values()] == [1, 1]
        assert [c.penalty for c in summary.cells] == [0.0010000001, 0.001]

    @pytest.mark.parametrize("methods", ["pdot,pdot", "sinkhorn,sinkhorn:0.001"])
    def test_repeated_method_fails_before_any_solve(self, instance_dir, monkeypatch, methods):
        def boom(*args, **kwargs):
            raise AssertionError("no cell may run before every method is checked")

        monkeypatch.setattr(otsolve.bench, "solve", boom)
        monkeypatch.setattr(otsolve.bench, "sinkhorn_solve", boom)
        with pytest.raises(ValueError, match="given twice"):
            run_bench(sorted(instance_dir.glob("*.txt")), methods_csv=methods)

    def test_settings_default_to_the_configs(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("2 2\ncost explicit\n1 2\n2 1\n0.5 0.5\n0.5 0.5\n")
        summary = run_bench([path], methods_csv="pdot,sinkhorn")
        pdot, sinkhorn = (c.report.config_echo for c in summary.cells)
        assert pdot == asdict(SolverConfig())
        assert sinkhorn == asdict(SinkhornConfig())

    def test_deterministic_zeroes_wall_time(self, instance_dir):
        paths = sorted(instance_dir.glob("*.txt"))
        summary = run_bench(paths, methods_csv="pdot", deterministic=True)
        assert [c.report.wall_time_s for c in summary.cells] == [0.0, 0.0]
        assert summary.groups["pdot"]["sgm10_time"] == pytest.approx(0.0, abs=1e-12)

    def test_objective_never_beats_the_optimum(self, tmp_path):
        # objectives come from exactly feasible plans, so they are true upper
        # bounds on the optimum
        path = tmp_path / "wn2.txt"
        save_instance(grid_problem("whitenoise", 2, "l2", seed=9), path)
        summary = run_bench([path], methods_csv="pdot", tol=1e-6)
        report = summary.cells[0].report
        opt, _ = exact_oracle(load_instance(path))
        assert report.rounded_objective >= opt - 1e-9
        assert report.rounded_objective == pytest.approx(opt, abs=1e-4)
