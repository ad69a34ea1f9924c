import contextlib
import gc
import io
import json
import math
import os
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from coherence_lab import bounds, cli, qubit_protocol
from coherence_lab.cli import main
from coherence_lab.modes import _stripe_blocks, bipartite_mode_set
from coherence_lab.optimizer import (
    MAX_LOCAL_DIM,
    MAX_RESTARTS,
    UnitarySearchConfig,
    _search,
    maximize_delta_m,
    random_allowed_unitary,
)
from coherence_lab.qubit_protocol import recurrence_step
from coherence_lab.sampling import random_density_matrix
from coherence_lab.states import (
    BipartiteGenerator,
    BlochState,
    DensityMatrix,
    NumberOperator,
    isotropic_state,
)


def _write_state(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)


def _iso_state_file(tmp_path):
    """The two-qubit isotropic state at p = 0.5, in matrix form."""
    return _write_state(tmp_path / "iso.json", oracles.density_to_json(isotropic_state(0.5)))


def _qubit_state_file(tmp_path, p00=0.9, p01=0.1):
    obj = {
        "dim": 2,
        "re": [[p00, p01], [p01, 1.0 - p00]],
        "im": [[0.0, 0.0], [0.0, 0.0]],
    }
    return _write_state(tmp_path / "state.json", obj)


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestConcentrate:
    def test_search_defaults_come_from_the_search_config(self):
        # each command declares only the values a caller sets; the rest are the library's constants
        assert {command: set(_declared(command)) for command in cli.COMMANDS} == {
            "concentrate": {"state", "j", "restarts"},
            "concat": {"nx", "nz"},
            "field": {"grid"},
            "bound-compare": {"dim", "ranks", "samples", "restarts", "seed"},
            "nogo": {"state"},
            "amplify": {"steps", "eps"},
        }
        assert sum(len(_declared(command)) + 1 for command in cli.COMMANDS) == 20  # out included
        defaults = {name: default for name, _, default, _ in cli.COMMANDS["concentrate"][2]}
        assert defaults["restarts"] == UnitarySearchConfig.restarts

    def test_qubit_report(self, tmp_path, capsys):
        state = _qubit_state_file(tmp_path)
        out = tmp_path / "out"
        assert main(["concentrate", "--state", state, "--out", str(out)]) == 0
        # the search telemetry goes to stdout only, never into the report
        assert re.search(
            r"^search: \d+ evaluations, restarts 8 stationary, 0 at eval budget, final gradient norm \S+, "
            r"8 of 8 restarts within 1e-9 of the best$",
            capsys.readouterr().out,
            re.M,
        )
        report = json.load(open(out / "concentrate_report.json"))
        assert set(report["optimizer"]) == {"best_delta_m", "converged"}
        assert set(report["closed_form"]) == {"delta_m", "theta_opt"}
        assert report["closed_form"]["delta_m"] == pytest.approx(0.028062484748656982, abs=1e-15)
        assert report["optimizer"]["best_delta_m"] == pytest.approx(
            report["closed_form"]["delta_m"], abs=1e-6
        )
        rep = report["bound_report"]
        # the achieved value is optimizer.best_delta_m and j is params.j; neither is copied
        assert set(rep) == {"bound1", "bound2", "baseline", "tighter"}
        assert rep["bound1"] >= report["closed_form"]["delta_m"]
        manifest = json.load(open(out / "concentrate_manifest.json"))
        assert manifest["command"] == "concentrate"
        assert manifest["params"]["j"] == 1
        assert "j" not in manifest  # only under params

    def test_search_line_shows_restarts_that_stop_at_a_lower_maximum(self, tmp_path, capsys):
        # this rank-2 ququart has stationary points at 0.19536294 and 0.19528570
        # for j = 1; every restart ends stationary, but only five reach the higher one
        rho = random_density_matrix(4, 2, np.random.default_rng(27))
        state = _write_state(tmp_path / "ququart.json", oracles.density_to_json(rho))
        assert main(["concentrate", "--state", state, "--out", str(tmp_path / "out")]) == 0
        assert re.search(
            r"^search: .*restarts 8 stationary, 0 at eval budget, .*, 5 of 8 restarts within 1e-9 of the best$",
            capsys.readouterr().out,
            re.M,
        )

    def test_maximally_mixed_qubit_has_nothing_to_gain(self, tmp_path):
        state = _qubit_state_file(tmp_path, p00=0.5, p01=0.0)
        out = tmp_path / "out"
        assert main(["concentrate", "--state", state, "--out", str(out)]) == 0
        report = json.load(open(out / "concentrate_report.json"))
        assert report["closed_form"]["delta_m"] == 0.0
        assert report["optimizer"]["best_delta_m"] <= 1e-8

    def test_unsupported_dimension_exit_code(self, tmp_path):
        obj = {
            "dim": 5,
            "re": np.diag([0.2] * 5).tolist(),
            "im": np.zeros((5, 5)).tolist(),
        }
        state = _write_state(tmp_path / "big.json", obj)
        assert main(["concentrate", "--state", state, "--out", str(tmp_path)]) == 2

    def test_invalid_state_exit_code(self, tmp_path):
        obj = {"dim": 2, "re": [[1.5, 0.0], [0.0, -0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        state = _write_state(tmp_path / "bad.json", obj)
        assert main(["concentrate", "--state", state, "--out", str(tmp_path)]) == 1

    def test_out_of_memory_exits_2_on_one_line_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "maximize_delta_m", exhausted)
        out = tmp_path / "out"
        assert main(["concentrate", "--state", _qubit_state_file(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: concentrate ran out of memory"]
        assert os.listdir(out) == []

    def test_bloch_state_file_accepted(self, tmp_path):
        state = _write_state(tmp_path / "bloch.json", {"nx": 0.2, "ny": 0.0, "nz": 0.8})
        out = tmp_path / "out"
        assert main(["concentrate", "--state", state, "--out", str(out)]) == 0
        report = json.load(open(out / "concentrate_report.json"))
        assert report["input_dim"] == 2


def _cap_concatenation_at_50_steps(monkeypatch):
    """Run concat's trajectories at a 50-step cap, not the library's 10^6, so a capped start takes milliseconds."""
    monkeypatch.setattr(cli, "run_concatenation", lambda start: qubit_protocol.run_concatenation(start, max_steps=50))


class TestConcat:
    def test_axis_start_single_row(self, tmp_path):
        out = tmp_path / "out"
        assert main(["concat", "--nx", "0.4", "--nz", "0", "--out", str(out)]) == 0
        header, rows = _read_csv(out / "concat_nx0.4_nz0.csv")
        assert header == ["step", "n_x", "n_z", "log2_copies", "m1", "purity_ceiling"]
        assert len(rows) == 1
        summary = json.load(open(out / "concat_summary.json"))
        assert set(summary[0]) == {"nx", "nz", "stop_reason", "steps", "final_nx", "final_nz", "purity_ceiling"}
        assert summary[0]["stop_reason"] == "converged"
        assert summary[0]["steps"] == 0

    def test_sweep_writes_one_csv_per_start(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["concat", "--nx", "0.01,0.1,0.5", "--nz", "0.7", "--out", str(out)])
        assert rc == 0
        names = sorted(f for f in os.listdir(out) if f.endswith(".csv"))
        assert names == [
            "concat_nx0.01_nz0.7.csv",
            "concat_nx0.1_nz0.7.csv",
            "concat_nx0.5_nz0.7.csv",
        ]

    def test_trajectory_matches_library_steps(self, tmp_path):
        out = tmp_path / "out"
        assert main(["concat", "--nx", "0.1", "--nz", "0.7", "--out", str(out)]) == 0
        _, rows = _read_csv(out / "concat_nx0.1_nz0.7.csv")
        state = BlochState(0.1, 0.0, 0.7)
        assert float(rows[0][1]) == pytest.approx(0.1, abs=1e-15)
        state = recurrence_step(state)
        assert float(rows[1][1]) == pytest.approx(state.nx, abs=1e-15)
        assert float(rows[1][2]) == pytest.approx(state.nz, abs=1e-15)
        assert int(rows[2][3]) == 2

    def test_trajectory_past_the_int_to_str_digit_limit(self, tmp_path):
        # 2^m as an exact integer stops converting to text after step 14,284
        out = tmp_path / "out"
        assert main(["concat", "--nx", "0.003", "--nz", "0.01", "--out", str(out)]) == 0
        _, rows = _read_csv(out / "concat_nx0.003_nz0.01.csv")
        assert len(rows) > 14_285
        assert rows[-1][3] == rows[-1][0] == str(len(rows) - 1)

    def test_nan_start_is_rejected_before_running(self, tmp_path):
        # a bad second start is rejected before the first one's trajectory is written
        for nx, nz in (("nan", "0.5"), ("0.1,nan", "0.5"), ("0.1,0.9", "0.7")):
            out = tmp_path / f"out_{nx}_{nz}"
            assert main(["concat", "--nx", nx, "--nz", nz, "--out", str(out)]) == 1
            assert not [f for f in os.listdir(out) if f.endswith(".csv")]

    def test_starts_sharing_a_file_name_are_rejected_before_running(self, tmp_path, capsys, monkeypatch):
        # 0.1000001 prints as 0.1 in the file name, so both starts would write one CSV
        monkeypatch.setattr(cli, "run_concatenation", lambda *args, **kwargs: pytest.fail("a trajectory ran"))
        for nx in ("0.1,0.1000001", "0.1,0.1"):
            out = tmp_path / nx
            assert main(["concat", "--nx", nx, "--nz", "0.7", "--out", str(out)]) == 1
            assert os.listdir(out) == []
            err = capsys.readouterr().err
            assert "concat_nx0.1_nz0.7.csv" in err
            assert all(f"(nx={value}, nz=0.7)" in err for value in nx.split(","))

    def test_starts_above_the_row_cap_name_it_on_one_line(self, tmp_path, capsys, monkeypatch):
        # 10 starts may write 10 x (MAX_STEPS + 1) rows, just above MAX_ROWS
        monkeypatch.setattr(cli, "run_concatenation", lambda *args, **kwargs: pytest.fail("a trajectory ran"))
        out = tmp_path / "out"
        assert main(["concat", "--nx", "0.1,0.2,0.3,0.4,0.5", "--nz", "0.1,0.2", "--out", str(out)]) == 2
        assert os.listdir(out) == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "nx and nz" in err and f"{qubit_protocol.MAX_ROWS:,}" in err and "Traceback" not in err

    def test_starts_at_the_row_cap_run(self, tmp_path):
        # 9 starts may write 9 x (MAX_STEPS + 1) rows, within MAX_ROWS
        assert 9 * (qubit_protocol.MAX_STEPS + 1) <= qubit_protocol.MAX_ROWS < 10 * (qubit_protocol.MAX_STEPS + 1)
        out = tmp_path / "out"
        assert main(["concat", "--nx", "0.1,0.2,0.3", "--nz", "0.1,0.2,0.3", "--out", str(out)]) == 0
        assert len([f for f in os.listdir(out) if f.endswith(".csv")]) == 9

    def test_huge_finite_start_is_rejected_by_norm(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["concat", "--nx", "1e200", "--nz", "0", "--out", str(out)]) == 1
        assert "norm" in capsys.readouterr().err

    def test_cap_reached_warns_but_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["concat", "--nx", "0", "--nz", "0.5", "--out", str(out)])
        assert rc == 0
        assert "not converged" in capsys.readouterr().out
        summary = json.load(open(out / "concat_summary.json"))
        assert (summary[0]["steps"], summary[0]["stop_reason"]) == (None, "fixed point")

    @pytest.mark.parametrize(
        "argv, warning",
        [
            (["--nx", "0", "--nz", "0.5"], "warning: start (nx=0, nz=0.5) not converged: fixed point at step 1"),
            (
                ["--nx", "1e-5", "--nz", "0.001001"],
                "warning: start (nx=1e-05, nz=0.001001) not converged: step cap at step 50",
            ),
        ],
    )
    def test_warning_names_the_stop_reason_and_step(self, tmp_path, capsys, monkeypatch, argv, warning):
        _cap_concatenation_at_50_steps(monkeypatch)
        assert main(["concat", *argv, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.splitlines() == [warning]

    def test_capped_start_reports_the_step_cap(self, tmp_path, monkeypatch):
        _cap_concatenation_at_50_steps(monkeypatch)
        out = tmp_path / "out"
        assert main(["concat", "--nx", "1e-5", "--nz", "0.001001", "--out", str(out)]) == 0
        summary = json.load(open(out / "concat_summary.json"))
        assert (summary[0]["steps"], summary[0]["stop_reason"]) == (None, "step cap")

    # eps is the library's convergence threshold, which the reference takes as an argument
    @pytest.mark.parametrize("nx, nz, eps, stop_reason", [("0.019", "0.09", "0.001", "converged")])
    def test_trajectory_csv_matches_a_plain_float_reference(self, tmp_path, nx, nz, eps, stop_reason):
        out = tmp_path / "out"
        assert main(["concat", "--nx", nx, "--nz", nz, "--out", str(out)]) == 0
        (summary,) = json.load(open(out / "concat_summary.json"))
        assert summary["stop_reason"] == stop_reason
        points = oracles.concat_trajectory(float(nx), float(nz), 1_000_000, float(eps))
        lines = open(out / f"concat_nx{nx}_nz{nz}.csv", encoding="utf-8").read().splitlines()[1:]
        assert len(lines) == len(points) > 1000
        ceiling = "%.16e" % summary["purity_ceiling"]
        for m, (line, (x, z)) in enumerate(zip(lines, points)):
            assert line == "%d,%.16e,%.16e,%d,%.16e,%s" % (m, x, z, m, x, ceiling)

    def test_amplify_csv_matches_a_plain_float_reference(self, tmp_path):
        out = tmp_path / "out"
        assert main(["amplify", "--steps", "40", "--out", str(out)]) == 0
        summary = json.load(open(out / "amplify_summary.json"))
        points = oracles.concat_trajectory(summary["start_nx"], summary["start_nz"], 40, 0.0)
        lines = open(out / "amplify_N40.csv", encoding="utf-8").read().splitlines()[1:]
        assert lines == ["%d,%.16e,%.16e,%d,%.16e" % (m, x, z, m, x) for m, (x, z) in enumerate(points)]
        assert summary["final_m1"] == points[-1][0]


class TestField:
    def test_grid_row_count(self, tmp_path):
        out = tmp_path / "out"
        assert main(["field", "--grid", "20", "--out", str(out)]) == 0
        header, rows = _read_csv(out / "vector_field.csv")
        assert header == ["n_x", "n_z", "dn_x", "dn_z"]
        assert len(rows) == 400

    def test_axis_rows_have_zero_deltas(self, tmp_path):
        out = tmp_path / "out"
        assert main(["field", "--grid", "6x6", "--out", str(out)]) == 0
        _, rows = _read_csv(out / "vector_field.csv")
        for row in rows:
            nx, nz, dnx, dnz = (float(v) for v in row)
            if nx == 0.0 or nz == 0.0:
                assert dnx == 0.0 and dnz == 0.0

    def test_interior_rows_match_recurrence(self, tmp_path):
        out = tmp_path / "out"
        assert main(["field", "--grid", "5x5", "--out", str(out)]) == 0
        _, rows = _read_csv(out / "vector_field.csv")
        for row in rows:
            nx, nz, dnx, dnz = (float(v) for v in row)
            nxt = recurrence_step(BlochState(nx, 0.0, nz))
            assert dnx == pytest.approx(nxt.nx - nx, abs=1e-15)
            assert dnz == pytest.approx(nxt.nz - nz, abs=1e-15)

    # the last two cross the field's chunk boundaries: many short rows, and a row split in two
    @pytest.mark.parametrize(
        "grid, radial, angular",
        [("1x1", 1, 1), ("7x1", 7, 1), ("1x7", 1, 7), ("20x30", 20, 30), ("2100x1", 2100, 1), ("2x2100", 2, 2100)],
    )
    def test_field_csv_matches_a_plain_float_reference(self, tmp_path, grid, radial, angular):
        out = tmp_path / "out"
        assert main(["field", "--grid", grid, "--out", str(out)]) == 0
        lines = open(out / "vector_field.csv", encoding="utf-8").read().splitlines()[1:]
        assert lines == ["%.16e,%.16e,%.16e,%.16e" % row for row in oracles.field_rows(radial, angular)]

    def test_memory_does_not_grow_with_the_grid(self, tmp_path):
        # time-free: rows stream from the grid to the CSV, so 16x the rows must not allocate more
        assert main(["field", "--grid", "2", "--out", str(tmp_path / "warm")]) == 0
        peaks = []
        for grid in (50, 200):
            gc.collect()
            tracemalloc.start()
            assert main(["field", "--grid", str(grid), "--out", str(tmp_path / str(grid))]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 200_000

    @pytest.mark.parametrize("shape", ["1x{}", "{}x1"])
    def test_memory_does_not_grow_with_a_thin_grid(self, tmp_path, shape):
        # time-free: a grid one point wide along either axis streams in fixed
        # chunks, so 4x the points must not allocate more
        assert main(["field", "--grid", shape.format(2), "--out", str(tmp_path / "warm")]) == 0
        peaks = []
        for points in (6_000, 24_000):
            gc.collect()
            tracemalloc.start()
            assert main(["field", "--grid", shape.format(points), "--out", str(tmp_path / str(points))]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 200_000, peaks


class TestBoundCompare:
    def test_pure_states_always_tie(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["bound-compare", "--dim", "3", "--ranks", "1", "--samples", "20", "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
        summary = json.load(open(out / "bound_compare_summary.json"))
        for entry in summary:
            assert entry["tie"] == 20
            assert entry["bound1"] == 0 and entry["bound2"] == 0

    def test_fixed_seed_gives_byte_identical_csv(self, tmp_path):
        args = ["bound-compare", "--dim", "3", "--ranks", "1,2", "--samples", "5", "--seed", "42"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        data1 = open(out1 / "bound_compare.csv", "rb").read()
        data2 = open(out2 / "bound_compare.csv", "rb").read()
        assert data1 == data2

    def test_unsupported_dimension(self, tmp_path, capsys):
        for dim in (2, MAX_LOCAL_DIM + 1):
            assert main(["bound-compare", "--dim", str(dim), "--out", str(tmp_path)]) == 2
            assert f"dimension 3 to {MAX_LOCAL_DIM}, got {dim}" in capsys.readouterr().err

    def test_samples_above_the_row_cap_name_it_on_one_line(self, tmp_path, capsys, monkeypatch):
        # 5,000,001 samples x 1 rank x 2 values of j is two rows above MAX_ROWS
        monkeypatch.setattr(cli, "random_density_matrix", lambda *args: pytest.fail("a state was sampled"))
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(["bound-compare", "--dim", "3", "--ranks", "1", "--samples", "5000001", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 0.1
        assert os.listdir(out) == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "samples" in err and f"{qubit_protocol.MAX_ROWS:,}" in err and "Traceback" not in err

    def test_samples_at_the_row_cap_run(self, tmp_path, monkeypatch):
        # 3 samples x 2 ranks x 2 values of j is 12 rows
        monkeypatch.setattr(cli, "MAX_ROWS", 12)
        args = ["bound-compare", "--dim", "3", "--ranks", "1,2"]
        assert main(args + ["--samples", "3", "--out", str(tmp_path / "at")]) == 0
        assert len(_read_csv(tmp_path / "at" / "bound_compare.csv")[1]) == 12
        assert main(args + ["--samples", "4", "--out", str(tmp_path / "above")]) == 2
        assert os.listdir(tmp_path / "above") == []

    def test_search_above_the_evaluation_cap_names_restarts_on_one_line(self, tmp_path, capsys, monkeypatch):
        # 20,001 samples x 1 rank x 2 values of j x 10 restarts x 500 evaluations is 10,000 above MAX_SEARCH_EVALS
        monkeypatch.setattr(cli, "random_density_matrix", lambda *args: pytest.fail("a state was sampled"))
        out = tmp_path / "out"
        args = ["bound-compare", "--dim", "3", "--ranks", "1", "--samples", "20001", "--restarts", "10"]
        start = time.perf_counter()
        assert main(args + ["--out", str(out)]) == 2
        assert time.perf_counter() - start < 0.1
        assert os.listdir(out) == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "restarts" in err and f"{cli.MAX_SEARCH_EVALS:,}" in err and "Traceback" not in err

    def test_search_at_the_evaluation_cap_runs(self, tmp_path, monkeypatch):
        # 2 samples x 1 rank x 2 values of j is 4 rows; 2 restarts of each make 4,000 evaluations
        monkeypatch.setattr(cli, "MAX_SEARCH_EVALS", 4 * 2 * cli._SAMPLE_SEARCH_ITERS)
        args = ["bound-compare", "--dim", "3", "--ranks", "1", "--samples", "2"]
        assert main(args + ["--restarts", "2", "--out", str(tmp_path / "at")]) == 0
        assert all(row[5] for row in _read_csv(tmp_path / "at" / "bound_compare.csv")[1])
        assert main(args + ["--restarts", "3", "--out", str(tmp_path / "above")]) == 2
        assert os.listdir(tmp_path / "above") == []

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "out"
        main(["bound-compare", "--dim", "3", "--ranks", "2", "--samples", "3", "--seed", "1", "--out", str(out)])
        header, rows = _read_csv(out / "bound_compare.csv")
        assert header == ["seed", "rank", "j", "bound1", "bound2", "achieved", "tighter"]
        assert len(rows) == 3 * 2  # two mode indices per sampled state
        assert {row[6] for row in rows} <= {"bound1", "bound2", "tie"}
        assert {row[5] for row in rows} == {""}  # no search at the default of 0 restarts

    def test_achieved_is_the_seeded_search_of_each_row(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        args = ["bound-compare", "--dim", "3", "--ranks", "1,2", "--samples", "2", "--seed", "4"]
        assert main(args + ["--restarts", "2", "--out", str(out)]) == 0
        _, rows = _read_csv(out / "bound_compare.csv")
        assert len(rows) == 2 * 2 * 2
        for row in rows:
            seed_k, rank, j = (int(v) for v in row[:3])
            rho = random_density_matrix(3, rank, np.random.default_rng(seed_k))
            cfg = UnitarySearchConfig(2, cli._SAMPLE_SEARCH_ITERS, seed=seed_k)
            assert float(row[5]) == maximize_delta_m(rho, NumberOperator(3), j, cfg).best_delta_m
        # 0 restarts runs no search
        monkeypatch.setattr(cli, "maximize_delta_m", lambda *args: pytest.fail("a search ran"))
        assert main(args + ["--restarts", "0", "--out", str(tmp_path / "none")]) == 0

    def test_memory_does_not_grow_with_the_samples(self, tmp_path):
        # time-free: rows stream to the CSV and only the (rank, j) tally is
        # kept, so 20x the samples must not allocate more
        args = ["bound-compare", "--dim", "3", "--ranks", "2", "--seed", "1"]
        assert main(args + ["--samples", "2", "--out", str(tmp_path / "warm")]) == 0
        peaks = []
        for samples in (50, 1000):
            gc.collect()
            tracemalloc.start()
            assert main(args + ["--samples", str(samples), "--out", str(tmp_path / str(samples))]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 200_000

    def test_memory_does_not_grow_with_the_restarts_beyond_the_search(self, tmp_path):
        # time-free: the restarts of one search run at once and nothing else
        # is kept per restart, so 4x the restarts may only add their working
        # memory: six more restarts at d = 4, about 52 kB each
        args = ["bound-compare", "--dim", "4", "--samples", "1", "--seed", "1"]
        assert main(args + ["--ranks", "1", "--restarts", "1", "--out", str(tmp_path / "warm")]) == 0
        peaks = []
        for restarts in (2, 8):
            gc.collect()
            tracemalloc.start()
            assert main(args + ["--restarts", str(restarts), "--out", str(tmp_path / str(restarts))]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 400_000, peaks


def _psi_mixture(p):
    """p |psi><psi| + (1 - p) I/9 with |psi> = (|00> + |22>)/sqrt(2): coherent only across total gap 4."""
    psi = np.zeros(9)
    psi[[0, 8]] = 1.0 / math.sqrt(2.0)
    return DensityMatrix(p * np.outer(psi, psi) + (1.0 - p) * np.eye(9) / 9.0)


class TestNogo:
    def test_isotropic_no_go_with_zero_gain(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["nogo", "--state", _iso_state_file(tmp_path), "--out", str(out)])
        assert rc == 0
        report = json.load(open(out / "nogo_report.json"))
        assert report["verdict"] == "no_go"
        assert report["max_local_m1_gain"] <= 1e-9
        assert report["marginal_product_distance"] > 1e-8
        assert report["converged"] is True
        assert set(report) == {
            "verdict", "modes_present", "initial_local_m1", "max_local_m1_gain", "converged",
            "marginal_product_distance",
        }
        # the same search line as concentrate's, on stdout only
        assert re.search(
            r"^search: 8 evaluations, restarts 8 stationary, 0 at eval budget, final gradient norm \S+, "
            r"8 of 8 restarts within 1e-9 of the best$",
            capsys.readouterr().out,
            re.M,
        )

    @pytest.mark.parametrize(
        "state, j",
        [(isotropic_state(p), 1) for p in (0.1, 0.5, 0.9)]
        + [(_psi_mixture(p), j) for p in (0.05, 0.5, 1.0) for j in (1, 2)],
    )
    def test_search_never_beats_a_no_go_verdict(self, state, j):
        d = math.isqrt(state.dim)
        assert bounds.nogo_check(state, BipartiteGenerator(NumberOperator(d))) == "no_go"
        before = np.abs(np.diagonal(oracles.partial_trace_b_loops(state.matrix, d, d), -j)).sum()
        outcome = _search(_stripe_blocks(state.matrix, d, j), before, UnitarySearchConfig(seed=3))
        assert outcome.best_delta_m <= 1e-9

    def test_isotropic_state_file_reports_no_go(self, tmp_path):
        out = tmp_path / "out"
        assert main(["nogo", "--state", _iso_state_file(tmp_path), "--out", str(out)]) == 0
        report = json.load(open(out / "nogo_report.json"))
        assert report["verdict"] == "no_go"
        assert report["modes_present"] == [0, 2]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gain_matches_loop_reference(self, tmp_path, d):
        rho = random_density_matrix(d * d, 3, np.random.default_rng(5))
        state = _write_state(tmp_path / "joint.json", oracles.density_to_json(rho))
        out = tmp_path / "out"
        assert main(["nogo", "--state", state, "--out", str(out)]) == 0
        report = json.load(open(out / "nogo_report.json"))
        outcome = _search(_stripe_blocks(rho.matrix, d, 1), report["initial_local_m1"], UnitarySearchConfig())
        assert report["max_local_m1_gain"] == outcome.best_delta_m

        def m1(joint):
            reduced = oracles.partial_trace_b_loops(joint, d, d)
            stripe = np.zeros((d, d), dtype=complex)
            for n in range(d - 1):
                stripe[n + 1, n] = reduced[n + 1, n]
            return np.linalg.svd(stripe, compute_uv=False).sum()

        gen = BipartiteGenerator(NumberOperator(d))
        rng = np.random.default_rng(7)
        before = m1(rho.matrix)
        sampled = -math.inf
        for _ in range(20):
            u = random_allowed_unitary(gen, rng).matrix
            sampled = max(sampled, m1(u @ rho.matrix @ u.conj().T) - before)
        assert sampled > 0.01
        assert abs(report["initial_local_m1"] - before) <= 1e-12
        u = outcome.best_unitary.matrix
        assert abs(report["max_local_m1_gain"] - (m1(u @ rho.matrix @ u.conj().T) - before)) <= 1e-12
        # the search finds at least the best of the 20 random draws
        assert report["max_local_m1_gain"] >= sampled

    def test_one_dimensional_joint_state_has_zero_gain(self, tmp_path):
        # d = 1: the stripe has no eigenspace pair and no entry, so every restart is stationary at once
        state = _write_state(tmp_path / "joint.json", {"dim": 1, "re": [[1.0]], "im": [[0.0]]})
        out = tmp_path / "out"
        assert main(["nogo", "--state", state, "--out", str(out)]) == 0
        report = json.load(open(out / "nogo_report.json"))
        assert report["max_local_m1_gain"] == 0.0
        assert report["initial_local_m1"] == 0.0
        assert report["converged"] is True

    def test_joint_state_beyond_the_search_cap_gets_a_verdict_only(self, tmp_path, capsys, monkeypatch):
        d = MAX_LOCAL_DIM + 1
        rho = random_density_matrix(d * d, 2, np.random.default_rng(1))
        state = _write_state(tmp_path / "joint.json", oracles.density_to_json(rho))
        out = tmp_path / "out"
        monkeypatch.setattr(cli, "_search", lambda *args: pytest.fail("the search ran above its cap"))
        assert main(["nogo", "--state", state, "--out", str(out)]) == 0
        report = json.load(open(out / "nogo_report.json"))
        gen = BipartiteGenerator(NumberOperator(d))
        assert report["verdict"] == bounds.nogo_check(rho, gen)
        assert report["modes_present"] == sorted(bipartite_mode_set(rho, gen))
        assert report["max_local_m1_gain"] is None and report["converged"] is None
        assert report["marginal_product_distance"] == bounds.marginal_product_distance(rho, gen)
        assert f"search: skipped, local dimension {d} is above the search cap of {MAX_LOCAL_DIM}" in (
            capsys.readouterr().out
        )


@pytest.mark.parametrize(
    "command, flag, obj, key",
    [
        (["bound-compare"], "--config", {"samples": {}}, "samples"),
        (["concentrate"], "--state", {"dim": [2], "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}, "dim"),
        (["concentrate"], "--state", {"nx": [0.1], "nz": 0.5}, "nx"),
        # a concentrate manifest written when it had the joint-state branch
        (["concentrate"], "--config", {"params": {"state": "joint.json", "bipartite": True}}, "bipartite"),
        (["bound-compare"], "--config", {"samples": 2.5}, "samples"),
        (["amplify", "--steps", "abc"], "--config", {}, "steps"),
        (["amplify"], "--config", {"eps": [0.1]}, "eps"),
        (["concat"], "--config", {"nx": [True]}, "nx"),
        (["nogo"], "--config", {"p": True}, "p"),
        (["amplify"], "--config", {"eps": True}, "eps"),
        # a list with no item left
        (["bound-compare", "--ranks", ","], "--config", {}, "ranks"),
        (["bound-compare", "--ranks="], "--config", {}, "ranks"),
        (["concat", "--nx="], "--config", {}, "nx"),
        (["concat", "--nz", ","], "--config", {}, "nz"),
        (["bound-compare"], "--config", {"ranks": []}, "ranks"),
        (["concat"], "--config", {"nx": []}, "nx"),
        # a key that is not a parameter of the command
        (["amplify", "--steps", "3"], "--config", {"stepz": 3}, "stepz"),
        (["nogo", "--state", "ISO"], "--config", {"nx": [0.1]}, "nx"),
        # a state file follows the same type rules as the flags
        (["concentrate"], "--state", {"dim": 2.7, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}, "dim"),
        (["concentrate"], "--state", {"dim": True, "re": [[1]], "im": [[0]]}, "dim"),
        (["concentrate"], "--state", {"nx": True, "nz": 0}, "nx"),
        # numpy alone would read a boolean entry as 1.0 or 0.0
        (["concentrate"], "--state", {"dim": 2, "re": [[True, 0], [0, False]], "im": [[0, 0], [0, 0]]}, "re"),
        (["concentrate"], "--state", {"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [False, 0]]}, "im"),
        # a file that holds no JSON object, or a state object of neither form
        (["amplify"], "--config", [{"steps": 3}], "config"),
        (["concentrate"], "--state", [[1, 0], [0, 0]], "state"),
        (["nogo"], "--state", {"matrix": [[1]]}, "state"),
        (["concentrate"], "--config", {"restarts": {}}, "restarts"),
        (["concentrate"], "--config", {"restarts": 2.5}, "restarts"),
        # a nogo manifest written when the dynamical check sampled
        (["nogo"], "--config", {"params": {"p": 0.5, "samples": 500}}, "samples"),
        # a bound-compare manifest written when a boolean switched its search on
        (["bound-compare"], "--config", {"params": {"samples": 1, "with_achieved": True}}, "with_achieved"),
        # the deterministic commands take no seed, nor does a manifest of theirs hold one
        (["concat"], "--config", {"seed": 0}, "seed"),
        (["field"], "--config", {"seed": 3}, "seed"),
        (["amplify"], "--config", {"params": {"steps": 3, "seed": 0}}, "seed"),
        # a state file is held to the keys of one form: a misspelled ny, and a matrix with Bloch keys
        (["concentrate"], "--state", {"nx": 0.3, "nz": 0.2, "ny ": 0.5}, "ny "),
        (["concentrate"], "--state", {"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]], "nx": 0.9}, "nx"),
        # and one written when its search had a budget parameter
        (["bound-compare"], "--config", {"params": {"samples": 1, "iters": 500}}, "iters"),
        # a nogo manifest written when it could build the isotropic state itself
        (["nogo"], "--config", {"params": {"p": 0.5}}, "p"),
        # a concentrate manifest written when its search had a budget parameter
        (["concentrate"], "--config", {"params": {"state": "x.json", "iters": 60}}, "iters"),
        # manifests written when concat, nogo and concentrate took tuning values of the library
        (["concat"], "--config", {"params": {"nx": [0.1], "steps": 1000000, "eps": 0.001}}, ("steps", "eps")),
        (["nogo"], "--config", {"params": {"state": "x.json", "restarts": 8, "seed": 0}}, ("restarts", "seed")),
        (["concentrate"], "--config", {"params": {"state": "x.json", "restarts": 8, "seed": 0}}, "seed"),
    ],
)
def test_wrongly_typed_input_names_the_key(tmp_path, capsys, command, flag, obj, key):
    path = _write_state(tmp_path / "input.json", obj)
    command = [_iso_state_file(tmp_path) if arg == "ISO" else arg for arg in command]
    out = tmp_path / "out"
    assert main(command + [flag, path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # a tuple names several keys, each of which the message must name
    assert all(f"'{name}'" in err for name in (key if isinstance(key, tuple) else (key,)))
    if flag == "--config":
        # parameters are resolved before the output directory is made
        assert not out.exists()


def _declared(command) -> list:
    """The parameters ``command`` declares, ``out`` aside."""
    return [name for name, *_ in (*cli.COMMANDS[command][2], *cli._COMMON) if name != "out"]


SEEDED = sorted(command for command in cli.COMMANDS if "seed" in _declared(command))


@pytest.mark.parametrize("command", SEEDED)
def test_negative_seed_exits_1_naming_it(tmp_path, capsys, command):
    config = _write_state(tmp_path / "config.json", {"seed": -2})
    for argv in (["--seed=-5"], ["--config", config]):
        out = tmp_path / "out"
        assert main([command, *argv, "--out", str(out)]) == 1
        assert "'seed'" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        # the deterministic commands take no seed
        ["amplify", "--seed", "0"],
        ["concat", "--seed", "0"],
        ["field", "--seed", "0"],
        # nor does a command take a tuning value that is the library's constant
        ["concat", "--steps", "5"],
        ["concat", "--eps", "0.01"],
        ["nogo", "--restarts", "3"],
        ["nogo", "--seed", "1"],
        ["concentrate", "--seed", "1"],
    ],
)
def test_flag_the_command_does_not_take_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["amplify", "--eps", "nan"],
        ["amplify", "--steps", "0"],
        ["concentrate", "--state", "ISO", "--j", "4"],
        ["concentrate", "--state", "ISO", "--restarts", "0"],
        ["bound-compare", "--samples=-3"],
        ["concentrate"],
        # the restart count, the dimension and the ranks are checked before the CSV is opened
        ["bound-compare", "--restarts=-1"],
        ["bound-compare", "--dim", "2"],
        ["bound-compare", "--ranks", "1,5"],
        # the grid is checked before the field's rows are made
        ["field", "--grid", "0x5"],
        ["field", "--grid", "100000"],
        # the count of starts is checked before any start is validated or run
        ["concat", "--nx", "0.1,0.2,0.3,0.4,0.5", "--nz", "0.1,0.2"],
        ["nogo"],
        # a restart count above the cap, before anything is allocated for it
        ["concentrate", "--state", "ISO", "--restarts", "1000000000000"],
        ["bound-compare", "--restarts", "1000000000000"],
    ],
)
def test_unsupported_value_exits_2_before_writing(tmp_path, argv):
    argv = [_iso_state_file(tmp_path) if arg == "ISO" else arg for arg in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert os.listdir(out) == []


@pytest.mark.parametrize("argv", [["concentrate", "--state", "ISO"], ["bound-compare"]])
def test_restart_count_above_the_cap_names_it_on_one_line(tmp_path, capsys, argv):
    argv = [_iso_state_file(tmp_path) if arg == "ISO" else arg for arg in argv]
    assert main(argv + ["--restarts", str(MAX_RESTARTS + 1), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "restarts" in err and str(MAX_RESTARTS) in err and "Traceback" not in err


def test_grid_above_the_cap_names_it_on_one_line(tmp_path, capsys):
    side = math.isqrt(qubit_protocol.MAX_ROWS) + 1
    out = tmp_path / "out"
    assert main(["field", "--grid", str(side), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "grid" in err and f"{qubit_protocol.MAX_ROWS:,}" in err and "Traceback" not in err
    assert os.listdir(out) == []


@pytest.mark.parametrize("argv", [["nogo", "--state", "ISO"], ["nogo", "--state", "JOINT5"]])
def test_one_mode_set_per_command(tmp_path, monkeypatch, argv):
    # JOINT5 is above the search cap, so the verdict is the whole run
    joint = random_density_matrix((MAX_LOCAL_DIM + 1) ** 2, 2, np.random.default_rng(3))
    files = {
        "ISO": _iso_state_file(tmp_path),
        "JOINT5": _write_state(tmp_path / "joint.json", oracles.density_to_json(joint)),
    }
    argv = [files.get(arg, arg) for arg in argv]
    calls = []
    original = cli.bipartite_mode_set

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (cli, bounds):
        monkeypatch.setattr(module, "bipartite_mode_set", counting)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


class TestAmplify:
    def test_summary_reports_threshold_success(self, tmp_path):
        out = tmp_path / "out"
        assert main(["amplify", "--steps", "6", "--eps", "0.1", "--out", str(out)]) == 0
        summary = json.load(open(out / "amplify_summary.json"))
        assert summary["exceeds_threshold"] is True
        assert summary["ratio"] > summary["threshold"]
        assert summary["threshold"] == pytest.approx(2 ** (-0.1) * math.sqrt(2**6), abs=1e-12)
        _, rows = _read_csv(out / "amplify_N6.csv")
        assert len(rows) == 7


class TestManifestReproduction:
    def test_rerun_from_manifest_reproduces_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["bound-compare", "--dim", "3", "--ranks", "1", "--samples", "4", "--seed", "9"]
        assert main(args + ["--out", str(out1)]) == 0
        manifest = out1 / "bound_compare_manifest.json"
        assert main(["bound-compare", "--config", str(manifest), "--out", str(out2)]) == 0
        data1 = open(out1 / "bound_compare.csv", "rb").read()
        data2 = open(out2 / "bound_compare.csv", "rb").read()
        assert data1 == data2

    @pytest.mark.parametrize(
        "argv",
        [
            ["concat", "--nx", "0.01,0.3", "--nz", "0.7,0.2"],
            ["nogo", "--state", "ISO"],
            ["nogo", "--state", "JOINT"],
            ["amplify", "--steps", "12", "--eps", "0.15"],
            ["field", "--grid", "4x7"],
            ["nogo", "--state", "JOINT5"],
            ["concentrate", "--state", "QUBIT", "--j", "1", "--restarts", "2"],
        ],
    )
    def test_every_command_reruns_from_its_manifest(self, tmp_path, argv):
        states = {
            "JOINT": _write_state(
                tmp_path / "joint.json",
                oracles.density_to_json(random_density_matrix(9, 2, np.random.default_rng(1))),
            ),
            "JOINT5": _write_state(
                tmp_path / "joint5.json",
                oracles.density_to_json(random_density_matrix(25, 2, np.random.default_rng(1))),
            ),
            "QUBIT": _qubit_state_file(tmp_path),
            "ISO": _iso_state_file(tmp_path),
        }
        argv = [states.get(arg, arg) for arg in argv]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(out1)]) == 0
        manifest = next(f for f in os.listdir(out1) if f.endswith("_manifest.json"))
        assert main([argv[0], "--config", str(out1 / manifest), "--out", str(out2)]) == 0
        names = sorted(os.listdir(out1))
        assert sorted(os.listdir(out2)) == names
        for name in names:
            if name != manifest:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        params1 = json.load(open(out1 / manifest))["params"]
        params2 = json.load(open(out2 / manifest))["params"]
        assert {**params1, "out": None} == {**params2, "out": None}


#: per command and parameter (seed aside), two argvs meant to differ only in that
#: parameter; bound-compare's seed pair is its first argv with --seed 0 and --seed 5
READ_PAIRS = {
    "concentrate": {
        "state": ("--state QUTRIT --restarts 2", "--state QUBIT --restarts 2"),
        "j": ("--state QUTRIT --j 1 --restarts 2", "--state QUTRIT --j 2 --restarts 2"),
        "restarts": ("--state QUTRIT --restarts 1", "--state QUTRIT --restarts 2"),
    },
    "concat": {
        "nx": ("--nx 0.1", "--nx 0.2"),
        "nz": ("--nz 0.7", "--nz 0.6"),
    },
    "field": {"grid": ("--grid 3", "--grid 4")},
    "bound-compare": {
        "dim": ("--dim 3 --ranks 1 --samples 2", "--dim 4 --ranks 1 --samples 2"),
        "ranks": ("--ranks 1 --samples 2", "--ranks 2 --samples 2"),
        "samples": ("--ranks 1 --samples 1", "--ranks 1 --samples 2"),
        "restarts": ("--ranks 1 --samples 1 --restarts 0", "--ranks 1 --samples 1 --restarts 1"),
    },
    "nogo": {"state": ("--state JOINT", "--state ISO")},
    "amplify": {"steps": ("--steps 3", "--steps 4"), "eps": ("--eps 0.1", "--eps 0.2")},
}


@pytest.mark.parametrize(
    "command, param", [(command, param) for command in sorted(cli.COMMANDS) for param in _declared(command)]
)
def test_every_parameter_changes_an_output(tmp_path, capsys, command, param):
    """A declared parameter is read: two runs that differ in it alone differ in an output or on stdout."""
    files = {
        name: _write_state(tmp_path / f"{name}.json", oracles.density_to_json(rho))
        for name, rho in (
            ("QUBIT", random_density_matrix(2, 2, np.random.default_rng(1))),
            ("QUTRIT", random_density_matrix(3, 2, np.random.default_rng(1))),
            ("JOINT", random_density_matrix(9, 2, np.random.default_rng(1))),
            ("ISO", isotropic_state(0.5)),
        )
    }
    pairs = READ_PAIRS[command]
    first = next(iter(pairs.values()))[0]
    runs = []
    for k, text in enumerate(pairs[param] if param != "seed" else (f"{first} --seed 0", f"{first} --seed 5")):
        out = tmp_path / f"run{k}"
        assert main([command, *(files.get(token, token) for token in text.split()), "--out", str(out)]) == 0
        manifest = out / f"{command.replace('-', '_')}_manifest.json"
        outputs = {path.name: path.read_bytes() for path in out.iterdir() if path != manifest}
        runs.append((json.loads(manifest.read_text())["params"], outputs, capsys.readouterr().out))
    (params1, outputs1, stdout1), (params2, outputs2, stdout2) = runs
    assert {name for name in params1 if params1[name] != params2[name]} == {param, "out"}
    assert outputs1 != outputs2 or stdout1 != stdout2, f"{command} --{param} changes no output"


# Parser sweep: per subcommand, each parameter's usual flag texts and its odd
# ones (nan, inf, empty, negative, malformed lists and grids, missing or
# invalid files). An example sets at most one parameter to an odd text or to a
# config value of the wrong JSON type, so every odd value is reached on its own.
# Every number is small (grids <= 20, amplify steps <= 50, samples <= 5, one
# restart of a concentrate search, at most one restart of a bound-compare
# search per row, and nogo's default search of eight restarts at d <= 3, whose
# d = 5 joint state gets a verdict and no search), so an example runs in at
# most a second. None stands for a parameter left to its default, and a name
# in STATE_FILES for a file the sweep writes.
STATE_FILES = ("qubit.json", "bloch.json", "iso.json", "joint.json", "bad.json", "joint5.json")
SWEEP = {
    "concentrate": {
        "state": (["qubit.json", "bloch.json", "iso.json"], ["bad.json", "missing.json", ""]),
        "j": ([None, "1", "2"], ["0", "-1", "4", "nan", ""]),
        "restarts": (["1"], ["0", "-2", "1000000000000"]),
    },
    "concat": {
        "nx": ([None, "0.4", "0.1,0.5", "0,0.3"], ["nan", "inf", "-0.2", "", "1e200", "a,b", "0.3,,0.1"]),
        "nz": ([None, "0.1", "0", "0.2,0.9"], ["-0.5", "nan", "", "1"]),
    },
    "field": {
        "grid": ([None, "1", "3x4", "20"], ["20x20", "1x2x3", "x", "0x5", "-1", "", "nan", "2x-2", "20x"]),
    },
    "bound-compare": {
        "dim": ([None, "3", "4"], ["2", "5", "nan", "", "3.0"]),
        "ranks": ([None, "1", "1,2"], ["", "0", "5", "a", "2,,1", "-1"]),
        "samples": (["1", "2"], ["0", "-1", "2.5", ""]),
        "restarts": (["0", "1"], ["-1", "x", "1000000000000"]),
        "seed": ([None, "0", "7"], ["-1", "2.5", "x", ""]),
    },
    "nogo": {
        "state": (["iso.json", "joint.json", "joint5.json"], ["qubit.json", "bad.json", "missing.json", ""]),
    },
    "amplify": {
        "steps": ([None, "1", "6", "50"], ["0", "-1", "x", "", "2.5"]),
        "eps": ([None, "0.1"], ["0", "-0.1", "nan", "inf", "1e-300", "", "abc"]),
    },
}
#: parameters whose default is too large for the sweep, so they always come from a flag
FLAG_ONLY = {"restarts", "samples"}
#: config values of the wrong JSON type (null means "use the default")
WRONG_TYPES = ["false", 2.5, {}, [], None]


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    joint = random_density_matrix(9, 2, np.random.default_rng(2))
    for name, obj in zip(
        STATE_FILES,
        (
            {"dim": 2, "re": [[0.7, 0.2], [0.2, 0.3]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            {"nx": 0.3, "nz": 0.4},
            oracles.density_to_json(isotropic_state(0.5)),
            oracles.density_to_json(joint),
            {"dim": 2, "re": [[1.5, 0.0], [0.0, -0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            oracles.density_to_json(random_density_matrix(25, 2, np.random.default_rng(2))),
        ),
    ):
        _write_state(root / name, obj)
    return root


@pytest.mark.parametrize("command", sorted(SWEEP))
@seed(5)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_parser_sweep_exits_0_1_or_2(sweep_dir, command, data):
    params = SWEEP[command]
    assert sorted(params) == sorted(_declared(command))
    odd = data.draw(st.sampled_from([None, *params]), label="odd parameter")
    argv, config = [command], {}
    for name, (usual, unusual) in params.items():
        source = st.sampled_from(usual)
        if name == odd:
            source = st.sampled_from(usual + unusual)
            if name not in FLAG_ONLY:
                source |= st.sampled_from(WRONG_TYPES).map(lambda value: (value,))
        choice = data.draw(source, label=name)
        flag = f"--{name}"
        if isinstance(choice, tuple):
            config[name] = choice[0]
        elif choice is not None:
            text = str(sweep_dir / choice) if choice in STATE_FILES else choice
            argv.append(f"{flag}={text}")
    if config:
        _write_state(sweep_dir / "config.json", config)
        argv += ["--config", str(sweep_dir / "config.json")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(sweep_dir / "out")])
    assert code in (0, 1, 2)
    assert (code == 0) == (err.getvalue() == ""), err.getvalue()
