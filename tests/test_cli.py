import contextlib
import gc
import io
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from coherence_lab import bounds, cli
from coherence_lab.cli import main
from coherence_lab.modes import bipartite_mode_set
from coherence_lab.optimizer import MAX_LOCAL_DIM, UnitarySearchConfig, _search, random_allowed_unitary
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
        defaults = {name: default for name, _, default, _ in cli.COMMANDS["concentrate"][2]}
        assert (defaults["restarts"], defaults["iters"]) == (UnitarySearchConfig.restarts, UnitarySearchConfig.max_iters)

    def test_qubit_report(self, tmp_path, capsys):
        state = _qubit_state_file(tmp_path)
        out = tmp_path / "out"
        assert main(["concentrate", "--state", state, "--seed", "0", "--out", str(out)]) == 0
        # the search telemetry goes to stdout only, never into the report
        assert re.search(
            r"^search: \d+ evaluations, restarts 8 stationary, 0 at eval budget, final gradient norm \S+$",
            capsys.readouterr().out,
            re.M,
        )
        report = json.load(open(out / "concentrate_report.json"))
        assert set(report["optimizer"]) == {"best_delta_m", "converged"}
        assert report["closed_form"]["delta_m"] == pytest.approx(0.028062484748656982, abs=1e-15)
        assert report["closed_form"]["simulated_delta_m"] == pytest.approx(
            report["closed_form"]["delta_m"], abs=1e-10
        )
        assert report["optimizer"]["best_delta_m"] == pytest.approx(
            report["closed_form"]["delta_m"], abs=1e-6
        )
        rep = report["bound_report"]
        assert rep["bound1"] >= report["closed_form"]["delta_m"]
        assert rep["achieved"] is not None
        manifest = json.load(open(out / "concentrate_manifest.json"))
        assert manifest["command"] == "concentrate"
        assert manifest["params"]["seed"] == 0

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

    def test_bloch_state_file_accepted(self, tmp_path):
        state = _write_state(tmp_path / "bloch.json", {"nx": 0.2, "ny": 0.0, "nz": 0.8})
        out = tmp_path / "out"
        assert main(["concentrate", "--state", state, "--out", str(out)]) == 0
        report = json.load(open(out / "concentrate_report.json"))
        assert report["input_dim"] == 2


class TestConcat:
    def test_axis_start_single_row(self, tmp_path):
        out = tmp_path / "out"
        assert main(["concat", "--nx", "0.4", "--nz", "0", "--out", str(out)]) == 0
        header, rows = _read_csv(out / "concat_nx0.4_nz0.csv")
        assert header == ["step", "n_x", "n_z", "log2_copies", "m1", "purity_ceiling"]
        assert len(rows) == 1
        summary = json.load(open(out / "concat_summary.json"))
        assert summary[0]["status"] == "converged"
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

    def test_huge_finite_start_is_rejected_by_norm(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["concat", "--nx", "1e200", "--nz", "0", "--out", str(out)]) == 1
        assert "norm" in capsys.readouterr().err

    def test_cap_reached_warns_but_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["concat", "--nx", "0", "--nz", "0.5", "--steps", "10", "--out", str(out)])
        assert rc == 0
        assert "not converged" in capsys.readouterr().out
        summary = json.load(open(out / "concat_summary.json"))
        assert summary[0]["status"] == "not converged"
        assert summary[0]["stop_reason"] == "fixed point"

    @pytest.mark.parametrize(
        "argv, warning",
        [
            (["--nx", "0", "--nz", "0.5"], "warning: start (nx=0, nz=0.5) not converged: fixed point at step 1"),
            (
                ["--nx", "1e-5", "--nz", "0.001001", "--steps", "50"],
                "warning: start (nx=1e-05, nz=0.001001) not converged: step cap at step 50",
            ),
        ],
    )
    def test_warning_names_the_stop_reason_and_step(self, tmp_path, capsys, argv, warning):
        assert main(["concat", *argv, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.splitlines() == [warning]

    def test_capped_start_reports_the_step_cap(self, tmp_path):
        out = tmp_path / "out"
        assert main(["concat", "--nx", "1e-5", "--nz", "0.001001", "--steps", "50", "--out", str(out)]) == 0
        summary = json.load(open(out / "concat_summary.json"))
        assert (summary[0]["status"], summary[0]["stop_reason"]) == ("not converged", "step cap")

    @pytest.mark.parametrize(
        "nx, nz, eps, stop_reason",
        [("0.019", "0.09", "0.001", "converged"), ("0.3", "0.5", "0", "fixed point")],
    )
    def test_trajectory_csv_matches_a_plain_float_reference(self, tmp_path, nx, nz, eps, stop_reason):
        out = tmp_path / "out"
        assert main(["concat", "--nx", nx, "--nz", nz, "--eps", eps, "--out", str(out)]) == 0
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

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "out"
        main(["bound-compare", "--dim", "3", "--ranks", "2", "--samples", "3", "--seed", "1", "--out", str(out)])
        header, rows = _read_csv(out / "bound_compare.csv")
        assert header == ["seed", "rank", "j", "bound1", "bound2", "achieved", "tighter"]
        assert len(rows) == 3 * 2  # two mode indices per sampled state
        assert {row[6] for row in rows} <= {"bound1", "bound2", "tie"}

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


def _psi_mixture(p):
    """p |psi><psi| + (1 - p) I/9 with |psi> = (|00> + |22>)/sqrt(2): coherent only across total gap 4."""
    psi = np.zeros(9)
    psi[[0, 8]] = 1.0 / math.sqrt(2.0)
    return DensityMatrix(p * np.outer(psi, psi) + (1.0 - p) * np.eye(9) / 9.0)


class TestNogo:
    def test_isotropic_no_go_with_zero_gain(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["nogo", "--p", "0.5", "--restarts", "4", "--seed", "3", "--out", str(out)])
        assert rc == 0
        report = json.load(open(out / "nogo_report.json"))
        assert report["verdict"] == "no_go"
        assert report["max_local_m1_gain"] <= 1e-9
        assert report["marginal_product_distance"] > 1e-8
        assert (report["restarts"], report["converged"]) == (4, True)
        assert "unitary_samples" not in report and "search" in report["note"]
        # the same search line as concentrate's, on stdout only
        assert re.search(
            r"^search: 4 evaluations, restarts 4 stationary, 0 at eval budget, final gradient norm \S+$",
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
        outcome = _search(state.matrix, d, j, before, UnitarySearchConfig(seed=3))
        assert outcome.best_delta_m <= 1e-9

    def test_isotropic_state_file_reports_no_go(self, tmp_path):
        state = _write_state(tmp_path / "iso.json", oracles.density_to_json(isotropic_state(0.5)))
        out = tmp_path / "out"
        assert main(["nogo", "--state", state, "--out", str(out)]) == 0
        report = json.load(open(out / "nogo_report.json"))
        assert report["verdict"] == "no_go"
        assert report["modes_present"] == [0, 2]

    def test_requires_exactly_one_source(self, tmp_path):
        assert main(["nogo", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gain_matches_loop_reference(self, tmp_path, d):
        rho = random_density_matrix(d * d, 3, np.random.default_rng(5))
        state = _write_state(tmp_path / "joint.json", oracles.density_to_json(rho))
        out = tmp_path / "out"
        args = ["nogo", "--state", state, "--restarts", "3", "--seed", "7", "--out", str(out)]
        assert main(args) == 0
        report = json.load(open(out / "nogo_report.json"))
        outcome = _search(rho.matrix, d, 1, report["initial_local_m1"], UnitarySearchConfig(restarts=3, seed=7))
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
        assert main(["nogo", "--state", state, "--restarts", "5", "--out", str(out)]) == 0
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
        assert report["note"].startswith(f"no gain search above local dimension {MAX_LOCAL_DIM};")
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
        (["concat"], "--config", {"eps": True}, "eps"),
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
        (["nogo", "--p", "0.5"], "--config", {"nx": [0.1]}, "nx"),
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
        (["nogo", "--p", "0.5"], "--config", {"restarts": {}}, "restarts"),
        (["nogo", "--p", "0.5"], "--config", {"restarts": 2.5}, "restarts"),
        # a nogo manifest written when the dynamical check sampled
        (["nogo"], "--config", {"params": {"p": 0.5, "samples": 500}}, "samples"),
        # a boolean is JSON true or false, never a string
        (["bound-compare"], "--config", {"with_achieved": "false"}, "with_achieved"),
    ],
)
def test_wrongly_typed_input_names_the_key(tmp_path, capsys, command, flag, obj, key):
    path = _write_state(tmp_path / "input.json", obj)
    out = tmp_path / "out"
    assert main(command + [flag, path, "--out", str(out)]) == 1
    assert f"'{key}'" in capsys.readouterr().err
    if flag == "--config":
        # parameters are resolved before the output directory is made
        assert not out.exists()


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_negative_seed_exits_1_naming_it(tmp_path, capsys, monkeypatch, command):
    config = _write_state(tmp_path / "config.json", {"seed": -2})
    monkeypatch.setenv("COHERENCE_LAB_SEED", "-3")
    for argv in (["--seed=-5"], ["--config", config], []):
        out = tmp_path / "out"
        assert main([command, *argv, "--out", str(out)]) == 1
        assert "'seed'" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["amplify", "--eps", "nan"],
        ["concat", "--eps", "nan"],
        ["concat", "--eps=-0.5"],
        ["nogo", "--p", "0.5", "--restarts", "0"],
        ["bound-compare", "--samples=-3"],
        ["concentrate"],
        # the search budget is checked before the CSV is opened
        ["bound-compare", "--with-achieved", "--restarts", "0"],
        # and so is it when no search runs
        ["bound-compare", "--restarts", "0"],
        ["bound-compare", "--iters", "-1"],
        # the grid is checked before the field's rows are made
        ["field", "--grid", "0x5"],
    ],
)
def test_unsupported_value_exits_2_before_writing(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert os.listdir(out) == []


@pytest.mark.parametrize("argv", [["nogo", "--p", "0.5", "--restarts", "3"], ["nogo", "--state"]])
def test_one_mode_set_per_command(tmp_path, monkeypatch, argv):
    if argv[-1] == "--state":
        # a joint state above the search cap, so the verdict is the whole run
        joint = random_density_matrix((MAX_LOCAL_DIM + 1) ** 2, 2, np.random.default_rng(3))
        argv = argv + [_write_state(tmp_path / "joint.json", oracles.density_to_json(joint))]
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
            ["concat", "--nx", "0.01,0.3", "--nz", "0.7,0.2", "--eps", "0.01"],
            ["nogo", "--p", "0.5", "--restarts", "4", "--seed", "4"],
            ["nogo", "--state", "JOINT", "--restarts", "2", "--seed", "6"],
            ["amplify", "--steps", "12", "--eps", "0.15"],
            ["field", "--grid", "4x7"],
            ["nogo", "--state", "JOINT5"],
            ["concentrate", "--state", "QUBIT", "--j", "1", "--restarts", "2", "--iters", "60", "--seed", "3"],
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

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("COHERENCE_LAB_SEED", "77")
        assert main(["bound-compare", "--dim", "3", "--ranks", "1", "--samples", "3", "--out", str(out1)]) == 0
        monkeypatch.delenv("COHERENCE_LAB_SEED")
        assert main(
            ["bound-compare", "--dim", "3", "--ranks", "1", "--samples", "3", "--seed", "77", "--out", str(out2)]
        ) == 0
        assert open(out1 / "bound_compare.csv", "rb").read() == open(out2 / "bound_compare.csv", "rb").read()


# Parser sweep: per subcommand, each parameter's usual flag texts and its odd
# ones (nan, inf, empty, negative, malformed lists and grids, missing or
# invalid files). An example sets at most one parameter to an odd text or to a
# config value of the wrong JSON type, so every odd value is reached on its own.
# Every number is small (grids <= 20, steps <= 50, samples <= 5, one restart of
# ten evaluations for concentrate and bound-compare, at most five restarts of a
# qutrit search for nogo, whose d = 5 joint state gets a verdict and no search),
# so an example runs in at most tens of milliseconds. PRESENT stands for a
# bare boolean flag, None for a parameter left to its default, and a name in
# STATE_FILES for a file the sweep writes.
PRESENT = object()
STATE_FILES = ("qubit.json", "bloch.json", "iso.json", "joint.json", "bad.json", "joint5.json")
SEED_TEXTS = ([None, "0", "7"], ["-1", "2.5", "x", ""])
SWEEP = {
    "concentrate": {
        "state": (["qubit.json", "bloch.json", "iso.json"], ["bad.json", "missing.json", ""]),
        "j": ([None, "1", "2"], ["0", "-1", "4", "nan", ""]),
        "restarts": (["1"], ["0", "-2"]),
        "iters": (["10"], ["0", "inf"]),
    },
    "concat": {
        "nx": ([None, "0.4", "0.1,0.5", "0,0.3"], ["nan", "inf", "-0.2", "", "1e200", "a,b", "0.3,,0.1"]),
        "nz": ([None, "0.1", "0", "0.2,0.9"], ["-0.5", "nan", "", "1"]),
        "steps": (["1", "50"], ["0", "-3", "abc", "2.5", ""]),
        "eps": ([None, "0.001", "0"], ["-1", "nan", "inf", ""]),
    },
    "field": {
        "grid": ([None, "1", "3x4", "20"], ["20x20", "1x2x3", "x", "0x5", "-1", "", "nan", "2x-2", "20x"]),
    },
    "bound-compare": {
        "dim": ([None, "3", "4"], ["2", "5", "nan", "", "3.0"]),
        "ranks": ([None, "1", "1,2"], ["", "0", "5", "a", "2,,1", "-1"]),
        "samples": (["1", "2"], ["0", "-1", "2.5", ""]),
        "with_achieved": ([None, PRESENT], []),
        "restarts": (["1"], ["0", "x"]),
        "iters": (["10"], ["-1", ""]),
    },
    "nogo": {
        "state": ([None, "iso.json", "joint.json", "joint5.json"], ["qubit.json", "bad.json", "missing.json", ""]),
        "p": ([None, "0.5", "0", "1"], ["1.5", "-0.1", "nan", "inf", ""]),
        "restarts": (["1", "5"], ["0", "-2", "x", "nan"]),
    },
    "amplify": {
        "steps": ([None, "1", "6", "50"], ["0", "-1", "x", "", "2.5"]),
        "eps": ([None, "0.1"], ["0", "-0.1", "nan", "inf", "1e-300", "", "abc"]),
    },
}
#: parameters whose default is too large for the sweep, so they always come from a flag
FLAG_ONLY = {"restarts", "iters", "steps", "samples"}
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
    params = {**SWEEP[command], "seed": SEED_TEXTS}
    odd = data.draw(st.sampled_from([None, *params]), label="odd parameter")
    argv, config = [command], {}
    for name, (usual, unusual) in params.items():
        source = st.sampled_from(usual)
        if name == odd:
            source = st.sampled_from(usual + unusual)
            if name not in FLAG_ONLY:
                source |= st.sampled_from(WRONG_TYPES).map(lambda value: (value,))
        choice = data.draw(source, label=name)
        flag = "--" + name.replace("_", "-")
        if isinstance(choice, tuple):
            config[name] = choice[0]
        elif choice is PRESENT:
            argv.append(flag)
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
