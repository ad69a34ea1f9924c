import json
import math
import os

import numpy as np
import pytest

import oracles
from coherence_lab.cli import main
from coherence_lab.optimizer import random_allowed_unitary
from coherence_lab.qubit_protocol import recurrence_step
from coherence_lab.sampling import random_density_matrix
from coherence_lab.states import (
    BipartiteGenerator,
    BlochState,
    NumberOperator,
    density_to_json,
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
    def test_qubit_report(self, tmp_path):
        state = _qubit_state_file(tmp_path)
        out = tmp_path / "out"
        assert main(["concentrate", "--state", state, "--seed", "0", "--out", str(out)]) == 0
        report = json.load(open(out / "concentrate_report.json"))
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

    def test_isotropic_bipartite_reports_no_go(self, tmp_path):
        state = _write_state(tmp_path / "iso.json", density_to_json(isotropic_state(0.5)))
        out = tmp_path / "out"
        assert main(["concentrate", "--state", state, "--bipartite", "--out", str(out)]) == 0
        report = json.load(open(out / "concentrate_report.json"))
        assert report["nogo_verdict"] == "no_go"
        assert report["modes_present"] == [0, 2]

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
        out = tmp_path / "out"
        assert main(["concat", "--nx", "nan", "--nz", "0.5", "--out", str(out)]) == 1
        assert not [f for f in os.listdir(out) if f.endswith(".csv")]

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

    def test_unsupported_dimension(self, tmp_path):
        assert main(["bound-compare", "--dim", "5", "--out", str(tmp_path)]) == 2

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "out"
        main(["bound-compare", "--dim", "3", "--ranks", "2", "--samples", "3", "--seed", "1", "--out", str(out)])
        header, rows = _read_csv(out / "bound_compare.csv")
        assert header == ["seed", "rank", "j", "bound1", "bound2", "achieved", "tighter"]
        assert len(rows) == 3 * 2  # two mode indices per sampled state
        assert {row[6] for row in rows} <= {"bound1", "bound2", "tie"}


class TestNogo:
    def test_isotropic_no_go_with_zero_gain(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["nogo", "--p", "0.5", "--samples", "50", "--seed", "3", "--out", str(out)])
        assert rc == 0
        report = json.load(open(out / "nogo_report.json"))
        assert report["verdict"] == "no_go"
        assert report["max_local_m1_gain"] <= 1e-9
        assert report["marginal_product_distance"] > 1e-8

    def test_requires_exactly_one_source(self, tmp_path):
        assert main(["nogo", "--out", str(tmp_path)]) == 2

    def test_qutrit_gain_matches_loop_reference(self, tmp_path):
        rho = random_density_matrix(9, 3, np.random.default_rng(5))
        state = _write_state(tmp_path / "joint.json", density_to_json(rho))
        out = tmp_path / "out"
        args = ["nogo", "--state", state, "--samples", "20", "--seed", "7", "--out", str(out)]
        assert main(args) == 0
        report = json.load(open(out / "nogo_report.json"))

        def m1(joint):
            reduced = oracles.partial_trace_b_loops(joint, 3, 3)
            stripe = np.zeros((3, 3), dtype=complex)
            for n in range(2):
                stripe[n + 1, n] = reduced[n + 1, n]
            return np.linalg.svd(stripe, compute_uv=False).sum()

        gen = BipartiteGenerator(NumberOperator(3))
        rng = np.random.default_rng(7)
        before = m1(rho.matrix)
        gain = -math.inf
        for _ in range(20):
            u = random_allowed_unitary(gen, rng).matrix
            gain = max(gain, m1(u @ rho.matrix @ u.conj().T) - before)
        assert gain > 0.01
        assert abs(report["initial_local_m1"] - before) <= 1e-12
        assert abs(report["max_local_m1_gain"] - gain) <= 1e-12


@pytest.mark.parametrize(
    "command, flag, obj, key",
    [
        (["nogo", "--p", "0.5"], "--config", {"samples": {}}, "samples"),
        (["concentrate"], "--state", {"dim": [2], "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}, "dim"),
        (["concentrate"], "--state", {"nx": [0.1], "nz": 0.5}, "nx"),
    ],
)
def test_wrongly_typed_input_names_the_key(tmp_path, capsys, command, flag, obj, key):
    path = _write_state(tmp_path / "input.json", obj)
    assert main(command + [flag, path, "--out", str(tmp_path / "out")]) == 1
    assert f"'{key}'" in capsys.readouterr().err


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

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("COHERENCE_LAB_SEED", "77")
        assert main(["bound-compare", "--dim", "3", "--ranks", "1", "--samples", "3", "--out", str(out1)]) == 0
        monkeypatch.delenv("COHERENCE_LAB_SEED")
        assert main(
            ["bound-compare", "--dim", "3", "--ranks", "1", "--samples", "3", "--seed", "77", "--out", str(out2)]
        ) == 0
        assert open(out1 / "bound_compare.csv", "rb").read() == open(out2 / "bound_compare.csv", "rb").read()
