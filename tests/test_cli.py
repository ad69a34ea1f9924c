import contextlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from coherence_lab import bounds, cli
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
        (["concentrate"], "--config", {"bipartite": "false"}, "bipartite"),
        (["nogo", "--p", "0.5"], "--config", {"samples": 2.5}, "samples"),
        (["amplify", "--steps", "abc"], "--config", {}, "steps"),
        (["concat"], "--config", {"eps": True}, "eps"),
        (["concat"], "--config", {"nx": [True]}, "nx"),
        (["nogo"], "--config", {"p": True}, "p"),
        (["amplify"], "--config", {"eps": True}, "eps"),
    ],
)
def test_wrongly_typed_input_names_the_key(tmp_path, capsys, command, flag, obj, key):
    path = _write_state(tmp_path / "input.json", obj)
    assert main(command + [flag, path, "--out", str(tmp_path / "out")]) == 1
    assert f"'{key}'" in capsys.readouterr().err


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
        ["nogo", "--p", "0.5", "--samples", "0"],
        ["bound-compare", "--samples=-3"],
    ],
)
def test_unsupported_value_exits_2_before_writing(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "argv", [["nogo", "--p", "0.5", "--samples", "3"], ["concentrate", "--bipartite", "--state"]]
)
def test_one_mode_set_per_command(tmp_path, monkeypatch, argv):
    if argv[-1] == "--state":
        argv = argv + [_write_state(tmp_path / "iso.json", density_to_json(isotropic_state(0.5)))]
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
            ["nogo", "--p", "0.5", "--samples", "20", "--seed", "4"],
            ["nogo", "--state", "JOINT", "--samples", "10", "--seed", "6"],
            ["amplify", "--steps", "12", "--eps", "0.15"],
            ["field", "--grid", "4x7"],
            ["concentrate", "--state", "JOINT", "--bipartite"],
            ["concentrate", "--state", "QUBIT", "--j", "1", "--restarts", "2", "--iters", "60", "--seed", "3"],
        ],
    )
    def test_every_command_reruns_from_its_manifest(self, tmp_path, argv):
        states = {
            "JOINT": _write_state(
                tmp_path / "joint.json",
                density_to_json(random_density_matrix(9, 2, np.random.default_rng(1))),
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
# ten evaluations), so an example runs in milliseconds. PRESENT stands for a
# bare boolean flag, None for a parameter left to its default, and a name in
# STATE_FILES for a file the sweep writes.
PRESENT = object()
STATE_FILES = ("qubit.json", "bloch.json", "iso.json", "joint.json", "bad.json")
SEED_TEXTS = ([None, "0", "7"], ["-1", "2.5", "x", ""])
SWEEP = {
    "concentrate": {
        "state": (["qubit.json", "bloch.json", "iso.json"], ["bad.json", "missing.json", ""]),
        "j": ([None, "1", "2"], ["0", "-1", "4", "nan", ""]),
        "bipartite": ([None, PRESENT], []),
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
        "state": ([None, "iso.json", "joint.json"], ["qubit.json", "bad.json", "missing.json", ""]),
        "p": ([None, "0.5", "0", "1"], ["1.5", "-0.1", "nan", "inf", ""]),
        "samples": (["1", "5"], ["0", "-2", "x", "nan"]),
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
            density_to_json(isotropic_state(0.5)),
            density_to_json(joint),
            {"dim": 2, "re": [[1.5, 0.0], [0.0, -0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]},
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
