"""Command-line frontend: experiments, data export, reproducible CSV/JSON artifacts.

Each subcommand's parameters are declared once, in ``COMMANDS``, which builds
the parser, resolves every value and names the manifest entries. Every run
writes a manifest next to its outputs echoing the resolved parameters, the
package version, and the seed, so a run can be reproduced by pointing
--config at the manifest. Numeric CSV fields use 17 significant digits, which
round-trips doubles losslessly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, linalg
from .bounds import _nogo_verdict, bound_report, marginal_product_distance
from .errors import StateValidationError, UnsupportedParameterError
from .modes import _local_gap_measure, _stripe_blocks, _stripe_layout, _stripe_measure, bipartite_mode_set
from .optimizer import UnitarySearchConfig, maximize_delta_m, random_allowed_unitary
from .qubit_protocol import (
    amplification_state,
    optimal_concentration,
    purity_ceiling,
    run_concatenation,
    vector_field,
)
from .sampling import random_density_matrix
from .states import (
    BipartiteGenerator,
    BlochState,
    DensityMatrix,
    NumberOperator,
    _converted,
    bloch_from_json,
    bloch_to_density,
    density_from_json,
    isotropic_state,
)

SEED_ENV_VAR = "COHERENCE_LAB_SEED"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNSUPPORTED = 2


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.16e}"
    if value is None:
        return ""
    return str(value)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and "params" in obj and isinstance(obj["params"], dict):
        return obj["params"]
    if not isinstance(obj, dict):
        raise StateValidationError("config file must hold a JSON object")
    return obj


def _write_manifest(out_dir: str, command: str, params: dict, outputs) -> None:
    _write_json(
        os.path.join(out_dir, f"{command.replace('-', '_')}_manifest.json"),
        {
            "command": command,
            "artifact_version": __version__,
            "seed": params.get("seed"),
            "params": params,
            "outputs": sorted(outputs),
        },
    )


def _load_state(path: str) -> DensityMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise StateValidationError("state file must hold a JSON object")
    if "re" in obj or "im" in obj or "dim" in obj:
        return density_from_json(obj)
    if "nx" in obj or "nz" in obj:
        return bloch_to_density(bloch_from_json(obj))
    raise StateValidationError("state file has neither matrix keys (dim/re/im) nor Bloch keys (nx/ny/nz)")


def _int(value) -> int:
    """An integer or integer text; ``2.5``, ``"2.5"`` and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """A number or number text, ``"nan"`` included; booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _seed(value) -> int:
    """A non-negative integer: numpy's generators take no negative seed."""
    seed = _int(value)
    if seed < 0:
        raise ValueError(f"expected a non-negative integer, got {seed}")
    return seed


def _bool(value) -> bool:
    """Only JSON ``true``/``false`` (a ``store_true`` flag gives ``True``)."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _list(convert):
    """Comma text (from a flag) or a JSON list (from a config), each item through ``convert``; not empty."""

    def parse(value) -> list:
        items = value.split(",") if isinstance(value, str) else value
        if not isinstance(items, list):
            raise TypeError(f"expected comma text or a list, got {value!r}")
        if not (parsed := [convert(item) for item in items if item != ""]):
            raise ValueError(f"expected at least one item, got {value!r}")
        return parsed

    return parse


def _grid(text: str) -> tuple:
    """``"20"`` or ``"20x30"`` as (radial, angular) sizes; a third size fails the unpacking."""
    sizes = [_int(tok) for tok in text.split("x")]
    radial, angular = sizes * 2 if len(sizes) == 1 else sizes
    return radial, angular


def _local_dim(rho: DensityMatrix) -> int:
    """Local dimension d of a joint state of two d-dimensional systems."""
    local_dim = math.isqrt(rho.dim)
    if local_dim * local_dim != rho.dim:
        raise UnsupportedParameterError(
            f"state dimension {rho.dim} is not the square of a local dimension"
        )
    return local_dim


def _mode_structure(rho: DensityMatrix, gen: BipartiteGenerator) -> tuple:
    """No-go verdict, sorted modes present and marginal product distance, from one mode set."""
    present = bipartite_mode_set(rho, gen)
    return _nogo_verdict(present, gen.dim), sorted(present), marginal_product_distance(rho, gen)


def cmd_concentrate(p: dict, seed: int, out_dir: str) -> list:
    if p["state"] is None:
        raise UnsupportedParameterError("concentrate requires --state")
    rho = _load_state(p["state"])
    j = p["j"]
    report: dict = {"input_dim": rho.dim, "j": j}

    if p["bipartite"]:
        gen = BipartiteGenerator(NumberOperator(_local_dim(rho)))
        verdict, modes, distance = _mode_structure(rho, gen)
        report.update(nogo_verdict=verdict, modes_present=modes, marginal_product_distance=distance)
        print(f"verdict: {verdict}")
    else:
        cfg = UnitarySearchConfig(restarts=p["restarts"], max_iters=p["iters"], seed=seed)
        outcome = maximize_delta_m(rho, NumberOperator(rho.dim), j, cfg)
        rep = bound_report(rho, NumberOperator(rho.dim), j, achieved=outcome.best_delta_m)
        report["optimizer"] = {
            "best_delta_m": outcome.best_delta_m,
            "converged": outcome.converged,
        }
        report["bound_report"] = rep.to_json()
        print(f"optimizer delta_m: {outcome.best_delta_m:.6e}")
        print(f"bound1: {rep.bound1:.6e}  bound2: {rep.bound2:.6e}  tighter: {rep.tighter}")
        if rho.dim == 2:
            result = optimal_concentration(rho)
            out_state = result.output_state
            simulated = math.hypot(out_state.nx, out_state.ny) / 2.0 - abs(complex(rho.matrix[0, 1]))
            report["closed_form"] = {
                "delta_m": result.delta_m,
                "theta_opt": result.theta_opt,
                "simulated_delta_m": simulated,
            }
            print(f"closed-form delta_m: {result.delta_m:.6e}  theta_opt: {result.theta_opt:.6f}")
            print(f"simulated delta_m: {simulated:.6e}")

    _write_json(os.path.join(out_dir, "concentrate_report.json"), report)
    return ["concentrate_report.json"]


def cmd_concat(p: dict, seed: int, out_dir: str) -> list:
    steps = p["steps"]
    outputs = []
    summary = []
    for nx in p["nx"]:
        for nz in p["nz"]:
            start = BlochState(nx, 0.0, nz)
            trace = run_concatenation(start, max_steps=steps, convergence_eps=p["eps"])
            ceiling = purity_ceiling(bloch_to_density(trace.steps[0]))
            name = f"concat_nx{nx:g}_nz{nz:g}.csv"
            # step m consumes 2^m copies; the exponent is written, since past
            # step 14,284 the integer 2^m exceeds Python's int-to-str digit limit
            rows = [
                (m, state.nx, state.nz, m, abs(state.nx), ceiling)
                for m, state in enumerate(trace.steps)
            ]
            _write_csv(
                os.path.join(out_dir, name),
                ("step", "n_x", "n_z", "log2_copies", "m1", "purity_ceiling"),
                rows,
            )
            outputs.append(name)
            converged = trace.converged_at is not None
            if not converged:
                print(f"warning: start (nx={nx:g}, nz={nz:g}) not converged within {steps} steps")
            summary.append(
                {
                    "nx": nx,
                    "nz": nz,
                    "status": "converged" if converged else "not converged",
                    "steps": trace.converged_at,
                    "log2_copies": trace.converged_at,
                    "final_nx": trace.steps[-1].nx,
                    "final_nz": trace.steps[-1].nz,
                    "purity_ceiling": ceiling,
                }
            )
    _write_json(os.path.join(out_dir, "concat_summary.json"), summary)
    return outputs + ["concat_summary.json"]


def cmd_field(p: dict, seed: int, out_dir: str) -> list:
    radial, angular = _converted(p["grid"], _grid, "parameter 'grid'")
    rows = [
        (state.nx, state.nz, delta[0], delta[1])
        for state, delta in vector_field(radial, angular)
    ]
    _write_csv(os.path.join(out_dir, "vector_field.csv"), ("n_x", "n_z", "dn_x", "dn_z"), rows)
    return ["vector_field.csv"]


def cmd_bound_compare(p: dict, seed: int, out_dir: str) -> list:
    dim = p["dim"]
    if dim not in (3, 4):
        raise UnsupportedParameterError(f"bound-compare supports dimension 3 or 4, got {dim}")
    if p["samples"] < 1:
        raise UnsupportedParameterError(f"bound-compare requires --samples >= 1, got {p['samples']}")
    ranks = range(1, dim + 1) if p["ranks"] is None else p["ranks"]
    for rank in ranks:
        if not 1 <= rank <= dim:
            raise UnsupportedParameterError(f"rank {rank} outside [1, {dim}]")
    op = NumberOperator(dim)
    rows = []
    wins: dict = {}
    counter = 0
    for rank in ranks:
        for _ in range(p["samples"]):
            sample_seed = seed + counter
            counter += 1
            rho = random_density_matrix(dim, rank, np.random.default_rng(sample_seed))
            for j in range(1, dim):
                achieved = None
                if p["with_achieved"]:
                    cfg = UnitarySearchConfig(restarts=p["restarts"], max_iters=p["iters"], seed=sample_seed)
                    achieved = maximize_delta_m(rho, op, j, cfg).best_delta_m
                rep = bound_report(rho, op, j, achieved=achieved)
                rows.append(
                    (sample_seed, rank, j, rep.bound1, rep.bound2, achieved, rep.tighter)
                )
                key = (rank, j)
                tally = wins.setdefault(key, {"bound1": 0, "bound2": 0, "tie": 0})
                tally[rep.tighter] += 1
    _write_csv(
        os.path.join(out_dir, "bound_compare.csv"),
        ("seed", "rank", "j", "bound1", "bound2", "achieved", "tighter"),
        rows,
    )
    summary = [
        {"rank": rank, "j": j, **tally} for (rank, j), tally in sorted(wins.items())
    ]
    _write_json(os.path.join(out_dir, "bound_compare_summary.json"), summary)
    for entry in summary:
        print(
            f"rank {entry['rank']} j {entry['j']}: "
            f"bound1 wins {entry['bound1']}, bound2 wins {entry['bound2']}, ties {entry['tie']}"
        )
    return ["bound_compare.csv", "bound_compare_summary.json"]


def cmd_nogo(p: dict, seed: int, out_dir: str) -> list:
    state_path, samples = p["state"], p["samples"]
    if (state_path is None) == (p["p"] is None):
        raise UnsupportedParameterError("nogo requires exactly one of --state or --p")
    if samples < 1:
        raise UnsupportedParameterError(f"nogo requires --samples >= 1, got {samples}")
    if state_path is not None:
        rho = _load_state(state_path)
        source = state_path
    else:
        rho = isotropic_state(p["p"])
        source = f"isotropic(p={p['p']})"
    local_dim = _local_dim(rho)
    gen = BipartiteGenerator(NumberOperator(local_dim))
    verdict, modes_present, distance = _mode_structure(rho, gen)
    before = _local_gap_measure(linalg.partial_trace_b(rho.matrix, local_dim, local_dim), 1)
    pairs = _stripe_layout(local_dim, 1)
    blocks = _stripe_blocks(pairs, rho.matrix)
    parts = np.zeros((len(pairs), local_dim - 1), dtype=complex)
    rng = np.random.default_rng(seed)
    max_gain = -math.inf
    for _ in range(samples):
        u = random_allowed_unitary(gen, rng)
        max_gain = max(max_gain, float(_stripe_measure(pairs, u.blocks, blocks, parts)) - before)
    report = {
        "source": source,
        "verdict": verdict,
        "modes_present": modes_present,
        "initial_local_m1": before,
        "max_local_m1_gain": max_gain,
        "unitary_samples": samples,
        "marginal_product_distance": distance,
        "note": "dynamical check samples covariant unitaries only; the verdict itself covers all covariant operations",
    }
    _write_json(os.path.join(out_dir, "nogo_report.json"), report)
    print(f"verdict: {verdict}  max local m1 gain over {samples} unitaries: {max_gain:.3e}")
    return ["nogo_report.json"]


def cmd_amplify(p: dict, seed: int, out_dir: str) -> list:
    layers, eps = p["steps"], p["eps"]
    start = amplification_state(layers, eps)
    trace = run_concatenation(start, max_steps=layers, convergence_eps=0.0)
    initial = abs(start.nx)
    final = abs(trace.steps[-1].nx)
    ratio = final / initial
    threshold = 2.0 ** (-eps) * math.sqrt(2.0**layers)
    name = f"amplify_N{layers}.csv"
    rows = [(m, state.nx, state.nz, m, abs(state.nx)) for m, state in enumerate(trace.steps)]
    _write_csv(os.path.join(out_dir, name), ("step", "n_x", "n_z", "log2_copies", "m1"), rows)
    summary = {
        "layers": layers,
        "eps": eps,
        "start_nx": start.nx,
        "start_nz": start.nz,
        "initial_m1": initial,
        "final_m1": final,
        "ratio": ratio,
        "threshold": threshold,
        "exceeds_threshold": ratio > threshold,
        "initial_m1_below_2^-N": initial < 2.0 ** (-layers),
    }
    _write_json(os.path.join(out_dir, "amplify_summary.json"), summary)
    print(f"ratio after {layers} layers: {ratio:.4f}  threshold: {threshold:.4f}")
    return [name, "amplify_summary.json"]


#: Parameters every subcommand takes, as (name, converter, default, help).
#: ``--config`` is read before the others are resolved, so it is a flag only.
_COMMON = (
    ("seed", _seed, 0, f"non-negative RNG seed, else ${SEED_ENV_VAR}"),
    ("out", os.fspath, ".", "output directory"),
)

#: Subcommand -> (function, help, parameters as (name, converter, default, help)).
COMMANDS = {
    "concentrate": (cmd_concentrate, "closed form, search oracle, and bounds for one state", (
        ("state", os.fspath, None, "JSON state file (matrix or Bloch form)"),
        ("j", _int, 1, "mode index"),
        ("bipartite", _bool, False,
         "treat the state as a joint two-system state and run the no-go analysis"),
        ("restarts", _int, 8, "search restarts"),
        ("iters", _int, 2000, "evaluations per restart"),
    )),
    "concat": (cmd_concat, "run the concatenation recurrence from Bloch starting points", (
        ("nx", _list(_float), "0.1", "comma-separated transverse components"),
        ("nz", _list(_float), "0.7", "comma-separated z components"),
        ("steps", _int, 1_000_000, "step cap"),
        ("eps", _float, 1e-3, "|nz| convergence threshold"),
    )),
    "field": (cmd_field, "export the recurrence displacement field on the quarter disc", (
        ("grid", str, "20x20", "resolution, e.g. 20 or 20x30 (radial x angular)"),
    )),
    "bound-compare": (cmd_bound_compare, "sample states and compare the two upper bounds", (
        ("dim", _int, 3, "local dimension, 3 or 4"),
        ("ranks", _list(_int), None, "comma-separated ranks (default all)"),
        ("samples", _int, 100, "samples per rank, at least 1"),
        ("with_achieved", _bool, False, "also run the search oracle per sample (slow)"),
        ("restarts", _int, 3, "oracle restarts when enabled"),
        ("iters", _int, 500, "oracle evaluations per restart"),
    )),
    "nogo": (cmd_nogo, "mode-structure verdict plus a randomized dynamical check", (
        ("state", os.fspath, None, "JSON joint-state file"),
        ("p", _float, None, "build the two-qubit isotropic state instead"),
        ("samples", _int, 500, "random unitaries to try, at least 1"),
    )),
    "amplify": (cmd_amplify, "construct and run an unbounded-ratio amplification state", (
        ("steps", _int, 10, "number of doubling layers N"),
        ("eps", _float, 0.1, "ratio slack exponent"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coherence-lab",
        description="Concentration of number-operator coherence: protocols, bounds, and experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help, params) in COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for name, convert, default, help_text in (*params, *_COMMON):
            flag = {"action": "store_true"} if convert is _bool else {}
            if default is not None and convert is not _bool:
                help_text = f"{help_text} (default {default})"
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None, help=help_text, **flag)
        p.add_argument("--config", default=None, help="JSON file with parameter defaults; flags win")
    return parser


def main(argv=None) -> int:
    """Run one subcommand: resolve its parameters, run it, and write its manifest.

    Each parameter is its flag, else its ``--config`` entry, else its default
    (for ``seed``, ``$COHERENCE_LAB_SEED`` first), through its converter; a
    value the converter rejects exits 1 naming the parameter. ``cmd_*`` gets
    the resolved dict, writes its outputs into the output directory and
    returns their names; the manifest echoes the same dict.
    """
    args = build_parser().parse_args(argv)
    func, _, params = COMMANDS[args.command]
    try:
        config = _load_config(args.config)
        p = {}
        for name, convert, default, _ in (*params, *_COMMON):
            if name == "seed":
                default = os.environ.get(SEED_ENV_VAR, default)
            value = next((v for v in (getattr(args, name), config.get(name), default) if v is not None), None)
            p[name] = None if value is None else _converted(value, convert, f"parameter '{name}'")
        os.makedirs(p["out"], exist_ok=True)
        outputs = func(p, p["seed"], p["out"])
        _write_manifest(p["out"], args.command, p, outputs)
        return EXIT_OK
    except UnsupportedParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (StateValidationError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
