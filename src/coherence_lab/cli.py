"""Command-line frontend: experiments, data export, reproducible CSV/JSON artifacts.

Every run writes a manifest next to its outputs echoing the resolved
parameters, the package version, and the seed, so a run can be reproduced by
pointing --config at the manifest. Numeric CSV fields use 17 significant
digits, which round-trips doubles losslessly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, linalg
from .bounds import bound_report, marginal_product_distance, nogo_check
from .errors import StateValidationError, UnsupportedParameterError
from .modes import _local_gap_measure, _reduced_first, bipartite_mode_set
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


def _resolve(args, config: dict, key: str, convert, default=None):
    """Flag, else config entry, else default, through ``convert``; a rejected value names the key."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key)
    if value is None:
        value = default
    return None if value is None else _converted(value, convert, f"parameter '{key}'")


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


def _float_list(text: str):
    return [float(tok) for tok in str(text).split(",") if tok != ""]


def _int_list(text: str):
    return [int(tok) for tok in str(text).split(",") if tok != ""]


def _local_dim(rho: DensityMatrix) -> int:
    """Local dimension d of a joint state of two d-dimensional systems."""
    local_dim = math.isqrt(rho.dim)
    if local_dim * local_dim != rho.dim:
        raise UnsupportedParameterError(
            f"state dimension {rho.dim} is not the square of a local dimension"
        )
    return local_dim


def cmd_concentrate(args, config: dict, seed: int, out_dir: str) -> tuple:
    state_path = _resolve(args, config, "state", os.fspath)
    if state_path is None:
        raise UnsupportedParameterError("concentrate requires --state")
    rho = _load_state(state_path)
    j = _resolve(args, config, "j", int, 1)
    bipartite = _resolve(args, config, "bipartite", bool, False)
    restarts = _resolve(args, config, "restarts", int, 8)
    iters = _resolve(args, config, "iters", int, 2000)
    params = {
        "state": state_path,
        "j": j,
        "bipartite": bipartite,
        "restarts": restarts,
        "iters": iters,
    }
    report: dict = {"input_dim": rho.dim, "j": j}

    if bipartite:
        gen = BipartiteGenerator(NumberOperator(_local_dim(rho)))
        verdict = nogo_check(rho, gen)
        report["nogo_verdict"] = verdict
        report["modes_present"] = sorted(bipartite_mode_set(rho, gen))
        report["marginal_product_distance"] = marginal_product_distance(rho, gen)
        print(f"verdict: {verdict}")
    else:
        cfg = UnitarySearchConfig(restarts=restarts, max_iters=iters, seed=seed)
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
    return params, ["concentrate_report.json"]


def cmd_concat(args, config: dict, seed: int, out_dir: str) -> tuple:
    nx_values = _resolve(args, config, "nx", _float_list, "0.1")
    nz_values = _resolve(args, config, "nz", _float_list, "0.7")
    steps = _resolve(args, config, "steps", int, 1_000_000)
    eps = _resolve(args, config, "eps", float, 1e-3)
    params = {
        "nx": ",".join(str(v) for v in nx_values),
        "nz": ",".join(str(v) for v in nz_values),
        "steps": steps,
        "eps": eps,
    }
    outputs = []
    summary = []
    for nx in nx_values:
        for nz in nz_values:
            start = BlochState(nx, 0.0, nz)
            trace = run_concatenation(start, max_steps=steps, convergence_eps=eps)
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
    return params, outputs + ["concat_summary.json"]


def cmd_field(args, config: dict, seed: int, out_dir: str) -> tuple:
    grid = _resolve(args, config, "grid", str, "20x20")
    if "x" in grid:
        radial, angular = (int(tok) for tok in grid.split("x"))
    else:
        radial = angular = int(grid)
    rows = [
        (state.nx, state.nz, delta[0], delta[1])
        for state, delta in vector_field(radial, angular)
    ]
    _write_csv(os.path.join(out_dir, "vector_field.csv"), ("n_x", "n_z", "dn_x", "dn_z"), rows)
    return {"grid": grid}, ["vector_field.csv"]


def cmd_bound_compare(args, config: dict, seed: int, out_dir: str) -> tuple:
    dim = _resolve(args, config, "dim", int, 3)
    if dim not in (3, 4):
        raise UnsupportedParameterError(f"bound-compare supports dimension 3 or 4, got {dim}")
    ranks = _resolve(args, config, "ranks", _int_list, ",".join(str(r) for r in range(1, dim + 1)))
    for rank in ranks:
        if not 1 <= rank <= dim:
            raise UnsupportedParameterError(f"rank {rank} outside [1, {dim}]")
    samples = _resolve(args, config, "samples", int, 100)
    with_achieved = _resolve(args, config, "with_achieved", bool, False)
    restarts = _resolve(args, config, "restarts", int, 3)
    iters = _resolve(args, config, "iters", int, 500)
    params = {
        "dim": dim,
        "ranks": ",".join(str(r) for r in ranks),
        "samples": samples,
        "with_achieved": with_achieved,
        "restarts": restarts,
        "iters": iters,
    }
    op = NumberOperator(dim)
    rows = []
    wins: dict = {}
    counter = 0
    for rank in ranks:
        for _ in range(samples):
            sample_seed = seed + counter
            counter += 1
            rho = random_density_matrix(dim, rank, np.random.default_rng(sample_seed))
            for j in range(1, dim):
                achieved = None
                if with_achieved:
                    cfg = UnitarySearchConfig(
                        restarts=restarts, max_iters=iters, seed=sample_seed
                    )
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
    return params, ["bound_compare.csv", "bound_compare_summary.json"]


def cmd_nogo(args, config: dict, seed: int, out_dir: str) -> tuple:
    state_path = _resolve(args, config, "state", os.fspath)
    p = _resolve(args, config, "p", float)
    samples = _resolve(args, config, "samples", int, 500)
    if (state_path is None) == (p is None):
        raise UnsupportedParameterError("nogo requires exactly one of --state or --p")
    if state_path is not None:
        rho = _load_state(state_path)
        source = state_path
    else:
        rho = isotropic_state(p)
        source = f"isotropic(p={p})"
    local_dim = _local_dim(rho)
    gen = BipartiteGenerator(NumberOperator(local_dim))
    verdict = nogo_check(rho, gen)
    before = _local_gap_measure(linalg.partial_trace_b(rho.matrix, local_dim, local_dim), 1)
    rng = np.random.default_rng(seed)
    max_gain = -math.inf
    for _ in range(samples):
        u = random_allowed_unitary(gen, rng)
        after = _local_gap_measure(_reduced_first(u.matrix, rho.matrix, local_dim), 1)
        max_gain = max(max_gain, after - before)
    report = {
        "source": source,
        "verdict": verdict,
        "modes_present": sorted(bipartite_mode_set(rho, gen)),
        "initial_local_m1": before,
        "max_local_m1_gain": max_gain,
        "unitary_samples": samples,
        "marginal_product_distance": marginal_product_distance(rho, gen),
        "note": "dynamical check samples covariant unitaries only; the verdict itself covers all covariant operations",
    }
    _write_json(os.path.join(out_dir, "nogo_report.json"), report)
    print(f"verdict: {verdict}  max local m1 gain over {samples} unitaries: {max_gain:.3e}")
    return {"state": state_path, "p": p, "samples": samples}, ["nogo_report.json"]


def cmd_amplify(args, config: dict, seed: int, out_dir: str) -> tuple:
    layers = _resolve(args, config, "steps", int, 10)
    eps = _resolve(args, config, "eps", float, 0.1)
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
    return {"steps": layers, "eps": eps}, [name, "amplify_summary.json"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coherence-lab",
        description="Concentration of number-operator coherence: protocols, bounds, and experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help=f"RNG seed (fallback: ${SEED_ENV_VAR}, then 0)")
        p.add_argument("--out", default=None, help="output directory (default: current)")
        p.add_argument("--config", default=None, help="JSON file with parameter defaults; flags win")

    p = sub.add_parser("concentrate", help="closed form, search oracle, and bounds for one state")
    p.add_argument("--state", default=None, help="JSON state file (matrix or Bloch form)")
    p.add_argument("--j", type=int, default=None, help="mode index (default 1)")
    p.add_argument("--bipartite", action="store_true", default=None,
                   help="treat the state as a joint two-system state and run the no-go analysis")
    p.add_argument("--restarts", type=int, default=None, help="search restarts (default 8)")
    p.add_argument("--iters", type=int, default=None, help="evaluations per restart (default 2000)")
    common(p)
    p.set_defaults(func=cmd_concentrate)

    p = sub.add_parser("concat", help="run the concatenation recurrence from Bloch starting points")
    p.add_argument("--nx", default=None, help="comma-separated transverse components (default 0.1)")
    p.add_argument("--nz", default=None, help="comma-separated z components (default 0.7)")
    p.add_argument("--steps", type=int, default=None, help="step cap (default 1000000)")
    p.add_argument("--eps", type=float, default=None, help="|nz| convergence threshold (default 0.001)")
    common(p)
    p.set_defaults(func=cmd_concat)

    p = sub.add_parser("field", help="export the recurrence displacement field on the quarter disc")
    p.add_argument("--grid", default=None, help="resolution, e.g. 20 or 20x30 (radial x angular)")
    common(p)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("bound-compare", help="sample states and compare the two upper bounds")
    p.add_argument("--dim", type=int, default=None, help="local dimension, 3 or 4 (default 3)")
    p.add_argument("--ranks", default=None, help="comma-separated ranks (default all)")
    p.add_argument("--samples", type=int, default=None, help="samples per rank (default 100)")
    p.add_argument("--with-achieved", dest="with_achieved", action="store_true", default=None,
                   help="also run the search oracle per sample (slow)")
    p.add_argument("--restarts", type=int, default=None, help="oracle restarts when enabled (default 3)")
    p.add_argument("--iters", type=int, default=None, help="oracle evaluations per restart (default 500)")
    common(p)
    p.set_defaults(func=cmd_bound_compare)

    p = sub.add_parser("nogo", help="mode-structure verdict plus a randomized dynamical check")
    p.add_argument("--state", default=None, help="JSON joint-state file")
    p.add_argument("--p", type=float, default=None, help="build the two-qubit isotropic state instead")
    p.add_argument("--samples", type=int, default=None, help="random unitaries to try (default 500)")
    common(p)
    p.set_defaults(func=cmd_nogo)

    p = sub.add_parser("amplify", help="construct and run an unbounded-ratio amplification state")
    p.add_argument("--steps", type=int, default=None, help="number of doubling layers N (default 10)")
    p.add_argument("--eps", type=float, default=None, help="ratio slack exponent (default 0.1)")
    common(p)
    p.set_defaults(func=cmd_amplify)

    return parser


def main(argv=None) -> int:
    """Run one subcommand: resolve the shared settings, run it, and write its manifest.

    Each ``cmd_*`` resolves its own parameters, writes its outputs into the
    output directory, and returns those parameters with its output file names.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        seed = _resolve(args, config, "seed", int, os.environ.get(SEED_ENV_VAR, 0))
        out_dir = _resolve(args, config, "out", os.fspath, ".")
        os.makedirs(out_dir, exist_ok=True)
        params, outputs = args.func(args, config, seed, out_dir)
        _write_manifest(out_dir, args.command, {**params, "seed": seed, "out": out_dir}, outputs)
        return EXIT_OK
    except UnsupportedParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (StateValidationError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
