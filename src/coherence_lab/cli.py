"""Command-line frontend: experiments, data export, reproducible CSV/JSON artifacts.

Each subcommand's parameters are declared once, in ``COMMANDS``, which builds
the parser, resolves every value and names the manifest entries. A command
yields its outputs and ``main`` writes them, then a manifest listing exactly
those files and echoing the resolved parameters, the package version, and the
seed, so a run can be reproduced by pointing --config at the manifest.
Numeric CSV fields use 17 significant digits, which round-trips doubles
losslessly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections.abc import Iterator

import numpy as np

from . import __version__, linalg
from .bounds import _nogo_verdict, bound_report, marginal_product_distance
from .errors import StateValidationError, UnsupportedParameterError
from .modes import _local_gap_measure, bipartite_mode_set
from .optimizer import MAX_LOCAL_DIM, UnitarySearchConfig, _search, maximize_delta_m
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
    _float,
    _int,
    bloch_from_json,
    bloch_to_density,
    density_from_json,
    isotropic_state,
)

SEED_ENV_VAR = "COHERENCE_LAB_SEED"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNSUPPORTED = 2

#: trajectory steps converted to text per chunk, so a long trajectory's rows are never all in memory
_TRAJECTORY_CHUNK = 4096


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.16e}"
    if value is None:
        return ""
    return str(value)


def _json_object(path: str, name: str) -> dict:
    """The JSON object in the file that parameter ``name`` points to."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise StateValidationError(f"parameter '{name}': {path} must hold a JSON object")
    return obj


def _load_state(path: str) -> DensityMatrix:
    obj = _json_object(path, "state")
    if "re" in obj or "im" in obj or "dim" in obj:
        return density_from_json(obj)
    if "nx" in obj or "nz" in obj:
        return bloch_to_density(bloch_from_json(obj))
    raise StateValidationError(
        f"parameter 'state': {path} has neither matrix keys (dim/re/im) nor Bloch keys (nx/ny/nz)"
    )


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


def _search_line(outcome) -> str:
    """One line of search telemetry: evaluations, how the restarts stopped, the final gradient norm."""
    stationary = outcome.stop_reasons.count("stationary")
    return (f"search: {outcome.evals} evaluations, restarts {stationary} stationary, "
            f"{len(outcome.stop_reasons) - stationary} at eval budget, final gradient norm {outcome.grad_norm:.3e}")


def _trajectory_csv(trace, **constants) -> tuple:
    """Header and rows of a recurrence trajectory; each keyword adds a constant column.

    Step m consumes 2^m copies; the exponent is written, since past step
    14,284 the integer 2^m exceeds Python's int-to-str digit limit. Rows are
    lines of text, made from the arrays one chunk of steps at a time: each
    float is formatted once as ``_fmt`` would (``m1`` = |n_x| is the
    canonical n_x itself), and the constants once per file.
    """
    tail = "".join(f",{_fmt(value)}" for value in constants.values())

    def rows():
        for first in range(0, len(trace.nx), _TRAJECTORY_CHUNK):
            chunk = slice(first, first + _TRAJECTORY_CHUNK)
            for m, (nx, nz) in enumerate(zip(trace.nx[chunk].tolist(), trace.nz[chunk].tolist()), start=first):
                nx_text = f"{nx:.16e}"
                yield f"{m},{nx_text},{nz:.16e},{m},{nx_text}{tail}\n"

    return ("step", "n_x", "n_z", "log2_copies", "m1", *constants), rows()


def cmd_concentrate(p: dict) -> Iterator[tuple]:
    if p["state"] is None:
        raise UnsupportedParameterError("concentrate requires --state")
    rho = _load_state(p["state"])
    j = p["j"]
    report: dict = {"input_dim": rho.dim, "j": j}
    cfg = UnitarySearchConfig(restarts=p["restarts"], max_iters=p["iters"], seed=p["seed"])
    outcome = maximize_delta_m(rho, NumberOperator(rho.dim), j, cfg)
    rep = bound_report(rho, NumberOperator(rho.dim), j, achieved=outcome.best_delta_m)
    report["optimizer"] = {
        "best_delta_m": outcome.best_delta_m,
        "converged": outcome.converged,
    }
    report["bound_report"] = rep.to_json()
    print(f"optimizer delta_m: {outcome.best_delta_m:.6e}")
    print(_search_line(outcome))
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
    yield "concentrate_report.json", report


def cmd_concat(p: dict) -> Iterator[tuple]:
    # every start is validated and named before any trajectory runs
    starts: dict = {}
    for start in [BlochState(nx, 0.0, nz) for nx in p["nx"] for nz in p["nz"]]:
        name = f"concat_nx{start.nx:g}_nz{start.nz:g}.csv"
        if (other := starts.setdefault(name, start)) is not start:
            raise StateValidationError(
                f"starts (nx={other.nx!r}, nz={other.nz!r}) and (nx={start.nx!r}, nz={start.nz!r}) "
                f"would both write {name}"
            )
    summary = []
    for name, start in starts.items():
        trace = run_concatenation(start, max_steps=p["steps"], convergence_eps=p["eps"])
        ceiling = purity_ceiling(bloch_to_density(trace.steps[0]))
        yield name, _trajectory_csv(trace, purity_ceiling=ceiling)
        converged = trace.converged_at is not None
        if not converged:
            print(f"warning: start (nx={start.nx:g}, nz={start.nz:g}) not converged: "
                  f"{trace.stop_reason} at step {len(trace.nx) - 1}")
        summary.append(
            {
                "nx": start.nx,
                "nz": start.nz,
                "status": "converged" if converged else "not converged",
                "stop_reason": trace.stop_reason,
                "steps": trace.converged_at,
                "log2_copies": trace.converged_at,
                "final_nx": trace.steps[-1].nx,
                "final_nz": trace.steps[-1].nz,
                "purity_ceiling": ceiling,
            }
        )
    yield "concat_summary.json", summary


def cmd_field(p: dict) -> Iterator[tuple]:
    radial, angular = _converted(p["grid"], _grid, "parameter 'grid'")
    rows = ((state.nx, state.nz, delta[0], delta[1]) for state, delta in vector_field(radial, angular))
    yield "vector_field.csv", (("n_x", "n_z", "dn_x", "dn_z"), rows)


def cmd_bound_compare(p: dict) -> Iterator[tuple]:
    dim = p["dim"]
    if not 3 <= dim <= MAX_LOCAL_DIM:
        raise UnsupportedParameterError(f"bound-compare supports dimension 3 to {MAX_LOCAL_DIM}, got {dim}")
    if p["samples"] < 1:
        raise UnsupportedParameterError(f"bound-compare requires --samples >= 1, got {p['samples']}")
    ranks = range(1, dim + 1) if p["ranks"] is None else p["ranks"]
    for rank in ranks:
        if not 1 <= rank <= dim:
            raise UnsupportedParameterError(f"rank {rank} outside [1, {dim}]")
    # a bad search budget exits before the CSV's first byte
    budget = UnitarySearchConfig(restarts=p["restarts"], max_iters=p["iters"])
    op = NumberOperator(dim)
    wins: dict = {}

    def rows():
        per_sample = (rank for rank in ranks for _ in range(p["samples"]))
        for sample_seed, rank in enumerate(per_sample, start=p["seed"]):
            rho = random_density_matrix(dim, rank, np.random.default_rng(sample_seed))
            for j in range(1, dim):
                achieved = None
                if p["with_achieved"]:
                    cfg = dataclasses.replace(budget, seed=sample_seed)
                    achieved = maximize_delta_m(rho, op, j, cfg).best_delta_m
                rep = bound_report(rho, op, j, achieved=achieved)
                wins.setdefault((rank, j), {"bound1": 0, "bound2": 0, "tie": 0})[rep.tighter] += 1
                yield sample_seed, rank, j, rep.bound1, rep.bound2, achieved, rep.tighter

    yield "bound_compare.csv", (("seed", "rank", "j", "bound1", "bound2", "achieved", "tighter"), rows())
    # main has written every row before this generator resumes, so the tally is complete
    summary = [{"rank": rank, "j": j, **tally} for (rank, j), tally in sorted(wins.items())]
    yield "bound_compare_summary.json", summary
    for entry in summary:
        print(
            f"rank {entry['rank']} j {entry['j']}: "
            f"bound1 wins {entry['bound1']}, bound2 wins {entry['bound2']}, ties {entry['tie']}"
        )


def cmd_nogo(p: dict) -> Iterator[tuple]:
    if (p["state"] is None) == (p["p"] is None):
        raise UnsupportedParameterError("nogo requires exactly one of --state or --p")
    cfg = UnitarySearchConfig(restarts=p["restarts"], seed=p["seed"])
    if p["state"] is None:
        rho, source = isotropic_state(p["p"]), f"isotropic(p={p['p']})"
    else:
        rho, source = _load_state(p["state"]), p["state"]
    d = math.isqrt(rho.dim)
    if d * d != rho.dim:
        raise UnsupportedParameterError(f"state dimension {rho.dim} is not the square of a local dimension")
    gen = BipartiteGenerator(NumberOperator(d))
    present = bipartite_mode_set(rho, gen)
    verdict = _nogo_verdict(present, d)
    before = _local_gap_measure(linalg.partial_trace_b(rho.matrix, d, d), 1)
    # the verdict covers every local dimension; the search runs up to its cap
    if d > MAX_LOCAL_DIM:
        outcome, searched = None, f"no gain search above local dimension {MAX_LOCAL_DIM}"
    else:
        outcome = _search(rho.matrix, d, 1, before, cfg)
        searched = "gain searched over covariant unitaries, not sampled"
    report = {
        "source": source,
        "verdict": verdict,
        "modes_present": sorted(present),
        "initial_local_m1": before,
        "max_local_m1_gain": None if outcome is None else outcome.best_delta_m,
        "restarts": cfg.restarts,
        "converged": None if outcome is None else outcome.converged,
        "marginal_product_distance": marginal_product_distance(rho, gen),
        "note": f"{searched}; the verdict covers every covariant operation",
    }
    yield "nogo_report.json", report
    if outcome is None:
        print(f"verdict: {verdict}")
        print(f"search: skipped, local dimension {d} is above the search cap of {MAX_LOCAL_DIM}")
    else:
        print(f"verdict: {verdict}  max local m1 gain: {outcome.best_delta_m:.3e}")
        print(_search_line(outcome))


def cmd_amplify(p: dict) -> Iterator[tuple]:
    layers, eps = p["steps"], p["eps"]
    start = amplification_state(layers, eps)
    trace = run_concatenation(start, max_steps=layers, convergence_eps=0.0)
    initial = abs(start.nx)
    final = abs(trace.steps[-1].nx)
    ratio = final / initial
    threshold = 2.0 ** (-eps) * math.sqrt(2.0**layers)
    yield f"amplify_N{layers}.csv", _trajectory_csv(trace)
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
    yield "amplify_summary.json", summary
    print(f"ratio after {layers} layers: {ratio:.4f}  threshold: {threshold:.4f}")


#: Parameters every subcommand takes, as (name, converter, default, help).
#: ``--config`` is read before the others are resolved, so it is a flag only.
_COMMON = (
    ("seed", _seed, 0, f"non-negative RNG seed, else ${SEED_ENV_VAR}"),
    ("out", os.fspath, ".", "output directory"),
)

#: Subcommand -> (function, help, parameters as (name, converter, default, help)).
COMMANDS = {
    "concentrate": (cmd_concentrate, "closed form, search oracle, and bounds for one system's state "
                    "(for a joint state, use nogo)", (
        ("state", os.fspath, None, "JSON state file (matrix or Bloch form)"),
        ("j", _int, 1, "mode index"),
        ("restarts", _int, UnitarySearchConfig.restarts, "search restarts"),
        ("iters", _int, UnitarySearchConfig.max_iters, "evaluations per restart"),
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
        ("dim", _int, 3, f"local dimension, 3 to {MAX_LOCAL_DIM}"),
        ("ranks", _list(_int), None, "comma-separated ranks (default all)"),
        ("samples", _int, 100, "samples per rank, at least 1"),
        ("with_achieved", _bool, False, "also run the search oracle per sample (slow)"),
        ("restarts", _int, 3, "oracle restarts when enabled"),
        ("iters", _int, 500, "oracle evaluations per restart"),
    )),
    "nogo": (cmd_nogo, "mode-structure verdict plus a search for the largest local m1 gain", (
        ("state", os.fspath, None, f"JSON joint-state file, any local dimension (search up to {MAX_LOCAL_DIM})"),
        ("p", _float, None, "build the two-qubit isotropic state instead"),
        ("restarts", _int, UnitarySearchConfig.restarts, "search restarts"),
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
    """Run one subcommand: resolve its parameters, write its outputs, and then its manifest.

    Each parameter is its flag, else its ``--config`` entry, else its default
    (for ``seed``, ``$COHERENCE_LAB_SEED`` first), through its converter; a
    value the converter rejects, or a config key that names no parameter,
    exits 1 naming it. ``cmd_*`` gets the resolved dict and yields its outputs
    as (name, content): ``(header, rows)`` for a ``.csv`` name, where ``rows``
    may be a generator and a row is a tuple of values or a finished line of
    text, else a JSON value. This is the one place that writes
    a file; the manifest echoes the parameters and lists exactly the names written.
    """
    args = build_parser().parse_args(argv)
    func, _, params = COMMANDS[args.command]
    try:
        config = _json_object(args.config, "config") if args.config else {}
        if isinstance(config.get("params"), dict):  # a manifest
            config = config["params"]
        if unknown := sorted(set(config) - {name for name, *_ in (*params, *_COMMON)}):
            raise StateValidationError(f"config keys that are not parameters of '{args.command}': {unknown}")
        p = {}
        for name, convert, default, _ in (*params, *_COMMON):
            if name == "seed":
                default = os.environ.get(SEED_ENV_VAR, default)
            value = next((v for v in (getattr(args, name), config.get(name), default) if v is not None), None)
            p[name] = None if value is None else _converted(value, convert, f"parameter '{name}'")
        os.makedirs(p["out"], exist_ok=True)

        def write(name: str, content) -> None:
            with open(os.path.join(p["out"], name), "w", encoding="utf-8", newline="\n") as fh:
                if name.endswith(".csv"):
                    header, rows = content
                    fh.write(",".join(header) + "\n")
                    fh.writelines(row if isinstance(row, str) else ",".join(map(_fmt, row)) + "\n" for row in rows)
                else:
                    json.dump(content, fh, indent=2, sort_keys=True)
                    fh.write("\n")

        written = []
        # each output, its rows included, is written before the command
        # resumes, so a command may read what its rows generator tallied
        for name, content in func(p):
            write(name, content)
            written.append(name)
        write(
            f"{args.command.replace('-', '_')}_manifest.json",
            {
                "command": args.command,
                "artifact_version": __version__,
                "seed": p["seed"],
                "params": p,
                "outputs": sorted(written),
            },
        )
        return EXIT_OK
    except UnsupportedParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (StateValidationError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
