"""Command-line frontend: experiments, data export, reproducible CSV/JSON artifacts.

Each subcommand's parameters are declared once, in ``COMMANDS``, which builds
the parser, resolves every value and names the manifest entries. A command
yields its outputs and ``main`` writes them, then a manifest listing exactly
those files and echoing the resolved parameters and the package version, so a
run can be reproduced by pointing --config at the manifest.
Numeric CSV fields use 17 significant digits, which round-trips doubles
losslessly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterator

import numpy as np

from . import __version__, linalg
from .bounds import _nogo_verdict, bound_report, marginal_product_distance
from .errors import StateValidationError, UnsupportedParameterError
from .modes import _local_gap_measure, _stripe_blocks, bipartite_mode_set
from .optimizer import MAX_LOCAL_DIM, MAX_RESTARTS, UnitarySearchConfig, _search, maximize_delta_m
from .qubit_protocol import (
    MAX_ROWS,
    MAX_STEPS,
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
    bloch_to_density,
    state_from_json,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNSUPPORTED = 2

#: trajectory steps converted to text per chunk, so a long trajectory's rows are never all in memory
_TRAJECTORY_CHUNK = 4096
#: evaluations per restart of each bound-compare search; below the library default, as one run makes hundreds
_SAMPLE_SEARCH_ITERS = 500
#: evaluations a bound-compare search may make over all rows and restarts: about 12 minutes at d = 4
MAX_SEARCH_EVALS = 200_000_000


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
    return state_from_json(_json_object(path, "state"), f"parameter 'state': {path}")


def _seed(value) -> int:
    """A non-negative integer: numpy's generators take no negative seed."""
    seed = _int(value)
    if seed < 0:
        raise ValueError(f"expected a non-negative integer, got {seed}")
    return seed


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
    """One line of search telemetry: evaluations, how the restarts stopped, the final gradient norm.

    It ends with how many restarts reached the best gain within 1e-9: fewer
    than all, with every restart stationary, shows separate local maxima.
    """
    stationary = outcome.stop_reasons.count("stationary")
    best = outcome.best_delta_m
    agree = sum(best - gain <= 1e-9 for gain in outcome.history)
    return (f"search: {outcome.evals} evaluations, restarts {stationary} stationary, "
            f"{len(outcome.stop_reasons) - stationary} at eval budget, final gradient norm {outcome.grad_norm:.3e}, "
            f"{agree} of {len(outcome.history)} restarts within 1e-9 of the best")


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
    report: dict = {"input_dim": rho.dim}
    outcome = maximize_delta_m(rho, NumberOperator(rho.dim), j, UnitarySearchConfig(restarts=p["restarts"]))
    rep = bound_report(rho, NumberOperator(rho.dim), j, achieved=outcome.best_delta_m)
    report["optimizer"] = {
        "best_delta_m": outcome.best_delta_m,
        "converged": outcome.converged,
    }
    # achieved is optimizer.best_delta_m and j is params.j, so neither is copied here
    report["bound_report"] = {
        "bound1": rep.bound1,
        "bound2": rep.bound2,
        "baseline": rep.baseline,
        "tighter": rep.tighter,
    }
    print(f"optimizer delta_m: {outcome.best_delta_m:.6e}")
    print(_search_line(outcome))
    print(f"bound1: {rep.bound1:.6e}  bound2: {rep.bound2:.6e}  tighter: {rep.tighter}")
    if rho.dim == 2:
        # optimal_concentration checks its closed form against a two-copy simulation
        result = optimal_concentration(rho)
        report["closed_form"] = {"delta_m": result.delta_m, "theta_opt": result.theta_opt}
        print(f"closed-form delta_m: {result.delta_m:.6e}  theta_opt: {result.theta_opt:.6f}")
    yield "concentrate_report.json", report


def cmd_concat(p: dict) -> Iterator[tuple]:
    # a start may run to MAX_STEPS steps, so the row cap bounds the starts before any runs
    if (count := len(p["nx"]) * len(p["nz"])) * (MAX_STEPS + 1) > MAX_ROWS:
        raise UnsupportedParameterError(f"nx and nz give {count} starts of up to {MAX_STEPS + 1:,} rows each, "
                                        f"above the cap of {MAX_ROWS:,} rows")
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
        trace = run_concatenation(start)
        ceiling = purity_ceiling(bloch_to_density(trace.steps[0]))
        yield name, _trajectory_csv(trace, purity_ceiling=ceiling)
        if trace.converged_at is None:
            print(f"warning: start (nx={start.nx:g}, nz={start.nz:g}) not converged: "
                  f"{trace.stop_reason} at step {len(trace.nx) - 1}")
        summary.append(
            {
                "nx": start.nx,
                "nz": start.nz,
                "stop_reason": trace.stop_reason,
                "steps": trace.converged_at,
                "final_nx": trace.steps[-1].nx,
                "final_nz": trace.steps[-1].nz,
                "purity_ceiling": ceiling,
            }
        )
    yield "concat_summary.json", summary


def cmd_field(p: dict) -> Iterator[tuple]:
    radial, angular = _converted(p["grid"], _grid, "parameter 'grid'")
    # each float formatted as _fmt would, one f-string per row
    rows = (f"{nx:.16e},{nz:.16e},{dnx:.16e},{dnz:.16e}\n" for nx, nz, dnx, dnz in vector_field(radial, angular))
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
    restarts = p["restarts"]
    if not 0 <= restarts <= MAX_RESTARTS:
        raise UnsupportedParameterError(f"bound-compare requires --restarts 0 to {MAX_RESTARTS}, got {restarts}")
    # one row per sample, rank and j; with a search, each row makes restarts x _SAMPLE_SEARCH_ITERS evaluations
    if (count := p["samples"] * len(ranks) * (dim - 1)) > MAX_ROWS:
        raise UnsupportedParameterError(f"samples {p['samples']} give {count:,} rows, above the cap of {MAX_ROWS:,}")
    if (evals := count * restarts * _SAMPLE_SEARCH_ITERS) > MAX_SEARCH_EVALS:
        raise UnsupportedParameterError(f"{count:,} rows x {restarts} restarts give {evals:,} search evaluations, "
                                        f"above the cap of {MAX_SEARCH_EVALS:,}")
    op = NumberOperator(dim)
    wins: dict = {}

    def rows():
        per_sample = (rank for rank in ranks for _ in range(p["samples"]))
        for sample_seed, rank in enumerate(per_sample, start=p["seed"]):
            rho = random_density_matrix(dim, rank, np.random.default_rng(sample_seed))
            for j in range(1, dim):
                achieved = None
                if restarts:
                    cfg = UnitarySearchConfig(restarts, _SAMPLE_SEARCH_ITERS, seed=sample_seed)
                    achieved = maximize_delta_m(rho, op, j, cfg).best_delta_m
                rep = bound_report(rho, op, j, achieved=achieved)
                wins.setdefault((rank, j), {"bound1": 0, "bound2": 0, "tie": 0})[rep.tighter] += 1
                yield ",".join(map(_fmt, (sample_seed, rank, j, rep.bound1, rep.bound2, achieved, rep.tighter))) + "\n"

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
    if p["state"] is None:
        raise UnsupportedParameterError("nogo requires --state")
    rho = _load_state(p["state"])
    d = math.isqrt(rho.dim)
    if d * d != rho.dim:
        raise UnsupportedParameterError(f"state dimension {rho.dim} is not the square of a local dimension")
    gen = BipartiteGenerator(NumberOperator(d))
    present = bipartite_mode_set(rho, gen)
    verdict = _nogo_verdict(present, d)
    before = _local_gap_measure(linalg.partial_trace_b(rho.matrix, d, d), 1)
    # the verdict covers every local dimension; the search runs up to its cap
    outcome = None if d > MAX_LOCAL_DIM else _search(_stripe_blocks(rho.matrix, d, 1), before, UnitarySearchConfig())
    report = {
        "verdict": verdict,
        "modes_present": sorted(present),
        "initial_local_m1": before,
        "max_local_m1_gain": None if outcome is None else outcome.best_delta_m,
        "converged": None if outcome is None else outcome.converged,
        "marginal_product_distance": marginal_product_distance(rho, gen),
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
    final = abs(trace.steps[-1].nx)
    # amplification_state returns nx > 0, so start_nx is the initial m1
    ratio = final / start.nx
    threshold = 2.0 ** (-eps) * math.sqrt(2.0**layers)
    yield f"amplify_N{layers}.csv", _trajectory_csv(trace)
    summary = {
        "start_nx": start.nx,
        "start_nz": start.nz,
        "final_m1": final,
        "ratio": ratio,
        "threshold": threshold,
        "exceeds_threshold": ratio > threshold,
    }
    yield "amplify_summary.json", summary
    print(f"ratio after {layers} layers: {ratio:.4f}  threshold: {threshold:.4f}")


#: The parameter every subcommand takes, as (name, converter, default, help).
#: ``--config`` is read before the others are resolved, so it is a flag only.
_COMMON = (("out", os.fspath, ".", "output directory"),)

#: Subcommand -> (function, help, parameters as (name, converter, default, help)).
COMMANDS = {
    "concentrate": (cmd_concentrate, "closed form, search oracle, and bounds for one system's state "
                    "(for a joint state, use nogo)", (
        ("state", os.fspath, None, "JSON state file (matrix or Bloch form)"),
        ("j", _int, 1, "mode index"),
        ("restarts", _int, UnitarySearchConfig.restarts, "search restarts"),
    )),
    "concat": (cmd_concat, "run the concatenation recurrence from Bloch starting points", (
        ("nx", _list(_float), "0.1", "comma-separated transverse components"),
        ("nz", _list(_float), "0.7", "comma-separated z components"),
    )),
    "field": (cmd_field, "export the recurrence displacement field on the quarter disc", (
        ("grid", str, "20x20", "resolution, e.g. 20 or 20x30 (radial x angular)"),
    )),
    "bound-compare": (cmd_bound_compare, "sample states and compare the two upper bounds", (
        ("dim", _int, 3, f"local dimension, 3 to {MAX_LOCAL_DIM}"),
        ("ranks", _list(_int), None, "comma-separated ranks (default all)"),
        ("samples", _int, 100, "samples per rank, at least 1"),
        ("restarts", _int, 0, f"search restarts of {_SAMPLE_SEARCH_ITERS} evaluations per sample and j; 0: none"),
        ("seed", _seed, 0, "non-negative seed of the first sampled state"),
    )),
    "nogo": (cmd_nogo, "mode-structure verdict plus a search for the largest local m1 gain", (
        ("state", os.fspath, None, f"JSON joint-state file, any local dimension (search up to {MAX_LOCAL_DIM})"),
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
        for name, _, default, help_text in (*params, *_COMMON):
            if default is not None:
                help_text = f"{help_text} (default {default})"
            p.add_argument(f"--{name}", default=None, help=help_text)
        p.add_argument("--config", default=None, help="JSON file with parameter defaults; flags win")
    return parser


def main(argv=None) -> int:
    """Run one subcommand: resolve its parameters, write its outputs, and then its manifest.

    Each parameter is its flag, else its ``--config`` entry, else its default,
    through its converter; a value the converter rejects, or a config key that
    names no parameter, exits 1 naming it. ``cmd_*`` gets the resolved dict and
    yields its outputs as (name, content): ``(header, rows)`` for a ``.csv``
    name, where ``rows`` may be a generator and a row is a finished line of
    text, else a JSON value. This is the one place that writes a file; the
    manifest echoes the parameters and lists exactly the names written.
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
            value = next((v for v in (getattr(args, name), config.get(name), default) if v is not None), None)
            p[name] = None if value is None else _converted(value, convert, f"parameter '{name}'")
        os.makedirs(p["out"], exist_ok=True)

        def write(name: str, content) -> None:
            with open(os.path.join(p["out"], name), "w", encoding="utf-8", newline="\n") as fh:
                if name.endswith(".csv"):
                    header, rows = content
                    fh.write(",".join(header) + "\n")
                    fh.writelines(rows)
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
