"""Regenerate the golden files: ``golden_search.json`` (exact tier) and ``golden_bytes.json`` (byte tier).

Run from the repository root::

    PYTHONPATH=src python tests/make_golden_search.py [--contract]

``--contract`` also rewrites ``golden_contract.json`` (contract tier); a plain
run leaves it as it is.

Byte tier: for each of ``BYTE_RUNS`` it stores the SHA-256 of every file the
CLI writes, manifest included, run with the relative ``--out out`` inside a
fresh temporary directory, so the manifest's echoed parameters do not depend
on where it runs. ``test_golden_bytes.py`` compares a fresh run against it.
``field`` uses ``math.cos`` and ``math.sin``, so another libm may change its
digests; the file records the numpy and Python versions that made it.

Exact tier: it replays the inputs of acceptance criteria 01, 02 and 06 (850 searches) and
runs every sixth search of each criterion at its own seed and budget. For each
it stores ``history``, ``stop_reasons``, ``accepted``, ``backtracks`` and
``grad_norm``, with every float as ``float.hex``, and the numpy and Python
versions that made the file. ``test_golden_search.py`` compares a fresh run
against it entry by entry, bit for bit.

Contract tier: each search's best value, the largest of its ``history``, as a
float. ``test_golden_search.py`` checks it within ``CONTRACT_ATOL`` from the
run the exact tier makes, so regenerating the exact tier cannot hide a moved
best value.

When to rerun it: only when a change moves the oracle's or the CLI's bits,
and then every moved entry is listed in CHANGES.md. A change that claims bit-identity leaves
the files as they are and must pass the tests unchanged. A best value that moves
by more than ``CONTRACT_ATOL`` fails the contract tier until ``--contract``
rewrites it, and each such move needs its own justification.
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from coherence_lab.cli import main as cli_main
from coherence_lab.optimizer import UnitarySearchConfig, maximize_delta_m
from coherence_lab.sampling import random_bloch, random_density_matrix
from coherence_lab.states import DensityMatrix, NumberOperator, bloch_to_density

PATH = Path(__file__).with_name("golden_search.json")
BYTES_PATH = Path(__file__).with_name("golden_bytes.json")
CONTRACT_PATH = Path(__file__).with_name("golden_contract.json")
#: how far a best value may move before the contract tier fails
CONTRACT_ATOL = 1e-12
#: the CLI runs of the byte tier
BYTE_RUNS = (
    ("concat", "--nx", "0.5,0.02", "--nz", "0.5"),
    ("amplify", "--steps", "40", "--eps", "0.15"),
    ("field", "--grid", "20x30"),
    ("field", "--grid", "1x7"),
    ("field", "--grid", "7x1"),
    ("bound-compare", "--dim", "3", "--samples", "3", "--restarts", "2"),
    ("bound-compare", "--dim", "4", "--samples", "2", "--restarts", "2"),
)
#: keep every this-many-th search of each criterion
EVERY = 6


def _criterion_searches():
    """(criterion, search index, state, j, config) of every criterion 01, 02 and 06 search, in the suite's order."""
    rng = np.random.default_rng(101)
    for k in range(200):
        yield "01", k, bloch_to_density(random_bloch(rng)), 1, UnitarySearchConfig(seed=k)
    for i, p01 in enumerate(np.linspace(0.01, 0.49, 50)):
        yield "02", i, DensityMatrix(np.array([[0.5, p01], [p01, 0.5]])), 1, UnitarySearchConfig(seed=i)
    rng = np.random.default_rng(606)
    seed = 0
    for rank in (1, 2, 3):
        for _ in range(100):
            rho = random_density_matrix(3, rank, rng)
            for j in (1, 2):
                yield "06", seed, rho, j, UnitarySearchConfig(restarts=4, max_iters=600, seed=seed)
                seed += 1


def searches():
    """(name, state, j, config) of every ``EVERY``-th search of each criterion."""
    for criterion, k, rho, j, cfg in _criterion_searches():
        if k % EVERY == 0:
            yield f"criterion {criterion} search {k}", rho, j, cfg


def record(rho, j, cfg) -> dict:
    """The stored fields of one search's outcome, floats as ``float.hex``."""
    outcome = maximize_delta_m(rho, NumberOperator(rho.dim), j, cfg)
    return {
        "history": [gain.hex() for gain in outcome.history],
        "stop_reasons": list(outcome.stop_reasons),
        "accepted": outcome.accepted,
        "backtracks": outcome.backtracks,
        "grad_norm": outcome.grad_norm.hex(),
    }


def best(stored: dict) -> float:
    """The best value of a search's stored fields: the largest of its ``history``."""
    return max(float.fromhex(gain) for gain in stored["history"])


def versions() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version()}


def digests(argv) -> dict:
    """SHA-256 of every file ``cli.main(argv + ["--out", "out"])`` writes, run in a fresh temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if (code := cli_main([*argv, "--out", "out"])) != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
            return {name: hashlib.sha256(Path("out", name).read_bytes()).hexdigest() for name in sorted(os.listdir("out"))}
        finally:
            os.chdir(cwd)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--contract", action="store_true", help="also rewrite the contract tier's best values")
    args = parser.parse_args(argv)
    golden = {**versions(), "searches": {name: record(rho, j, cfg) for name, rho, j, cfg in searches()}}
    PATH.write_text(json.dumps(golden, indent=0) + "\n")
    print(f"wrote {len(golden['searches'])} searches to {PATH}")
    if args.contract:
        bests = {name: best(stored) for name, stored in golden["searches"].items()}
        CONTRACT_PATH.write_text(json.dumps({**versions(), "best": bests}, indent=1) + "\n")
        print(f"wrote {len(bests)} best values to {CONTRACT_PATH}")
    runs = {" ".join(argv): digests(argv) for argv in BYTE_RUNS}
    BYTES_PATH.write_text(json.dumps({**versions(), "runs": runs}, indent=1) + "\n")
    print(f"wrote {len(runs)} CLI runs to {BYTES_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
