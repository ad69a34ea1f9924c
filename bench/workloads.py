"""The benchmark's workloads: seeded inputs, what one op is, and how its output is checked.

Every workload is a closed loop with one client: the next op starts only
after the previous one has returned. Inputs come in passes. A pass has a
fixed composition, so a different seed changes the states and start points
but never how many ops of each kind there are; the order inside a pass is
shuffled by the seed. Every output is checked against a reference computed
here with numpy or plain Python, never by calling back into the package.

Calls go through module attributes (``optimizer.maximize_delta_m``) so that
the traced run's wrappers see them.

oracle
    The traffic of acceptance criteria 01, 02 and 06: the search oracle,
    about 95% of Tier-1 time. Four qubit ops per pass (three random Bloch
    states, one balanced-diagonal state with p00 = 1/2 and zero gain), each
    ``maximize_delta_m`` at the default 8 x 2000 budget plus
    ``optimal_concentration``; and six qutrit ops (ranks 1-3, j = 1, 2), each
    ``maximize_delta_m`` at 4 x 600 plus ``bound_report(..., achieved=...)``.
    The qubit ops use the closed-form 2x2 block exponential, the qutrit ops a
    3x3 ``eigh`` per block; both cost about 0.35 s, so the two are one
    workload. A run needs 100 ops for its p90.
bounds-nogo
    No oracle. ``bound_report`` over every j on d = 3 (ranks 1-3) and d = 4
    (ranks 1-4) states, interleaved with no-go ops: ``nogo_check``,
    ``marginal_product_distance`` and 20 ``random_allowed_unitary``
    conjugations with a local mode read-out, on one two-qubit isotropic state
    and two qutrit states p|psi><psi| + (1-p)I/9, psi = (|00> + |22>)/sqrt(2).
    These layers are under 1% of an oracle op, so this is where they show.
    The composition puts p50 inside the d = 4 bound ops and p90 inside the
    qutrit no-go ops, away from the edges between op kinds.
recurrence-cli
    In-process ``cli.main`` calls writing to a scratch directory: ``concat``
    from a fixed list of starts (13 to 54,889 steps), two ``field --grid
    100x100`` and three ``amplify --steps 40`` per pass. The only workload in
    which ``qubit_protocol`` and ``cli`` do the work. p50 falls inside six
    starts of about 1,300 steps (about 35 ms: shorter CLI ops are dominated
    by file-system noise) and p90 inside three of about 7,000 steps. The start nx 0.003,
    nz 0.01 is kept as given: it runs 54,889 steps and exits 1 on Python's
    4300-digit int-to-str limit (every trajectory past 14,284 steps does), so
    each pass has one failed op. The start nx 1e-5, nz 0.001001 is left out:
    near the 1e6 step cap ``copies_consumed`` would need about 60 GB.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from typing import NamedTuple

import numpy as np

from coherence_lab import bounds, cli, linalg, modes, optimizer, qubit_protocol, sampling, states

#: acceptance tolerances the outputs are held to
CLOSED_FORM_ATOL = 1e-6
ZERO_GAIN_ATOL = 1e-8
SOUNDNESS_ATOL = 1e-8
TIE_ATOL = 1e-8
NOGO_GAIN_ATOL = 1e-9
#: agreement with the references computed here
REFERENCE_ATOL = 1e-9
RECURRENCE_ATOL = 1e-12

NOGO_CONJUGATIONS = 20
FIELD_GRID = (100, 100)
AMPLIFY_STEPS = 40
#: concat starts (nx, nz), sorted by trajectory length; seeds jitter all but the failing one
CONCAT_STARTS = (
    (0.5, 0.5),         # 13 steps
    (0.05, 0.9),        # 17
    (0.1, 0.7),         # 25
    (0.02, 0.5),        # 67
    (0.019, 0.09),      # about 1,300 each: the cluster that holds p50
    (0.014, 0.095),
    (0.0093, 0.1),
    (0.01, 0.1),
    (0.0057, 0.105),
    (0.0032, 0.11),
    (0.005, 0.05),      # 4,607
    (0.0038, 0.04),     # about 7,000 each: the cluster that holds p90
    (0.008, 0.035),
    (0.0118, 0.03),
)
#: exits 1 at this commit: 54,889 steps overflow the 4300-digit int-to-str limit
FAILING_START = (0.003, 0.01)
START_JITTER = 2e-3


class Op(NamedTuple):
    kind: str
    args: tuple


class OpFailed(Exception):
    """A CLI op exited non-zero."""


def _seeds(rng, n):
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _shuffled(ops, rng):
    return [ops[i] for i in rng.permutation(len(ops))]


# -- independent references -----------------------------------------------


def ref_closed_form_gain(m: np.ndarray) -> float:
    """|p01| (sqrt(1 + (2 p00 - 1)^2) - 1), the optimal two-copy qubit gain."""
    v = 2.0 * m[0, 0].real - 1.0
    return abs(m[0, 1]) * (math.sqrt(1.0 + v * v) - 1.0)


def ref_bounds(m: np.ndarray, j: int) -> tuple:
    """Both Ky-Fan bounds from the two-copy gap-j mode, built directly with numpy."""
    d = m.shape[0]
    lam = (np.arange(d)[:, None] + np.arange(d)[None, :]).ravel()
    pair = np.kron(m, m)
    mode = np.where(lam[:, None] - lam[None, :] == j, pair, 0.0)
    baseline = float(np.abs(np.diagonal(m, offset=-j)).sum())
    order = (d - j) * d
    b1 = float(np.linalg.svd(mode, compute_uv=False)[:order].sum())
    b2 = 0.0
    for c in range(2 * d - 1 - j):
        rows = [n * d + (c + j - n) for n in range(d) if 0 <= c + j - n < d]
        cols = [n * d + (c - n) for n in range(d) if 0 <= c - n < d]
        quota = min(sum(1 for n in range(d - j) if 0 <= c - n < d), len(rows), len(cols))
        if quota:
            block = pair[np.ix_(rows, cols)]
            b2 += float(np.linalg.svd(block, compute_uv=False)[:quota].sum())
    return b1 - baseline, b2 - baseline


def ref_marginal_distance(m: np.ndarray, d: int) -> float:
    t = m.reshape(d, d, d, d)
    rho_a = np.einsum("ijkj->ik", t)
    rho_b = np.einsum("jijk->ik", t)
    return float(np.linalg.svd(m - np.kron(rho_a, rho_b), compute_uv=False).sum())


def ref_concat(nx: float, nz: float, max_steps: int = 1_000_000, eps: float = 1e-3) -> tuple:
    """Final (step, nx, nz) of the concatenation recurrence iterated in plain floats."""
    x, z = abs(nx), nz
    m = 0
    if abs(z) < eps:
        return m, x, z
    while m < max_steps:
        denom = 1.0 + z * z
        z_next = z - z * x * x / denom
        x_next = x * math.sqrt(denom)
        m += 1
        if abs(z_next) < eps or (x_next, z_next) == (x, z):
            return m, x_next, z_next
        x, z = x_next, z_next
    return m, x, z


def ref_purity_ceiling(nx: float, nz: float) -> float:
    p00, p01 = (1.0 + nz) / 2.0, nx / 2.0
    purity = p00 * p00 + (1.0 - p00) ** 2 + 2.0 * p01 * p01
    return math.sqrt(max(2.0 * purity - 1.0, 0.0))


# -- workloads --------------------------------------------------------------


class Oracle:
    name = "oracle"
    min_ops = 100
    calibration = "linalg"

    def make_pass(self, seed: int, index: int) -> list:
        rng = np.random.default_rng([seed, index])
        ops = []
        for k in _seeds(rng, 3):
            ops.append(Op("qubit", (states.bloch_to_density(sampling.random_bloch(rng)), k)))
        b = sampling.random_bloch(rng)
        balanced = states.bloch_to_density(states.BlochState(b.nx, b.ny, 0.0))
        ops.append(Op("qubit", (balanced, _seeds(rng, 1)[0])))
        for rank in (1, 2, 3):
            rho = sampling.random_density_matrix(3, rank, rng)
            for j, k in zip((1, 2), _seeds(rng, 2)):
                ops.append(Op("qutrit", (rho, j, k)))
        return _shuffled(ops, rng)

    def warmup(self) -> Op:
        return Op("qubit", (states.bloch_to_density(states.BlochState(0.3, 0.1, 0.5)), 0))

    def run(self, op: Op, workdir: str):
        if op.kind == "qubit":
            rho, k = op.args
            cfg = optimizer.UnitarySearchConfig(seed=k)
            outcome = optimizer.maximize_delta_m(rho, states.NumberOperator(2), 1, cfg)
            return outcome, qubit_protocol.optimal_concentration(rho)
        rho, j, k = op.args
        cfg = optimizer.UnitarySearchConfig(restarts=4, max_iters=600, seed=k)
        local = states.NumberOperator(3)
        outcome = optimizer.maximize_delta_m(rho, local, j, cfg)
        return outcome, bounds.bound_report(rho, local, j, achieved=outcome.best_delta_m)

    def check(self, op: Op, result) -> list:
        outcome, other = result
        m = op.args[0].matrix
        best = outcome.best_delta_m
        problems = []
        if op.kind == "qubit":
            closed = ref_closed_form_gain(m)
            if abs(best - closed) > CLOSED_FORM_ATOL:
                problems.append(f"qubit search {best!r} vs closed form {closed!r}")
            if abs(other.delta_m - closed) > REFERENCE_ATOL:
                problems.append(f"optimal_concentration {other.delta_m!r} vs {closed!r}")
            if m[0, 0].real == 0.5 and best > ZERO_GAIN_ATOL:
                problems.append(f"balanced-diagonal search gain {best!r} above {ZERO_GAIN_ATOL}")
            return problems
        problems += _bound_problems(other.bound1, other.bound2, m, op.args[1], tie=False)
        for label, value in (("bound1", other.bound1), ("bound2", other.bound2)):
            if value < best - SOUNDNESS_ATOL:
                problems.append(f"qutrit {label} {value!r} below achieved {best!r}")
        return problems

    def numbers(self, op: Op, result) -> list:
        outcome, other = result
        out = [outcome.best_delta_m, *outcome.history, outcome.converged]
        if op.kind == "qubit":
            return out + [other.delta_m, other.theta_opt]
        return out + [other.bound1, other.bound2, other.baseline]


def _bound_problems(b1: float, b2: float, m: np.ndarray, j: int, tie: bool) -> list:
    problems = []
    r1, r2 = ref_bounds(m, j)
    if abs(b1 - r1) > REFERENCE_ATOL or abs(b2 - r2) > REFERENCE_ATOL:
        problems.append(f"bounds ({b1!r}, {b2!r}) vs reference ({r1!r}, {r2!r}) at j={j}")
    if b2 > b1 + TIE_ATOL:
        problems.append(f"bound2 {b2!r} above bound1 {b1!r} at j={j}")
    if tie and abs(b1 - b2) > TIE_ATOL:
        problems.append(f"bounds differ by {abs(b1 - b2):.3e} at j={j} where they must coincide")
    return problems


def _qutrit_nogo_state(p: float) -> states.DensityMatrix:
    psi = np.zeros(9)
    psi[0] = psi[8] = 1.0 / math.sqrt(2.0)
    return states.DensityMatrix(p * np.outer(psi, psi) + (1.0 - p) * np.eye(9) / 9.0)


class BoundsNogo:
    name = "bounds-nogo"
    min_ops = 100
    calibration = "linalg"

    def make_pass(self, seed: int, index: int) -> list:
        rng = np.random.default_rng([seed, index])
        ops = []
        for d in (3, 4):
            for rank in range(1, d + 1):
                ops.append(Op("bounds", (sampling.random_density_matrix(d, rank, rng), rank)))
        p_iso, p_a, p_b = rng.uniform(0.05, 1.0, size=3)
        k_iso, k_a, k_b = _seeds(rng, 3)
        ops.append(Op("nogo", (states.isotropic_state(float(p_iso)), 2, k_iso)))
        ops.append(Op("nogo", (_qutrit_nogo_state(float(p_a)), 3, k_a)))
        ops.append(Op("nogo", (_qutrit_nogo_state(float(p_b)), 3, k_b)))
        return _shuffled(ops, rng)

    def warmup(self) -> Op:
        return Op("bounds", (sampling.random_density_matrix(3, 3, np.random.default_rng(0)), 3))

    def run(self, op: Op, workdir: str):
        if op.kind == "bounds":
            rho = op.args[0]
            local = states.NumberOperator(rho.dim)
            return [bounds.bound_report(rho, local, j) for j in range(1, rho.dim)]
        rho, d, k = op.args
        gen = states.BipartiteGenerator(states.NumberOperator(d))
        verdict = bounds.nogo_check(rho, gen)
        distance = bounds.marginal_product_distance(rho, gen)
        local = states.NumberOperator(d)

        def local_modes(m):
            reduced = states.DensityMatrix(linalg.partial_trace_b(m, d, d))
            return [modes.mode_measure(reduced, local, j) for j in range(1, d)]

        before = local_modes(rho.matrix)
        rng = np.random.default_rng(k)
        gain = -math.inf
        for _ in range(NOGO_CONJUGATIONS):
            u = optimizer.random_allowed_unitary(gen, rng)
            after = local_modes(rho.evolve(u.matrix).matrix)
            gain = max(gain, max(a - b for a, b in zip(after, before)))
        return verdict, distance, gain

    def check(self, op: Op, result) -> list:
        if op.kind == "bounds":
            rho, rank = op.args
            problems = []
            for rep in result:
                tie = rep.index == 1 or rank == 1
                problems += _bound_problems(rep.bound1, rep.bound2, rho.matrix, rep.index, tie)
            return problems
        verdict, distance, gain = result
        rho, d, _ = op.args
        problems = []
        if verdict != bounds.NO_GO:
            problems.append(f"verdict {verdict!r} on a no-go state")
        if gain > NOGO_GAIN_ATOL:
            problems.append(f"local gain {gain!r} on a no-go state")
        ref = ref_marginal_distance(rho.matrix, d)
        if abs(distance - ref) > REFERENCE_ATOL:
            problems.append(f"marginal product distance {distance!r} vs reference {ref!r}")
        return problems

    def numbers(self, op: Op, result) -> list:
        if op.kind == "bounds":
            return [x for rep in result for x in (rep.bound1, rep.bound2, rep.baseline, rep.tighter)]
        return list(result)


def _cli(argv: list, workdir: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv + ["--out", workdir])
    if code != 0:
        raise OpFailed(f"exit {code}: {out.getvalue().strip()[-160:]}")
    return workdir


def _last_row(path: str) -> list:
    with open(path, "rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        chunk = b""
        while chunk.count(b"\n") < 2 and len(chunk) < size:
            fh.seek(max(0, size - len(chunk) - 65536))
            chunk = fh.read(size - fh.tell())
    return chunk.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode().split(",")


def _file_digests(workdir: str) -> list:
    """sha256 of every output except the manifest, which names the scratch directory."""
    out = []
    for name in sorted(os.listdir(workdir)):
        if not name.endswith("_manifest.json"):
            with open(os.path.join(workdir, name), "rb") as fh:
                out.append(f"{name}:{hashlib.sha256(fh.read()).hexdigest()}")
    return out


class RecurrenceCli:
    name = "recurrence-cli"
    min_ops = 100
    calibration = "bigint"

    def make_pass(self, seed: int, index: int) -> list:
        rng = np.random.default_rng([seed, index])
        ops = []
        for nx, nz in CONCAT_STARTS:
            jx, jz = 1.0 + START_JITTER * rng.uniform(-1.0, 1.0, size=2)
            ops.append(Op("concat", (float(nx * jx), float(nz * jz))))
        ops.append(Op("concat", FAILING_START))
        ops += [Op("field", FIELD_GRID)] * 2
        ops += [Op("amplify", (AMPLIFY_STEPS, float(e))) for e in rng.uniform(0.05, 0.2, size=3)]
        return _shuffled(ops, rng)

    def warmup(self) -> Op:
        return Op("field", FIELD_GRID)

    def run(self, op: Op, workdir: str):
        if op.kind == "concat":
            nx, nz = op.args
            return _cli(["concat", "--nx", repr(nx), "--nz", repr(nz)], workdir)
        if op.kind == "field":
            return _cli(["field", "--grid", "{}x{}".format(*op.args)], workdir)
        steps, eps = op.args
        return _cli(["amplify", "--steps", str(steps), "--eps", repr(eps)], workdir)

    def check(self, op: Op, workdir: str) -> list:
        files = os.listdir(workdir)
        if op.kind == "concat":
            nx, nz = op.args
            (csv,) = [f for f in files if f.startswith("concat_nx") and f.endswith(".csv")]
            row = _last_row(os.path.join(workdir, csv))
            step, x, z = ref_concat(nx, nz)
            got = (int(row[0]), float(row[1]), float(row[2]), float(row[4]), float(row[5]))
            want = (step, x, z, abs(x), ref_purity_ceiling(nx, nz))
            if got[0] != want[0] or any(
                abs(g - w) > RECURRENCE_ATOL for g, w in zip(got[1:], want[1:])
            ):
                return [f"concat {op.args}: last row {got} vs reference {want}"]
            return []
        if op.kind == "field":
            with open(os.path.join(workdir, "vector_field.csv"), "rb") as fh:
                rows = fh.read().count(b"\n") - 1
            radial, angular = op.args
            if rows != radial * angular:
                return [f"field wrote {rows} rows, expected {radial * angular}"]
            return []
        steps, eps = op.args
        with open(os.path.join(workdir, "amplify_summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        threshold = 2.0 ** (-eps) * math.sqrt(2.0**steps)
        if summary["exceeds_threshold"] is not True or not summary["ratio"] > threshold:
            return [f"amplify eps={eps!r}: ratio {summary['ratio']!r} not above {threshold!r}"]
        return []

    def numbers(self, op: Op, workdir: str) -> list:
        return _file_digests(workdir)


WORKLOADS = {w.name: w for w in (Oracle(), BoundsNogo(), RecurrenceCli())}
