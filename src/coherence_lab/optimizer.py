"""Derivative-free maximization of the local coherence gain over block-diagonal unitaries.

This is the ground-truth oracle at small dimension: each degenerate eigenspace
block is parameterized by a Hermitian generator (an unconstrained real vector),
and a multi-restart coordinate pattern search climbs the gain of the local mode
measure of one system after conjugating two copies of the state. It reads only
the gap-j stripe of that marginal, from cached per-block products, so a move
recomputes only the block it changes. The restarts run in lockstep, so one
stacked evaluation per coordinate step serves all of them.
The objective is a smooth composition except at singular-value crossings, so a
derivative-free method avoids subgradient bookkeeping at these sizes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedParameterError
from .modes import _check_local_index, _local_gap_measure, _stripe_blocks, _stripe_layout, _stripe_measure
from .sampling import as_rng, haar_unitary
from .states import AllowedUnitary, BipartiteGenerator, DensityMatrix, NumberOperator

#: first coordinate step of every restart
INITIAL_STEP = 0.5
#: factor applied to the step after a sweep that improves no coordinate
STEP_DECAY = 0.5
#: search stops refining below this coordinate step
STEP_FLOOR = 1e-8
#: largest rise of the best value over the last fifth of the evaluations that
#: still counts as converged
CONVERGENCE_TOLERANCE = 1e-9
#: largest supported local dimension; the parameter count grows as the sum of
#: squared degeneracies (44 real parameters at dimension 4)
MAX_LOCAL_DIM = 4

#: the +step and -step candidates of a coordinate, in the order they are tried
_SIGNS = np.array([[1.0], [-1.0]])


@dataclass(frozen=True)
class UnitarySearchConfig:
    """Search budget and seed."""

    restarts: int = 8
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise UnsupportedParameterError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iters < 1:
            raise UnsupportedParameterError(f"max_iters must be at least 1, got {self.max_iters}")


@dataclass(frozen=True, eq=False)
class SearchOutcome:
    """Best gain found, the unitary achieving it, per-restart bests, and run telemetry.

    ``evals``, ``accepted`` and ``step_shrinks`` total the objective
    evaluations, accepted moves and step shrinks over all restarts;
    ``stop_reasons`` says per restart whether it spent its evaluation budget
    ("eval budget") or refined its step below ``STEP_FLOOR`` ("step floor").
    """

    best_delta_m: float
    best_unitary: AllowedUnitary
    history: tuple
    converged: bool
    evals: int = 0
    accepted: int = 0
    step_shrinks: int = 0
    stop_reasons: tuple = ()

    def __post_init__(self) -> None:
        if self.best_delta_m < -1e-12:
            raise ValueError(f"best gain {self.best_delta_m} below the identity baseline")


@functools.cache
def _hermitian_layout(n: int) -> np.ndarray:
    """Where each entry of an n x n generator sits in [diagonal, upper triangle, its conjugate].

    The upper triangle is taken row by row, the order ``np.triu_indices`` walks.
    """
    upper = np.triu_indices(n, 1)
    k = n + np.arange(upper[0].size)
    where = np.empty((n, n), dtype=int)
    where[np.diag_indices(n)] = np.arange(n)
    where[upper] = k
    where[upper[::-1]] = k + k.size
    where.setflags(write=False)
    return where


def _hermitian_from_params(n: int, params: np.ndarray) -> np.ndarray:
    """Hermitian n x n generators from the last axis of ``params``; leading axes are stack axes."""
    upper = params[..., n::2] + 1j * params[..., n + 1 :: 2]
    return np.concatenate((params[..., :n], upper, upper.conj()), axis=-1)[..., _hermitian_layout(n)]


def _exp_ih(h: np.ndarray) -> np.ndarray:
    """exp(i h) for a stack of Hermitian h; closed forms below 3x3, eigendecomposition above.

    Each matrix of a stack comes out bit for bit as it would alone. For that
    the 2x2 form takes |b|^2 as re^2 + im^2 (the complex product b b* is fused
    differently on arrays) and sin(r)/r as a real quotient (complex / real
    multiplies by a reciprocal).
    """
    n = h.shape[-1]
    if n == 1:
        return np.exp(1j * h.real)
    if n == 2:
        a, c, b = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 0, 1]
        mean, delta = (a + c) / 2.0, (a - c) / 2.0
        r = np.sqrt(delta * delta + (b.real * b.real + b.imag * b.imag))
        zero = r == 0.0
        s = 1j * (np.sin(r) / np.where(zero, 1.0, r))
        cos = np.cos(r)
        core = np.empty(h.shape, dtype=complex)
        core[..., 0, 0] = cos + s * delta
        core[..., 0, 1] = s * b
        core[..., 1, 0] = s * b.conj()
        core[..., 1, 1] = cos - s * delta
        core[zero] = np.eye(2)
        return np.exp(1j * mean)[..., None, None] * core
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def parameterize_block(gen: BipartiteGenerator, eigenvalue_index: int, params) -> np.ndarray:
    """Unitary block exp(i H) for eigenspace ``eigenvalue_index``.

    ``params`` packs the Hermitian generator H: the diagonal first, then
    (real, imaginary) pairs of the upper triangle row by row; its length must
    be the squared block dimension.
    """
    n = gen.block_dim(eigenvalue_index)
    params = np.asarray(params, dtype=float)
    if params.shape != (n * n,):
        raise ValueError(
            f"expected {n * n} parameters for eigenspace {eigenvalue_index}, got {params.size}"
        )
    return _exp_ih(_hermitian_from_params(n, params))


def random_allowed_unitary(gen: BipartiteGenerator, rng) -> AllowedUnitary:
    """Independent Haar block per eigenspace; reproducible for a fixed seed."""
    rng = as_rng(rng)
    blocks = tuple(haar_unitary(gen.block_dim(c), rng) for c in range(gen.n_eigenvalues))
    return AllowedUnitary(gen, blocks)


class _StripeObjective:
    """Local gap-j gain over the block parameters of a stack of points, paid per moved block.

    The gain is ``modes._stripe_measure`` of U (rho x rho) U^dagger minus the
    input's measure. Its pair c involves blocks c + j and c only, so a move
    inside block b recomputes exp(i H_b) and the pairs b - j and b only.

    ``start`` makes the rows of x current, one point per row; ``move``
    evaluates candidates that change one coordinate of some of those points,
    and ``accept`` makes chosen candidates current.
    """

    def __init__(self, rho: DensityMatrix, gen: BipartiteGenerator, j: int) -> None:
        self.sizes = [gen.block_dim(c) for c in range(gen.n_eigenvalues)]
        self.offsets = np.concatenate(([0], np.cumsum([n * n for n in self.sizes])))
        self.block_of = np.repeat(np.arange(len(self.sizes)), [n * n for n in self.sizes])
        self.pairs = _stripe_layout(gen.dim, j)
        self.blocks = _stripe_blocks(self.pairs, np.kron(rho.matrix, rho.matrix))
        self.width = gen.dim - j
        self.touched = [
            [c for c in (b - j, b) if 0 <= c < len(self.pairs)] for b in range(len(self.sizes))
        ]
        # the blocks that share a touched pair with block b
        self.partners = [
            [c + j if c == b else c for c in touched] for b, touched in enumerate(self.touched)
        ]
        self.baseline = _local_gap_measure(rho.matrix, j)

    def start(self, x: np.ndarray) -> np.ndarray:
        """Gains at the rows of x (points x parameters), which become current."""
        self.units = [
            _exp_ih(_hermitian_from_params(n, x[:, first : first + n * n]))
            for n, first in zip(self.sizes, self.offsets)
        ]
        self.parts = np.zeros((len(x), len(self.pairs), self.width), dtype=complex)
        return _stripe_measure(self.pairs, self.units, self.blocks, self.parts) - self.baseline

    def move(self, x: np.ndarray, live: np.ndarray, i: int, trial: np.ndarray) -> np.ndarray:
        """Gains at the points ``x[live]`` with coordinate i set to each row of ``trial``.

        ``trial`` is (candidates, live points); so is the result.
        """
        b = self.block_of[i]
        n, first = self.sizes[b], self.offsets[b]
        params = x[live, first : first + n * n][None].repeat(len(trial), 0)
        params[..., i - first] = trial
        units = {k: self.units[k][live] for k in self.partners[b]}
        units[b] = _exp_ih(_hermitian_from_params(n, params))
        parts = self.parts[live][None].repeat(len(trial), 0)
        self.moved = b, live, units[b], parts
        return _stripe_measure(self.pairs, units, self.blocks, parts, self.touched[b]) - self.baseline

    def accept(self, moved: np.ndarray, take: np.ndarray) -> None:
        """Make candidate ``take[k]`` of moved point ``moved[k]`` (a place in ``live``) current."""
        b, live, unit, parts = self.moved
        self.units[b][live[moved]] = unit[take, moved]
        self.parts[live[moved]] = parts[take, moved]


def _pattern_search(objective: _StripeObjective, x0: np.ndarray, max_iters: int) -> tuple:
    """Greedy coordinate search with geometric step decay on stall, one restart per row of x0.

    The restarts run in lockstep: each walks the coordinates in the same order
    sweep by sweep, so one stacked call evaluates the +step and -step
    candidates of every live restart, and each then takes +, else -, else
    nothing. ``max_iters`` counts a restart's evaluations as a restart run on
    its own spends them: the - candidate counts only after + failed with
    budget left. Only improving moves are taken, so each final point is its
    restart's best. Returns the final values, the best-so-far curves (one
    entry per evaluation; row r is valid up to its evaluation count), and per
    restart the evaluation counts, accepted moves, step shrinks and why it
    stopped.
    """
    x = x0.copy()
    n_restarts, n_params = x.shape
    fx = objective.start(x)
    # written at the evaluations that moved only, then forward-filled; it grows
    # a sweep ahead, so its size follows the evaluations made, not the budget
    curve = fx[:, None].copy()
    evals = np.ones(n_restarts, dtype=int)
    accepted = np.zeros(n_restarts, dtype=int)
    shrinks = np.zeros(n_restarts, dtype=int)
    step = np.full(n_restarts, INITIAL_STEP)
    live = np.flatnonzero(evals < max_iters)
    while live.size:
        swept = live
        need = min(max_iters, int(evals.max()) + 2 * n_params)
        if need > curve.shape[1]:
            width = min(max_iters, max(need, 2 * curve.shape[1]))
            curve = np.hstack((curve, np.full((n_restarts, width - curve.shape[1]), -np.inf)))
        improved = np.zeros(n_restarts, dtype=bool)
        for i in range(n_params):
            xi, fl, spent = x[live, i], fx[live], evals[live]
            trial = xi + _SIGNS * step[live]
            f = objective.move(x, live, i, trial)
            plus = f[0] > fl
            tried = ~plus & (spent + 1 < max_iters)
            minus = tried & (f[1] > fl)
            moved = np.flatnonzero(plus | minus)
            take = minus[moved].astype(int)
            objective.accept(moved, take)
            rows = live[moved]
            x[rows, i] = trial[take, moved]
            fx[rows] = f[take, moved]
            curve[rows, spent[moved] + take] = fx[rows]
            evals[live] = spent + 1 + tried
            accepted[rows] += 1
            improved[rows] = True
            live = live[evals[live] < max_iters]
            if not live.size:
                break
        stalled = swept[~improved[swept]]
        step[stalled] *= STEP_DECAY
        shrinks[stalled] += 1
        live = live[step[live] >= STEP_FLOOR]
    reasons = tuple("eval budget" if n >= max_iters else "step floor" for n in evals)
    return fx, np.maximum.accumulate(curve, axis=1), evals, accepted, shrinks, reasons


def maximize_delta_m(
    rho: DensityMatrix,
    op: NumberOperator,
    index: int,
    config: UnitarySearchConfig | None = None,
) -> SearchOutcome:
    """Search the block-diagonal unitaries for the largest local mode-measure gain.

    The objective reads the gap-``index`` stripe of the first-system marginal
    of the conjugated two-copy state and differences its measure against the
    input's. The identity (all-zero parameters) seeds the first restart, so
    the result is never below zero beyond roundoff.
    """
    cfg = config or UnitarySearchConfig()
    d = rho.dim
    _check_local_index(op, index, rho)
    if d > MAX_LOCAL_DIM:
        raise UnsupportedParameterError(
            f"search supports local dimension up to {MAX_LOCAL_DIM}, got {d}"
        )
    gen = BipartiteGenerator(op)
    objective = _StripeObjective(rho, gen, index)
    n_params = int(objective.offsets[-1])

    rng = as_rng(cfg.seed)
    x0 = np.zeros((cfg.restarts, n_params))
    x0[1:] = rng.uniform(-math.pi, math.pi, (cfg.restarts - 1, n_params))
    fx, curve, evals, accepted, shrinks, reasons = _pattern_search(objective, x0, cfg.max_iters)
    best = int(np.argmax(fx))
    best_curve = curve[best, : evals[best]]
    stable_from = int(0.8 * (len(best_curve) - 1))
    converged = bool(best_curve[-1] - best_curve[stable_from] <= CONVERGENCE_TOLERANCE)
    return SearchOutcome(
        best_delta_m=float(fx[best]),
        best_unitary=AllowedUnitary(gen, tuple(u[best] for u in objective.units)),
        history=tuple(fx.tolist()),
        converged=converged,
        evals=int(evals.sum()),
        accepted=int(accepted.sum()),
        step_shrinks=int(shrinks.sum()),
        stop_reasons=reasons,
    )
