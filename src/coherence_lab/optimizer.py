"""Derivative-free maximization of the local coherence gain over block-diagonal unitaries.

This is the ground-truth oracle at small dimension: each degenerate eigenspace
block is parameterized by a Hermitian generator (an unconstrained real vector),
and a multi-restart coordinate pattern search climbs the gain of the local mode
measure of one system after conjugating two copies of the state. It reads only
the gap-j stripe of that marginal, from cached per-block products, so a move
recomputes only the block it changes.
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
    upper = params[n::2] + 1j * params[n + 1 :: 2]
    return np.concatenate((params[:n], upper, upper.conj()))[_hermitian_layout(n)]


def _exp_ih(h: np.ndarray) -> np.ndarray:
    """exp(i h) for Hermitian h; closed forms below 3x3, eigendecomposition above."""
    n = h.shape[0]
    if n == 1:
        return np.array([[np.exp(1j * h[0, 0].real)]])
    if n == 2:
        mean = (h[0, 0].real + h[1, 1].real) / 2.0
        delta = (h[0, 0].real - h[1, 1].real) / 2.0
        b = h[0, 1]
        r = math.sqrt(delta * delta + (b * b.conjugate()).real)
        if r == 0.0:
            core = np.eye(2, dtype=complex)
        else:
            s = 1j * math.sin(r) / r
            core = np.array(
                [[math.cos(r) + s * delta, s * b], [s * b.conjugate(), math.cos(r) - s * delta]]
            )
        return np.exp(1j * mean) * core
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


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
    """Local gap-j gain over the block parameters, paid per moved block.

    The gain is ``modes._stripe_measure`` of U (rho x rho) U^dagger minus the
    input's measure. Its pair c involves blocks c + j and c only, so a move
    inside block b recomputes exp(i H_b) and the pairs b - j and b only.

    ``start`` makes a point current; ``move`` evaluates the current point with
    coordinate i changed, and ``accept`` makes that moved point current.
    """

    def __init__(self, rho: DensityMatrix, gen: BipartiteGenerator, j: int) -> None:
        self.sizes = [gen.block_dim(c) for c in range(gen.n_eigenvalues)]
        self.offsets = np.concatenate(([0], np.cumsum([n * n for n in self.sizes])))
        self.block_of = np.repeat(np.arange(len(self.sizes)), [n * n for n in self.sizes])
        self.pairs = _stripe_layout(gen.dim, j)
        self.blocks = _stripe_blocks(self.pairs, np.kron(rho.matrix, rho.matrix))
        self.parts = np.zeros((len(self.pairs), gen.dim - j), dtype=complex)
        self.touched = [
            [c for c in (b - j, b) if 0 <= c < len(self.pairs)] for b in range(len(self.sizes))
        ]
        self.baseline = _local_gap_measure(rho.matrix, j)

    def unit(self, x: np.ndarray, b: int) -> np.ndarray:
        n, first = self.sizes[b], self.offsets[b]
        return _exp_ih(_hermitian_from_params(n, x[first : first + n * n]))

    def start(self, x: np.ndarray) -> float:
        self.units = [self.unit(x, b) for b in range(len(self.sizes))]
        return _stripe_measure(self.pairs, self.units, self.blocks, self.parts) - self.baseline

    def move(self, x: np.ndarray, i: int) -> float:
        b = self.block_of[i]
        units = self.units.copy()
        units[b] = self.unit(x, b)
        parts = self.parts.copy()
        self.moved = units, parts
        return _stripe_measure(self.pairs, units, self.blocks, parts, self.touched[b]) - self.baseline

    def accept(self) -> None:
        self.units, self.parts = self.moved


def _pattern_search(objective: _StripeObjective, x0: np.ndarray, max_iters: int) -> tuple:
    """Greedy coordinate search with geometric step decay on stall.

    ``max_iters`` counts objective evaluations. Only improving moves are taken,
    so the final point is the best one. Returns it, its value, the best-so-far
    curve (one entry per evaluation), the numbers of accepted moves and of
    step shrinks, and why the search stopped.
    """
    x = x0.copy()
    fx = objective.start(x)
    curve = [fx]
    accepted = shrinks = 0
    step = INITIAL_STEP
    while len(curve) < max_iters and step >= STEP_FLOOR:
        improved = False
        for i in range(x.size):
            if len(curve) >= max_iters:
                break
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[i] += sign * step
                fc = objective.move(cand, i)
                if fc > fx:
                    objective.accept()
                    x, fx = cand, fc
                    accepted += 1
                    improved = True
                    curve.append(fx)
                    break
                curve.append(fx)
                if len(curve) >= max_iters:
                    break
        if not improved:
            step *= STEP_DECAY
            shrinks += 1
    reason = "eval budget" if len(curve) >= max_iters else "step floor"
    return x, fx, curve, accepted, shrinks, reason


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
    best = None
    history, reasons = [], []
    evals = accepted = shrinks = 0
    for restart in range(cfg.restarts):
        if restart == 0:
            x0 = np.zeros(n_params)
        else:
            x0 = rng.uniform(-math.pi, math.pi, n_params)
        x, fx, curve, n_accepted, n_shrinks, reason = _pattern_search(objective, x0, cfg.max_iters)
        history.append(fx)
        reasons.append(reason)
        evals += len(curve)
        accepted += n_accepted
        shrinks += n_shrinks
        if best is None or fx > best[1]:
            best = x, fx, curve
    best_x, best_f, best_curve = best
    blocks = tuple(objective.unit(best_x, c) for c in range(gen.n_eigenvalues))
    stable_from = int(0.8 * (len(best_curve) - 1))
    converged = (best_curve[-1] - best_curve[stable_from]) <= CONVERGENCE_TOLERANCE
    return SearchOutcome(
        best_delta_m=float(best_f),
        best_unitary=AllowedUnitary(gen, blocks),
        history=tuple(history),
        converged=converged,
        evals=evals,
        accepted=accepted,
        step_shrinks=shrinks,
        stop_reasons=tuple(reasons),
    )
