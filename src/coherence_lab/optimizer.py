"""Riemannian gradient ascent of the local coherence gain over block-diagonal unitaries.

This is the ground-truth oracle at small dimension. The gain is the local
mode measure of one system after conjugating a joint state of two systems by
a unitary with one free block per degenerate eigenspace, read from the gap-j
stripe of that marginal (``modes._stripe_measure``), which also gives its
gradient per block in closed form. Any joint state will do (``nogo`` checks a
correlated one); two copies of a state are the case rho (x) rho. Each restart
climbs along the product of block unitary groups, U_b <- exp(i alpha G_b) U_b
(Abrudan, Eriksson & Koivunen, IEEE TSP 56, 2008), with Barzilai-Borwein
steps guarded by a non-monotone Armijo test. The restarts run in lockstep, so
one stacked exponential and one stacked value-and-gradient call per iteration
serve all of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedParameterError
from .modes import (
    _block_mask,
    _check_local_index,
    _local_gap_measure,
    _padded_units,
    _stripe_blocks,
    _stripe_measure,
)
from .sampling import haar_unitary
from .states import AllowedUnitary, BipartiteGenerator, DensityMatrix, NumberOperator

#: first step of every restart
FIRST_STEP = 1.0
#: Barzilai-Borwein steps are clipped to this range
STEP_RANGE = (1e-6, 1e6)
#: a rejected trial divides the step by this factor
BACKTRACK = 4.0
#: a trial is accepted when it rises this much per unit of step times squared
#: gradient norm above the lowest of the restart's recent accepted values
ARMIJO_RISE = 1e-4
#: how many of the last accepted values the Armijo test looks back over
ARMIJO_MEMORY = 10
#: a restart stops as stationary once its squared gradient norm falls below this
STATIONARY = 1e-16
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
    """The best restart's unitary, per-restart bests, and run telemetry.

    ``history`` holds each restart's best gain and ``stop_reasons`` how it
    stopped: "stationary" or "eval budget". ``accepted`` and ``backtracks``
    total the accepted steps and rejected trials over all restarts;
    ``grad_norm`` is the gradient norm at the best restart's last point.
    """

    best_unitary: AllowedUnitary
    history: tuple
    accepted: int
    backtracks: int
    stop_reasons: tuple
    grad_norm: float

    def __post_init__(self) -> None:
        if self.best_delta_m < -1e-12:
            raise ValueError(f"best gain {self.best_delta_m} below the identity baseline")

    @property
    def best_delta_m(self) -> float:
        """The best restart's gain (``np.argmax`` picks the first largest, or the first NaN)."""
        return self.history[np.argmax(self.history)]

    @property
    def converged(self) -> bool:
        """Whether the best restart stopped stationary."""
        return self.stop_reasons[np.argmax(self.history)] == "stationary"

    @property
    def evals(self) -> int:
        """Objective evaluations over all restarts: each start, accepted step and rejected trial."""
        return len(self.stop_reasons) + self.accepted + self.backtracks


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
    """exp(i h) for a stack of Hermitian h, from one eigendecomposition per matrix.

    Each matrix of a stack comes out bit for bit as it would alone.
    """
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
    rng = np.random.default_rng(rng)
    blocks = tuple(haar_unitary(gen.block_dim(c), rng) for c in range(gen.n_eigenvalues))
    return AllowedUnitary(gen, blocks)


def _inner(g: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Frobenius inner products tr(G K), summed over the blocks, of stacks of Hermitian block sets."""
    return (g.real * k.real + g.imag * k.imag).sum((-3, -2, -1))


def _ascend(objective, units: np.ndarray, max_iters: int) -> tuple:
    """Lockstep gradient ascent from each row of ``units`` (restarts x padded blocks).

    ``objective`` maps a stack of padded block unitaries to values and
    gradients. Every live restart tries U_b <- exp(i alpha G_b) U_b in one
    stacked call. A trial is accepted when its value reaches the lowest of the
    restart's last ``ARMIJO_MEMORY`` accepted values plus
    ``ARMIJO_RISE`` alpha |G|^2; the next step is then the Barzilai-Borwein
    <s, s> / <s, y> with s = alpha G_old and y = G_old - G_new, clipped to
    ``STEP_RANGE`` (its upper end when <s, y> <= 0). A rejected trial divides
    alpha by ``BACKTRACK``. The start and every trial count as one evaluation;
    a restart stops once |G|^2 < ``STATIONARY`` or its budget is spent. The
    ascent is not monotone, so each restart keeps its best point. Returns per
    restart the best blocks, accepted steps, rejected trials, stop reasons and
    final gradient norms.
    """
    mask, eye = _block_mask(units.shape[-1]), np.eye(units.shape[-1])
    value, grad = objective(units)
    norm2 = _inner(grad, grad)
    best, best_units = value.copy(), units.copy()
    recent = np.repeat(value[:, None], ARMIJO_MEMORY, axis=1)
    step = np.full(len(units), FIRST_STEP)
    accepted, backtracks = np.zeros((2, len(units)), dtype=int)
    live = np.arange(len(units))
    while (live := live[(norm2[live] >= STATIONARY) & (accepted[live] + backtracks[live] + 1 < max_iters)]).size:
        alpha, g = step[live], grad[live]
        trial = np.where(mask, _exp_ih(alpha[:, None, None, None] * g), eye) @ units[live]
        t_value, t_grad = objective(trial)
        ok = t_value >= recent[live].min(1) + ARMIJO_RISE * alpha * norm2[live]
        rows, took = live[ok], np.flatnonzero(ok)
        curvature = _inner(g[took], g[took] - t_grad[took])
        bb = np.divide(alpha[took] * norm2[rows], curvature, out=np.full(took.size, np.inf), where=curvature > 0)
        step[rows] = np.clip(bb, *STEP_RANGE)
        units[rows], value[rows], grad[rows] = trial[took], t_value[took], t_grad[took]
        norm2[rows] = _inner(grad[rows], grad[rows])
        recent[rows, accepted[rows] % ARMIJO_MEMORY] = value[rows]
        accepted[rows] += 1
        up = rows[value[rows] > best[rows]]
        best[up], best_units[up] = value[up], units[up]
        step[live[~ok]] /= BACKTRACK
        backtracks[live[~ok]] += 1
    reasons = tuple("stationary" if n < STATIONARY else "eval budget" for n in norm2)
    return best_units, accepted, backtracks, reasons, np.sqrt(norm2)


def maximize_delta_m(
    rho: DensityMatrix,
    op: NumberOperator,
    index: int,
    config: UnitarySearchConfig | None = None,
) -> SearchOutcome:
    """Largest local gap-``index`` mode-measure gain from two copies of ``rho``: ``_search`` on rho (x) rho."""
    _check_local_index(op, index, rho)
    if rho.dim > MAX_LOCAL_DIM:  # before the d^4 two-copy matrix is built
        raise UnsupportedParameterError(f"search supports local dimension up to {MAX_LOCAL_DIM}, got {rho.dim}")
    cfg = config or UnitarySearchConfig()
    return _search(np.kron(rho.matrix, rho.matrix), rho.dim, index, _local_gap_measure(rho.matrix, index), cfg)


def _search(joint: np.ndarray, d: int, index: int, baseline: float, cfg: UnitarySearchConfig) -> SearchOutcome:
    """Largest gap-``index`` measure of the first marginal of U joint U^dagger over covariant U, minus ``baseline``.

    ``joint`` is any d^2 x d^2 state of two d-level systems. Restart r > 0
    starts from exp(i H_b) with each generator's parameters uniform in
    [-pi, pi]; the identity seeds the first restart, so when ``baseline`` is
    the input's own measure the result is never below zero beyond roundoff.
    Callers check ``d`` against ``MAX_LOCAL_DIM``.
    """
    gen = BipartiteGenerator(NumberOperator(d))
    sizes = [gen.block_dim(c) for c in range(gen.n_eigenvalues)]
    offsets = np.cumsum([0] + [n * n for n in sizes])

    rng = np.random.default_rng(cfg.seed)
    x0 = np.zeros((cfg.restarts, int(offsets[-1])))
    x0[1:] = rng.uniform(-math.pi, math.pi, (cfg.restarts - 1, int(offsets[-1])))
    starts = [_exp_ih(_hermitian_from_params(n, x0[:, o : o + n * n])) for n, o in zip(sizes, offsets)]
    objective = functools.partial(_stripe_measure, blocks=_stripe_blocks(joint, d, index), index=index)
    units, accepted, backtracks, reasons, norms = _ascend(objective, _padded_units(starts, d), cfg.max_iters)
    # a product of many exponentials drifts off the unitary group by a few ulp,
    # which the best value would pick up; report each best point's polar factor
    w, _, vh = np.linalg.svd(units)
    mask = _block_mask(d)
    units = np.where(mask, w @ vh, np.eye(d))
    gains = objective(units)[0] - baseline
    top = int(np.argmax(gains))
    return SearchOutcome(
        best_unitary=AllowedUnitary(gen, tuple(u[m].reshape(n, n) for u, m, n in zip(units[top], mask, sizes))),
        history=tuple(gains.tolist()),
        accepted=int(accepted.sum()),
        backtracks=int(backtracks.sum()),
        stop_reasons=reasons,
        grad_norm=float(norms[top]),
    )
