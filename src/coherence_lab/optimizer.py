"""Riemannian quasi-Newton ascent of the local coherence gain over block-diagonal unitaries.

This is the ground-truth oracle at small dimension. The gain is the local
mode measure of one system after conjugating a joint state of two systems by
a unitary with one free block per degenerate eigenspace, read from the gap-j
stripe of that marginal (``modes._stripe_measure``), which also gives its
gradient per block in closed form. Any joint state will do (``nogo`` checks a
correlated one); two copies of a state are the case rho (x) rho. Each restart
climbs along the product of block unitary groups by the Cayley step
U_b <- (I - i alpha D_b / 2)^-1 (I + i alpha D_b / 2) U_b, a second-order
retraction (Wen & Yin, Math. Program. 142, 2013) that costs one batched LU
solve, where D = H G is the gradient times a dense BFGS inverse-Hessian
approximation H on the P real coordinates of the block generators (Nocedal &
Wright, Numerical Optimization, sec. 6.1; Huang, Absil & Gallivan, SIAM J.
Optim. 28, 2018, whose analysis holds for any retraction), and steps are
guarded by a non-monotone Armijo test. An eigendecomposition builds only the
starts, exp(i H_b). P is the sum of squared block sizes (6, 19 and 44 at
d = 2, 3 and 4), so each restart holds P^2 floats of H (36, 361 and 1,936).
The restarts run in lockstep, so one stacked Cayley step and one stacked
value-and-gradient call per iteration serve all of them, on the P
coordinates alone: no padded generator stack is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedParameterError
from .modes import _check_local_index, _local_gap_measure, _stripe_measure, _two_copy_blocks
# nothing here calls haar_unitary any more; the benchmark's tracer wraps it under this name
from .sampling import haar_stack, haar_unitary
from .states import AllowedUnitary, BipartiteGenerator, DensityMatrix, NumberOperator, _block_mask, _generator_coords, _padded_units

#: first step of every restart, and of every restart after an accepted step
FIRST_STEP = 1.0
#: a rejected trial divides the step by this factor
BACKTRACK = 4.0
#: a trial is accepted when it rises this much per unit of step times <G, D>
#: above the lowest of the restart's recent accepted values
ARMIJO_RISE = 1e-4
#: how many of the last accepted values the Armijo test looks back over
ARMIJO_MEMORY = 10
#: a restart stops as stationary once its squared gradient norm on the scaled
#: stripe blocks (``_search``) falls below this
STATIONARY = 1e-16
#: largest supported local dimension; the parameter count grows as the sum of
#: squared degeneracies (44 real parameters at dimension 4)
MAX_LOCAL_DIM = 4
#: most restarts of one search; they run at once, each holding about 45 kB at dimension 4
MAX_RESTARTS = 10_000


@dataclass(frozen=True)
class UnitarySearchConfig:
    """Search budget and seed."""

    restarts: int = 8
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.restarts <= MAX_RESTARTS:
            raise UnsupportedParameterError(f"restarts must be 1 to {MAX_RESTARTS}, got {self.restarts}")
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

    @functools.cached_property
    def _best(self) -> int:
        """Index of the best restart (``np.argmax`` picks the first largest, or the first NaN), found once."""
        return int(np.argmax(self.history))

    @property
    def best_delta_m(self) -> float:
        """The best restart's gain."""
        return self.history[self._best]

    @property
    def converged(self) -> bool:
        """Whether the best restart stopped stationary."""
        return self.stop_reasons[self._best] == "stationary"

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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (rows, P) coordinate arrays."""
    return (a * b).sum(-1)


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


@functools.cache
def _cayley_layout(d: int) -> tuple:
    """The identity stack, and the float-view places of I - iK/2 each coordinate writes, which coordinate, and its factor.

    A coordinate over its factor is a part of its cell of K and, conjugated, of the mirror cell (on the diagonal,
    the same); -iK/2 makes a real part k -k/2 on the imaginary part and an imaginary part k k/2 on the real part.
    """
    cell, mirror, imag, factor = _generator_coords(d)
    maps = (
        np.broadcast_to(np.eye(d, dtype=complex), (2 * d - 1, d, d)).copy(),
        np.concatenate((2 * cell + ~imag, 2 * mirror + ~imag)),
        np.arange(2 * cell.size) % cell.size,
        np.concatenate((np.where(imag, 0.5, -0.5), np.full(cell.size, -0.5))) / np.tile(factor, 2),
    )
    for m in maps:
        m.setflags(write=False)
    return maps


def _cayley(x: np.ndarray, units: np.ndarray) -> np.ndarray:
    """The Cayley step (I - iK/2)^-1 (I + iK/2) U for (rows, P) generator coordinates of K and padded unitaries U.

    I - iK/2 is written from the coordinates into a copy of the identity stack, bit for bit I - 0.5j K
    (+ 0.0 makes a zero part +0, as there); then 2 (I - iK/2)^-1 U - U, the same map by one batched LU
    solve. In the padding K is zero and the result exactly U. Each row comes out as it would alone.
    """
    eye, write, source, scale = _cayley_layout(units.shape[-1])
    m = np.repeat(eye[None], len(x), axis=0)
    m.view(float).reshape(len(x), -1)[:, write] = x[:, source] * scale + 0.0
    solved = np.linalg.solve(m, units)
    solved *= 2
    solved -= units
    return solved


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


@functools.cache
def _haar_draw_layout(d: int) -> tuple:
    """Length of one draw for every block, and each padded entry's place in it as a read-only (2, 2d - 1, d, d) index.

    The draw runs block after block, real part then imaginary part, row by row.
    Outside the blocks the index points at the draw's length: a zero appended to it.
    """
    inside = np.broadcast_to(_block_mask(d)[:, None], (2 * d - 1, 2, d, d))
    total = int(inside.sum())
    index = np.full(inside.shape, total)
    index[inside] = np.arange(total)
    index = index.swapaxes(0, 1)
    index.setflags(write=False)
    return total, index


def random_allowed_unitary(gen: BipartiteGenerator, rng) -> AllowedUnitary:
    """Independent Haar block per eigenspace; reproducible for a fixed seed.

    The blocks and the state ``rng`` is left in are those of ``haar_unitary(n_c, rng)`` for c = 0..2d-2
    in turn, bit for bit, from one draw and one ``haar_stack`` of the zero-padded block stack, which
    the unitary holds as it is: a padded column's Householder reflection is the identity (tau = 0) and
    ``haar_stack`` maps its zero R diagonal to phase 1, so the padding comes out as the identity.
    """
    total, index = _haar_draw_layout(gen.dim)
    units = haar_stack(*np.append(np.random.default_rng(rng).standard_normal(total), 0.0)[index])
    return AllowedUnitary._from_stack(gen, units)


def _bfgs_update(h: np.ndarray, s: np.ndarray, y: np.ndarray, sy: np.ndarray, fresh: np.ndarray) -> None:
    """Update each h[k] in place by the BFGS inverse update with the pair (s[k], y[k]) where sy[k] = <s, y> > 0.

    Where ``fresh`` (h is still the identity) h is first set to <s, y> / <y, y>
    times the identity (Nocedal & Wright eq. 6.20). The update (eq. 6.17) is
    written as h + u s^T + s u^T, u = (c / 2) s - rho h y, with rho = 1 / <s, y>
    and c = rho + rho^2 <y, h y>, so only one P x P temporary per row is made.
    A finite row without a pair (sy[k] <= 0) gets rho = 1 / inf = 0, so
    u = 0 and h[k] += +-0 leaves it as it was, bit for bit: h never holds
    -0.0, since it starts as the identity's +0.0 and x + (-x) rounds to +0.0.
    """
    pair = sy > 0
    rho = 1.0 / np.where(pair, sy, np.inf)
    first = fresh & pair
    if first.any():
        h *= np.where(first, sy / np.where(first, _dot(y, y), 1.0), 1.0)[:, None, None]
    hy = (h @ y[..., None])[..., 0]
    u = ((rho + rho * rho * _dot(y, hy)) / 2)[:, None] * s - rho[:, None] * hy
    outer = u[:, :, None] * s[:, None, :]
    h += outer
    h += outer.swapaxes(-1, -2)


def _direction(h: np.ndarray, g: np.ndarray) -> tuple:
    """D = h g for each row, and <G, D>; D falls back to G where <G, D> <= 0."""
    dirs = (h @ g[..., None])[..., 0]
    slope = _dot(g, dirs)
    uphill = slope > 0
    if uphill.all():
        return dirs, slope
    return np.where(uphill[:, None], dirs, g), np.where(uphill, slope, _dot(g, g))


def _pick(ok, new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Rows of ``new`` where ``ok``, else rows of ``old``; ``new`` itself when ``ok`` is None."""
    return new if ok is None else np.where(ok.reshape(-1, *(1,) * (new.ndim - 1)), new, old)


def _ascend(units: np.ndarray, blocks: np.ndarray, max_iters: int) -> tuple:
    """Lockstep quasi-Newton ascent from each row of ``units`` (restarts x padded blocks).

    Values and gradients G are ``_stripe_measure``'s on the stripe ``blocks``
    (its gap read from the shapes), G on the P ``_generator_coords`` coordinates,
    all that the loop reads and writes. Every live restart tries the Cayley step
    of alpha D from its point (``_cayley``, built from the coordinates of
    alpha D) in one stacked call, with D = H G (``_direction``) and H each
    restart's inverse-Hessian approximation, the identity at the start. A
    trial is accepted when its value reaches the lowest of the restart's last
    ``ARMIJO_MEMORY`` accepted values plus ``ARMIJO_RISE`` alpha <G, D>; the
    pair s = alpha D, y = G_old - G_new then updates H, and the next trial is
    at alpha = ``FIRST_STEP``. One in-place ``_bfgs_update`` serves every row:
    a rejected trial, or a pair with <s, y> <= 0, gets rho = 0, which leaves
    its H as it was, bit for bit. Gradients at two points are compared as
    they are: the left-trivialised gradient lives in the one Lie algebra of
    every point. A rejected trial divides alpha by ``BACKTRACK``. The start
    and every trial count as one evaluation, so every live restart has made
    the same number, one count for all; a restart stops once |G|^2 <
    ``STATIONARY`` or its budget is spent. The ascent is not monotone, so
    each restart keeps its best point. Each restart carries only what cannot
    be recomputed: its index, point, G, H and whether H is fresh, best value
    and blocks, recent accepted values (the last is its value), alpha and
    rejected trials. |G|^2, D and <G, D> are recomputed from G and H every
    iteration, bit for bit as a stored copy, since a rejected trial changes
    neither. The working arrays hold only the live restarts, in restart
    order: a restart that stops is written out and dropped, so an iteration
    whose trials are all accepted (nearly all of them) gathers and scatters
    nothing.
    Returns per restart the best blocks (written over ``units``), accepted
    steps, rejected trials, stop reasons and final gradient norms.
    """
    value, g = _stripe_measure(units, blocks)
    n, p = g.shape
    ids = np.arange(n)
    # every working array but h and fresh is replaced, never written into,
    # so the best blocks may be the current ones
    best, best_units = value, units
    recent = np.repeat(value[:, None], ARMIJO_MEMORY, axis=1)
    h = np.broadcast_to(np.eye(p), (n, p, p)).copy()
    fresh = np.ones(n, dtype=bool)
    step = np.full(n, FIRST_STEP)
    evals, backtracks = 1, np.zeros(n, dtype=int)
    # per restart, once it stops: best blocks, rejected trials, |G|^2 and evaluations
    out = [units, backtracks.copy(), np.zeros(n), np.ones(n, dtype=int)]
    while True:
        norm2 = _dot(g, g)
        live = (norm2 >= STATIONARY) & (evals < max_iters)
        if not live.all():
            for o, a in zip(out, (best_units, backtracks, norm2, np.full(len(ids), evals))):
                o[ids[~live]] = a[~live]
            if not live.any():
                break
            ids, units, g, best, best_units, recent, h, fresh, step, backtracks = (
                a[live] for a in (ids, units, g, best, best_units, recent, h, fresh, step, backtracks))
        direction, slope = _direction(h, g)
        x = step[:, None] * direction
        trial = _cayley(x, units)
        t_value, t_g = _stripe_measure(trial, blocks)
        ok = t_value >= recent.min(1) + ARMIJO_RISE * step * slope
        took = None if ok.all() else ok
        y = g - t_g
        sy = np.where(ok, _dot(x, y), 0.0)
        _bfgs_update(h, x, y, sy, fresh)
        fresh &= sy <= 0
        units, g = _pick(took, trial, units), _pick(took, t_g, g)
        step = np.where(ok, FIRST_STEP, step / BACKTRACK)
        recent = _pick(took, np.concatenate((recent[:, 1:], t_value[:, None]), 1), recent)
        value = recent[:, -1]
        better = value > best
        best = np.where(better, value, best)
        best_units = _pick(None if better.all() else better, units, best_units)
        evals += 1
        if took is not None:
            backtracks = backtracks + ~ok
    reasons = tuple("stationary" if n < STATIONARY else "eval budget" for n in out[2])
    return out[0], out[3] - 1 - out[1], out[1], reasons, np.sqrt(out[2])


def maximize_delta_m(
    rho: DensityMatrix,
    op: NumberOperator,
    index: int,
    config: UnitarySearchConfig | None = None,
) -> SearchOutcome:
    """Largest local gap-``index`` mode-measure gain from two copies of ``rho``: ``_search`` on rho (x) rho."""
    _check_local_index(op, index, rho)
    if rho.dim > MAX_LOCAL_DIM:
        raise UnsupportedParameterError(f"search supports local dimension up to {MAX_LOCAL_DIM}, got {rho.dim}")
    cfg = config or UnitarySearchConfig()
    return _search(_two_copy_blocks(rho.matrix, index), _local_gap_measure(rho.matrix, index), cfg)


def _search(blocks: np.ndarray, baseline: float, cfg: UnitarySearchConfig) -> SearchOutcome:
    """Largest gap-j measure of the first marginal of U joint U^dagger over covariant U, minus ``baseline``.

    ``blocks`` are the gap-j ``_stripe_blocks`` of ``joint``, any state of two
    d-level systems, d their last axis. Restart r > 0 starts from exp(i H_b), one ``_exp_ih`` per
    block over the restarts, parameters uniform in [-pi, pi]; the identity seeds the first restart, so
    when ``baseline`` is the input's own measure the result is never below zero
    beyond roundoff. The ascent runs on the blocks scaled by 2^-e, with e the binary
    exponent of their largest real or imaginary part, so its absolute
    ``STATIONARY`` and step sizes mean the same at every coherence, and the
    gains and ``grad_norm`` are scaled back by 2^e: a power-of-two multiple of
    ``blocks`` and ``baseline`` gives the same multiple of every gain, bit for
    bit. Callers check ``d`` against ``MAX_LOCAL_DIM``.
    """
    d = blocks.shape[-1]
    sizes = _block_mask(d).any(-1).sum(-1)
    x0 = np.zeros((cfg.restarts, int((sizes**2).sum())))
    x0[1:] = np.random.default_rng(cfg.seed).uniform(-math.pi, math.pi, (cfg.restarts - 1, x0.shape[1]))
    starts = [_exp_ih(_hermitian_from_params(n, x)) for n, x in zip(sizes, np.split(x0, np.cumsum(sizes**2)[:-1], 1))]
    blocks = blocks.view(float)
    # ldexp, not a product with 2.0 ** -e, which overflows for subnormal blocks
    exponent = np.frexp(np.abs(blocks).max(initial=0.0))[1]
    blocks = np.ldexp(blocks, -exponent).view(complex)
    units, accepted, backtracks, reasons, norms = _ascend(_padded_units(starts, d), blocks, cfg.max_iters)
    # a product of many Cayley steps drifts off the unitary group by a few ulp,
    # which the best value would pick up; report each best point's polar factor
    w, _, vh = np.linalg.svd(units)
    units = np.where(_block_mask(d), w @ vh, np.eye(d))
    gains = np.ldexp(_stripe_measure(units, blocks)[0], exponent) - baseline
    top = int(np.argmax(gains))
    return SearchOutcome(
        best_unitary=AllowedUnitary._from_stack(BipartiteGenerator(NumberOperator(d)), units[top]),
        history=tuple(gains.tolist()),
        accepted=int(accepted.sum()),
        backtracks=int(backtracks.sum()),
        stop_reasons=reasons,
        grad_norm=float(np.ldexp(norms[top], exponent)),
    )
