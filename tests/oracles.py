"""Independent numeric oracles and state-file writers for the test suite.

Everything here is implemented from first principles with plain numpy loops
or textbook algorithms, deliberately avoiding the package's own code paths.
The one exception is ``sequential_search``: it drives the search oracle's own
kernels one restart at a time, as a reference for the lockstep loop's
bookkeeping rather than for its kernels.
"""

import math

import numpy as np


def kron_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product by its four-index definition."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def hermitian_from_params_loops(n: int, params: np.ndarray) -> np.ndarray:
    """Hermitian matrix from its diagonal, then (real, imaginary) upper-triangle pairs row by row."""
    h = np.zeros((n, n), dtype=complex)
    for r in range(n):
        h[r, r] = params[r]
    k = n
    for r in range(n):
        for c in range(r + 1, n):
            h[r, c] = params[k] + 1j * params[k + 1]
            h[c, r] = params[k] - 1j * params[k + 1]
            k += 2
    return h


def expm_taylor(a: np.ndarray, terms: int = 30) -> np.ndarray:
    """Matrix exponential by scaling and squaring: a truncated Taylor series of a / 2^s, squared s times.

    s brings the 1-norm of a / 2^s to at most 1/2, where 30 terms leave a
    truncation error far below double precision.
    """
    a = np.asarray(a, dtype=complex)
    norm = max((sum(abs(a[r, c]) for r in range(a.shape[0])) for c in range(a.shape[1])), default=0.0)
    squarings = max(0, math.ceil(math.log2(2.0 * norm))) if norm > 0.0 else 0
    a = a / 2.0**squarings
    out = term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def density_to_json(rho) -> dict:
    """State-file form {"dim": d, "re": [[...]], "im": [[...]]} of a density matrix."""
    m = rho.matrix
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def partial_trace_b_loops(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Second-factor partial trace by its element formula."""
    out = np.zeros((dim_a, dim_a), dtype=complex)
    for i in range(dim_a):
        for j in range(dim_a):
            out[i, j] = sum(m[i * dim_b + k, j * dim_b + k] for k in range(dim_b))
    return out


def partial_trace_a_loops(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """First-factor partial trace by its element formula."""
    out = np.zeros((dim_b, dim_b), dtype=complex)
    for i in range(dim_b):
        for j in range(dim_b):
            out[i, j] = sum(m[k * dim_b + i, k * dim_b + j] for k in range(dim_a))
    return out


def jacobi_eigvalsh(a: np.ndarray, max_sweeps: int = 100, tol: float = 1e-13) -> np.ndarray:
    """Cyclic Jacobi diagonalization of a complex Hermitian matrix; ascending eigenvalues."""
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    for _ in range(max_sweeps):
        largest = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                mag = abs(a[p, q])
                largest = max(largest, mag)
                if mag <= tol:
                    continue
                phase = a[p, q] / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n, dtype=complex)
                rot[p, p] = c
                rot[p, q] = s * phase
                rot[q, p] = -s * np.conj(phase)
                rot[q, q] = c
                a = rot.conj().T @ a @ rot
        if largest <= tol:
            break
    return np.sort(a.diagonal().real)


def jacobi_singular_values(m: np.ndarray) -> np.ndarray:
    """Descending singular values as square roots of Jacobi eigenvalues of m^dagger m."""
    m = np.asarray(m, dtype=complex)
    w = jacobi_eigvalsh(m.conj().T @ m)
    return np.sqrt(np.clip(w, 0.0, None))[::-1]


def two_copy_step(nx: float, nz: float) -> tuple:
    """One optimal concentration layer by direct 4x4 simulation of two copies.

    Input is a Bloch vector in the ny = 0 plane with nx >= 0; returns the
    output (nx, nz).
    """
    p00 = (1.0 + nz) / 2.0
    p01 = nx / 2.0
    rho = np.array([[p00, p01], [p01, 1.0 - p00]], dtype=complex)
    v = 2.0 * p00 - 1.0
    scale = np.sqrt(1.0 + v * v)
    c, s = 1.0 / scale, v / scale
    u = np.array(
        [[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]], dtype=complex
    )
    big = u @ np.kron(rho, rho) @ u.conj().T
    red = big.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    return float(2.0 * red[0, 1].real), float(2.0 * red[0, 0].real - 1.0)


def concat_trajectory(nx: float, nz: float, max_steps: int, eps: float) -> list:
    """Points (nx, nz) of the concatenation recurrence iterated in plain floats, start included.

    Stops after the first point with |nz| < eps, at the first step that
    leaves the point unchanged, or after ``max_steps`` steps.
    """
    points = [(abs(nx), nz)]
    while abs(points[-1][1]) >= eps and len(points) <= max_steps:
        x, z = points[-1]
        denom = 1.0 + z * z
        points.append((x * math.sqrt(denom), z - z * x * x / denom))
        if points[-1] == points[-2]:
            break
    return points


def _sequential_ascent(objective, unit: np.ndarray, max_iters: int) -> tuple:
    """One restart of the gradient ascent from padded blocks ``unit``, kept on a stack of one point.

    The step rule is written out with scalars: a Barzilai-Borwein step after
    each accepted trial, a division by the backtracking factor after each
    rejected one, and the Armijo test against the last accepted values held
    in a bounded deque.
    """
    from collections import deque

    from coherence_lab.modes import _block_mask
    from coherence_lab.optimizer import (
        ARMIJO_MEMORY,
        ARMIJO_RISE,
        BACKTRACK,
        FIRST_STEP,
        STATIONARY,
        STEP_RANGE,
        _exp_ih,
        _inner,
    )

    mask, eye = _block_mask(unit.shape[-1]), np.eye(unit.shape[-1])
    unit = unit[None]
    value, grad = objective(unit)
    norm2 = _inner(grad, grad)[0]
    best, best_unit = value[0], unit
    recent = deque([value[0]] * ARMIJO_MEMORY, maxlen=ARMIJO_MEMORY)
    step = np.array([FIRST_STEP])
    evals, accepted, backtracks = 1, 0, 0
    while norm2 >= STATIONARY and evals < max_iters:
        trial = np.where(mask, _exp_ih(step[:, None, None, None] * grad), eye) @ unit
        t_value, t_grad = objective(trial)
        evals += 1
        if t_value[0] >= min(recent) + ARMIJO_RISE * step[0] * norm2:
            curvature = _inner(grad, grad - t_grad)[0]
            if curvature > 0:
                step = np.array([min(max(step[0] * norm2 / curvature, STEP_RANGE[0]), STEP_RANGE[1])])
            else:
                step = np.array([STEP_RANGE[1]])
            unit, value, grad = trial, t_value, t_grad
            norm2 = _inner(grad, grad)[0]
            recent.append(value[0])
            accepted += 1
            if value[0] > best:
                best, best_unit = value[0], unit
        else:
            step = step / BACKTRACK
            backtracks += 1
    reason = "stationary" if norm2 < STATIONARY else "eval budget"
    return best_unit[0], evals, accepted, backtracks, reason, math.sqrt(norm2)


def sequential_search(rho, op, index: int, config) -> tuple:
    """``maximize_delta_m`` run one restart after another, each on a stack of one point.

    Returns the ``SearchOutcome`` and each restart's evaluation count.
    """
    import functools

    from coherence_lab.modes import (
        _block_mask,
        _local_gap_measure,
        _padded_units,
        _stripe_blocks,
        _stripe_measure,
    )
    from coherence_lab.optimizer import SearchOutcome, _exp_ih, _hermitian_from_params
    from coherence_lab.states import AllowedUnitary, BipartiteGenerator

    d = rho.dim
    gen = BipartiteGenerator(op)
    sizes = [gen.block_dim(c) for c in range(gen.n_eigenvalues)]
    n_params = sum(n * n for n in sizes)
    blocks = _stripe_blocks(np.kron(rho.matrix, rho.matrix), d, index)
    objective = functools.partial(_stripe_measure, blocks=blocks, index=index)
    baseline = _local_gap_measure(rho.matrix, index)
    rng = np.random.default_rng(config.seed)
    best = None
    history, reasons, evals = [], [], []
    accepted = backtracks = 0
    for restart in range(config.restarts):
        x0 = np.zeros(n_params) if restart == 0 else rng.uniform(-math.pi, math.pi, n_params)
        starts, first = [], 0
        for n in sizes:
            starts.append(_exp_ih(_hermitian_from_params(n, x0[first : first + n * n])))
            first += n * n
        unit, n_evals, n_accepted, n_backtracks, reason, norm = _sequential_ascent(
            objective, _padded_units(starts, d), config.max_iters
        )
        w, _, vh = np.linalg.svd(unit)
        unit = np.where(_block_mask(d), w @ vh, np.eye(d))
        gain = float(objective(unit[None])[0][0] - baseline)
        history.append(gain)
        reasons.append(reason)
        evals.append(n_evals)
        accepted += n_accepted
        backtracks += n_backtracks
        if best is None or gain > best[0]:
            best = gain, unit, reason, norm
    gain, unit, reason, norm = best
    outcome = SearchOutcome(
        best_unitary=AllowedUnitary(gen, tuple(u[m].reshape(n, n) for u, m, n in zip(unit, _block_mask(d), sizes))),
        history=tuple(history),
        accepted=accepted,
        backtracks=backtracks,
        stop_reasons=tuple(reasons),
        grad_norm=norm,
    )
    # the outcome derives these from its fields; they must agree with this
    # loop's own choice of the first strictly best restart and its count
    assert outcome.best_delta_m == gain
    assert outcome.converged is (reason == "stationary")
    assert outcome.evals == sum(evals)
    return outcome, evals
