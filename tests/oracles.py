"""Independent numeric oracles and state-file writers for the test suite.

Everything here is implemented from first principles with plain numpy loops
or textbook algorithms, deliberately avoiding the package's own code paths.
Two exceptions. The padded-stack kernels (``stripe_measure_padded``,
``to_coords``, ``from_coords``, ``cayley_padded``) are the search oracle's
earlier kernels, kept as references for the coordinate kernels that
replaced them; the coordinate readers use the package's coordinate
layout. ``sequential_search`` drives the search one restart at a time, its
steps on those kernels and its value, gradient and Hessian from the
package's kernel on a stack of one point, as a reference for the lockstep
loop.
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


def haar_blocks_per_block(gen, rng) -> tuple:
    """One Haar unitary per eigenspace of ``gen``, drawn block by block in eigenspace order.

    Each block draws its real part, then its imaginary part, from ``rng``, and
    is the QR of the complex Gaussian with R's diagonal phases moved into Q.
    This is the reference for ``random_allowed_unitary``'s stacked draw.
    """
    blocks = []
    for c in range(gen.n_eigenvalues):
        n = gen.block_dim(c)
        z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r).copy()
        diag[diag == 0] = 1.0
        blocks.append(q * (diag / np.abs(diag)))
    return tuple(blocks)


def assemble_blocks(gen, blocks) -> np.ndarray:
    """The d^2 x d^2 matrix with block c on the kets of eigenspace c, zero elsewhere."""
    out = np.zeros((gen.total_dim, gen.total_dim), dtype=complex)
    for c, block in enumerate(blocks):
        idx = gen.block_indices(c)
        out[np.ix_(idx, idx)] = block
    return out


def density_to_json(rho) -> dict:
    """State-file form {"dim": d, "re": [[...]], "im": [[...]]} of a density matrix."""
    m = rho.matrix
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def symmetry_images(m: np.ndarray) -> tuple:
    """A state matrix under the symmetries of every gap-j measure, bound and search.

    Complex conjugation, level reversal F m^T F (F flips the d levels, so
    entry (n + j, n) moves to (d - 1 - n, d - 1 - n - j), still on diagonal
    -j), and the two composed, F m F. Each maps the covariant unitaries onto
    themselves.
    """
    flipped = m[::-1, ::-1]
    return m.conj(), flipped.T, flipped


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


def field_rows(radial: int, angular: int) -> list:
    """Rows (nx, nz, dnx, dnz) of one recurrence step on the quarter-disc polar grid, point by point in plain floats.

    Radii and angles are numpy's evenly spaced values, r in [0, 1] and the
    angle in [0, pi/2] from the nx axis, in row-major (r, angle) order.
    """
    rows = []
    for r in np.linspace(0.0, 1.0, radial).tolist():
        for phi in np.linspace(0.0, math.pi / 2.0, angular).tolist():
            x, z = r * math.cos(phi), r * math.sin(phi)
            t = math.hypot(x, 0.0)
            denom = 1.0 + z * z
            rows.append((x, z, t * math.sqrt(denom) - x, z - z * t * t / denom - z))
    return rows


def block_spectra_kron(rho, index: int) -> tuple:
    """(bound1, bound2, baseline) from the eigenspace-pair blocks of rho (x) rho formed by ``np.kron``.

    Block c of the gap-``index`` mode is padded to d x d: entry (n', n) holds
    the coefficient of (|n', c + index - n'>, |n, c - n>), or zero where a ket
    does not exist. One stacked SVD gives every spectrum. Bound 2 adds each
    block's top values up to its count of surviving positions, block by block;
    bound 1 adds the top values of all blocks up to the total count. These are
    the operations, in their order, of the bounds' first implementation, so
    the kron-free path must equal this bit for bit.
    """
    m = rho.matrix
    d = len(m)
    pair = np.kron(m, m)
    blocks = np.zeros((2 * d - 1 - index, d, d), dtype=complex)
    quotas = []
    for c in range(len(blocks)):
        for r in range(d):
            for n in range(d):
                if 0 <= c + index - r < d and 0 <= c - n < d:
                    blocks[c, r, n] = pair[r * d + c + index - r, n * d + c - n]
        quotas.append(sum(1 for n in range(d - index) if 0 <= c - n < d))
    spectra = np.linalg.svd(blocks, compute_uv=False)
    bound2 = sum(float(values[:quota].sum()) for values, quota in zip(spectra, quotas))
    bound1 = float(np.sort(spectra, axis=None)[::-1][: sum(quotas)].sum())
    baseline = float(np.abs(np.diagonal(m, offset=-index)).sum())
    return bound1 - baseline, bound2 - baseline, baseline


def stripe_measure_padded(units: np.ndarray, blocks: np.ndarray, index: int) -> tuple:
    """The stripe measure and its gradient before symmetrising, as the padded stack S_b = i A_{b-j} W^T - i W^T A_b.

    The form of ``modes._stripe_measure`` before it returned coordinates, kept
    as its reference: its value must equal the kernel's bit for bit, and
    ``to_coords`` of S the kernel's G to within 2 ulps of each row's largest |G|.
    z_n adds its terms in order from a complex zero.
    """
    d, pairs = units.shape[-1], len(blocks)
    a = units[..., index : index + pairs, :, :] @ blocks @ units[..., :pairs, :, :].conj().swapaxes(-1, -2)
    stripe = np.diagonal(a, -index, -2, -1)
    z = sum((stripe[..., c, :] for c in range(pairs)), np.zeros((*a.shape[:-3], max(d - index, 0)), complex))
    size = np.abs(z)
    w = z.conj() / np.where(size < np.finfo(float).tiny, 1.0, size)
    grad = np.zeros(units.shape, dtype=complex)
    grad[..., index : index + pairs, :, index:] = 1j * (a[..., : d - index] * w[..., None, None, :])
    grad[..., :pairs, : d - index, :] -= 1j * (w[..., None, :, None] * a[..., index:, :])
    return size.sum(-1), grad


def to_coords(stack: np.ndarray) -> np.ndarray:
    """The (rows, P) ``_generator_coords`` coordinates of the Hermitian part (S + S^H) / 2 of a padded block stack S.

    The Hermitian part is formed only at the entries read, each as
    (S_rc + conj(S_cr)) / 2, halved before the factor is applied.
    """
    from coherence_lab.states import _generator_coords

    cell, mirror, imag, factor = _generator_coords(stack.shape[-1])
    flat = stack.reshape(len(stack), -1)
    entries = (np.take(flat, cell, axis=1) + np.take(flat, mirror, axis=1).conj()) / 2
    return np.take(entries.view(float), 2 * np.arange(cell.size) + imag, axis=1) * factor


def from_coords(x: np.ndarray, d: int) -> np.ndarray:
    """The (rows, 2d - 1, d, d) Hermitian block stack of (rows, P) coordinates, zero outside the blocks.

    Each coordinate times 1 / factor goes to its cell, and, right of the
    diagonal, to the mirror cell too, conjugated.
    """
    from coherence_lab.states import _generator_coords

    cell, mirror, imag, factor = _generator_coords(d)
    twin = cell != mirror
    out = np.zeros((len(x), 2 * (2 * d - 1) * d * d))
    out[:, 2 * cell + imag] = x * (1 / factor)
    out[:, (2 * mirror + imag)[twin]] = x[:, twin] * (np.where(imag, -1.0, 1.0) / factor)[twin]
    return out.view(complex).reshape(len(x), 2 * d - 1, d, d)


def cayley_padded(k: np.ndarray, units: np.ndarray) -> np.ndarray:
    """The Cayley step 2 (I - iK/2)^-1 U - U for stacks of Hermitian K and unitary U, K given as a matrix stack."""
    solved = np.linalg.solve(np.eye(k.shape[-1]) - 0.5j * k, units)
    solved *= 2
    solved -= units
    return solved


def _sequential_ascent(blocks: np.ndarray, index: int, unit: np.ndarray, max_iters: int) -> tuple:
    """One restart of the regularised Newton ascent from padded blocks ``unit``, kept on a stack of one point.

    Values, gradients G and Hessians H come from the package's kernel on a
    stack of one, and each trial is the Cayley step (``cayley_padded``) of
    ``from_coords`` of alpha D from the current point. The step rule is
    written out with scalars: at the start and after each accepted trial, D
    solves (|G| I - H) D = G and falls back to G when it is not uphill, and
    the next step is the first step again; after each rejected trial the
    step is divided by the backtracking factor and D is kept; the Armijo
    test compares against the last accepted values held in a bounded deque.
    """
    from collections import deque

    from coherence_lab.modes import _stripe_measure
    from coherence_lab.optimizer import (
        ARMIJO_MEMORY,
        ARMIJO_RISE,
        BACKTRACK,
        FIRST_STEP,
        STATIONARY,
        _dot,
    )

    def newton(grad, hessian, norm2):
        direction = np.linalg.solve(math.sqrt(norm2) * np.eye(grad.shape[1]) - hessian[0], grad[0])[None]
        slope = _dot(grad, direction)[0]
        return (direction, slope) if slope > 0 else (grad, norm2)

    d = unit.shape[-1]
    unit = unit[None]
    value, grad, hessian = _stripe_measure(unit, blocks)
    norm2 = _dot(grad, grad)[0]
    best, best_unit = value[0], unit
    recent = deque([value[0]] * ARMIJO_MEMORY, maxlen=ARMIJO_MEMORY)
    if norm2 >= STATIONARY:
        direction, slope = newton(grad, hessian, norm2)
    step = FIRST_STEP
    evals, accepted, backtracks = 1, 0, 0
    while norm2 >= STATIONARY and evals < max_iters:
        trial = cayley_padded(from_coords(np.array([step])[:, None] * direction, d), unit)
        t_value, t_grad, t_hessian = _stripe_measure(trial, blocks)
        evals += 1
        if t_value[0] >= min(recent) + ARMIJO_RISE * step * slope:
            unit, value, grad, hessian = trial, t_value, t_grad, t_hessian
            norm2 = _dot(grad, grad)[0]
            if norm2 >= STATIONARY:
                direction, slope = newton(grad, hessian, norm2)
            step = FIRST_STEP
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

    Each block of each start is its own ``_exp_ih`` call, and the ascent
    runs on the padded-stack kernels (``_sequential_ascent``). Returns the
    ``SearchOutcome`` and each restart's evaluation count.
    """
    from coherence_lab.modes import _local_gap_measure, _stripe_blocks
    from coherence_lab.optimizer import SearchOutcome, _exp_ih, _hermitian_from_params
    from coherence_lab.states import AllowedUnitary, BipartiteGenerator, _block_mask, _padded_units

    d = rho.dim
    gen = BipartiteGenerator(op)
    sizes = [gen.block_dim(c) for c in range(gen.n_eigenvalues)]
    n_params = sum(n * n for n in sizes)
    blocks = _stripe_blocks(np.kron(rho.matrix, rho.matrix), d, index).view(float)
    exponent = int(np.frexp(np.abs(blocks).max(initial=0.0))[1])
    blocks = np.ldexp(blocks, -exponent).view(complex)
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
            blocks, index, _padded_units(starts, d), config.max_iters
        )
        w, _, vh = np.linalg.svd(unit)
        unit = np.where(_block_mask(d), w @ vh, np.eye(d))
        gain = float(np.ldexp(stripe_measure_padded(unit[None], blocks, index)[0][0], exponent) - baseline)
        history.append(gain)
        reasons.append(reason)
        evals.append(n_evals)
        accepted += n_accepted
        backtracks += n_backtracks
        if best is None or gain > best[0]:
            best = gain, unit, reason, math.ldexp(norm, exponent)
    gain, unit, reason, norm = best
    outcome = SearchOutcome(
        best_unitary=AllowedUnitary._from_stack(gen, unit),
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


def stripe_hessian_dense(units: np.ndarray, blocks: np.ndarray, index: int) -> np.ndarray:
    """The (rows, P, P) Hessian of f(exp(i K(x)) U) at x = 0 in the generator coordinates, by dense einsums.

    Each coordinate's generator E_k is ``from_coords`` of a unit vector. A_c
    moves to A_c + i (K_{c+j} A_c - A_c K_c) + K_{c+j} A_c K_c - 1/2 K_{c+j}^2
    A_c - 1/2 A_c K_c^2 + O(K^3), so z_n has first derivatives dz_nk and
    second derivatives d2z_nkl read at (n + j, n) and summed over the pairs,
    and |z| has the Hessian Re(w d2z) + Im(w dz_k) Im(w dz_l) / |z|, with
    w = conj(z) / |z|; the second term is left out where |z| is 0 or
    subnormal, and w there is conj(z), as in the package's kernel.
    """
    d, pairs = units.shape[-1], len(blocks)
    p = sum(n * n for n in range(1, d + 1)) + sum(n * n for n in range(1, d))
    e = from_coords(np.eye(p), d)
    upper, lower = e[:, index : index + pairs], e[:, :pairs]
    a = units[:, index : index + pairs] @ blocks @ units[:, :pairs].conj().swapaxes(-1, -2)
    z = np.diagonal(a, -index, -2, -1).sum(1)
    size = np.abs(z)
    tiny = size < np.finfo(float).tiny
    w = z.conj() / np.where(tiny, 1.0, size)
    first = 1j * (np.einsum("kcxy,rcyz->rkcxz", upper, a) - np.einsum("rcxy,kcyz->rkcxz", a, lower))
    dz = np.diagonal(first, -index, -2, -1).sum(2)
    cross = np.einsum("kcxy,rcyz,lczt->rklcxt", upper, a, lower)
    square = np.einsum("kbxy,lbyz->klbxz", e, e)
    square = square + square.swapaxes(0, 1)
    second = (cross + cross.swapaxes(1, 2)
              - 0.5 * np.einsum("klcxy,rcyz->rklcxz", square[:, :, index : index + pairs], a)
              - 0.5 * np.einsum("rcxy,klcyz->rklcxz", a, square[:, :, :pairs]))
    d2z = np.diagonal(second, -index, -2, -1).sum(3)
    slope = (w[:, None, :] * dz).imag
    return (np.einsum("rn,rkln->rkl", w, d2z).real
            + np.einsum("rkn,rln,rn->rkl", slope, slope, np.where(tiny, 0.0, 1.0 / np.where(tiny, 1.0, size))))
