"""Independent reference oracles.

These routines deliberately avoid the main code paths (and, for the
eigensolver, numpy.linalg) so they can arbitrate disagreements: a
brute-force grid-plus-golden-section argmin that solves a block of 1-D
problems in one call, a cyclic Jacobi eigensolver, central finite
differences, and a sampled global-inequality checker built on the
deterministic RNG in :mod:`absprox.rng`.

``QuadraticForm`` takes its spectrum from LAPACK (``numpy.linalg.eigh``).
The Jacobi solver is far slower, so it serves only as the cross-check of
that spectrum, whose accuracy does not rest on LAPACK, and as the source of
the ``auto_eigen`` reference point, whose bits the bundled sweep CSVs record.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .rng import XorShift64Star

# inverse golden ratio, 2/(1+sqrt(5))
_INVPHI = 2.0 / (1.0 + np.sqrt(5.0))
# golden section stops at this relative bracket width or iteration count
_GOLDEN_TOL = 1e-12
_GOLDEN_MAX_ITER = 400
# points of the coarse scan in grid_argmin_1d, and the problems it scans at
# a time: 4 rows of 10k doubles make a 312.5 KiB block of values.  With an
# objective that writes into one buffer, 8 or 16 rows scan within a few per
# cent of 4 but peak at 1.6 or 2.8 MiB under tracemalloc, against 1.0 MiB
_GRID_NUM = 10_000
_SCAN_ROWS = 4
# Jacobi stops at this relative off-diagonal norm or sweep count
_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 60
# central-difference step, relative to max(1, ||x||)
_FD_STEP = 1e-6
# half-width of the sampler's box around x
_SAMPLER_RADIUS = 10.0


def golden_section_min(h: Callable[[np.ndarray], np.ndarray], lo, hi) -> np.ndarray:
    """Minimize unimodal functions by golden section, one lane per bracket.

    ``lo`` and ``hi`` are brackets of any matching shape, and ``h`` maps an
    array of points of that shape, one per lane, to their values.  All lanes
    step in lock step, and a lane whose bracket width has fallen below
    ``_GOLDEN_TOL`` relative to max(1, |a|, |b|) stays frozen while the
    others go on, so each lane ends where a run on its bracket alone
    would.  Returns the midpoints of the final brackets.
    """
    a, b = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    h1, h2 = h(x1), h(x2)
    for _ in range(_GOLDEN_MAX_ITER):
        live = (b - a) > _GOLDEN_TOL * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))
        if not live.any():
            break
        # a live lane keeps [a, x2] when h1 <= h2, else [x1, b]; a frozen
        # lane keeps its bracket, and its inner points no longer matter
        left = live & (h1 <= h2)
        right = live ^ left
        b = np.where(left, x2, b)
        a = np.where(right, x1, a)
        step = _INVPHI * (b - a)
        new = np.where(left, b - step, a + step)
        h_new = h(new)
        x1, x2 = np.where(left, new, x2), np.where(left, x1, new)
        h1, h2 = np.where(left, h_new, h2), np.where(left, h1, h_new)
    return 0.5 * (a + b)


def grid_argmin_1d(h: Callable[..., np.ndarray], lo: float, hi: float, *params):
    """Global argmins of the functions z -> h(z, *p_i) on [lo, hi].

    Each row i of the 1-D parameter arrays ``params`` is one problem, and
    ``h`` is called on arrays that broadcast: the coarse scan passes the
    ``_GRID_NUM``-point grid with parameter columns of ``_SCAN_ROWS`` rows
    at a time and expects a ``(rows, _GRID_NUM)`` block, and golden section
    and the polish pass one point per problem with the parameter arrays
    themselves.  So h always sees arrays, and its ``**`` multiplies (C
    ``pow`` on Python floats can differ in the last bit).  Each row equals
    the one-problem call ``grid_argmin_1d(lambda z: h(z, *p_i), lo, hi)``
    bit for bit.

    The scan picks the best grid point of each problem, then golden section
    searches the two neighbouring cells.  A problem whose scan holds a NaN
    has no trusted argmin, and its row is NaN.  With no ``params`` this
    solves the one problem z -> h(z) and returns a float; with ``params``
    it returns an array of argmins, one per row.  Raises ValueError if the
    scan's values do not have the broadcast shape.
    """
    grid = np.linspace(lo, hi, _GRID_NUM)
    params = [np.asarray(p, dtype=float) for p in params]
    k = _scan_argmin(h, grid, params)
    lanes = lambda z: h(z, *params)
    a = grid[np.maximum(k - 1, 0)]
    b = grid[np.minimum(k + 1, _GRID_NUM - 1)]
    z = golden_section_min(lanes, a, b)
    # Value-only search cannot localize a smooth valley floor better than
    # ~sqrt(eps*|h|/h''), so polish with one finite-difference Newton step.
    # The step is capped at the stencil width and rejected unless the value
    # weakly improves, which keeps kink-bottom minimizers untouched.
    d = 1e-5 * np.maximum(1.0, np.abs(z))
    h0, hp, hm = lanes(z), lanes(z + d), lanes(z - d)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g1 = (hp - hm) / (2.0 * d)
        g2 = (hp - 2.0 * h0 + hm) / (d * d)
        newton = np.isfinite(g1) & np.isfinite(g2) & (g2 > 0.0)
        step = np.where(newton, -g1 / g2, 0.0)
    newton &= np.abs(step) <= d
    cand = np.where(newton, np.minimum(np.maximum(z + step, lo), hi), z)
    tol_h = 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(h0))
    z = np.where(newton & (lanes(cand) <= h0 + tol_h), cand, z)
    z = np.where(k < 0, np.nan, z)
    return z if params else float(z[0])


def _scan_argmin(h, grid, params) -> np.ndarray:
    """Index of each problem's least grid value, or -1 if its scan holds a
    NaN, scanning ``_SCAN_ROWS`` problems at a time so each block of values
    stays cache-sized."""
    m = len(params[0]) if params else 1
    k = np.empty(m, dtype=int)
    for i in range(0, m, _SCAN_ROWS):
        cols = [p[i:i + _SCAN_ROWS, None] for p in params]
        vals = np.asarray(h(grid, *cols), dtype=float)
        if vals.shape != np.broadcast_shapes(grid.shape, *(c.shape for c in cols)):
            raise ValueError(f"h gave values of shape {vals.shape} on the scan")
        vals = vals.reshape(-1, _GRID_NUM)
        # argmin returns the first NaN of a row if it has one
        ki = np.argmin(vals, axis=1)
        k[i:i + _SCAN_ROWS] = np.where(np.isnan(vals[np.arange(len(ki)), ki]), -1, ki)
    return k


def eig_sym(q: np.ndarray):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    columns ``v[:, i]``.  Raises ``ValueError`` on an asymmetric input.
    Iterates until the off-diagonal Frobenius norm falls below
    ``_JACOBI_TOL`` relative to the matrix norm.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(q, q.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(q).max())):
        raise ValueError("matrix is not symmetric")
    n = q.shape[0]
    a = q.copy()
    v = np.eye(n)
    rot = np.eye(n)  # the identity between rotations
    scale = max(1.0, np.linalg.norm(q))

    def offdiag(m):
        return np.sqrt(np.sum(np.tril(m, -1) ** 2) * 2.0)

    for _ in range(_JACOBI_MAX_SWEEPS):
        if offdiag(a) <= _JACOBI_TOL * scale:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                if abs(a[p, r]) <= 1e-300:
                    continue
                # classical 2x2 rotation angle
                theta = 0.5 * np.arctan2(2.0 * a[p, r], a[r, r] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot[p, p] = c
                rot[r, r] = c
                rot[p, r] = s
                rot[r, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
                rot[p, p] = rot[r, r] = 1.0
                rot[p, r] = rot[r, p] = 0.0
    w = np.diag(a).copy()
    order = np.argsort(w)
    return w[order], v[:, order]


def fd_gradient(g: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient with step 1e-6 * max(1, ||x||)."""
    x = np.asarray(x, dtype=float)
    h = _FD_STEP * max(1.0, float(np.linalg.norm(x)))
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (g(x + e) - g(x - e)) / (2.0 * h)
    return out


def subgrad_inequality_sampler(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    a: float,
    u: np.ndarray,
    num: int = 1000,
    seed: int = 1,
) -> dict:
    """Sampled check of the global inequality f(y)-f(x) >= phi(y)-phi(x).

    phi(y) = -a||y||^2 + <u, y>.  ``f`` maps a block (m, n) of points to
    their m values, and is called once, on x, then ``num`` uniform draws
    from the box x +/- 10, then the 2n axis-aligned extreme points of that
    box.  Reports the worst margin over the draws and extreme points.
    Passes when the margin stays above -1e-9.  A NaN margin fails the check
    and the first one is reported as the worst; a point outside an
    indicator's domain has f(y) = +inf, a margin of +inf, and passes.  When
    no margin is below +inf the reported point is x.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    n = x.size
    rng = XorShift64Star(seed)
    extremes = np.tile(x, (2 * n, 1))
    axes = np.arange(n)
    r = _SAMPLER_RADIUS
    extremes[2 * axes, axes] -= r
    extremes[2 * axes + 1, axes] += r
    pts = np.vstack([x, rng.uniform_vector(x - r, x + r, (num, n)), extremes])

    vals = np.asarray(f(pts), dtype=float)
    phi = -a * np.vecdot(pts, pts) + np.vecdot(pts, u)
    margins = (vals[1:] - vals[0]) - (phi[1:] - phi[0])
    # argmin returns the first NaN if there is one, else the first minimum
    k = int(np.argmin(margins))
    worst = float(margins[k])
    return {
        "passed": bool(worst >= -1e-9),
        "worst_margin": worst,
        "worst_point": x if worst == np.inf else pts[k + 1],
        "num_points": len(margins),
    }
