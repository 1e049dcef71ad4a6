"""Independent reference oracles.

These routines deliberately avoid the main code paths (and, for the
eigensolver, numpy.linalg) so they can arbitrate disagreements: a slow
grid-plus-golden-section argmin, a cyclic Jacobi eigensolver, central
finite differences, and a sampled global-inequality checker built on the
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
# points of the coarse scan in grid_argmin_1d
_GRID_NUM = 10_000
# Jacobi stops at this relative off-diagonal norm or sweep count
_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 60
# central-difference step, relative to max(1, ||x||)
_FD_STEP = 1e-6
# half-width of the sampler's box around x
_SAMPLER_RADIUS = 10.0


def golden_section_min(h: Callable[[float], float], lo: float, hi: float) -> float:
    """Minimize a unimodal scalar function on [lo, hi] by golden section."""
    a, b = float(lo), float(hi)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    h1, h2 = h(x1), h(x2)
    it = 0
    while (b - a) > _GOLDEN_TOL * max(1.0, abs(a), abs(b)) and it < _GOLDEN_MAX_ITER:
        if h1 <= h2:
            b, x2, h2 = x2, x1, h1
            x1 = b - _INVPHI * (b - a)
            h1 = h(x1)
        else:
            a, x1, h1 = x1, x2, h2
            x2 = a + _INVPHI * (b - a)
            h2 = h(x2)
        it += 1
    return 0.5 * (a + b)


def grid_argmin_1d(h: Callable[[float], float], lo: float, hi: float) -> float:
    """Global argmin of a scalar function on [lo, hi].

    Coarse scan over ``_GRID_NUM`` points picks the best bracket, then golden
    section polishes inside the two neighbouring cells.  The scan tries a
    vectorized call first and falls back to a Python loop for callables
    that only accept scalars.
    """
    grid = np.linspace(lo, hi, _GRID_NUM)
    try:
        vals = np.asarray(h(grid), dtype=float)
        if vals.shape != grid.shape:
            raise TypeError
    except Exception:
        vals = np.array([h(float(t)) for t in grid], dtype=float)
    k = int(np.argmin(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, _GRID_NUM - 1)]
    hs = lambda t: float(h(float(t)))
    z = golden_section_min(hs, a, b)
    # Value-only search cannot localize a smooth valley floor better than
    # ~sqrt(eps*|h|/h''), so polish with one finite-difference Newton step.
    # The step is capped at the stencil width and rejected unless the value
    # weakly improves, which keeps kink-bottom minimizers untouched.
    d = 1e-5 * max(1.0, abs(z))
    h0, hp, hm = hs(z), hs(z + d), hs(z - d)
    g1 = (hp - hm) / (2.0 * d)
    g2 = (hp - 2.0 * h0 + hm) / (d * d)
    if np.isfinite(g1) and np.isfinite(g2) and g2 > 0.0:
        step = -g1 / g2
        cand = min(max(z + step, lo), hi)
        tol_h = 8.0 * np.finfo(float).eps * max(1.0, abs(h0))
        if abs(step) <= d and hs(cand) <= h0 + tol_h:
            return cand
    return z


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
