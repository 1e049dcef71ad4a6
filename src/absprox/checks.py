"""Cross-checks of the analytic code paths against the independent oracles.

Each check runs on the draws its caller passes in and returns a list of
``(label, ok, detail)`` results.  ``absprox verify`` runs them all on one
xorshift64* stream (:func:`verify_results`); the acceptance criteria call
the same checks with their own draws and add their own clauses.  A NaN
anywhere in a compared quantity fails its check.
"""

from __future__ import annotations

import numpy as np

from . import prox
from .oracles import (AbsPlusSquare, NormSquare, QuadraticForm, eval_oracle, feasible_range,
                      subgrad_at)
from .phi import PhiElement, ResultKind, duality_map_element, duality_map_inverse
from .reference import eig_sym, grid_argmin_1d, subgrad_inequality_sampler
from .rng import XorShift64Star

__all__ = ["Q3", "Q5", "spectra", "closed_form_prox", "certificates",
           "below_threshold_control", "duality_round_trip", "verify_results"]

# indefinite symmetric matrices with eigenvalues (-4, 2, 4) and (-3, -1, 1, 2, 2)
Q3 = np.array([[-2.0, 2, 2], [2, 2, -2], [2, -2, 2]])
Q5 = np.array([[1.0, 0, -1, 1, 0], [0, 1, 1, -1, 0], [-1, 1, -1, 1, 1],
               [1, -1, 1, -1, 1], [0, 0, 1, 1, 1]])


def _close(got, want) -> bool:
    return np.allclose(got, want, rtol=0, atol=1e-9)


def spectra() -> list[tuple[str, bool, str]]:
    """The Jacobi arbiter against the known spectra of Q3 and Q5, and the
    LAPACK spectra that ``QuadraticForm`` runs on against the arbiter."""
    w3, v3 = eig_sym(Q3)
    w5, _ = eig_sym(Q5)
    l3, l5 = QuadraticForm(Q3).eigenvalues, QuadraticForm(Q5).eigenvalues
    residual = float(np.abs(Q3 @ v3 - v3 @ np.diag(w3)).max())
    return [
        ("eigendecomposition 3x3 -> (-4, 2, 4), Jacobi and LAPACK",
         _close(w3, [-4, 2, 4]) and _close(l3, w3), f"Jacobi {w3}, LAPACK {l3}"),
        ("eigendecomposition 5x5 -> (-3, -1, 1, 2, 2), Jacobi and LAPACK",
         _close(w5, [-3, -1, 1, 2, 2]) and _close(l5, w5), f"Jacobi {w5}, LAPACK {l5}"),
        ("eigenvector residual ||Qv - wv|| small", residual <= 1e-9, f"residual {residual:.3g}"),
    ]


def _prox_objective(z, w, x0):
    # |z| + z^2 + w (z - x0)^2 with its operations in that order, so every
    # value keeps its bits, and the weighted term written into one buffer
    out = np.subtract(z, x0)
    np.square(out, out=out)
    np.multiply(w, out, out=out)
    return np.add(np.abs(z) + z * z, out, out=out)


def closed_form_prox(rng: XorShift64Star, draws: int) -> list[tuple[str, bool, str]]:
    """The closed-form prox of |x| + x^2 against the grid argmin, to 1e-8,
    on ``draws`` draws of (gamma, a0, x0) from ``rng``, taken as one
    ``uniform_vector`` block whose rows are the draws.  The closed form
    runs once per draw; the grid argmin solves all the draws' problems
    z -> |z| + z^2 + w (z - x0)^2, w = 1/(2 gamma) + a0, in one block call,
    and a NaN argmin fails the check.  That objective writes its terms into
    one buffer: with fresh temporaries, each of the scan's chunks faulted
    their pages in again, and that was most of the check's time."""
    # one block of draws, each column mapped as XorShift64Star.uniform maps a draw
    d = rng.uniform_vector(0.0, 1.0, (draws, 3))
    gamma = 0.01 + (10.0 - 0.01) * d[:, 0]
    lo = -1.0 / (2.0 * gamma)
    a0 = lo + (10.0 - lo) * d[:, 1]
    centre = -20.0 + 40.0 * d[:, 2]
    # looked up at call time, so a patched closed form is what gets checked
    closed = np.array([prox.prox_abs_square_closed_form(*case)
                       for case in zip(centre.tolist(), gamma.tolist(), a0.tolist())])
    w = 0.5 / gamma + a0
    brute = grid_argmin_1d(_prox_objective, -25.0, 25.0, w, centre)
    worst = float(np.max(np.abs(closed - brute)))
    return [(f"closed-form prox of |x|+x^2 matches brute-force argmin ({draws} draws)",
             worst <= 1e-8, f"worst |diff| = {worst:.3g}")]


def certificates(cases, num: int) -> list[tuple[str, bool, str]]:
    """The sampled global inequality for each case ``(f, x, a, seed)``: the
    element (a, u) = ``subgrad_at(f, x, a)`` against ``num`` points drawn
    with ``seed``."""
    reps = [subgrad_inequality_sampler(lambda y, f=f: eval_oracle(f, y), x, a,
                                       subgrad_at(f, x, a).u, num=num, seed=seed)
            for f, x, a, seed in cases]
    worst = float(np.min([rep["worst_margin"] for rep in reps], initial=np.inf))
    return [("sampled global inequality for analytic subgradients",
             all(rep["passed"] for rep in reps), f"worst margin {worst:.3g}")]


def below_threshold_control() -> list[tuple[str, bool, str]]:
    """The sampler must flag Q's slope formula at (1, 1, 1) with a coefficient
    1e-3 below the threshold 4, which subgrad_at refuses.  It then fails only
    in a thin cone around the bottom eigenvector (solid-angle fraction
    ~4e-5), so the control draws enough points to land in it."""
    f3, x = QuadraticForm(Q3), np.array([1.0, 1, 1])
    a = 4.0 - 1e-3
    rep = subgrad_inequality_sampler(lambda y: eval_oracle(f3, y), x, a, f3.slope(x, a),
                                     num=10_000, seed=6)
    return [("sampler flags a coefficient below the feasible threshold",
             not rep["passed"], f"worst margin {rep['worst_margin']:.3g}")]


def duality_round_trip(cases) -> list[tuple[str, bool, str]]:
    """For each case ``(gamma, a, u)`` with 2 gamma a > -1, the inverse
    duality map gives one point whose element is (a, u) again: a exactly,
    ||du|| <= 1e-12 max(1, ||u||)."""
    ok, errs = True, [0.0]
    for gamma, a, u in cases:
        inv = duality_map_inverse(PhiElement(a, u), gamma)
        if inv.kind is not ResultKind.POINT:
            ok = False
            continue
        back = duality_map_element(inv.point, gamma, a)
        ok = ok and back.a == a
        errs.append(float(np.linalg.norm(back.u - u)) / max(1.0, float(np.linalg.norm(u))))
    worst = float(np.max(errs))
    return [(f"duality map round trip ({len(cases)} draws)", ok and worst <= 1e-12,
             f"worst relative |du| = {worst:.3g}")]


def verify_results() -> list[tuple[str, bool, str]]:
    """Every check, in order, on the draws of one ``XorShift64Star(2024)``."""
    rng = XorShift64Star(2024)
    results = spectra() + closed_form_prox(rng, 1000)
    cases = []
    for f in (AbsPlusSquare(), NormSquare(gamma=0.5, dim=2), QuadraticForm(Q3)):
        for k in range(25):
            x = rng.uniform_vector(-5, 5, f.dim)
            cases.append((f, x, feasible_range(f, x) + rng.uniform(0.0, 5.0), k + 1))
    results += certificates(cases, num=200) + below_threshold_control()
    d = rng.uniform_vector(0.0, 1.0, (1000, 5))
    gamma = 0.01 + (10.0 - 0.01) * d[:, 0]
    lo = -1.0 / (2.0 * gamma) + 1e-6
    a = lo + (10.0 - lo) * d[:, 1]
    u = -10.0 + 20.0 * d[:, 2:]
    return results + duality_round_trip(list(zip(gamma.tolist(), a.tolist(), u)))
