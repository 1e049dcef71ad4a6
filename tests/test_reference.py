"""Brute-force oracles: these arbitrate everything else, so they get their
own checks, including a cross-check of the hand-rolled Jacobi eigensolver
against numpy's LAPACK wrapper, which the production ``QuadraticForm`` uses.
"""

import ast
import hashlib
import inspect
import tracemalloc
import warnings

import numpy as np
import pytest

import absprox.checks
import absprox.oracles
import absprox.prox
import absprox.reference
from absprox.checks import closed_form_prox
from absprox.experiments import Q3, Q5
from absprox.phi import PhiElement, duality_map_element, duality_map_inverse
from absprox.oracles import (AbsPlusSquare, Ball, Box, Halfspace, IndicatorSet, NormSquare,
                             QuadraticForm, SmoothBlackBox, eval_oracle, subgrad_at)
from absprox.reference import (
    eig_sym,
    fd_gradient,
    golden_section_min,
    grid_argmin_1d,
    subgrad_inequality_rows,
    subgrad_inequality_sampler,
)
from absprox.rng import XorShift64Star, uniform_streams


def test_golden_section_parabola():
    assert golden_section_min(lambda z: (z - 2.0) ** 2, -10, 10) == pytest.approx(2.0, abs=1e-10)


def test_grid_argmin_kink_objective():
    # |z| + z^2 + 0.5 (z-3)^2, stationarity on z>0: 1 + 2z + (z-3) = 0
    h = lambda z: np.abs(z) + z**2 + 0.5 * (z - 3.0) ** 2
    assert grid_argmin_1d(h, -20, 20) == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_grid_argmin_smooth():
    assert grid_argmin_1d(lambda z: (z - 5.0) ** 2, -20, 20) == pytest.approx(5.0, abs=1e-9)


def test_grid_argmin_boundary_minimum():
    assert grid_argmin_1d(lambda z: z, 1.0, 4.0) == pytest.approx(1.0, abs=1e-8)


def test_grid_argmin_large_offset():
    # a big constant shrinks the value-resolution; the derivative polish
    # must still pin the minimizer itself
    h = lambda z: (z - 1.0) ** 2 + 1000.0
    assert grid_argmin_1d(h, -20, 20) == pytest.approx(1.0, abs=1e-9)


def test_grid_argmin_refuses_values_of_the_wrong_shape():
    # h is always called on arrays, so one value for the whole scan raises
    with pytest.raises(ValueError, match="shape"):
        grid_argmin_1d(lambda z: 1.0, -3, 3)
    with pytest.raises(ValueError, match="shape"):
        grid_argmin_1d(lambda z, c: z, -3, 3, [0.5, -1.0])


def _prox_objective(z, w, x0):
    return np.abs(z) + z * z + w * (z - x0) ** 2


def _prox_draws(seed, num):
    """The (w, x0) of closed_form_prox's draws, w = 1/(2 gamma) + a0."""
    rng = XorShift64Star(seed)
    w, x0 = [], []
    for _ in range(num):
        gamma = rng.uniform(0.01, 10.0)
        a0 = rng.uniform(-1.0 / (2.0 * gamma), 10.0)
        x0.append(rng.uniform(-20.0, 20.0))
        w.append(0.5 / gamma + a0)
    return np.array(w), np.array(x0)


def test_grid_argmin_block_rows_match_single_calls():
    w, x0 = _prox_draws(2024, 1000)
    # kink-bottom rows: |2 w x0| <= 1, so the argmin is 0
    w = np.append(w, [0.5, 2.0, 10.0])
    x0 = np.append(x0, [0.3, -0.2, 0.0])
    block = grid_argmin_1d(_prox_objective, -25.0, 25.0, w, x0)
    singles = [grid_argmin_1d(lambda z: _prox_objective(z, wi, xi), -25.0, 25.0)
               for wi, xi in zip(w, x0)]
    assert [float(v).hex() for v in block] == [v.hex() for v in singles]
    assert np.abs(block[-3:]).max() <= 1e-8

    # boundary minima: c z on [1, 4] is least at 1 for c > 0 and at 4 for c < 0
    c = np.array([1.0, -2.0, 0.5])
    block = grid_argmin_1d(lambda z, c: c * z, 1.0, 4.0, c)
    singles = [grid_argmin_1d(lambda z: ci * z, 1.0, 4.0) for ci in c]
    assert [float(v).hex() for v in block] == [v.hex() for v in singles]
    assert block == pytest.approx([1.0, 4.0, 1.0], abs=1e-8)


def test_golden_section_lanes_match_per_lane_calls():
    # brackets of different widths converge after different step counts;
    # the zero-width lane is frozen from the start
    t = np.array([2.0, 0.25, 3.1, -7.0, 5.0])
    lo = np.array([-10.0, 0.0, 3.0, -7.0, -1e6])
    hi = np.array([10.0, 1.0, 3.0001, -7.0, 1e6])
    lanes = golden_section_min(lambda z: (z - t) ** 2, lo, hi)
    each = [golden_section_min(lambda z: (z - ti) ** 2, a, b) for ti, a, b in zip(t, lo, hi)]
    assert [float(v).hex() for v in lanes] == [float(v).hex() for v in each]
    assert lanes == pytest.approx(np.clip(t, lo, hi), abs=1e-6)


def _with_nans(z, mode):
    """(z + 1)^2, least at -1, with NaN on z > 2 (mode 1), in the one grid
    cell nearest 3 (mode 2) or everywhere (mode 3)."""
    nan = (((mode == 1) & (z > 2.0)) | ((mode == 2) & (np.abs(z - 3.0) < 5e-4))
           | (mode == 3))
    return np.where(nan, np.nan, (z + 1.0) ** 2)


def test_grid_argmin_returns_nan_when_the_scan_holds_one():
    for mode in (1.0, 2.0, 3.0):
        assert np.isnan(grid_argmin_1d(lambda z: _with_nans(z, mode), -5.0, 5.0))
    clean = grid_argmin_1d(lambda z: _with_nans(z, 0.0), -5.0, 5.0)
    assert clean == pytest.approx(-1.0, abs=1e-9)

    # in a block only the NaN rows go NaN; the others keep their bits
    modes = np.array([0.0, 1.0, 0.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    got = grid_argmin_1d(_with_nans, -5.0, 5.0, modes)
    assert np.array_equal(np.isnan(got), modes > 0)
    assert {float(v).hex() for v in got[modes == 0]} == {clean.hex()}


def test_grid_argmins_of_the_seed_11_draws_are_pinned():
    # test_prox's 200 draws: SHA-256 of the float.hex of each one-problem
    # argmin, recorded when golden section still ran on Python floats
    w, x0 = _prox_draws(11, 200)
    hexes = [float(grid_argmin_1d(lambda z: _prox_objective(z, wi, xi), -25.0, 25.0)).hex()
             for wi, xi in zip(w, x0)]
    digest = hashlib.sha256("\n".join(hexes).encode()).hexdigest()
    assert digest == "0725797089e02b6493d385340829d527f3f425bd0c32fb278f96293ca69e4bf4"


def test_closed_form_prox_scans_in_cache_sized_chunks():
    # an unchunked scan of 1000 problems allocates about 76 MiB per temporary
    closed_form_prox(XorShift64Star(2024), 10)  # lazy set-up outside the count
    tracemalloc.start()
    try:
        [(_, ok, _)] = closed_form_prox(XorShift64Star(2024), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak <= 2 * 2**20


def _hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def test_verify_brute_force_argmins_are_pinned(monkeypatch):
    # SHA-256 of the float.hex of the 1,000 argmins verify's closed-form
    # check gets from one block call, recorded before its objective wrote
    # into one buffer
    seen = {}
    grid_argmin = absprox.checks.grid_argmin_1d

    def capture_argmin(h, lo, hi, w, centre):
        seen["argmin"] = grid_argmin(h, lo, hi, w, centre)
        return seen["argmin"]

    monkeypatch.setattr(absprox.checks, "grid_argmin_1d", capture_argmin)
    closed_form_prox(XorShift64Star(2024), 1000)
    digest = hashlib.sha256("\n".join(_hexes(seen["argmin"])).encode()).hexdigest()
    assert digest == "187bbf42a9c7279ada795cf1ade30bb6da70c083091c627c34c6e1d23f6a9067"


def _objective_args():
    """The arguments of two calls of closed_form_prox's objective: a
    (4, 10,000) scan chunk, the grid against the (w, x0) columns of four
    draws, and (1000,) golden-section lanes, one point per draw."""
    w, x0 = _prox_draws(2024, 1000)
    grid = np.linspace(-25.0, 25.0, 10_000)
    return (grid, w[:4, None], x0[:4, None]), (x0 + 0.25, w, x0)


def test_verify_objective_matches_the_written_out_expression():
    for args in _objective_args():
        got = absprox.checks._prox_objective(*args)
        assert got.tobytes() == _prox_objective(*args).tobytes()


def test_verify_objective_allocates_one_chunk_block():
    # a (4, 10,000) chunk block is 312.5 KiB; fresh temporaries for each
    # term hold more than two of them at once
    chunk, _ = _objective_args()
    tracemalloc.start()
    try:
        absprox.checks._prox_objective(*chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 4 * 10_000 * 8


def test_verify_draws_the_cases_of_scalar_draws(monkeypatch):
    # verify's stdout prints only labels, so the cases and the details are
    # compared here: each block of draws must give the cases that scalar
    # uniform calls and 3-vector draws give, in verify's order
    seen = {}
    grid_argmin, round_trip = absprox.checks.grid_argmin_1d, absprox.checks.duality_round_trip

    def capture_argmin(h, lo, hi, w, centre):
        seen["argmin"] = (w, centre)
        return grid_argmin(h, lo, hi, w, centre)

    def capture_round_trip(cases):
        seen["round_trip"] = cases
        return round_trip(cases)

    monkeypatch.setattr(absprox.checks, "grid_argmin_1d", capture_argmin)
    monkeypatch.setattr(absprox.checks, "duality_round_trip", capture_round_trip)
    details = [detail for _, _, detail in absprox.checks.verify_results()]
    assert details == [
        "Jacobi [-4.  2.  4.], LAPACK [-4.  2.  4.]",
        "Jacobi [-3. -1.  1.  2.  2.], LAPACK [-3. -1.  1.  2.  2.]",
        "residual 1.11e-15",
        "worst |diff| = 2.28e-10",
        "worst margin 5.1e-08",
        "worst margin -0.00557",
        "worst relative |du| = 1.06e-15",
    ]

    rng = XorShift64Star(2024)
    w, centre = [], []
    for _ in range(1000):
        gamma = rng.uniform(0.01, 10.0)
        a0 = rng.uniform(-1.0 / (2.0 * gamma), 10.0)
        centre.append(rng.uniform(-20.0, 20.0))
        w.append(0.5 / gamma + a0)
    for dim in (1, 2, 3):  # the certificate cases' points and coefficients
        for _ in range(25):
            rng.uniform_vector(-5, 5, dim)
            rng.uniform(0.0, 5.0)
    cases = []
    for _ in range(1000):
        gamma = rng.uniform(0.01, 10.0)
        a = rng.uniform(-1.0 / (2.0 * gamma) + 1e-6, 10.0)
        cases.append((gamma, a, rng.uniform_vector(-10, 10, 3)))
    assert [_hexes(v) for v in seen["argmin"]] == [_hexes(w), _hexes(centre)]
    assert [[gamma.hex(), a.hex(), *_hexes(u)] for gamma, a, u in seen["round_trip"]] == [
        [gamma.hex(), a.hex(), *_hexes(u)] for gamma, a, u in cases]


def _round_trip_case_by_case(cases):
    # the duality round trip written out one case at a time, with the point maps
    ok, errs = True, [0.0]
    for gamma, a, u in cases:
        inv = duality_map_inverse(PhiElement(a, u), gamma)
        if inv is None:
            ok = False
            continue
        back = duality_map_element(inv, gamma, a)
        ok = ok and back.a == a
        errs.append(float(np.linalg.norm(back.u - u)) / max(1.0, float(np.linalg.norm(u))))
    worst = float(np.max(errs))
    return [(f"duality map round trip ({len(cases)} draws)", ok and worst <= 1e-12,
             f"worst relative |du| = {worst:.3g}")]


def _criterion_7_cases():
    # the feasible draws of test_criterion_7_duality_map_identities, n = 1..5 mixed
    rng, cases = np.random.default_rng(77), []
    for i in range(1000):
        gamma = float(10.0 ** rng.uniform(-2, 1))
        u = rng.uniform(-10, 10, 1 + i % 5)
        cases.append((gamma, float(rng.uniform(-0.99, 20.0)) / (2.0 * gamma), u))
        rng.uniform(-20.0, -1.001)  # the criterion's draw below the threshold
    return cases


def test_the_round_trip_is_its_case_by_case_loop(monkeypatch):
    seen = {}
    round_trip = absprox.checks.duality_round_trip

    def capture(cases):
        seen["cases"] = cases
        return round_trip(cases)

    monkeypatch.setattr(absprox.checks, "duality_round_trip", capture)
    absprox.checks.verify_results()
    for cases in (seen["cases"], _criterion_7_cases()):
        assert round_trip(cases) == _round_trip_case_by_case(cases)
    assert round_trip(_criterion_7_cases())[0][2] == "worst relative |du| = 2.68e-15"


def test_a_round_trip_with_a_threshold_row_fails_without_a_warning():
    # the threshold row (2 gamma a = -1, u != 0) has no preimage point
    cases = [(0.5, 1.0, np.array([8.0, 0.0])), (0.5, -1.0, np.array([1.0, 0.0])),
             (2.0, 0.0, np.array([-3.0, 4.0]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = absprox.checks.duality_round_trip(cases)
    assert result == _round_trip_case_by_case(cases)
    assert result[0][1] is False


# --- eigensolver -----------------------------------------------------------


def test_eig_three_by_three():
    w, v = eig_sym(Q3)
    assert np.allclose(w, [-4.0, 2.0, 4.0], atol=1e-9)
    assert np.abs(Q3 @ v - v @ np.diag(w)).max() <= 1e-9


def test_eig_five_by_five():
    w, _ = eig_sym(Q5)
    assert np.allclose(w, [-3.0, -1.0, 1.0, 2.0, 2.0], atol=1e-9)


def test_eig_identity():
    w, _ = eig_sym(np.eye(4))
    assert np.allclose(w, np.ones(4))


def test_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("q", [np.ones((2, 3)), np.ones(3)], ids=["2x3", "vector"])
def test_eig_rejects_a_non_square_input(q):
    with pytest.raises(ValueError, match="expected a square matrix"):
        eig_sym(q)


def test_eig_reconstruction_and_orthogonality():
    for q in (Q3, Q5):
        w, v = eig_sym(q)
        assert np.abs(v @ np.diag(w) @ v.T - q).max() <= 1e-8
        assert np.abs(v.T @ v - np.eye(q.shape[0])).max() <= 1e-10


def test_eig_matches_lapack_on_random_matrices():
    rng = np.random.default_rng(42)
    for n in (2, 4, 6, 8):
        m = rng.standard_normal((n, n))
        q = (m + m.T) / 2.0
        w, _ = eig_sym(q)
        assert np.allclose(w, np.linalg.eigvalsh(q), atol=1e-9)

    # the oracle's eigenvalues come from LAPACK, independently of the arbiter
    assert not hasattr(absprox.oracles, "eig_sym")
    qs = [Q3, Q5]
    for n in (8, 32, 64):
        m = rng.standard_normal((n, n))
        qs.append((m + m.T) / 2.0)
    for q in qs:
        tol = 1e-10 * max(1.0, float(np.linalg.norm(q)))
        assert np.abs(QuadraticForm(q).eigenvalues - eig_sym(q)[0]).max() <= tol


def _package_imports(module) -> set[str]:
    """The absprox modules that ``module``'s source imports from."""
    dotted = []
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            base = f"absprox.{node.module or ''}".rstrip(".") if node.level else node.module
            dotted += [f"{base}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            dotted += [a.name for a in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("absprox.")}


def test_prox_imports_nothing_from_the_arbiters():
    # the prox is checked against reference's argmins, so it must not use
    # them, and the arbiters use nothing of the package but the generator
    assert not _package_imports(absprox.prox) & {"reference", "rng"}
    assert _package_imports(absprox.reference) == {"rng"}


# --- finite differences ----------------------------------------------------


def test_fd_gradient_quartic_saddle():
    g = lambda p: p[0] ** 4 / 12 + p[0] ** 2 / 2 - p[1] ** 4 / 12 - p[1] ** 2 / 2
    grad = fd_gradient(g, np.array([1.0, 1.0]))
    assert np.allclose(grad, [4.0 / 3.0, -4.0 / 3.0], atol=1e-6)


def test_fd_gradient_constant():
    assert np.allclose(fd_gradient(lambda p: 7.0, np.array([1.0, 2.0])), 0.0)


def test_fd_gradient_quadratic():
    g = lambda p: float(p @ p)
    assert np.allclose(fd_gradient(g, np.array([1.0, 0.0])), [2.0, 0.0], atol=1e-8)


# --- sampled subgradient inequality ----------------------------------------


def _abs_sq(y):
    # the sampler passes its whole block of points (m, 1)
    return np.abs(y[:, 0]) + y[:, 0] ** 2


def test_sampler_accepts_valid_element():
    # at x=2 with a=0 the unique slope is sign(2) + 2*2 = 5
    rep = subgrad_inequality_sampler(_abs_sq, np.array([2.0]), 0.0, np.array([5.0]))
    assert rep["passed"]
    assert rep["worst_margin"] >= -1e-9


@pytest.mark.parametrize("margin, passed", [(-1e-6, False), (-1e-10, True)])
def test_sampler_passes_only_margins_above_minus_1e_9(margin, passed):
    # phi = 0 (a = 0, u = 0), and f is 0 at x and `margin` at every drawn
    # point, so every margin is exactly `margin`
    x = np.array([0.5, -0.5])
    rep = subgrad_inequality_sampler(lambda y: np.where((y == x).all(axis=1), 0.0, margin),
                                     x, 0.0, np.zeros(2))
    assert rep["worst_margin"] == margin
    assert rep["passed"] is passed


def test_sampler_rejects_steep_slope_with_local_witness():
    rep = subgrad_inequality_sampler(_abs_sq, np.array([2.0]), 0.0, np.array([7.0]))
    assert not rep["passed"]
    # violation is local: phi grows faster than f just beyond x=2
    y = float(rep["worst_point"][0])
    assert 2.0 < y < 3.0


def test_sampler_zero_element_at_global_minimizer():
    rep = subgrad_inequality_sampler(_abs_sq, np.array([0.0]), 0.0, np.array([0.0]))
    assert rep["passed"]


def test_sampler_deterministic():
    a = subgrad_inequality_sampler(_abs_sq, np.array([1.0]), 1.0, np.array([5.0]), seed=3)
    b = subgrad_inequality_sampler(_abs_sq, np.array([1.0]), 1.0, np.array([5.0]), seed=3)
    assert a["worst_margin"] == b["worst_margin"]
    assert np.array_equal(a["worst_point"], b["worst_point"])


def test_sampler_skips_infinite_domain_gaps():
    def indicator(y):
        return np.where(np.abs(y[:, 0]) <= 1.0, 0.0, np.inf)

    rep = subgrad_inequality_sampler(indicator, np.array([0.5]), 1.0, np.array([1.0]))
    assert np.isfinite(rep["worst_margin"])


def test_sampler_fails_a_nan_margin_and_reports_it():
    rep = subgrad_inequality_sampler(lambda y: np.full(len(y), np.nan), np.array([0.5]), 0.0,
                                     np.array([0.0]))
    assert not rep["passed"]
    assert np.isnan(rep["worst_margin"])

    # NaN off |y| <= 3 fails with a witness there; +inf off it passes
    def box(off):
        return lambda y: np.where(np.abs(y).max(axis=1) <= 3.0, np.vecdot(y, y), off)

    x, u = np.zeros(2), np.zeros(2)
    rep = subgrad_inequality_sampler(box(np.nan), x, 0.0, u)
    assert not rep["passed"]
    assert np.isnan(rep["worst_margin"])
    assert np.abs(rep["worst_point"]).max() > 3.0
    assert subgrad_inequality_sampler(box(np.inf), x, 0.0, u)["passed"]


_COS = SmoothBlackBox(value=lambda p: float(np.cos(p[0])),
                      gradient=lambda p: np.array([-np.sin(p[0])]), kappa=lambda p: 0.5,
                      eps=1e-6)


# worst margin and point of one call per oracle kind, recorded when the
# sampler still evaluated point by point
@pytest.mark.parametrize("f, x, a, margin, point", [
    (NormSquare(0.7, dim=3), [1.0, -2.0, 0.5], 0.3, "0x1.f444dd2adc4e4p+2",
     ["0x1.7d974cdd9acacp+1", "-0x1.50e729465aec0p-2", "0x1.7ea0ffe27f848p+0"]),
    (QuadraticForm(Q3), [1.0, 1.0, 1.0], 4.5, "0x1.4b14e58100fbep+4",
     ["0x1.244876d4a8ce8p+1", "-0x1.641074ba4df6cp+0", "-0x1.25eb10d368f00p-3"]),
    (AbsPlusSquare(), [0.5], -0.5, "0x1.a81d027845800p-12", ["0x1.e2e02bdd3c500p-2"]),
    (IndicatorSet(Ball([0.5, -0.5], 2.0)), [1.5, 0.0], 0.7, "0x1.0a17937a67ec0p-5",
     ["0x1.8808f32a4d440p+0", "-0x1.b47537bd84fc0p-3"]),
    (IndicatorSet(Box([-1.0, -1.0], [1.0, 2.0])), [1.0, 0.0], 0.7, "0x1.00c9b3b70f8fap+1",
     ["-0x1.8aff8701b6ec0p-3", "0x1.3384ff5b83b28p+0"]),
    (IndicatorSet(Halfspace([1.0, 1.0], 1.0)), [0.5, 0.5], 0.7, "0x1.0a17937a67ee8p-5",
     ["0x1.1011e6549a880p-1", "0x1.25c564213d820p-2"]),
    (_COS, [1.0], 0.6, "0x1.146b32bea8000p-12", ["0x1.f17015ee9e280p-1"]),
], ids=["norm-square", "quadratic", "abs+square", "ball", "box", "halfspace", "blackbox"])
def test_sampler_worst_margin_and_point_are_pinned(f, x, a, margin, point):
    x = np.array(x)
    rep = subgrad_inequality_sampler(lambda y: eval_oracle(f, y), x, a, subgrad_at(f, x, a).u,
                                     num=100, seed=7)
    assert rep["passed"]
    assert float(rep["worst_margin"]).hex() == margin
    assert [float(v).hex() for v in rep["worst_point"]] == point


def test_sampler_with_every_margin_infinite_passes_at_x():
    x = np.array([0.25, -0.5])
    tiny = IndicatorSet(Ball(x, 1e-3))
    rep = subgrad_inequality_sampler(lambda y: eval_oracle(tiny, y), x, 1.0, np.zeros(2), num=50)
    assert rep["passed"] and rep["worst_margin"] == np.inf
    assert np.array_equal(rep["worst_point"], x)
    assert rep["num_points"] == 54


# each pinned kind's (f, x, a); the rows scale x toward an interior point
_KINDS = {
    "norm-square": (NormSquare(0.7, dim=3), [1.0, -2.0, 0.5], 0.3),
    "quadratic": (QuadraticForm(Q3), [1.0, 1.0, 1.0], 4.5),
    "abs+square": (AbsPlusSquare(), [0.5], -0.5),
    "ball": (IndicatorSet(Ball([0.5, -0.5], 2.0)), [1.5, 0.0], 0.7),
    "box": (IndicatorSet(Box([-1.0, -1.0], [1.0, 2.0])), [1.0, 0.0], 0.7),
    "halfspace": (IndicatorSet(Halfspace([1.0, 1.0], 1.0)), [0.5, 0.5], 0.7),
    "blackbox": (_COS, [1.0], 0.6),
}


def _rows_match_one_row_calls(f, x, a, u, seeds, num):
    rep = subgrad_inequality_rows(f, x, a, u, seeds, num)
    for i, seed in enumerate(seeds):
        one = subgrad_inequality_sampler(f, x[i], a[i], u[i], num, seed)
        assert bool(rep["passed"][i]) is one["passed"]
        assert float(rep["worst_margin"][i]).hex() == one["worst_margin"].hex()
        assert _hexes(rep["worst_point"][i]) == _hexes(one["worst_point"])
        assert rep["num_points"] == one["num_points"]
    return rep


@pytest.mark.parametrize("kind", list(_KINDS))
def test_sampler_rows_are_the_one_row_calls(kind):
    f, x0, a0 = _KINDS[kind]
    x = np.array([1.0, 0.5, -0.75])[:, None] * np.array(x0)
    a = a0 + np.arange(3.0)
    u = np.array([subgrad_at(f, xi, ai).u for xi, ai in zip(x, a)])
    calls = []

    def block(y):
        calls.append(y.shape)
        return eval_oracle(f, y)

    rep = _rows_match_one_row_calls(block, x, a, u, [7, 0, 2**64 + 5], 100)
    assert rep["passed"].all()
    # one call of f, on all three rows' points (x, 100 draws, 2n extremes)
    m = 1 + 100 + 2 * len(x0)
    assert calls[0] == (3 * m, len(x0)) and rep["num_points"] == m - 1


def test_sampler_rows_with_nan_and_infinite_margins():
    # NaN off |y| <= 3 for the first two rows' boxes; the third row's box
    # lies inside, and the fourth row's f is +inf everywhere but at x
    def f(y):
        v = np.where(np.abs(y).max(axis=1) <= 3.0, np.vecdot(y, y), np.nan)
        at_x = (y == [500.0, 0.5]).all(axis=1)
        return np.where(np.abs(y).max(axis=1) > 100.0, np.where(at_x, 0.0, np.inf), v)

    x = np.array([[0.0, 0.0], [1.0, -1.0], [0.0, 0.0], [500.0, 0.5]])
    a, u = np.array([0.0, 0.0, 0.0, 1.0]), np.zeros((4, 2))
    rep = _rows_match_one_row_calls(f, x, a, u, [1, 2, 3, 4], 50)
    assert np.isnan(rep["worst_margin"][:2]).all() and not rep["passed"][:2].any()
    assert rep["worst_margin"][3] == np.inf and rep["passed"][3]
    assert np.array_equal(rep["worst_point"][3], x[3])


# --- deterministic RNG -----------------------------------------------------


def test_rng_determinism_and_range():
    r1, r2 = XorShift64Star(99), XorShift64Star(99)
    seq1 = [r1.next_double() for _ in range(100)]
    seq2 = [r2.next_double() for _ in range(100)]
    assert seq1 == seq2
    assert all(0.0 <= v < 1.0 for v in seq1)


def test_rng_zero_seed_fallback():
    # seed 0 would be a fixed point of the recurrence; a fallback constant is used
    assert XorShift64Star(0).next_u64() != 0
    assert XorShift64Star(0).next_u64() == XorShift64Star(0).next_u64()


def test_rng_uniform_spans_interval():
    r = XorShift64Star(7)
    vals = [r.uniform(-2.0, 3.0) for _ in range(1000)]
    assert min(vals) >= -2.0 and max(vals) < 3.0
    assert min(vals) < -1.0 and max(vals) > 2.0  # actually spreads out

    # the vector draws are pinned bit for bit, for scalar and array bounds
    got = XorShift64Star(7).uniform_vector(-2.0, 3.0, 4)
    assert [v.hex() for v in got] == [
        "0x1.0cf536be9e60ep+1", "0x1.521b0f2a768a0p+1",
        "-0x1.8da1ecea1ae4fp+0", "-0x1.763ca515f4afdp+0"]
    lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 5.0, 2.5])
    r = XorShift64Star(7)
    rows = [r.uniform_vector(lo, hi, 3) for _ in range(2)]
    assert [v.hex() for v in rows[0]] == [
        "0x1.47eebdfdca34ap-1", "0x1.290d87953b450p+2", "0x1.05b7e75ab1dafp+1"]
    # a (num, n) block is num sequential n-draws, bit for bit
    block = XorShift64Star(7).uniform_vector(lo, hi, (2, 3))
    assert [[v.hex() for v in row] for row in block] == [[v.hex() for v in row] for row in rows]


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_rng_block_draws_are_the_sequential_stream(seed):
    # a block jumps ahead from its first state on; every draw, and the
    # state it leaves, must be those of one next_double per draw
    for count in (0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 4097, 100_001):
        block, stream = XorShift64Star(seed), XorShift64Star(seed)
        got = block.uniform_vector(0.0, 1.0, count)
        assert got.shape == (count,)
        assert _hexes(got) == [stream.next_double().hex() for _ in range(count)]
        assert block.next_u64() == stream.next_u64()

    lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 5.0, 2.5])
    block, stream = XorShift64Star(seed), XorShift64Star(seed)
    got = block.uniform_vector(lo, hi, (100, 3))
    assert [_hexes(row) for row in got] == [
        [(lo[i] + (hi[i] - lo[i]) * stream.next_double()).hex() for i in range(3)]
        for _ in range(100)]
    assert block.next_u64() == stream.next_u64()

    with pytest.raises(ValueError):  # (2,) bounds do not broadcast with 100 draws
        block.uniform_vector(np.zeros(2), np.ones(2), 100)
    with pytest.raises(ValueError, match=r"do not give draws of shape \(100,\)"):
        block.uniform_vector(np.zeros((2, 1)), np.ones((2, 1)), 100)
    for n in (-1, (2, -3)):
        with pytest.raises(ValueError):
            block.uniform_vector(0.0, 1.0, n)


def test_rng_streams_are_each_seeds_sequential_stream():
    # seed 0 and 2**64 both start from the fallback state
    seeds = [7, 0, 2**64, 2024, 1]
    lo, hi = np.array([-3.0, -1.0, -1.0, 0.0, 1.0]), np.array([-2.5, 1.0, 1.0, 4.0, 9.0])
    for count in (0, 1, 63, 64, 65, 128, 129, 600, 30_000):
        got = uniform_streams(seeds, lo, hi, count)
        assert got.shape == (len(seeds), count)
        for lane, seed in enumerate(seeds):
            block, stream = XorShift64Star(seed), XorShift64Star(seed)
            want = [(lo[lane] + (hi[lane] - lo[lane]) * stream.next_double()).hex()
                    for _ in range(count)]
            assert _hexes(got[lane]) == want
            # the one-lane call leaves the stream's state behind
            assert _hexes(block.uniform_vector(lo[lane], hi[lane], count)) == want
            assert block.next_u64() == stream.next_u64()
        assert _hexes(got[1]) == _hexes(got[2])

    # per-lane rows of bounds broadcast over each lane's (num, n) draws
    lo, hi = np.array([[-1.0, 0.0, 2.0], [3.0, -4.0, 0.0]]), np.array([[1.0, 5.0, 2.5], [4.0, 0.0, 9.0]])
    got = uniform_streams([3, 4], lo, hi, (70, 3))
    for lane, seed in enumerate([3, 4]):
        want = XorShift64Star(seed).uniform_vector(lo[lane], hi[lane], (70, 3))
        assert [_hexes(row) for row in got[lane]] == [_hexes(row) for row in want]
    with pytest.raises(ValueError):  # (3,) bounds per lane do not broadcast with 70 draws
        uniform_streams([3, 4], np.zeros((2, 3)), np.ones((2, 3)), 70)
    with pytest.raises(ValueError, match=r"do not give draws of shape \(2, 70\)"):
        uniform_streams([3, 4], np.zeros((2, 2, 1)), np.ones((2, 2, 1)), 70)
