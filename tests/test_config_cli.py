"""Config parsing and command-line behavior."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import config_corpus as CORPUS
from absprox import (
    AbsPlusSquare,
    Ball,
    FbConstant,
    Halfspace,
    IndicatorSet,
    PpaAdditive,
    PsgAdaptiveV1,
    PsgAdaptiveV2,
    PsgConstantGamma,
    QuadraticForm,
    TheoremViolationWarning,
    checks,
    cli,
    oracles,
    run_psg,
)
from absprox.config import _SCHEDULES, ConfigError, ExperimentConfig, hessian_example, parse_config
from absprox.reference import eig_sym
from absprox.experiments import (
    CSV_HEADER,
    EXPERIMENTS,
    Q3,
    Q3_TEXT,
    Q5,
    named_experiment_configs,
    run_config,
    write_csv,
)

DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "sweeps_sha256.json"
REPRODUCE_STDOUT = Path(__file__).resolve().parent / "reproduce_stdout.txt"

PSG_TEXT = """
# projected subgradient on a small quadratic
algorithm = psg
Q = [[1,2];[2,1]]
set = ball(0, 1)
x0 = [3, -3]
gamma0 = 1
a0 = 50
a_f = 3
schedule = psg_constant
N = 40
reference = auto_eigen
"""

PPA_TEXT = """
algorithm = ppa
function = abs_plus_square
x0 = -10
gamma0 = 0.5
a0 = 1
schedule = ppa_additive(0.9)
N = 20
reference = [0]
output = somewhere.csv
"""

FB_TEXT = """
algorithm = fb
function = hessian_example
x0 = [-5, -1]
gamma0 = 0.1
a0 = 200
epsilon = 0.1
schedule = psg_constant
N = 30
"""


def errors_of(text):
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    return ei.value.errors


def _same(got, want) -> bool:
    """== for the objects a config holds, with array fields compared by
    np.array_equal: == on a dataclass that holds arrays raises."""
    if not dataclasses.is_dataclass(want):
        return np.array_equal(got, want)
    return type(got) is type(want) and all(
        _same(getattr(got, fd.name), getattr(want, fd.name))
        for fd in dataclasses.fields(want) if fd.compare)


def test_parse_psg_config():
    cfg = parse_config(PSG_TEXT)
    assert cfg.algorithm == "psg"
    assert _same(cfg.f, QuadraticForm(np.array([[1.0, 2.0], [2.0, 1.0]])))
    assert _same(cfg.set, Ball(np.zeros(2), 1.0)) and cfg.g is None
    np.testing.assert_array_equal(cfg.x0, [3.0, -3.0])
    assert cfg.schedule == PsgConstantGamma(gamma0=1.0, a0=50.0) and cfg.a_f == 3.0
    assert cfg.n_iter == 40
    assert cfg.reference == "auto_eigen"
    assert cfg.output is None


def test_parse_ppa_config():
    cfg = parse_config(PPA_TEXT)
    assert cfg.algorithm == "ppa"
    assert cfg.f == AbsPlusSquare() and cfg.g is None and cfg.set is None
    np.testing.assert_array_equal(cfg.x0, [-10.0])  # scalar promoted to 1-vector
    assert cfg.schedule == PpaAdditive(gamma0=0.5, a0=1.0, delta=0.9)
    np.testing.assert_array_equal(cfg.reference, [0.0])
    assert cfg.output == "somewhere.csv"


def test_parse_fb_config():
    cfg = parse_config(FB_TEXT)
    assert cfg.algorithm == "fb"
    # f = 0 without a set, the set's indicator with one; fb has no psg set
    assert _same(cfg.f, QuadraticForm(np.zeros((2, 2))))
    assert cfg.g == hessian_example(0.1) and cfg.set is None
    assert cfg.schedule == PsgConstantGamma(gamma0=0.1, a0=200.0)
    cfg = parse_config(_with(FB_TEXT, "set", "ball(0, 10)"))
    assert _same(cfg.f, IndicatorSet(Ball(np.zeros(2), 10.0)))
    assert cfg.g == hessian_example(0.1) and cfg.set is None


def test_errors_are_collected_not_first_only():
    text = """
algorithm = psg
bogus = 1
gamma0 = -2
a0 = 5
schedule = psg_constant
N = 10
"""
    errs = errors_of(text)
    assert "line 3: unknown key 'bogus'" in errs
    assert "missing required key 'x0'" in errs
    assert "line 4: gamma0 must be positive" in errs
    assert "missing oracle: give Q or function" in errs
    assert "psg requires a set" in errs
    assert len(errs) >= 5


def test_malformed_line_and_duplicate_key():
    errs = errors_of("algorithm = ppa\njust a bare line\na0 = 1\na0 = 2\n")
    assert any("expected 'key = value'" in e for e in errs)
    assert any("duplicate key 'a0'" in e for e in errs)


def test_bad_matrix_and_unequal_rows():
    errs = errors_of("algorithm = psg\nQ = [1,2]\nx0 = [1,1]\n"
                     "gamma0 = 1\na0 = 1\nschedule = psg_constant\nN = 1\n"
                     "set = ball(0,1)\n")
    assert any("matrix must look like" in e for e in errs)
    errs = errors_of("algorithm = psg\nQ = [[1,2];[3]]\nx0 = [1,1]\n"
                     "gamma0 = 1\na0 = 1\nschedule = psg_constant\nN = 1\n"
                     "set = ball(0,1)\n")
    assert any("unequal lengths" in e for e in errs)


def test_set_descriptor_validation():
    base = ("algorithm = psg\nQ = [[1,0];[0,1]]\nx0 = [1,1]\n"
            "gamma0 = 1\na0 = 1\nschedule = psg_constant\nN = 1\n")
    assert any("unknown set kind 'cone'" in e
               for e in errors_of(base + "set = cone(0,1)\n"))
    assert any("ball takes 2 arguments, got 1" in e
               for e in errors_of(base + "set = ball(1)\n"))
    assert any("set descriptor dimension does not match x0" in e
               for e in errors_of(base + "set = box([-1,-1,-1], [1,1,1])\n"))


def test_schedule_validation():
    base = ("algorithm = ppa\nfunction = abs_plus_square\nx0 = -1\n"
            "gamma0 = 1\na0 = 1\nN = 1\n")
    assert any("unknown schedule 'warp'" in e
               for e in errors_of(base + "schedule = warp(1)\n"))
    assert any("takes 1 parameter(s), got 2" in e
               for e in errors_of(base + "schedule = ppa_additive(1, 2)\n"))
    # compatibility matrix: a psg rule cannot drive the proximal iteration
    assert any("not usable with algorithm ppa" in e
               for e in errors_of(base + "schedule = psg_constant\n"))


def test_dimension_cross_checks():
    errs = errors_of("algorithm = psg\nQ = [[1,0];[0,1]]\nx0 = [1,1,1]\n"
                     "set = ball(0,1)\ngamma0 = 1\na0 = 1\n"
                     "schedule = psg_constant\nN = 1\n")
    assert any("Q is 2x2 but x0 has dimension 3" in e for e in errs)

    errs = errors_of("algorithm = ppa\nfunction = abs_plus_square\nx0 = [1,2]\n"
                     "gamma0 = 1\na0 = 1\nschedule = ppa_additive(1)\nN = 1\n")
    assert any("abs_plus_square is one-dimensional" in e for e in errs)

    errs = errors_of("algorithm = fb\nfunction = hessian_example\nx0 = [1]\n"
                     "gamma0 = 1\na0 = 1\nepsilon = 0.1\n"
                     "schedule = fb_constant(5)\nN = 1\n")
    assert any("hessian_example is two-dimensional" in e for e in errs)

    errs = errors_of("algorithm = psg\nQ = [[1,0];[0,1]]\nx0 = [1,1]\n"
                     "set = ball(0,1)\ngamma0 = 1\na0 = 1\n"
                     "schedule = psg_constant\nN = 1\nreference = [1,2,3]\n")
    assert any("reference vector dimension does not match x0" in e for e in errs)


def test_oracle_exclusivity_and_fb_requirements():
    errs = errors_of("algorithm = ppa\nfunction = abs_plus_square\n"
                     "Q = [[1]]\nx0 = -1\ngamma0 = 1\na0 = 1\n"
                     "schedule = ppa_additive(1)\nN = 1\n")
    assert any("give either Q or function, not both" in e for e in errs)

    errs = errors_of("algorithm = fb\nfunction = abs_plus_square\nx0 = -1\n"
                     "gamma0 = 1\na0 = 1\nepsilon = 0.1\n"
                     "schedule = fb_constant(5)\nN = 1\n")
    assert "line 2: oracle abs_plus_square is not usable with algorithm fb" in errs

    errs = errors_of("algorithm = fb\nfunction = hessian_example\nx0 = [1,1]\n"
                     "gamma0 = 1\na0 = 1\nschedule = fb_constant(5)\nN = 1\n")
    assert "fb requires epsilon (curvature margin)" in errs


def test_a_value_that_does_not_parse_gets_only_its_own_error():
    # a required key is met by being present, and no other check reads a
    # value that did not parse, whatever its key or the algorithm
    sin = "function must be one of ('abs_plus_square', 'hessian_example'), got 'sin'"
    for base, key, value, problem in [
        (FB_TEXT, "epsilon", "x", "malformed number 'x'"),
        (PSG_PLAIN, "set", "cone(1,2)", "unknown set kind 'cone'"),
        (PPA_PLAIN, "function", "sin", sin),
        (_with(PSG_PLAIN, "Q", None), "function", "sin", sin),
        (FB_TEXT, "function", "sin", sin),
    ]:
        text = _with(base, key, value)  # the edited key is the last line
        assert errors_of(text) == [f"line {len(text.splitlines())}: {problem}"], (key, value)


def test_numeric_field_validation():
    base = ("algorithm = ppa\nfunction = abs_plus_square\nx0 = -1\n"
            "gamma0 = 1\na0 = 1\nschedule = ppa_additive(1)\n")
    assert any("N must be a nonnegative integer" in e
               for e in errors_of(base + "N = 2.5\n"))
    assert errors_of(_with(FB_TEXT, "epsilon", "0")) == ["line 9: eps must be positive"]
    assert any("malformed number" in e
               for e in errors_of(base + "N = 1\na_f = three\n"))
    # the run reads no seed, so the key is unknown
    assert "line 8: unknown key 'seed'" in errors_of(base + "N = 1\nseed = 1\n")


def test_bundled_experiments_all_parse():
    assert len(EXPERIMENTS) == 7
    for name in EXPERIMENTS:
        cfgs = named_experiment_configs(name)
        assert [c.schedule.gamma0 for c in cfgs] == list(EXPERIMENTS[name]["gammas"])
    with pytest.raises(KeyError, match="unknown experiment"):
        named_experiment_configs("nope")


@pytest.mark.parametrize("name", [n for n in EXPERIMENTS if n.startswith("psg-q")])
def test_the_psg_sweeps_and_verify_read_the_one_q3_and_q5(name):
    # each sweep parses the text made from experiments' array, and the
    # spectra check that arbitrates its auto_eigen reads that same array
    q = Q3 if name.startswith("psg-q3") else Q5
    for cfg in named_experiment_configs(name):
        assert cfg.f.q.shape == q.shape and cfg.f.q.tobytes() == q.tobytes()
    assert checks.Q3 is Q3 and checks.Q5 is Q5
    assert {"Q3", "Q5"}.isdisjoint(checks.__all__)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_list(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_cli_run_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "ppa.cfg"
    cfg.write_text(PPA_TEXT.replace("output = somewhere.csv",
                                    f"output = {tmp_path / 'run.csv'}"))
    assert cli.main(["run", str(cfg)]) == 0
    text = (tmp_path / "run.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 22  # header + initial point + 20 iterations + none extra
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "0.5"  # gamma column, %.17g prints exactly
    assert first[3] == ""     # a_f never queried by the proximal iteration
    assert lines[-1].split(",")[-1] == ""  # no stop rule fired on this run
    # a second run must produce byte-identical output
    assert cli.main(["run", str(cfg)]) == 0
    assert (tmp_path / "run.csv").read_text() == text
    assert "terminal=max-iter" in capsys.readouterr().out


def test_cli_run_missing_file(capsys):
    assert cli.main(["run", "/no/such/file.cfg"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_run_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("algorithm = psg\nbogus = 1\n")
    assert cli.main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err
    assert "unknown key 'bogus'" in err


def test_cli_run_refuses_a_zero_gamma0(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(PPA_TEXT.replace("gamma0 = 0.5", "gamma0 = 0"))
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "zero.csv")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: line 5: gamma0 must be positive\n"
    assert not (tmp_path / "zero.csv").exists()


def test_cli_reproduce(tmp_path, capsys):
    assert cli.main(["reproduce", "ppa-absq", "--out-dir", str(tmp_path)]) == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == [
        "ppa-absq-gamma0.01.csv",
        "ppa-absq-gamma0.1.csv",
        "ppa-absq-gamma1.csv",
        "ppa-absq-gamma10.csv",
    ]
    for p in tmp_path.iterdir():
        assert p.read_text().splitlines()[0] == CSV_HEADER
    out = capsys.readouterr().out
    assert out.count("terminal=") == 4

    assert cli.main(["reproduce", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_verify(capsys):
    assert cli.main(["verify"]) == 0
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in [
        "ok   eigendecomposition 3x3 -> (-4, 2, 4), Jacobi and LAPACK",
        "ok   eigendecomposition 5x5 -> (-3, -1, 1, 2, 2), Jacobi and LAPACK",
        "ok   eigenvector residual ||Qv - wv|| small",
        "ok   closed-form prox of |x|+x^2 matches brute-force argmin (1000 draws)",
        "ok   sampled global inequality for analytic subgradients",
        "ok   sampler flags a coefficient below the feasible threshold",
        "ok   duality map round trip (1000 draws)",
        "7/7 checks passed",
    ])


def test_cli_verify_exits_1_on_a_failed_check(monkeypatch, capsys):
    import absprox.prox

    right = absprox.prox.prox_abs_square_closed_form
    monkeypatch.setattr(absprox.prox, "prox_abs_square_closed_form",
                        lambda x0, gamma, a0: right(x0, gamma, a0) + 1e-3)
    assert cli.main(["verify"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [ln for ln in lines if ln.startswith("FAIL")][0].startswith("FAIL closed-form")
    assert sum(ln.startswith("FAIL") for ln in lines) == 1
    assert lines[-1] == "6/7 checks passed"
    assert "Traceback" not in captured.out + captured.err


def test_run_config_reference_distance_column(tmp_path):
    # dist_to_ref is populated when a reference is given and empty when not
    run = run_config(parse_config(PPA_TEXT))
    assert run.x_star.tolist() == [0.0]  # the config's reference, used as it is

    path = tmp_path / "with_ref.csv"
    write_csv(run.result, str(path), x_star=run.x_star)
    row = path.read_text().splitlines()[1].split(",")
    assert float(row[6]) == 10.0  # |x0 - 0|

    path2 = tmp_path / "no_ref.csv"
    write_csv(run.result, str(path2))
    assert path2.read_text().splitlines()[1].split(",")[6] == ""


def _csv_row_by_row(result, x_star=None):
    """The CSV as a writer formatting one record at a time makes it: each
    row's "nan" fields blanked, each row's own stop tag appended."""
    rows = [CSV_HEADER]
    for r in result.records:
        d = np.nan if x_star is None else math.sqrt(float((x_star - r.x_n) @ (x_star - r.x_n)))
        nums = ",".join(["%d"] + ["%.17g"] * 7) % (
            r.n, r.gamma_n, r.a_n, r.a_fn, r.f_xn, r.step_norm, d, r.fejer)
        rows.append(f"{nums.replace('nan', '')},{r.stopped_by or ''}")
    return "\n".join(rows) + "\n"


def _edge_runs():
    q3_guard = run_config(parse_config(
        EXPERIMENTS["psg-q3-const"]["template"].format(gamma=1.0, q3=Q3_TEXT)))
    ppa = run_config(parse_config(_with(PPA_TEXT, "N", "5")))
    ball = Ball(np.zeros(2), 1.0)
    one = run_psg(QuadraticForm(np.eye(2)), ball, [0.5, 0.25],
                  PsgConstantGamma(gamma0=0.1, a0=1.0), 0)
    far = run_psg(QuadraticForm(np.eye(2)), ball, [1e200, 1e200],
                  PsgConstantGamma(gamma0=0.1, a0=1.0), 3)
    far.set_fejer(np.zeros(2))
    far.records[2].a_n, far.records[2].gamma_n = -math.inf, math.inf
    aborted = run_psg(QuadraticForm(np.eye(2)), ball, [0.5, 0.25],
                      PsgAdaptiveV1(gamma0=1.0, a0=200.0, a_const=-5.0), 20, a_f_override=4.0)
    return {
        "guard stop": (q3_guard.result, q3_guard.x_star, "stepsize-guard"),
        "horizon, NaN a_f": (ppa.result, ppa.x_star, None),
        "horizon, no reference": (ppa.result, None, None),
        "one record": (one, np.array([1.0, 0.0]), None),
        "inf fields": (far, np.zeros(2), None),
        "nonfinite abort": (aborted, None, "nonfinite-abort"),
    }


def test_a_horizon_of_zero_runs_the_start_alone():
    run = run_config(parse_config(_with(PPA_TEXT, "N", "0")))
    assert run.config.n_iter == 0 and len(run.result.records) == 1


def test_auto_eigen_at_a_final_iterate_orthogonal_to_it_keeps_its_sign():
    # from x0 = 0 the psg iterates stay at 0, where eigen @ x_N is 0.0
    run = run_config(parse_config(_with(PSG_TEXT, "x0", "[0, 0]")))
    assert not run.result.final.x_n.any()
    eigen = eig_sym(run.config.f.q)[1][:, 0]
    assert run.x_star.tobytes() == (eigen / np.linalg.norm(eigen)).tobytes()


def _last_row(tmp_path, text):
    """Exit code 0 for ``text`` on the CLI, and its CSV's last row by column."""
    code, err = _run_cli(tmp_path, text)
    assert code == 0, err
    header, *rows = (tmp_path / "case.csv").read_text().splitlines()
    return dict(zip(header.split(","), rows[-1].split(",")))


def test_auto_eigen_over_a_ball_of_radius_3_is_its_minimizer(tmp_path):
    # f = <x, Q3 x> reaches its minimum 9 lambda_min = -36 at 3 v; the unit
    # eigenvector v, 2 away, is no minimizer over this ball
    text = _with(EXPERIMENTS["psg-q3-const"]["template"].format(gamma=0.1, q3=Q3_TEXT),
                 "set", "ball(0,3)")
    last = _last_row(tmp_path, text)
    assert float(last["f_value"]) == pytest.approx(-36.0, abs=1e-4)
    assert 0.0 < float(last["dist_to_ref"]) < 2e-3
    run = run_config(parse_config(text))
    eigen = eig_sym(run.config.f.q)[1][:, 0]
    eigen = eigen / np.linalg.norm(eigen)
    assert np.array_equal(np.abs(run.x_star), 3.0 * np.abs(eigen))
    assert float(run.x_star @ run.result.final.x_n) > 0.0


def test_auto_eigen_of_a_positive_definite_q_is_the_origin(tmp_path):
    # diag(2, 1) is least at 0, so the distance column reads ||x_N||
    text = """
algorithm = psg
Q = [[2,0];[0,1]]
set = ball(0,1)
x0 = [0.5,0.5]
gamma0 = 0.1
a0 = 5
schedule = psg_constant
N = 101
reference = auto_eigen
"""
    last = _last_row(tmp_path, text)
    run = run_config(parse_config(text))
    assert run.x_star.tolist() == [0.0, 0.0]
    x_n = run.result.final.x_n
    assert float(last["dist_to_ref"]) == pytest.approx(math.sqrt(x_n @ x_n), rel=1e-15)
    assert float(last["dist_to_ref"]) == pytest.approx(0.0452, abs=1e-4)


def test_auto_eigen_at_a_least_eigenvalue_of_exactly_0_is_the_origin():
    # Q = diag(1, 0) is least on the whole e2 axis, the origin included; r v
    # is taken only for a negative eigenvalue
    run = run_config(parse_config(_with(PSG_TEXT, "Q", "[[1,0];[0,0]]")))
    assert run.x_star.tolist() == [0.0, 0.0]


def test_auto_eigen_at_a_repeated_least_eigenvalue_of_exactly_0_is_the_origin():
    # Q = 0 is least everywhere, the origin included; the nearest point of
    # r S(E) is taken only for a negative eigenvalue
    run = run_config(parse_config(_with(PSG_TEXT, "Q", "[[0,0];[0,0]]")))
    assert run.x_star.tolist() == [0.0, 0.0]


_REPEATED = """
algorithm = psg
Q = [[-1,0,0];[0,-1,0];[0,0,2]]
set = ball(0,1)
x0 = [0.3,0.6,0.5]
gamma0 = 0.5
a0 = 5
a_f = 1
schedule = psg_constant
N = 101
reference = auto_eigen
"""


@pytest.mark.parametrize("edits, f_min", [
    ({}, -1.0),
    # spectrum (-1, -1, 2); from a0 = 5 the guard stops this run after 3 steps
    ({"Q": "[[0,1,1];[1,0,1];[1,1,0]]", "set": "ball(0,2)", "a0": "50", "a_f": "1.5"}, -4.0),
], ids=["diagonal", "full"])
def test_auto_eigen_of_a_repeated_least_eigenvalue_is_the_nearest_minimizer(
        tmp_path, edits, f_min):
    # the minimizers over ball(0, r) form r times the unit sphere of the
    # eigenspace E; the one eigenvector r v lay 1.05 and 0.38 from x_N
    text = _REPEATED
    for key, value in edits.items():
        text = _with(text, key, value)
    last = _last_row(tmp_path, text)
    assert float(last["f_value"]) == pytest.approx(f_min, abs=1e-4)
    assert float(last["dist_to_ref"]) < 1e-2


@pytest.mark.parametrize("lam_min, lam_2, repeated", [
    ("-1", "-0.999999999", True),  # exactly 1e-9 above lambda_min
    ("-1", "-0.999999998", False),
    ("-4", "-3.999999996", True),  # exactly 1e-9 |lambda_min| above it
    ("-4", "-3.999999992", False),
])
def test_auto_eigen_takes_the_eigenvalues_within_1e_9_max_1_lam_of_the_least_as_repeated(
        lam_min, lam_2, repeated):
    text = _with(_with(_REPEATED, "Q", f"[[{lam_min},0,0];[0,{lam_2},0];[0,0,2]]"), "a_f", None)
    run = run_config(parse_config(text))
    x1, x2, _ = run.result.final.x_n
    assert x1 != 0.0 and x2 != 0.0
    if repeated:  # r P_E x_N / ||P_E x_N|| with E = span(e1, e2)
        assert run.x_star.tolist() == pytest.approx([x1 / math.hypot(x1, x2),
                                                     x2 / math.hypot(x1, x2), 0.0], rel=1e-15)
    else:  # r v, signed toward x_N
        assert run.x_star.tolist() == [math.copysign(1.0, x1), 0.0, 0.0]


def test_auto_eigen_at_a_final_iterate_orthogonal_to_a_repeated_eigenspace_is_r_v():
    # from x0 on the e3 axis the iterates stay on it, where P_E x_N = 0
    run = run_config(parse_config(_with(_REPEATED, "x0", "[0,0,0.5]")))
    assert not run.result.final.x_n[:2].any()
    assert run.x_star.tolist() == [1.0, 0.0, 0.0]


def test_auto_eigen_is_the_global_minimizer_over_its_ball_nearest_x_n():
    # a least eigenvalue of either sign, planted k >= 2 times in n <= 6, and
    # a random radius: the point is in the ball, meets the trust-region KKT
    # conditions (Q + mu I) x = 0, mu >= 0, mu (r - ||x||) = 0, Q + mu I
    # positive semidefinite, no sampled ball point lies lower, and it is the
    # minimizer nearest the final iterate
    rng = np.random.default_rng(25)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(2, n + 1))
        lam_min = rng.uniform(-3.0, 3.0)
        lam = np.concatenate([np.full(k, lam_min), lam_min + rng.uniform(0.1, 3.0, n - k)])
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        q = (basis * lam) @ basis.T
        q = 0.5 * (q + q.T)
        r = rng.uniform(0.5, 3.0)
        run = run_config(ExperimentConfig(
            "psg", rng.uniform(-2.0, 2.0, n), QuadraticForm(q),
            PsgConstantGamma(gamma0=0.5, a0=5.0), 10, set=Ball(np.zeros(n), r),
            reference="auto_eigen"))
        x, x_n = run.x_star, run.result.final.x_n
        f_x = float(x @ q @ x)
        mu = -f_x / float(x @ x) if x.any() else 0.0
        assert np.linalg.norm(x) <= r * (1.0 + 1e-12)
        assert np.linalg.norm(q @ x + mu * x) <= 1e-10
        assert mu >= -1e-10 and mu * (r - np.linalg.norm(x)) <= 1e-10
        assert np.linalg.eigvalsh(q)[0] + mu >= -1e-10
        z = rng.standard_normal((500, n))
        z *= r * rng.random((500, 1)) ** (1.0 / n) / np.linalg.norm(z, axis=1, keepdims=True)
        assert np.vecdot(z @ q, z).min() >= f_x - 1e-10
        p = basis[:, :k] @ (basis[:, :k].T @ x_n)
        nearest = r * p / np.linalg.norm(p) if lam_min < 0.0 else np.zeros(n)
        assert np.linalg.norm(x - nearest) <= 1e-10


@pytest.mark.parametrize("edits, problem", [
    ({"set": "box([-1,-1,-1],[1,1,1])"}, "auto_eigen needs psg over a ball centred at 0"),
    ({"set": "halfspace(1,0)"}, "auto_eigen needs psg over a ball centred at 0"),
    ({"set": "ball(1,1)"}, "auto_eigen needs psg over a ball centred at 0"),
    ({"algorithm": "ppa", "set": None, "a_f": None, "schedule": "ppa_additive(0.9)"},
     "auto_eigen needs psg over a ball centred at 0"),
    # a set that does not parse has only its own error
    ({"set": "cone(1,2)"}, "unknown set kind 'cone'"),
], ids=["box", "halfspace", "off-centre-ball", "ppa", "unparsed-set"])
def test_cli_auto_eigen_outside_psg_over_a_centred_ball_is_one_error(tmp_path, edits, problem):
    # the three psg configs ran, with columns against the unit eigenvector,
    # which is no minimizer over their sets; ppa has no set, and its
    # indefinite Q no minimizer (this run fails on its schedule, exit 3)
    text = EXPERIMENTS["psg-q3-const"]["template"].format(gamma=0.1, q3=Q3_TEXT)
    for key, value in edits.items():
        text = _with(text, key, value)
    code, err = _run_cli(tmp_path, text)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert problem in err


def test_csv_bytes_match_a_row_by_row_writer(tmp_path):
    runs = _edge_runs()
    for label, (result, x_star, tag) in runs.items():
        assert result.terminal == tag, label
        path = tmp_path / "run.csv"
        write_csv(result, str(path), x_star=x_star)
        assert path.read_bytes() == _csv_row_by_row(result, x_star).encode(), label
    one = tmp_path / "one.csv"
    write_csv(runs["one record"][0], str(one))
    assert one.read_text().splitlines()[1:] == ["0,0.10000000000000001,1,,0.3125,0,,,"]
    far, anchor, _ = runs["inf fields"]
    write_csv(far, str(one), x_star=anchor)
    rows = one.read_text().splitlines()
    assert rows[1].split(",")[4:8] == ["inf", "0", "inf", "inf"]
    assert rows[3].split(",")[1:3] == ["inf", "-inf"]


def test_a_huge_horizon_allocates_nothing_for_it(tmp_path):
    # this run stops at the guard after 51 records; a horizon of 1e18 must
    # cost no more than one of 101
    text = EXPERIMENTS["psg-q3-const"]["template"].format(gamma=1.0, q3=Q3_TEXT)
    csvs = []
    for n_iter in ("101", "1e18"):
        run = run_config(parse_config(_with(text, "N", n_iter)))
        path = tmp_path / f"n{n_iter}.csv"
        write_csv(run.result, str(path), x_star=run.x_star)
        csvs.append(path.read_bytes())
    assert csvs[0] == csvs[1]
    assert len(run.result.records) == 51 and run.result.terminal == "stepsize-guard"


def _with(text, key, value):
    """``text`` with the line for ``key`` replaced (or dropped when None)."""
    lines = [ln for ln in text.splitlines() if ln.split("=")[0].strip() != key]
    if value is not None:
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


PSG_PLAIN = _with(PSG_TEXT, "reference", None)
PPA_PLAIN = _with(_with(PPA_TEXT, "reference", None), "output", None)


def _run_cli(tmp_path, text):
    path = tmp_path / "case.cfg"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", str(path), "--output", str(tmp_path / "case.csv")])
    return code, err.getvalue()


# config edits (None drops the key) that used to run silently or end in a
# traceback, and the problem the parser now reports
_REFUSED = {
    "fb-with-Q": (FB_TEXT, {"function": None, "Q": "[[1,0];[0,1]]"},
                  "oracle Q is not usable with algorithm fb"),
    "hessian-psg": (PSG_PLAIN, {"Q": None, "function": "hessian_example"},
                    "oracle hessian_example is not usable with algorithm psg"),
    "hessian-ppa": (PPA_PLAIN, {"function": "hessian_example", "x0": "[1,1]"},
                    "oracle hessian_example is not usable with algorithm ppa"),
    "auto-eigen-without-Q": (PPA_PLAIN, {"reference": "auto_eigen"},
                             "auto_eigen needs a quadratic oracle"),
    "ppa-set": (PPA_PLAIN, {"set": "ball(0,1)"}, "set is not used by algorithm ppa"),
    "ppa-a_f": (PPA_PLAIN, {"a_f": "3"}, "a_f is not used by algorithm ppa"),
    "fb-a_f": (FB_TEXT, {"a_f": "3"}, "a_f is not used by algorithm fb"),
    "psg-epsilon": (PSG_PLAIN, {"epsilon": "0.1"}, "epsilon is not used by algorithm psg"),
    "gamma0-inf": (PSG_PLAIN, {"gamma0": "inf"}, "non-finite number 'inf'"),
    "gamma0-nan": (PSG_PLAIN, {"gamma0": "nan"}, "non-finite number 'nan'"),
    "x0-nan": (PSG_PLAIN, {"x0": "[nan, 1]"}, "bad x0: non-finite number 'nan'"),
    "x0-scalar-inf": (PPA_PLAIN, {"x0": "inf"}, "bad x0: non-finite number 'inf'"),
    "x0-scalar-nan": (PPA_PLAIN, {"x0": "nan"}, "bad x0: non-finite number 'nan'"),
    "x0-scalar-overflow": (PPA_PLAIN, {"x0": "1e999"}, "bad x0: non-finite number '1e999'"),
    "schedule-nan": (PPA_PLAIN, {"schedule": "ppa_additive(nan)"}, "non-finite number 'nan'"),
    "Q-nan": (PSG_PLAIN, {"Q": "[[nan,2];[2,1]]"}, "bad matrix: non-finite number 'nan'"),
    "set-nan": (PSG_PLAIN, {"set": "ball([0,nan], 1)"}, "non-finite number 'nan'"),
    "reference-nan": (PSG_PLAIN, {"reference": "[nan, 0]"}, "bad reference vector: non-finite"),
    "ball-radius-0": (PSG_PLAIN, {"set": "ball(0,0)"}, "ball radius must be positive"),
    "box-hi-below-lo": (PSG_PLAIN, {"set": "box(1,-1)"}, "box bounds must satisfy lo <= hi"),
    "N-inf": (PSG_PLAIN, {"N": "inf"}, "N must be a nonnegative integer"),
    "Q-asymmetric": (PSG_PLAIN, {"Q": "[[1,2];[3,1]]"}, "Q must be symmetric"),
    "adaptive-v2-eps-0": (PSG_PLAIN, {"schedule": "psg_adaptive_v2(0)"},
                          "epsilon must be positive"),
    "empty-output": (PSG_PLAIN, {"output": ""}, "output needs a path"),
    "x0-unclosed": (PSG_PLAIN, {"x0": "[3,-33"},
                    "bad x0: missing ']' for the '[' at column 1 of '[3,-33'"),
    "x0-paren": (PSG_PLAIN, {"x0": "[3,-3)"}, "bad x0: stray ')' at column 6 of '[3,-3)'"),
    "reference-unclosed": (PSG_PLAIN, {"reference": "[1,22"},
                           "bad reference vector: missing ']' for the '[' at column 1"),
    "set-empty-arg": (PSG_PLAIN, {"set": "ball(0,,1)"}, "empty argument in 'ball(0,,1)'"),
    "set-empty-first-arg": (PSG_PLAIN, {"set": "ball(,0,1)"}, "empty argument in 'ball(,0,1)'"),
    "schedule-empty-arg": (PSG_PLAIN, {"schedule": "psg_adaptive_v1(5,)"},
                           "empty argument in 'psg_adaptive_v1(5,)'"),
    "set-closes-twice": (PSG_PLAIN, {"set": "ball([0,0]],1)"},
                         "stray ']' at column 11 of 'ball([0,0]],1)'"),
    "set-stray-close": (PSG_PLAIN, {"set": "ball(0],1)"}, "stray ']' at column 7 of 'ball(0],1)'"),
    "set-unclosed-vector": (PSG_PLAIN, {"set": "ball([[0,0],1)"},
                            "stray '[' at column 7 of 'ball([[0,0],1)'"),
    "x0-nested": (PSG_PLAIN, {"x0": "[[1,2]]"}, "bad x0: stray '[' at column 2 of '[[1,2]]'"),
    "x0-empty": (PSG_PLAIN, {"x0": "[]"}, "bad x0: empty vector"),
    "ball-vector-radius": (PSG_PLAIN, {"set": "ball(0,[1,1])"},
                           "ball takes a number as its second argument"),
    "Q-closes-early": (PSG_PLAIN, {"Q": "[[1,0]];[0,-1]]"},
                       "bad matrix: stray ';' at column 8 of '[[1,0]];[0,-1]]'"),
    "adaptive-v1-two-args": (PSG_PLAIN, {"schedule": "psg_adaptive_v1(5,4)"},
                             "schedule psg_adaptive_v1 takes 1 parameter(s), got 2"),
    "adaptive-v1-a-0": (PSG_PLAIN, {"schedule": "psg_adaptive_v1(0)"}, "a_const must be nonzero"),
}


@pytest.mark.parametrize("base, edits, problem", list(_REFUSED.values()), ids=list(_REFUSED))
def test_cli_refuses_what_a_run_would_ignore_or_crash_on(tmp_path, base, edits, problem):
    text = base
    for key, value in edits.items():
        text = _with(text, key, value)
    code, err = _run_cli(tmp_path, text)
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines() and all(ln.startswith("config error: ") for ln in err.splitlines())
    assert problem in err


# per schedule name: a base config of an algorithm that takes it, its
# arguments, and the schedule the constructor builds from them and the
# base's gamma0 and a0 directly
_SCHEDULE_CASES = {
    "ppa_additive": (PPA_PLAIN, "0.5", PpaAdditive(0.5, 1.0, delta=0.5)),
    "psg_constant": (PSG_PLAIN, "", PsgConstantGamma(1.0, 50.0)),
    "psg_adaptive_v1": (PSG_PLAIN, "0.5", PsgAdaptiveV1(1.0, 50.0, a_const=0.5)),
    "psg_adaptive_v2": (PSG_PLAIN, "0.5", PsgAdaptiveV2(1.0, 50.0, epsilon=0.5)),
    "fb_constant": (FB_TEXT, "0.5", FbConstant(0.1, 200.0, a_const=0.5)),
}


@pytest.mark.parametrize("name", list(_SCHEDULES))
def test_each_schedule_name_builds_its_schedule(name):
    base, args, direct = _SCHEDULE_CASES[name]
    cfg = parse_config(_with(base, "schedule", f"{name}({args})"))
    assert cfg.schedule == direct
    k = args.count(",") + 1 if args else 0
    extra = f"{name}({args}, 1)" if args else f"{name}(1)"
    assert any(f"schedule {name} takes {k} parameter(s), got {k + 1}" in e
               for e in errors_of(_with(base, "schedule", extra)))


# What each algorithm takes, written out here rather than read from the
# parser's table: (algorithm, key, value) -> None when the config parses,
# else the key whose line is refused and the one problem reported.  An
# "oracle" case gives Q or a function, with an x0 of its dimension.
_COMPATIBILITY = {
    ("ppa", "schedule", "ppa_additive(0.5)"): None,
    ("ppa", "schedule", "psg_constant"):
        ("schedule", "schedule psg_constant is not usable with algorithm ppa"),
    ("ppa", "schedule", "psg_adaptive_v1(5)"):
        ("schedule", "schedule psg_adaptive_v1 is not usable with algorithm ppa"),
    ("ppa", "schedule", "psg_adaptive_v2(0.5)"):
        ("schedule", "schedule psg_adaptive_v2 is not usable with algorithm ppa"),
    ("ppa", "schedule", "fb_constant(5)"):
        ("schedule", "schedule fb_constant is not usable with algorithm ppa"),
    ("fb", "schedule", "ppa_additive(0.5)"):
        ("schedule", "schedule ppa_additive is not usable with algorithm fb"),
    ("fb", "schedule", "psg_constant"): None,
    ("fb", "schedule", "psg_adaptive_v1(5)"):
        ("schedule", "schedule psg_adaptive_v1 is not usable with algorithm fb"),
    ("fb", "schedule", "psg_adaptive_v2(0.5)"): None,
    ("fb", "schedule", "fb_constant(5)"): None,
    ("psg", "schedule", "ppa_additive(0.5)"):
        ("schedule", "schedule ppa_additive is not usable with algorithm psg"),
    ("psg", "schedule", "psg_constant"): None,
    ("psg", "schedule", "psg_adaptive_v1(5)"): None,
    ("psg", "schedule", "psg_adaptive_v2(0.5)"): None,
    ("psg", "schedule", "fb_constant(5)"):
        ("schedule", "schedule fb_constant is not usable with algorithm psg"),
    ("ppa", "oracle", "Q"): None,
    ("ppa", "oracle", "abs_plus_square"): None,
    ("ppa", "oracle", "hessian_example"):
        ("function", "oracle hessian_example is not usable with algorithm ppa"),
    ("fb", "oracle", "Q"): ("Q", "oracle Q is not usable with algorithm fb"),
    ("fb", "oracle", "abs_plus_square"):
        ("function", "oracle abs_plus_square is not usable with algorithm fb"),
    ("fb", "oracle", "hessian_example"): None,
    ("psg", "oracle", "Q"): None,
    ("psg", "oracle", "abs_plus_square"): None,
    ("psg", "oracle", "hessian_example"):
        ("function", "oracle hessian_example is not usable with algorithm psg"),
    ("ppa", "set", "ball(0, 10)"): ("set", "set is not used by algorithm ppa"),
    ("ppa", "a_f", "3"): ("a_f", "a_f is not used by algorithm ppa"),
    ("ppa", "epsilon", "0.1"): ("epsilon", "epsilon is not used by algorithm ppa"),
    ("fb", "set", "ball(0, 10)"): None,
    ("fb", "a_f", "3"): ("a_f", "a_f is not used by algorithm fb"),
    ("fb", "epsilon", "0.1"): None,
    ("psg", "set", "ball(0, 10)"): None,
    ("psg", "a_f", "3"): None,
    ("psg", "epsilon", "0.1"): ("epsilon", "epsilon is not used by algorithm psg"),
}
_ORACLE_EDITS = {
    "Q": {"function": None, "Q": "[[1,2];[2,1]]", "x0": "[3,-3]"},
    "abs_plus_square": {"Q": None, "function": "abs_plus_square", "x0": "-10"},
    "hessian_example": {"Q": None, "function": "hessian_example", "x0": "[-5,-1]"},
}


@pytest.mark.parametrize("algorithm, key, value", list(_COMPATIBILITY),
                         ids=["-".join(case) for case in _COMPATIBILITY])
def test_compatibility_matrix(algorithm, key, value):
    text = {"ppa": PPA_PLAIN, "fb": FB_TEXT, "psg": PSG_PLAIN}[algorithm]
    for k, v in (_ORACLE_EDITS[value] if key == "oracle" else {key: value}).items():
        text = _with(text, k, v)
    want = _COMPATIBILITY[algorithm, key, value]
    if want is None:
        assert parse_config(text).algorithm == algorithm
        return
    refused_key, problem = want
    lineno = next(i for i, ln in enumerate(text.splitlines(), start=1)
                  if ln.split("=")[0].strip() == refused_key)
    assert errors_of(text) == [f"line {lineno}: {problem}"]


def test_set_numbers_broadcast_to_x0(tmp_path):
    # a number stands for itself in every coordinate, so a scalar halfspace
    # normal and a scalar ball center work in any dimension
    cfg = parse_config(_with(PSG_PLAIN, "set", "halfspace(1, 0)"))
    assert _same(cfg.set, Halfspace(np.ones(2), 0.0))
    assert _run_cli(tmp_path, _with(PSG_PLAIN, "set", "halfspace(1, 0)"))[0] == 0
    assert _run_cli(tmp_path, _with(FB_TEXT, "set", "ball(0, 10)"))[0] == 0


def test_cli_unwritable_output_is_a_run_failure(tmp_path, capsys):
    cfg = tmp_path / "psg.cfg"
    cfg.write_text(PSG_TEXT)
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "no" / "x.csv")]) == 3
    assert "cannot write CSV" in capsys.readouterr().err


def test_cli_reproduce_into_a_file_is_a_run_failure(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["reproduce", "ppa-absq", "--out-dir", str(taken)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("run failed: ")


@pytest.mark.parametrize("edits", [{}, {"set": "ball(0,1)", "schedule": "fb_constant(200)"}],
                         ids=["psg-constant", "ball-fb-constant"])
@pytest.mark.parametrize("x0", ["[1e300,1e300]", "[-1e308,-1e308]"], ids=["1e300", "-1e308"])
def test_cli_a_far_fb_start_is_a_run_failure(tmp_path, x0, edits):
    # hessian_example's Python ** raises OverflowError at the start's value,
    # which no library error class names; the ball's membership test of the
    # start overflows in numpy before that, which is not what is tested here
    text = _with(FB_TEXT, "x0", x0)
    for key, value in edits.items():
        text = _with(text, key, value)
    with np.errstate(over="ignore"):
        code, err = _run_cli(tmp_path, text)
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("run failed: ")
    assert "Traceback" not in err


def test_cli_any_failure_of_a_subcommand_exits_3(monkeypatch, capsys):
    def boom():
        raise RuntimeError("boom")

    monkeypatch.setattr(checks, "verify_results", boom)
    assert cli.main(["verify"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "run failed: boom\n"


def test_cli_descent_violation_warns_or_fails_under_strict(tmp_path, monkeypatch):
    # a prox that always steps left of x0 = -10 makes every ppa step ascend
    monkeypatch.setattr(oracles, "prox_abs_square_closed_form", lambda x0, gamma, a0: x0 - 1.0)
    monkeypatch.delenv("ABSPROX_STRICT", raising=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = _run_cli(tmp_path, PPA_TEXT)
    flagged = [w for w in caught if issubclass(w.category, TheoremViolationWarning)]
    assert code == 0
    # one per step of N = 20, each naming the caller of run_ppa
    assert [Path(w.filename).name for w in flagged] == ["experiments.py"] * 20

    monkeypatch.setenv("ABSPROX_STRICT", "1")
    before = list(warnings.filters)
    code, err = _run_cli(tmp_path, PPA_TEXT)
    assert code == 3
    assert len(err.splitlines()) == 1
    assert err.startswith("run failed: descent violated at iteration 0")
    assert "Traceback" not in err
    assert list(warnings.filters) == before


ADAPTIVE_V1_TEXT = f"""
algorithm = psg
Q = {Q3_TEXT}
set = ball(0,1)
x0 = [-5,5,-5]
gamma0 = 1
a0 = 5
a_f = 4.5
schedule = psg_adaptive_v1(5)
N = 3
"""


def test_adaptive_v1_steps_with_the_configured_a_f():
    # the config's a_f drives the stepsize as well as the subgradient:
    # gamma_{n+1} = gamma_n (5 - 4.5) / 5
    records = run_config(parse_config(ADAPTIVE_V1_TEXT)).result.records
    assert [r.a_fn for r in records[:-1]] == [4.5, 4.5, 4.5]
    assert [r.gamma_n for r in records] == pytest.approx([1.0, 0.1, 0.01, 0.001], rel=1e-12)
    # without the key the run queries Q3's feasible threshold, 4, at every
    # step, and the schedule steps with it: gamma_{n+1} = gamma_n (5 - 4) / 5
    records = run_config(parse_config(_with(ADAPTIVE_V1_TEXT, "a_f", None))).result.records
    assert [r.a_fn for r in records[:-1]] == [4.0, 4.0, 4.0]
    assert [r.gamma_n for r in records] == pytest.approx([1.0, 0.2, 0.04, 0.008], rel=1e-12)


# the fuzz edits a config with the values of the seeded corpus
_VALUES = {key: st.sampled_from(values) for key, values in CORPUS._VALUES.items()}
_VALUES["N"] = st.integers(0, 50).map(str) | _VALUES["N"]
_JUNK = st.text(alphabet=CORPUS._JUNK, max_size=12)
# (key, new value or None to drop the key)
_EDIT = st.sampled_from(sorted(_VALUES)).flatmap(
    lambda k: st.tuples(st.just(k), st.none() | _VALUES[k] | _JUNK))


@settings(max_examples=120, deadline=None)
@given(base=st.sampled_from([PSG_TEXT, PPA_PLAIN, FB_TEXT]),
       edits=st.lists(_EDIT, max_size=3), junk=st.lists(_JUNK, max_size=2))
def test_cli_fuzzed_config_text_never_tracebacks(tmp_path_factory, base, edits, junk):
    text = base
    for key, value in edits:
        text = _with(text, key, value)
    text += "\n".join(junk) + "\n"
    work = tmp_path_factory.mktemp("fuzz")
    (work / "case.cfg").write_text(text)
    err = io.StringIO()
    here = os.getcwd()
    os.chdir(work)  # the CSV lands next to the config unless output says otherwise
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "case.cfg"])
    finally:
        os.chdir(here)
    assert code in (0, 2, 3), text
    assert "Traceback" not in err.getvalue()


def test_bundled_csvs_match_frozen_digests(tmp_path, capsys):
    # `absprox reproduce` of every bundled sweep writes the frozen CSVs and
    # prints the frozen summary lines, one per CSV
    want = json.loads(DIGESTS.read_text())
    for name in EXPERIMENTS:
        assert cli.main(["reproduce", name, "--out-dir", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert len(want) == 27
    assert got == want
    printed = capsys.readouterr().out.replace(f"{tmp_path}{os.sep}", "")
    assert printed == REPRODUCE_STDOUT.read_text()
