"""Mutation probe: does tier-1 catch a one-line fault in a guard, a
tolerance or a formula?

Each mutant is a (name, file, old text, new text) quadruple.  The probe
copies ``src/`` to a temporary directory, replaces the old text in that
copy (see ``mutate``), and runs tier-1 under ``-x`` against it.
A mutant whose run passes is missed: no test pins the code it changed.  The
unmutated copy runs first and must pass.

Most mutants are listed by hand.  The others are made from the source of
each module in ``MUTATED``: every module of the package but ``__init__``,
the arbiter ``reference``, the suites of ``checks`` and the ``cli``.  Its
boundary mutants flip the boundary of each one-line, one-operator order
comparison (``<`` and ``<=``, ``>`` and ``>=``).  Its arithmetic mutants
swap the operator of each one-line binary operation or augmented assignment
(``+`` and ``-``, ``*`` and ``/``).  A generated mutant's old text is the whole
source line.  It is named ``<module>:<line>:<column>``, the column (in
bytes) where the operation's left operand ends, and is applied at its line,
since the same line may occur more than once in a module.  A hand-listed
mutant's old text must occur exactly once in its file.  A generated mutant
that no test can catch, because it changes no result, is listed in
``EQUIVALENT`` with the reason; the probe reports it as ``equiv`` when it
survives, and a listed mutant that tier-1 catches counts as missed, since
its listing is then wrong.  A mutant under which tier-1 runs longer than
``TIMEOUT_S`` (a loop that no longer ends) counts as caught.

Run it by hand from anywhere; the whole list took 15 min 37 s on a shared
2-CPU host:

    python tests/mutation_probe.py            # every mutant
    python tests/mutation_probe.py admit ...  # the named ones

It prints one line per mutant and exits 1 if any was missed, or if a
mutant listed as equivalent was caught (``CAUGHT``).  pytest does
not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the modules whose mutants are generated: every module of the package but
# its ``__init__``, the arbiter ``reference``, the suites of ``checks`` and
# the ``cli``, so a new module is mutated by default
MUTATED = sorted(p.name for p in (ROOT / "src" / "absprox").glob("*.py")
                 if p.stem not in ("__init__", "reference", "checks", "cli"))

# seconds of one tier-1 run under a mutant before it counts as caught
TIMEOUT_S = 120

# generated mutants that change no result, each with the reason
EQUIVALENT = {
    # at done == count the extra jump fills the empty slice states[:, count:count]
    "rng:90:14": "`while done <= count` makes one more jump, of no states",
    # at t = -1 and t = 1 the outer branches give (t -/+ 1) / (s + 2) = +0.0,
    # the dead zone's own answer
    "oracles:348:8": "`t <= -1.0` answers +0.0 at t = -1, as the dead zone does",
    "oracles:350:8": "`t >= 1.0` answers +0.0 at t = 1, as the dead zone does",
}

_OPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}
_ARITH = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}


def _generate(file: str, swap) -> list[tuple[str, str, str, str]]:
    """One mutant per one-line node of ``file`` for which ``swap(node)``
    gives (the column where its left operand ends, the column where its
    right operand starts, old operator, new operator)."""
    text = (ROOT / "src" / "absprox" / file).read_text(encoding="utf-8")
    lines = text.splitlines()
    found = []
    for node in ast.walk(ast.parse(text)):
        at = swap(node)
        if at is not None and node.lineno == node.end_lineno:
            found.append((node.lineno, *at))
    out = []
    for lineno, start, end, old, new in sorted(found):
        line = lines[lineno - 1].encode("utf-8")  # ast columns count bytes
        gap = line[start:end].decode("utf-8").replace(old, new, 1)
        mutated = (line[:start] + gap.encode("utf-8") + line[end:]).decode("utf-8")
        out.append((f"{Path(file).stem}:{lineno}:{start}", file, line.decode("utf-8"), mutated))
    return out


def _between(left: ast.AST, right: ast.AST, ops: tuple[str, str]):
    # the operator lies between the two operands
    return (left.end_col_offset, right.col_offset, *ops)


def _boundary(node):
    if isinstance(node, ast.Compare) and len(node.ops) == 1 and type(node.ops[0]) in _OPS:
        return _between(node.left, node.comparators[0], _OPS[type(node.ops[0])])
    return None


def _arithmetic(node):
    if isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
        return _between(node.left, node.right, _ARITH[type(node.op)])
    if isinstance(node, ast.AugAssign) and type(node.op) in _ARITH:
        return _between(node.target, node.value, _ARITH[type(node.op)])
    return None


def boundary_mutants(file: str) -> list[tuple[str, str, str, str]]:
    """One mutant per one-line, one-operator order comparison in ``file``."""
    return _generate(file, _boundary)


def arithmetic_mutants(file: str) -> list[tuple[str, str, str, str]]:
    """One mutant per one-line ``+``, ``-``, ``*`` or ``/`` operation in
    ``file``, binary or augmented."""
    return _generate(file, _arithmetic)


HAND_LISTED = [
    ("ppa-global-min-tol", "algorithms.py",
     "abs(0.5 / gamma + a) <= 1e-12", "abs(0.5 / gamma + a) <= 1e-6"),
    ("ppa-descent-tol", "algorithms.py", "rec.f_xn + 1e-10", "rec.f_xn + 1e-2"),
    # the quadratic prox is V ((V^T (w x0)) / (lam + w))
    ("quadratic-prox-formula", "oracles.py", "(v.T @ (w * req.x0))", "(v.T @ req.x0)"),
    ("contains-tol", "oracles.py", "_CONTAINS_TOL = 1e-9", "_CONTAINS_TOL = 1e-3"),
    ("admit", "oracles.py", "if not a >= a_min:", "if not a >= a_min - 1e-6:"),
    ("fejer-rtol", "diagnostics.py", "_RTOL = 1e-9", "_RTOL = 1e-3"),
    ("sampler-verdict", "reference.py", '"passed": worst >= -1e-9,', '"passed": worst >= -1e-3,'),
    # every lane of a block of streams drawn from the first seed's stream
    ("streams-first-seed", "rng.py", "_states([_seed_state(seed) for seed in seeds]",
     "_states([_seed_state(seeds[0]) for seed in seeds]"),
    ("ppa-decrement-feasibility", "algorithms.py",
     "if not a - a_next >= f.feasible_range(x_next):",
     "if not a_next - a >= f.feasible_range(x_next):"),
    ("fb-prox-coefficient", "algorithms.py",
     "ProxRequest(f, x - grad / (2.0 * c), gamma, a - a_g)",
     "ProxRequest(f, x - grad / (2.0 * c), gamma, a)"),
    ("inner-tolerance", "oracles.py", "_INNER_RTOL = 1e-10", "_INNER_RTOL = 1e-4"),
    ("indicator-negative-a", "oracles.py", "if np.any(a < 0.0):", "if np.any(a < -1.0):"),
    ("coefficient-rule", "phi.py", "(1.0 + 2.0 * (gamma * a) > 0.0)", "(1.0 + (gamma * a) > 0.0)"),
    ("psg-allowance", "diagnostics.py",
     "gamma * gamma * big_u * big_u", "gamma * big_u * big_u"),
    ("abs-square-closed-form", "oracles.py",
     "return (t + 1.0) / (s + 2.0)", "return (t + 1.0) / (s + 1.0)"),
    ("halfspace-rescale", "oracles.py", "if float(n @ n) == math.inf:", "if False:"),
    ("adaptive-v2-degenerate", "algorithms.py", "if a_fn + self.epsilon == 0.0:", "if False:"),
    # the loop's non-finite test without its exact fallback: a finite iterate
    # whose entries sum past the float range would abort
    ("nonfinite-exact-test", "algorithms.py",
     "(math.isfinite(sum(x_next.tolist())) or np.isfinite(x_next).all())",
     "math.isfinite(sum(x_next.tolist()))"),
    # the inverse duality map answers None where the preimage is not one
    # point, not the NaN row of duality_preimages
    ("inverse-none", "phi.py",
     "return points[0] if is_point[0] else None", "return points[0]"),
    # an inf tolerance (an inf gradient at a far x0) certifies nothing
    ("inner-inf-tolerance", "oracles.py",
     "r <= tol < math.inf and margin > 0.0", "r <= tol and margin > 0.0"),
    # psg's allowance needs the oracle; without it the check would be stronger
    ("psg-needs-oracle", "diagnostics.py", "if f is None:", "if False:"),
    # the inner solver's h(z) belongs to one iterate; kept past a move, the
    # Armijo test compares against a stale value
    ("inner-stale-value", "oracles.py",
     "z, grad, r, v = trial, g_t, r_t, None", "z, grad, r = trial, g_t, r_t"),
    ("inner-armijo-constant", "oracles.py",
     "h(trial) <= v - 1e-4 * step * r * r", "h(trial) <= v - 0.5 * step * r * r"),
    ("inner-gradient-factor", "oracles.py",
     "if r_t <= (1.0 - 1e-4) * r:", "if r_t <= r:"),
    # record 0 would alias the caller's start array
    ("start-copy", "algorithms.py", "x = x0.copy()", "x = x0"),
    # main maps any exception of a command to exit 3, not a fixed list
    ("cli-catch-all", "cli.py", "except Exception as e:", "except ValueError as e:"),
]

MUTANTS = HAND_LISTED + [m for file in MUTATED
                         for m in boundary_mutants(file) + arithmetic_mutants(file)]


def mutate(name: str, file: str, old: str, new: str, text: str) -> str:
    """``text``, the source of ``file``, with the mutant applied; ``ValueError``
    unless a generated mutant's line is its old text, or a hand-listed
    mutant's old text occurs exactly once."""
    if ":" in name:  # generated: <module>:<line>:<column>
        lines = text.splitlines(keepends=True)
        i = int(name.split(":")[1]) - 1
        if i >= len(lines) or lines[i].rstrip("\r\n") != old:
            raise ValueError(f"{name}: line {i + 1} of {file} is not the old text")
        lines[i] = new + lines[i][len(old):]
        return "".join(lines)
    if text.count(old) != 1:
        raise ValueError(f"{name}: the old text occurs {text.count(old)} times in {file}")
    return text.replace(old, new)


def _tier1(src: Path) -> str:
    """"pass" or "fail" for tier-1 against the package in ``src``, or
    "timeout" once it has run ``TIMEOUT_S`` seconds; its processes are then
    killed."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        return "pass" if proc.wait(timeout=TIMEOUT_S) == 0 else "fail"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"


def main(names: list[str]) -> int:
    unknown = (set(names) | set(EQUIVALENT)) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        # test_exports reads the README beside the package's src/
        shutil.copy(ROOT / "README.md", tmp)
        if _tier1(src) != "pass":
            print("tier-1 fails without a mutant", file=sys.stderr)
            return 2
        missed = []
        for name, file, old, new in MUTANTS:
            if names and name not in names:
                continue
            path = src / "absprox" / file
            text = path.read_text(encoding="utf-8")
            try:
                mutated = mutate(name, file, old, new, text)
            except ValueError as e:
                print(e, file=sys.stderr)
                return 2
            path.write_text(mutated, encoding="utf-8")
            try:
                outcome = _tier1(src)
            finally:
                path.write_text(text, encoding="utf-8")
            caught = outcome != "pass"
            note = " (timeout)" if outcome == "timeout" else ""
            if name in EQUIVALENT:
                verdict = "CAUGHT" if caught else "equiv"
                print(f"{verdict:7} {name}{note}: {EQUIVALENT[name]}", flush=True)
            else:
                print(f"{'caught' if caught else 'MISSED':7} {name}{note}", flush=True)
            if caught == (name in EQUIVALENT):
                missed.append(name)
    print(f"{len(missed)} missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
