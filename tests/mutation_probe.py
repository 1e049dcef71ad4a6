"""Mutation probe: does tier-1 catch a one-line fault in a guard, a
tolerance or a formula?

Each mutant is a (name, file, old text, new text) quadruple.  The probe
copies ``src/`` to a temporary directory, replaces the old text (which must
occur exactly once) in that copy, and runs tier-1 under ``-x`` against it.
A mutant whose run passes is missed: no test pins the code it changed.  The
unmutated copy runs first and must pass.

Most mutants are listed by hand.  The boundary mutants of the modules in
``GENERATED`` are made from their source: at each one-line, one-operator
order comparison the boundary flips (``<`` and ``<=``, ``>`` and ``>=``),
and the mutant's old text is the whole source line.  Such a mutant is named
``<module>:<line>:<column>``, the column (in bytes) where the comparison's
left operand ends.

Run it by hand from anywhere; the whole list takes about 4 minutes on a
shared 2-CPU host:

    python tests/mutation_probe.py            # every mutant
    python tests/mutation_probe.py admit ...  # the named ones

It prints one line per mutant and exits 1 if any was missed.  pytest does
not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the modules whose order comparisons are flipped at the boundary; the
# arbiter ``reference`` and the suites of ``checks`` stay out
GENERATED = ["algorithms.py"]

_OPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}


def boundary_mutants(file: str) -> list[tuple[str, str, str, str]]:
    """One mutant per one-line, one-operator order comparison in ``file``."""
    text = (ROOT / "src" / "absprox" / file).read_text(encoding="utf-8")
    lines = text.splitlines()
    nodes = sorted((node for node in ast.walk(ast.parse(text))
                    if isinstance(node, ast.Compare) and len(node.ops) == 1
                    and type(node.ops[0]) in _OPS and node.lineno == node.end_lineno),
                   key=lambda node: (node.lineno, node.col_offset))
    out = []
    for node in nodes:
        old, new = _OPS[type(node.ops[0])]
        line = lines[node.lineno - 1].encode("utf-8")  # ast columns count bytes
        # the operator lies between the two operands
        start, end = node.left.end_col_offset, node.comparators[0].col_offset
        gap = line[start:end].decode("utf-8").replace(old, new, 1)
        mutated = (line[:start] + gap.encode("utf-8") + line[end:]).decode("utf-8")
        out.append((f"{Path(file).stem}:{node.lineno}:{start}", file,
                    line.decode("utf-8"), mutated))
    return out


HAND_LISTED = [
    ("ppa-global-min-tol", "algorithms.py",
     "abs(0.5 / rec.gamma_n + rec.a_n) <= 1e-12", "abs(0.5 / rec.gamma_n + rec.a_n) <= 1e-6"),
    ("ppa-descent-tol", "algorithms.py", "rec.f_xn + 1e-10", "rec.f_xn + 1e-2"),
    # the quadratic prox exists exactly where min eig + weight > 0, and is
    # V ((V^T (w x0)) / (lam + w))
    ("quadratic-prox-rule", "oracles.py", "if not lam + w > 0.0:", "if not lam + w >= 0.0:"),
    ("quadratic-prox-formula", "oracles.py", "(v.T @ (w * req.x0))", "(v.T @ req.x0)"),
    ("contains-tol", "oracles.py", "_CONTAINS_TOL = 1e-9", "_CONTAINS_TOL = 1e-3"),
    ("admit", "oracles.py", "if not a >= a_min:", "if not a >= a_min - 1e-6:"),
    ("fejer-rtol", "diagnostics.py", "_RTOL = 1e-9", "_RTOL = 1e-3"),
    ("sampler-verdict", "reference.py", "bool(worst >= -1e-9)", "bool(worst >= -1e-3)"),
    ("ppa-decrement-feasibility", "algorithms.py",
     "if not rec.a_n - a_next >= f.feasible_range(x_next):",
     "if not a_next - rec.a_n >= f.feasible_range(x_next):"),
    ("fb-prox-coefficient", "algorithms.py",
     "ProxRequest(f, x - grad / (2.0 * c), gamma, a - a_g)",
     "ProxRequest(f, x - grad / (2.0 * c), gamma, a)"),
    ("inner-margin-sign", "oracles.py",
     "margin = 2.0 * (w - float(f.kappa(z)))", "margin = 2.0 * (w + float(f.kappa(z)))"),
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
    # the boundaries themselves: each guard's value at exactly its threshold
    ("inner-margin", "oracles.py", "and margin > 0.0)", "and margin >= 0.0)"),
    ("inner-gradient-factor", "oracles.py",
     "if r_t <= (1.0 - 1e-4) * r:", "if r_t <= r:"),
    ("inner-gradient-strict", "oracles.py",
     "if r_t <= (1.0 - 1e-4) * r:", "if r_t < (1.0 - 1e-4) * r:"),
    ("norm-square-gamma", "oracles.py", "if not self.gamma > 0:", "if not self.gamma >= 0:"),
    ("box-order", "oracles.py", "np.all(self.lo <= self.hi)", "np.all(self.lo < self.hi)"),
    # main maps any exception of a command to exit 3, not a fixed list
    ("cli-catch-all", "cli.py", "except Exception as e:", "except ValueError as e:"),
]

MUTANTS = HAND_LISTED + [m for file in GENERATED for m in boundary_mutants(file)]


def _tier1(src: Path) -> bool:
    """Whether tier-1 passes against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        # test_exports reads the README beside the package's src/
        shutil.copy(ROOT / "README.md", tmp)
        if not _tier1(src):
            print("tier-1 fails without a mutant", file=sys.stderr)
            return 2
        missed = []
        for name, file, old, new in MUTANTS:
            if names and name not in names:
                continue
            path = src / "absprox" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{name}: the old text occurs {text.count(old)} times in {file}",
                      file=sys.stderr)
                return 2
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                caught = not _tier1(src)
            finally:
                path.write_text(text, encoding="utf-8")
            print(f"{'caught' if caught else 'MISSED':7} {name}", flush=True)
            if not caught:
                missed.append(name)
    print(f"{len(missed)} missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
