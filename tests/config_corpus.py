"""A seeded corpus of config texts, and how two checkouts of absprox parse it.

Not a test module (pytest collects only ``test_*.py``), so it adds no test
time.  Dump what one checkout makes of the corpus, then compare two dumps::

    PYTHONPATH=<old>/src python tests/config_corpus.py dump old.json
    PYTHONPATH=<new>/src python tests/config_corpus.py dump new.json
    python tests/config_corpus.py compare old.json new.json

``dump`` parses every config and records the objects it builds (as a
fingerprint), its refusal lines, or the exception that escaped
``parse_config``.  ``compare`` prints one table row per outcome (identical,
newly refused, newly accepted, changed refusal lines, traceback), split by
the classes of the refusal lines that differ, and exits 1 when a config
tracebacks on either side, builds different objects on the two sides, or
changes a line no class names.  ``--seed`` and ``--count`` pick the corpus;
both dumps must use the same ones.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import random
import re
import sys

import numpy as np

_BASES = [
    """algorithm = psg
Q = [[1,2];[2,1]]
set = ball(0, 1)
x0 = [3, -3]
gamma0 = 1
a0 = 50
a_f = 3
schedule = psg_constant
N = 5
reference = auto_eigen
""",
    """algorithm = psg
Q = [[-2,2,2];[2,2,-2];[2,-2,2]]
set = ball(0,1)
x0 = [-5,5,-5]
gamma0 = 1
a0 = 5
a_f = 4
schedule = psg_adaptive_v1(5)
N = 5
""",
    """algorithm = ppa
function = abs_plus_square
x0 = -10
gamma0 = 0.5
a0 = 1
schedule = ppa_additive(0.9)
N = 5
reference = [0]
""",
    """algorithm = fb
function = hessian_example
x0 = [-5, -1]
gamma0 = 0.1
a0 = 200
epsilon = 0.1
schedule = psg_constant
N = 5
""",
]
_NUMBERS = ["1", "0.5", "-1", "0", "4", "200", "1e-3", "nan", "inf", "-inf", "x", "", "[1]",
            "1e400", "2)", "(2"]
_VECTORS = ["[3,-3]", "[-5,5,-5]", "[1]", "-10", "[-5,-1]", "[nan,1]", "[1,,2]", "[]",
            "[1e400,0]", "0", "[3,-33", "[3,-3)", "[[1,2]]", "[1,2]]", "[1;2]", "[ 3 , -3 ]",
            "(3,-3)", "[3,-3]x", "x[3,-3]", "]3,-3["]
_VALUES = {
    "algorithm": ["ppa", "fb", "psg", "newton", ""],
    "function": ["abs_plus_square", "hessian_example", "sin", "abs_plus_square()"],
    "Q": ["[[1,2];[2,1]]", "[[-2,2,2];[2,2,-2];[2,-2,2]]", "[[1]]", "[[1,2];[3,1]]", "[[1,2]]",
          "[[nan,0];[0,1]]", "[[1,2];[2]]", "[1,2]", "[[0,0];[0,0]]", "[[1,0]];[0,-1]]",
          "[[1,2],[2,1]]", "[ [1,2];[2,1] ]", "[[1,2];[2,1]", "[[1,2];(2,1)]", "[[1,2];[2,1]]]",
          "[[[1,2];[2,1]]]", "[[1,2]x;[2,1]]"],
    "set": ["ball(0,1)", "ball(0,0)", "ball([0,0],2)", "ball(0,[1])", "box(-1,1)", "box(1,-1)",
            "box([-1,-1],[1,1])", "halfspace(1,0)", "halfspace([0,0],1)", "halfspace([1,0,0],1)",
            "cone(1,2)", "ball(1)", "ball(0,nan)", "ball(0,,1)", "ball(,0,1)", "ball([0,0]],1)",
            "ball(0],1)", "ball([[0,0],1)", "ball (0,1)", "ball(0,1)x", "ball[0,1]",
            "box([-1,-1],[1,1]", "halfspace([1,0],0))", "ball((0),1)", "ball([0;0],1)"],
    "x0": _VECTORS, "reference": _VECTORS + ["auto_eigen"],
    "gamma0": _NUMBERS, "a0": _NUMBERS, "a_f": _NUMBERS, "epsilon": _NUMBERS,
    "schedule": ["psg_constant", "ppa_additive(0.9)", "ppa_additive(-2)", "psg_adaptive_v1(5)",
                 "psg_adaptive_v1(5,4)", "psg_adaptive_v1(0)", "psg_adaptive_v1(0,4)",
                 "psg_adaptive_v1(-5)", "psg_adaptive_v2(1)", "psg_adaptive_v2(-1)",
                 "psg_adaptive_v2(0)", "fb_constant(5)", "fb_constant(nan)", "warp(1)",
                 "ppa_additive(1,2)", "psg_constant(", "psg_constant()", "psg_constant)",
                 "psg_adaptive_v1(5,,4)", "psg_adaptive_v1(5,)", "ppa_additive([1])",
                 "psg_adaptive_v2((1))"],
    "N": ["0", "1", "5", "2.5", "-1", "inf", "nan", "x"],
    "output": ["out.csv", "missing-dir/out.csv", ""],
    "seed": ["1"],
}
# no digits, '=' or line breaks: junk never forms a valid key line of its own
_JUNK = "abcxyz_[](),;# .-+"

# the classes of refusal lines a comparison may show; a changed line that
# matches none of them fails the comparison
_CLASSES = {
    "brackets": re.compile(r"stray |missing '|must look like|malformed (set descriptor|schedule)"),
    "uniform rules": re.compile(r"requires |is not usable with|is not used by|give either"),
    "constructor messages": re.compile(r"(gamma0?|eps|epsilon) must be positive"),
    "psg_adaptive_v1 arity": re.compile(r"schedule psg_adaptive_v1 takes"),
    "psg_adaptive_v1(0)": re.compile(r"a_const must be nonzero"),
    "auto_eigen outside psg over ball(0, r)": re.compile(r"auto_eigen needs psg over a ball"),
}


def corpus(seed: int, count: int) -> list[str]:
    """``count`` configs, each a base with up to three keys edited or
    dropped and up to two junk lines added."""
    rng = random.Random(seed)
    keys = sorted(_VALUES)
    texts = []
    for _ in range(count):
        lines = rng.choice(_BASES).splitlines()
        for _ in range(rng.randrange(4)):
            key = rng.choice(keys)
            lines = [ln for ln in lines if ln.split("=")[0].strip() != key]
            if rng.random() < 0.85:
                lines.append(f"{key} = {rng.choice(_VALUES[key])}")
        lines += ["".join(rng.choice(_JUNK) for _ in range(rng.randrange(1, 12)))
                  for _ in range(rng.randrange(3) // 2)]
        texts.append("\n".join(lines) + "\n")
    return texts


def fingerprint(obj):
    """A JSON-able value equal for two objects exactly when their fields
    (arrays by their bytes, functions by name) are."""
    if dataclasses.is_dataclass(obj):
        return [type(obj).__name__] + [[f.name, fingerprint(getattr(obj, f.name))]
                                       for f in dataclasses.fields(obj)]
    if isinstance(obj, np.ndarray):
        return ["ndarray", obj.dtype.str, list(obj.shape), obj.tobytes().hex()]
    if callable(obj):
        return ["function", obj.__qualname__]
    if isinstance(obj, float):
        return ["float", obj.hex()]
    return [type(obj).__name__, obj]


def dump(path: str, seed: int, count: int) -> None:
    from absprox.config import ConfigError, parse_config

    out = []
    for text in corpus(seed, count):
        try:
            row = {"built": fingerprint(parse_config(text))}
        except ConfigError as e:
            row = {"refused": e.errors}
        except Exception as e:  # what the CLI contract forbids: record it, keep going
            row = {"traceback": f"{type(e).__name__}: {e}"}
        out.append({"text": text, **row})
    with open(path, "w") as fh:
        json.dump({"seed": seed, "count": count, "configs": out}, fh)


def _line_classes(lines) -> str:
    """The classes of changed refusal lines.  The lines of one config line
    go together: an old and a new problem with the same value (a bracket
    error where a number error was) are one change, classed by either."""
    groups = collections.defaultdict(list)
    for line in lines:
        groups[re.match(r"(line \d+: )?", line).group() or line].append(line)
    found = set()
    for group in groups.values():
        hits = [name for name, pattern in _CLASSES.items()
                if any(pattern.search(line) for line in group)]
        found.add(hits[0] if hits else "UNCLASSIFIED")
    return " + ".join(sorted(found)) or "line order"


def compare(old_path: str, new_path: str) -> int:
    old, new = (json.load(open(p)) for p in (old_path, new_path))
    if (old["seed"], old["count"]) != (new["seed"], new["count"]):
        raise SystemExit("the dumps use different corpora")
    table, bad = collections.Counter(), collections.Counter()
    for a, b in zip(old["configs"], new["configs"]):
        if "traceback" in a or "traceback" in b:
            outcome, classes = "traceback", a.get("traceback") or b.get("traceback")
        elif "built" in a and "built" in b:
            outcome = "identical, built" if a["built"] == b["built"] else "built objects differ"
            classes = ""
        elif "built" in a:
            outcome, classes = "newly refused", _line_classes(b["refused"])
        elif "built" in b:
            outcome, classes = "newly accepted", _line_classes(a["refused"])
        elif a["refused"] == b["refused"]:
            outcome, classes = "identical, refused", ""
        else:
            changed = set(a["refused"]) ^ set(b["refused"])
            outcome, classes = "changed refusal lines", _line_classes(changed)
        table[outcome, classes] += 1
        if outcome in ("traceback", "built objects differ") or "UNCLASSIFIED" in classes:
            bad[outcome, classes] += 1
            if bad[outcome, classes] <= 3:
                print(f"# {outcome} {classes}:\n{b['text']}", file=sys.stderr)
    print(f"corpus: seed {old['seed']}, {old['count']} configs\n")
    print("| outcome | class | configs |\n| --- | --- | ---: |")
    for (outcome, classes), n in sorted(table.items()):
        print(f"| {outcome} | {classes or '-'} | {n} |")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="parse the corpus with the importable absprox")
    d.add_argument("out")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--count", type=int, default=20000)
    c = sub.add_parser("compare", help="the outcome table of two dumps")
    c.add_argument("old")
    c.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out, args.seed, args.count)
        return 0
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
