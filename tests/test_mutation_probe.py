"""The mutation probe's list still applies to the source: every mutant
changes one line of its file, every arithmetic mutant one operator of it,
names are unique across the hand-listed and both generated kinds, every
module the probe mutates but ``prox`` yields an arithmetic mutant, and every
listed equivalent is a generated mutant.

A whole probe run takes minutes, so a stale entry would otherwise show only
then.  The probe is loaded from its source text, and no mutant runs.
"""

import types
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parent / "mutation_probe.py"


@pytest.fixture(scope="module")
def probe():
    module = types.ModuleType("absprox_mutation_probe")
    module.__file__ = str(PROBE)
    exec(compile(PROBE.read_text(encoding="utf-8"), str(PROBE), "exec"), module.__dict__)
    return module


def test_every_mutant_changes_exactly_one_line_of_its_file(probe):
    texts = {}
    wrong = []
    for name, file, old, new in probe.MUTANTS:
        if file not in texts:
            texts[file] = (probe.ROOT / "src" / "absprox" / file).read_text(encoding="utf-8")
        text = texts[file]
        try:
            mutated = probe.mutate(name, file, old, new, text)
        except ValueError as e:
            wrong.append(str(e))
            continue
        before, after = text.splitlines(), mutated.splitlines()
        changed = sum(a != b for a, b in zip(before, after))
        if new == old or len(before) != len(after) or changed != 1:
            wrong.append(f"{name}: changes {changed} lines")
    assert wrong == []


def test_mutant_names_are_unique(probe):
    names = [m[0] for m in probe.MUTANTS]
    assert sorted({n for n in names if names.count(n) > 1}) == []


def test_every_arithmetic_mutant_swaps_one_operator(probe):
    swaps = {("+", "-"), ("-", "+"), ("*", "/"), ("/", "*")}
    wrong = []
    for file in probe.MUTATED:
        mutants = probe.arithmetic_mutants(file)
        assert mutants or file == "prox.py", file  # prox has no + - * / site
        for name, _, old, new in mutants:
            diff = [(a, b) for a, b in zip(old, new) if a != b]
            if len(old) != len(new) or len(diff) != 1 or diff[0] not in swaps:
                wrong.append(f"{name}: {old.strip()!r} -> {new.strip()!r}")
    assert wrong == []


def test_every_listed_equivalent_is_a_generated_mutant(probe):
    generated = {m[0] for m in probe.MUTANTS if ":" in m[0]}
    assert set(probe.EQUIVALENT) - generated == set()
