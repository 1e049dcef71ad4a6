"""Every exported name exists, the package re-exports only exported names,
and the config documentation names every key the parser accepts.

A stale ``__all__`` entry breaks ``from absprox.<module> import *``; a name
``absprox/__init__`` imports from a module's private surface would be an
export nothing declares.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import absprox
from absprox import config, oracles, prox

INIT = Path(absprox.__file__)
MODULES = sorted(p.stem for p in INIT.parent.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module(f"absprox.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_only_declared_exports():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    undeclared = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            declared = importlib.import_module(f"absprox.{node.module}").__all__
            undeclared += [f"{node.module}.{a.name}" for a in node.names
                           if a.name not in declared]
    assert undeclared == []


@pytest.mark.parametrize("name", ["ProxRequest", "prox_abs_square_closed_form"])
def test_the_prox_contract_is_one_object_wherever_it_is_imported(name):
    # oracles defines it beside the prox methods; prox and the package re-export it
    assert getattr(absprox, name) is getattr(prox, name) is getattr(oracles, name)


def _keys_of(block: str) -> set[str]:
    return set(re.findall(r"^\s*(\w+) = ", block, flags=re.MULTILINE))


def test_config_docs_name_every_parsed_key():
    grammar = config.__doc__.split("Grammar::", 1)[1].split("\n\n")[1]
    readme = (INIT.parents[2] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config format", 1)[1].split("```ini", 1)[1].split("```", 1)[0]
    assert set(config._PARSERS) - _keys_of(grammar) == set()
    assert set(config._PARSERS) - _keys_of(block) == set()
