"""Every exported name exists, the package exports by the one rule its
docstring states, and the config documentation names every key the parser
accepts.

A stale ``__all__`` entry breaks ``from absprox.<module> import *``, and
with it ``import absprox``.  The package star-imports its modules, so a
module without ``__all__`` would leak ``np``, ``math`` and every helper it
imports into the package.
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


def test_package_is_its_docstring_star_imports_and_version():
    body = ast.parse(INIT.read_text(encoding="utf-8")).body
    docstring, *imports, version = body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert all(isinstance(n, ast.ImportFrom) and n.level == 1
               and [a.name for a in n.names] == ["*"] for n in imports)
    assert ast.unparse(version).startswith("__version__ = ")
    starred = [importlib.import_module(f"absprox.{n.module}") for n in imports]
    assert [m.__name__ for m in starred if not hasattr(m, "__all__")] == []


@pytest.mark.parametrize("name", ["ProxRequest", "prox_abs_square_closed_form"])
def test_the_prox_contract_is_one_object_wherever_it_is_imported(name):
    # oracles defines and exports it beside the prox methods; prox imports it, and
    # the package star-imports it from oracles
    assert getattr(absprox, name) is getattr(prox, name) is getattr(oracles, name)


def _keys_of(block: str) -> set[str]:
    return set(re.findall(r"^\s*(\w+) = ", block, flags=re.MULTILINE))


def test_config_docs_name_every_parsed_key():
    grammar = config.__doc__.split("Grammar::", 1)[1].split("\n\n")[1]
    readme = (INIT.parents[2] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config format", 1)[1].split("```ini", 1)[1].split("```", 1)[0]
    assert set(config._PARSERS) - _keys_of(grammar) == set()
    assert set(config._PARSERS) - _keys_of(block) == set()
