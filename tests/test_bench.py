"""The bench scripts and the tests, read as text, and the scripts loaded in process.

The suite runs no measurement, so a renamed attribute of lindcorr or of its
engine would otherwise break a script unseen, and a test that reads held
entries of a renamed kind would assert on an empty map.  The scripts are loaded and their
argument parsers run, each helper is defined in one file under bench/, and no
script writes a record without being told where.
"""

import ast
import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest

import lindcorr
import lindcorr.cli  # noqa: F401  (a submodule the scripts name)
from lindcorr import _held, decomposition, generators, propagation

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = {"lindcorr": lindcorr, "lc": lindcorr, "propagation": propagation,
           "generators": generators, "decomposition": decomposition, "_held": _held}
# module.attribute, also as lindcorr.module.attribute, in code, comments and docstrings
REFERENCE = re.compile(r"(?<![\w.])(?:lindcorr\.)?(" + "|".join(MODULES) + r")\.([A-Za-z_]\w*)")


@pytest.mark.parametrize("script", sorted(BENCH.glob("*.py")), ids=lambda path: path.name)
def test_bench_script_names_only_existing_attributes(script):
    found = set(REFERENCE.findall(script.read_text()))
    missing = sorted(f"{module}.{name}" for module, name in found
                     if not hasattr(MODULES[module], name))
    assert found and missing == []


# engine.attribute: called on an engine (`ev`) or on its class, in code, comments and docstrings
ENGINE_REFERENCE = re.compile(r"(?:(?<![\w.])ev|\b_SlotEvolver)\.([A-Za-z_]\w*)")


@pytest.mark.parametrize("script", sorted(BENCH.glob("*.py")), ids=lambda path: path.name)
def test_bench_script_names_only_existing_engine_attributes(script):
    atom = lindcorr.two_level_atom(1.0, 0.1, 0.5)
    engine = propagation._SlotEvolver(atom.hamiltonian, decomposition.decompose_model(atom))
    found = set(ENGINE_REFERENCE.findall(script.read_text()))
    assert found and sorted(name for name in found if not hasattr(engine, name)) == []


SCRIPTS = sorted(path for path in BENCH.glob("*.py") if path.name != "_common.py")


def test_bench_helpers_defined_once():
    defined = {}
    for path in BENCH.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                defined.setdefault(name, set()).add(path.name)
    assert "_common.py" in defined["DIMER"]
    assert {name: sorted(files) for name, files in defined.items()
            if len(files) > 1 and name != "main"} == {}


def _load_script(monkeypatch, path: Path):
    """The bench script at `path` imported in process, with its shared module; the
    environment, `sys.path` and `sys.modules` are restored after the test."""
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setattr(sys, "path", list(sys.path))
    for file in (BENCH / "_common.py", path):
        spec = importlib.util.spec_from_file_location(file.stem, file)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, file.stem, module)
        spec.loader.exec_module(module)
    return module


def _refuse(*_args):
    raise AssertionError("a bench script measured without --out")


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_bench_script_loads_and_needs_out(script, monkeypatch, capsys):
    main = _load_script(monkeypatch, script).main
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0 and "--out" in capsys.readouterr().out
    # without --out, argparse stops before any engine is made or a record written
    monkeypatch.setattr(propagation, "_model_evolver", _refuse)
    with pytest.raises(SystemExit) as done:
        main([])
    assert done.value.code == 2 and "--out" in capsys.readouterr().err


def _parser(script: Path) -> tuple[set[str], set[str]]:
    """The argparse modes of a bench script, read from its AST: "" for its default
    mode and each `store_true` flag; and every flag its parser has."""
    modes, flags = {""}, set()
    for node in ast.walk(ast.parse(script.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            names = {arg.value for arg in node.args if isinstance(arg, ast.Constant)}
            flags |= names
            if any(kw.arg == "action" and getattr(kw.value, "value", None) == "store_true"
                   for kw in node.keywords):
                modes |= names
    return modes, flags


def test_readme_bench_table_lists_each_mode():
    # README's "Benchmark scripts" table has one row per mode, named `script.py` or
    # `script.py --flag`, and lists every mode of every script's parser
    section = (BENCH.parent / "README.md").read_text().split("\n## Benchmark scripts\n")[1]
    listed = {}
    for row in re.findall(r"^\| `([^`]+)` \|", section.split("\n## ")[0], flags=re.M):
        script, _, mode = row.partition(" ")
        listed.setdefault(script, set()).add(mode)
    assert listed == {script.name: _parser(script)[0] for script in SCRIPTS}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_bench_script_usage_names_only_its_flags(script):
    named = set(re.findall(r"--[a-z][\w-]*", ast.get_docstring(ast.parse(script.read_text()))))
    assert "--out" in named and sorted(named - _parser(script)[1]) == []


SRC = Path(lindcorr.__file__).resolve().parent
# the kinds the engine and the decompositions store: find(owner, "kind", ...)
STORED = re.compile(r'\bfind\([^,]*?,\s*"(\w+)"')
# where a test or a bench script names a kind, where a stale one would select nothing:
# held("kind"), find(owner, "kind"), kind == "kind", kind in ("kind", ...), "kind" in kinds
NAMED = re.compile(r'\bheld\(\s*("\w+")|\bfind\([^,]*?,\s*("\w+")|\bkind\s*[!=]=\s*("\w+")'
                   r'|\bkind\s+(?:not\s+)?in\s*[(\[{]([^)\]}]*)|("\w+")\s+(?:not\s+)?in\s+kinds\b')


def _named_kinds(path: Path) -> set[str]:
    return {kind for match in NAMED.finditer(path.read_text())
            for kind in re.findall(r'"(\w+)"', "".join(filter(None, match.groups())))}


@pytest.mark.parametrize("path", sorted([*BENCH.glob("*.py"), *(
    path for path in Path(__file__).parent.glob("*.py") if path.name != "test_bench.py")]),
    ids=lambda path: f"{path.parent.name}/{path.name}")
def test_held_kinds_named_are_stored(path):
    stored = {kind for module in ("propagation.py", "decomposition.py")
              for kind in STORED.findall((SRC / module).read_text())}
    assert {"generator", "decomposition"} <= stored
    assert sorted(_named_kinds(path) - stored) == []
