"""The bench scripts and the tests, read as text: the test suite never runs the
scripts, so a renamed attribute of lindcorr would otherwise break them unseen, and
a test that reads held entries of a renamed kind would assert on an empty map."""

import re
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


SRC = Path(lindcorr.__file__).resolve().parent
# the kinds the engine and the decompositions store: _cached("kind", ...), find(owner, "kind", ...)
STORED = re.compile(r'\b(?:_cached\(|find\([^,]*?,)\s*"(\w+)"')
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
