"""The bench scripts, read as text: the test suite never runs them, so a renamed
attribute of lindcorr would otherwise break them unseen."""

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
