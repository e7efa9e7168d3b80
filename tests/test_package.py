"""The package namespace exports exactly the documented entry points."""

import importlib
import pkgutil
import re
from pathlib import Path

import bellbounds

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_entry_points():
    """Library names the README mentions: backticked bare identifiers
    (optionally called, as in `eta(...)`) and the names its example imports
    from ``bellbounds``, kept when a bellbounds submodule defines them."""
    text = README.read_text(encoding="utf-8")
    names = set(re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", text))
    example = re.search(r"from bellbounds import \((.*?)\)", text, re.S)
    names |= set(re.findall(r"\w+", example.group(1)))
    modules = [
        importlib.import_module(f"bellbounds.{info.name}")
        for info in pkgutil.iter_modules(bellbounds.__path__)
    ]
    return {
        name
        for name in names
        for module in modules
        if getattr(vars(module).get(name), "__module__", None) == module.__name__
    }


def test_every_exported_name_resolves():
    assert len(set(bellbounds.__all__)) == len(bellbounds.__all__)
    for name in bellbounds.__all__:
        assert getattr(bellbounds, name) is not None


def test_every_readme_entry_point_is_exported():
    named = readme_entry_points()
    assert {"realize", "covariance_inequality", "verify_bounds_random"} <= named
    assert named <= set(bellbounds.__all__)
