"""The public surface rule: every name a module lists in ``__all__`` has a
production caller or is used by the spec, and so does every keyword-only
parameter of a package function.

A name counts as used when it appears as a name, an attribute or an
imported name in a package module other than ``__init__.py``, in a
benchmark or script file, in ``tests/test_acceptance.py``, or as the
target of a ``pyproject.toml`` entry point.  A keyword-only parameter
counts as used when one call in those files passes it by name to a
function of that name.  Other tests do not count: a symbol or a knob only
they use is test code and belongs with them.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sde_rtm"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _exported(path):
    """The strings of a module's ``__all__`` list."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return [element.value for element in node.value.elts]
    return []


def _referenced(path):
    """Every name, attribute and imported name that a file mentions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _entry_points():
    """The object names that ``[project.scripts]`` points at."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text,
                        re.MULTILINE | re.DOTALL)
    return set(re.findall(r':(\w+)"', section.group(1))) if section else set()


def _user_files():
    return [*MODULES, *sorted((ROOT / "bench").glob("*.py")),
            *sorted((ROOT / "scripts").glob("*.py")),
            ROOT / "tests" / "test_acceptance.py"]


def _users():
    names = _entry_points()
    for path in _user_files():
        names |= _referenced(path)
    return names


def _keyword_only(path):
    """(function, parameter) for every keyword-only parameter a module defines."""
    return {
        (node.name, arg.arg)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.kwonlyargs
    }


def _passed_by_name():
    """(function, keyword) for every argument a call in the user files
    passes by name; the function is the called name or attribute."""
    passed = set()
    for path in _user_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = getattr(node.func, "id", getattr(node.func, "attr", None))
                passed |= {(func, kw.arg) for kw in node.keywords if kw.arg}
    return passed


def test_every_module_declares_its_surface():
    assert MODULES
    for path in MODULES:
        assert _exported(path), f"{path.name} has no __all__"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_public_name_has_a_user(path):
    unused = sorted(set(_exported(path)) - _users())
    assert not unused, f"{path.name} exports names no user references: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_keyword_only_parameter_is_passed(path):
    unused = sorted(_keyword_only(path) - _passed_by_name())
    assert not unused, (
        f"{path.name} has keyword-only parameters no user passes: {unused}"
    )
