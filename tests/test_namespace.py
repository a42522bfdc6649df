"""Tests for the package namespace: every public name, resolved on first use,
and each module's private names kept to that module."""

from __future__ import annotations

import ast
import subprocess
import sys
import types
from pathlib import Path

import pytest

import stratdisc


def run_python(code):
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_import_loads_no_numeric_module():
    code = "import sys, stratdisc; print(sorted(m for m in sys.modules if m.startswith(('stratdisc.', 'numpy'))))"
    assert run_python(code) == "[]"


def test_first_use_of_a_name_loads_its_own_module():
    code = (
        "import sys, stratdisc; stratdisc.GeneratingSet(4); "
        "print(sorted(m for m in sys.modules if m.startswith('stratdisc.')))"
    )
    assert run_python(code) == "['stratdisc.partition']"


def test_closed_form_loads_only_its_own_modules():
    code = (
        "import sys, stratdisc; stratdisc.expected_l2_sq_exact(4); "
        "print(sorted(m for m in sys.modules if m.startswith('stratdisc.')))"
    )
    assert run_python(code) == "['stratdisc.exactform', 'stratdisc.partition']"


def test_all_lists_the_28_public_names():
    assert len(stratdisc.__all__) == len(set(stratdisc.__all__)) == 28
    assert stratdisc.__all__ == sorted(stratdisc.__all__)


@pytest.mark.parametrize("name", stratdisc.__all__)
def test_name_is_the_defining_modules_object(name):
    value = getattr(stratdisc, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("stratdisc.")
    assert getattr(home, name) is value
    namespace: dict = {}
    exec(f"from stratdisc import {name}", namespace)
    assert namespace[name] is value


def test_dir_lists_every_public_name():
    assert set(stratdisc.__all__) <= set(dir(stratdisc))


@pytest.mark.parametrize("name", ["no_such_name", "_strip_blocks", "MAX_CLOSED_FORM_N"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(stratdisc, name)
    with pytest.raises(ImportError):
        exec(f"from stratdisc import {name}", {})


def test_submodules_import_from_the_package():
    from stratdisc import partition, streams

    assert isinstance(partition, types.ModuleType) and partition.__name__ == "stratdisc.partition"
    assert isinstance(streams, types.ModuleType) and streams.__name__ == "stratdisc.streams"
    assert tuple(partition.PARTITIONS) == ("diagonal", "vertical", "jittered")


def private_reads(src: Path) -> list[str]:
    """Every import or attribute read, in a module of the package at src, of a
    private name of another of its modules, as 'reader <- home._name'.

    A module is reached as `from .home import name` or `from . import home`
    and then `home.name`, or by the same imports from `stratdisc`.
    """
    modules = {path.stem for path in src.glob("*.py")}
    found = []
    for path in sorted(src.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        aliases: dict[str, str] = {}  # a local name bound to a package module
        reads: list[tuple[str, str]] = []
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("stratdisc")):
                home = (node.module or "").removeprefix("stratdisc").lstrip(".")
                for alias in node.names:
                    if home:
                        reads.append((home, alias.name))
                    elif alias.name in modules:
                        aliases[alias.asname or alias.name] = alias.name
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                reads.append((aliases[node.value.id], node.attr))
        found += [
            f"{path.stem} <- {home}.{name}"
            for home, name in reads
            if home != path.stem and name.startswith("_") and not name.endswith("__")
        ]
    return found


def test_no_module_reads_another_modules_private_names():
    assert private_reads(Path(stratdisc.__file__).parent) == []
