"""Tests for the package namespace: every public name, resolved on first use."""

from __future__ import annotations

import subprocess
import sys
import types

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
        "import sys, stratdisc; stratdisc.generating_set(4); "
        "print(sorted(m for m in sys.modules if m.startswith('stratdisc.')))"
    )
    assert run_python(code) == "['stratdisc.partition']"


def test_all_lists_the_29_public_names():
    assert len(stratdisc.__all__) == len(set(stratdisc.__all__)) == 29
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
