"""README's library quick start, run as written, gives the values its comments print."""

from __future__ import annotations

import re
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
# a value in full, as repr prints it, or its leading digits followed by "..."
VALUE_COMMENT = re.compile(r"(?P<code>.*?)\s+# (?P<digits>-?\d+\.\d+)(?P<cut>\.\.\.)?")


def quick_start() -> list[str]:
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return block.group(1).splitlines()


@pytest.fixture(scope="module")
def namespace():
    names: dict = {}
    exec("\n".join(quick_start()), names)
    return names


VALUE_LINES = [m for m in map(VALUE_COMMENT.fullmatch, quick_start()) if m]


def test_every_value_comment_is_checked():
    assert [m["code"] for m in VALUE_LINES] == [
        "sd.expected_l2_sq_exact(16).value",
        "sd.expected_l2_sq_qmc(16).value",
        "sd.ratio_to_random(4096, sd.expected_l2_sq_exact(4096))",
    ]


@pytest.mark.parametrize("line", VALUE_LINES, ids=[m["code"] for m in VALUE_LINES])
def test_value_comment(namespace, line):
    value = eval(line["code"], namespace)
    if line["cut"]:
        # shown digits are the exact binary value's, truncated, not rounded
        assert str(Decimal(value)).startswith(line["digits"])
    else:
        assert repr(value) == line["digits"]


def test_generating_set_comment(namespace):
    # gs.cuts, derived from n: read-only r_0 = 0 < ... < r_6 = 2
    cuts = namespace["gs"].cuts
    assert cuts.shape == (7,)
    assert cuts[0] == 0.0 and cuts[-1] == 2.0
    assert np.all(np.diff(cuts) > 0.0)
    assert not cuts.flags.writeable


def test_sample_comment(namespace):
    # (6, 2): one point per cell
    assert namespace["points"].shape == (6, 2)
