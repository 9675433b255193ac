"""Every fenced ``python`` block in README.md runs as written, with RuntimeWarning an error."""

import re
import warnings
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_the_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{k}" for k in range(len(BLOCKS))])
def test_a_readme_python_block_runs(block):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
