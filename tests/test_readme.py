"""README.md stays true to the package.

Every fenced ``python`` block runs as written, with RuntimeWarning an error,
every CamelCase name the prose cites in backticks exists, and the learner
table lists the CLI's learners with the bounds each pairs with.
"""

import builtins
import importlib
import pkgutil
import re
import warnings
from pathlib import Path

import pytest

import ocokit
from ocokit import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)
PROSE = re.sub(r"^```.*?^```", "", TEXT, flags=re.MULTILINE | re.DOTALL)
# a span that is `Name`, or starts `Name(` or `Name.`, with Name CamelCase
CITED = sorted({m.group(1) for span in re.findall(r"`([^`]+)`", PROSE)
                if (m := re.fullmatch(r"([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)(?:[(.].*)?",
                                      span, flags=re.DOTALL))})
NAMESPACES = [ocokit, builtins] + [importlib.import_module(f"ocokit.{info.name}")
                                   for info in pkgutil.iter_modules(ocokit.__path__)]


def test_the_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{k}" for k in range(len(BLOCKS))])
def test_a_readme_python_block_runs(block):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_every_camelcase_name_the_readme_cites_exists():
    assert "MirrorDescent" in CITED and "RunTrace" in CITED
    missing = [name for name in CITED if not any(hasattr(ns, name) for ns in NAMESPACES)]
    assert missing == []


def test_the_learner_table_lists_every_cli_learner_with_its_bounds():
    rows = re.findall(r"^\| `([a-z0-9-]+)` +\|[^|]*\|([^|]*)\|$", TEXT, flags=re.MULTILINE)
    assert [name for name, _ in rows] == list(cli.LEARNERS)
    for name, bounds in rows:
        assert set(re.findall(r"`([^`]+)`", bounds)) == cli.COMPAT[name], name
