"""Every script under ``examples/`` runs to completion.

Each example runs in-process as ``__main__`` (``runpy.run_path``), so a
crash anywhere in it — including a format spec the running Python's
``Fraction`` does not support before 3.12 — fails its own test id.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
