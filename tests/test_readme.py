"""Every ```python block of README.md runs, each in a fresh namespace, and
the Library example prints the page its comment shows."""

import contextlib
import io
import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
with open(README, encoding="utf-8") as handle:
    BLOCKS = re.findall(r"^```python\n(.*?)^```$", handle.read(), re.MULTILINE | re.DOTALL)


def run_block(source: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, README, "exec"), {"__name__": "readme"})
    return out.getvalue()


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_runs(source):
    run_block(source)


def test_library_example_prints_the_blended_page():
    [example] = [block for block in BLOCKS if "blend_pages(prepared" in block]
    assert run_block(example) == "['d2', 'd4', 'd1']\n"
