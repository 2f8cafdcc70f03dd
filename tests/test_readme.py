"""Every ```python block of README.md runs as written, so a change to the
public API cannot leave the library quick start stale."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", range(len(BLOCKS)))
def test_readme_python_block_runs(block):
    exec(compile(BLOCKS[block], f"README.md python block {block}", "exec"), {})
