"""README's library example runs as written, so a name it uses cannot be
deleted from the package while the docs still show it."""

import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)


def test_readme_python_blocks_run():
    assert BLOCKS
    for block in BLOCKS:
        exec(compile(block, "README.md", "exec"), {})
