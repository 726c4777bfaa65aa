"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # every fenced python block, in order, in one namespace
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert set(namespace["keys"]) <= {7, 9} and len(namespace["keys"]) == 1000
    assert set(namespace["edges"]) <= {(1, 2), (2, 3), (1, 3)}
    assert len(namespace["edges"]) == 1000
