"""The README's Python examples run as written.

Every ```python block of README.md runs, in order, in one namespace, so
the Library section cannot drift from the names the package exports.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_python_examples_run_in_order():
    assert len(BLOCKS) >= 2
    namespace: dict = {}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].cut is not None
