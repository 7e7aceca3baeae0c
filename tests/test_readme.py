"""The README's Python examples run as written, and its export list is
the package's.

Every ```python block of README.md runs, in order, in one namespace, so
the Library section cannot drift from the names the package exports.
"""

import re
from pathlib import Path

import matchcut

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_python_examples_run_in_order():
    assert len(BLOCKS) >= 2
    namespace: dict = {}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].cut is not None


def test_export_paragraph_names_all_exports():
    # the paragraph runs from "The package root exports" to the blank line
    (paragraph,) = re.findall(r"^The package root exports .*?(?=\n\n)", README.read_text(), re.M | re.S)
    assert set(re.findall(r"`(\w+)`", paragraph)) == set(matchcut.__all__)
