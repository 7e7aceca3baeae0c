"""The README's Python examples run as written, and its export list and
input limits are the package's.

Every ```python block of README.md runs, in order, in one namespace, so
the Library section cannot drift from the names the package exports.
"""

import re
from pathlib import Path

import matchcut
from matchcut.graphs import MAX_VERTICES
from matchcut.reduction import MAX_CLAUSES, MAX_VARIABLES

README = Path(__file__).resolve().parents[1] / "README.md"
SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")
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


def test_file_format_limits_match_the_constants():
    # each "more than N vertices|variables|clauses" of the File formats
    # section, N written as 350 or as a power such as 10⁶
    section = README.read_text().split("\n## File formats\n")[1].split("\n## ")[0]
    found = re.findall(r"more\s+than\s+(\d+)([⁰¹²³⁴⁵⁶⁷⁸⁹]*)\s+(vertices|variables|clauses)", section)
    stated = {
        noun: int(base) ** int(power.translate(SUPERSCRIPTS)) if power else int(base)
        for base, power, noun in found
    }
    assert len(found) == 3
    limits = {"vertices": MAX_VERTICES, "variables": MAX_VARIABLES, "clauses": MAX_CLAUSES}
    assert stated == limits
