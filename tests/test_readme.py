"""The README's library example names only what varkg exports."""

import os
import re

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_readme_library_example_imports():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    example = text.split("## Library example", 1)[1]
    statement = re.search(r"from varkg import \([^)]*\)", example)
    assert statement is not None
    exec(statement.group(0), {})
