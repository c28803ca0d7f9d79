"""The README's examples name only what varkg exports and the CLI accepts."""

import os
import re
import shlex

import varkg
from varkg.cli import COMMANDS, _build_parser

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _section(heading: str) -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read().split(heading, 1)[1]


def test_readme_library_example_runs():
    # the whole block, so an example that an API change leaves behind fails here
    block = re.search(r"```python\n(.*?)```", _section("## Library example"), re.S)
    assert block is not None
    exec(block.group(1), {})


def test_readme_call_names_are_exported():
    # prose that names a deleted function, such as `least_energy(gs)`, fails here
    with open(README, encoding="utf-8") as fh:
        names = set(re.findall(r"`([A-Za-z_]\w*)\(", fh.read()))
    assert names
    assert sorted(name for name in names if not hasattr(varkg, name)) == []


def test_readme_command_block_parses():
    block = re.search(r"```sh\n(.*?)```", _section("## Command line"), re.S)
    assert block is not None
    commands = [shlex.split(line) for line in block.group(1).splitlines()
                if line.startswith("varkg ")]
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # argparse exits on a flag it does not know
    assert set(COMMANDS) <= {argv[1] for argv in commands}
