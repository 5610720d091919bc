"""The README's command lines parse and its library quick start runs."""

import re
import shlex
from pathlib import Path

import pytest

from qcpg_kit.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def command_lines() -> list[list[str]]:
    """The arguments of each ``qcpg-kit`` line in the sh blocks, continuations joined."""
    lines = []
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["qcpg-kit"]:
                lines.append(argv[1:])
    return lines


COMMANDS = command_lines()


def test_every_command_has_an_example():
    [sub] = [a for a in _build_parser()._actions if a.dest == "command"]
    assert sorted(argv[0] for argv in COMMANDS) == sorted(sub.choices)


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_command_line_parses(argv):
    assert _build_parser().parse_args(argv).command == argv[0]


def test_library_quick_start_runs():
    [code] = blocks("python")
    namespace = {}
    exec(compile(code, "README quick start", "exec"), namespace)
    assert namespace["point"].expected.sem >= 35.0
