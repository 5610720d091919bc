"""The README's command lines parse and read only stated inputs or earlier outputs, and its
library quick start runs."""

import re
import shlex
from pathlib import Path, PurePosixPath

import pytest

from qcpg_kit import errors
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


# the dests of the options naming a file the command reads; `eval --system name=path` reads its path
READ_OPTIONS = (
    "clusters", "pairs", "dev", "model", "sentences", "heatmap", "operation_point", "references",
    "source_trees", "target_trees",
)


def line_ids() -> list[str]:
    """Each line's command, suffixed ``-2``, ``-3``, ... on its repeats."""
    names = [argv[0] for argv in COMMANDS]
    repeats = [names[:i].count(name) for i, name in enumerate(names)]
    return [f"{name}-{k + 1}" if k else name for name, k in zip(names, repeats)]


def stated_inputs() -> set[PurePosixPath]:
    """The files the README names as the inputs of its command chain."""
    [sentence] = re.findall(r"input files that no line of it writes:(.*?)\n\n", README.read_text(encoding="utf-8"), re.S)
    return {PurePosixPath(name) for name in re.findall(r"`([^`\s]+\.[a-z]+)`", sentence)}


def test_every_command_has_an_example():
    [sub] = [a for a in _build_parser()._actions if a.dest == "command"]
    assert {argv[0] for argv in COMMANDS} == set(sub.choices)


@pytest.mark.parametrize("argv", COMMANDS, ids=line_ids())
def test_command_line_parses(argv):
    assert _build_parser().parse_args(argv).command == argv[0]


def test_every_file_a_line_reads_is_an_input_or_an_earlier_output():
    available = stated_inputs()
    assert {"corpus.jsonl", "dev.jsonl", "sentences.txt"} <= {str(p) for p in available}
    for argv in COMMANDS:
        args = _build_parser().parse_args(argv)
        reads = [getattr(args, dest, None) for dest in READ_OPTIONS]
        reads += [path for _, path in getattr(args, "system", None) or ()]
        missing = sorted(str(PurePosixPath(p)) for p in reads if p and PurePosixPath(p) not in available)
        assert not missing, f"`qcpg-kit {' '.join(argv)}` reads {missing}, which no earlier line writes"
        if args.out:
            out = PurePosixPath(args.out)
            available |= {out / f"{name}.tsv" for name in ("train", "dev", "test")} if argv[0] == "split" else {out}


def test_library_quick_start_runs():
    [code] = blocks("python")
    namespace = {}
    exec(compile(code, "README quick start", "exec"), namespace)
    assert namespace["point"].expected.sem >= 35.0


def failure_table() -> list[tuple[str, int]]:
    """The README's error table: each class named in it and its exit code, in order."""
    text = README.read_text(encoding="utf-8")
    [table] = re.findall(r"^\| Error class \| Exit code \| Meaning \|\n\|[-|]+\|\n((?:\|.*\n)+)", text, re.M)
    rows = re.findall(r"^\| `(\w+)` \| (\d) \| [^|]+ \|$", table, re.M)
    assert len(rows) == len(table.splitlines()), "every table row names a class, an exit code and a meaning"
    return [(name, int(code)) for name, code in rows]


def test_failure_table_matches_errors_module():
    # both ways: every QcpgError subclass of errors.py is in the table with its exit_code, and nothing else is
    classes = {
        name: cls.exit_code
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.QcpgError) and cls is not errors.QcpgError
    }
    table = failure_table()
    assert len({name for name, _ in table}) == len(table), "each class has one row"
    assert dict(table) == classes
