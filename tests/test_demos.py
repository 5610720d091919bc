"""Each demo runs cleanly and prints exactly its committed stdout.

The expected output of ``demos/<name>.py`` is ``tests/demo_stdout/<name>.txt``.
A demo runs in a fresh interpreter with ``-W error::RuntimeWarning``, from
an empty temporary directory so that any file it writes stays out of the
checkout. After a change meant to alter a demo's output, regenerate the
file from that demo's stdout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_an_expected_output():
    expected = sorted(p.stem for p in (ROOT / "tests" / "demo_stdout").glob("*.txt"))
    assert expected == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_stdout_is_the_committed_one(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8"
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, encoding="utf-8", timeout=120,
    )
    assert run.returncode == 0, run.stderr
    expected = (ROOT / "tests" / "demo_stdout" / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert run.stdout == expected
    assert list(tmp_path.iterdir()) == []
