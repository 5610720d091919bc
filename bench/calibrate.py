"""Host-speed references for normalizing the benchmark's timings.

On a shared machine the speed of one CPU drifts by tens of percent over
tens of seconds, far more than the changes the benchmark must resolve.
The harness therefore times a fixed reference task, which belongs to the
benchmark and never changes with the program, before every measured
command and after the last one. A timing ``t`` taken while the task took
``r`` seconds on average is reported as ``t * reference.nominal_s / r``:
the time at the host speed at which the task takes ``nominal_s``. Raw
timings are kept in the run record.

A reference only cancels the drift of work that slows down the way it
does, so there are two:

* ``PYTHON``: pure Python (dynamic programming over short strings, dict
  and list traffic), like the kit's in-process work. It needs no import
  that ``setup_s`` should pay for.
* ``SPAWN``: start and reap a bare interpreter, the cost an external
  scorer or generator call pays.

The nominal times are about the tasks' times on the 2-vCPU Xeon VM the
bounds were set on.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Callable, NamedTuple

_WORDS = [(f"qrst{i:03d}abcd", f"abcd{i * 7 % 1000:03d}qrsu") for i in range(192)]


def _python_task() -> None:
    seen: dict[str, int] = {}
    for a, b in _WORDS:
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
            prev = cur
        seen[a + b] = prev[-1]


def _spawn_task() -> None:
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


class Reference(NamedTuple):
    name: str
    task: Callable[[], None]
    nominal_s: float

    def sample(self) -> float:
        """Time of one run of the task, in seconds."""
        t0 = time.perf_counter()
        self.task()
        return time.perf_counter() - t0


PYTHON = Reference("python", _python_task, 0.012)
SPAWN = Reference("spawn", _spawn_task, 0.012)
