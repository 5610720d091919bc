"""Self-check of the benchmark harness at tiny input sizes (about a minute).

    python3 bench/selfcheck.py

It checks that BENCHMARK.json keeps to its schema, that every workload's
result line has the schema and metrics BENCHMARK.json names, that the
output gate fires on a corrupted output, and that a stub generator that
fails on one input shows up as failed operations. Exits non-zero on the
first failed check.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import gate
import run
import workload

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 1


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_spec() -> dict:
    spec = json.loads((workload.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json has the wrong keys")
    expect([w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS),
           "BENCHMARK.json workloads differ from bench/workload.py")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
    expect(len(names) == len(set(names)) and all(NAME.match(n) for n in names), "a metric or workload name is invalid")
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, f"bad metric {m}")
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"bad metric {m}")
    expect(all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]), "a unit is invalid")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s must exist and have the largest bound")
    return spec


def check_result_lines(spec: dict) -> None:
    """Each workload's last stdout line has the four keys and exactly the declared metrics."""
    for trace in (0, 1):
        wanted = spec["per_layer" if trace else "end_to_end"]
        for name in workload.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(workload.BENCH / "run.py"), "--workload", name, "--seed", str(SEED),
                 "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=170,
            )
            expect(proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys {set(result)}")
            expect(result["correct"] is True, f"{name}: outputs judged incorrect")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{name}: attempted")
            expect(result["failed"] == 0, f"{name}: {result['failed']} operations failed")
            expect(list(result["metrics"]) == [m["name"] for m in wanted], f"{name}: metric names differ")
            for m in wanted:
                entry = result["metrics"][m["name"]]
                expect(entry["unit"] == m["unit"] and isinstance(entry["value"], (int, float)),
                       f"{name}: {m['name']} = {entry}")
                expect(trace or entry["value"] > 0, f"{name}: end-to-end metric {m['name']} is 0")
            print(f"selfcheck: {name} trace={trace}: result line ok")


def check_gate_fires(work: Path) -> None:
    raw = workload.measure("grid-builtin", SEED, 0.0, False, work, size="tiny")
    expect(not raw["problems"], f"clean tiny run has problems: {raw['problems']}")
    out = work / "out"
    golden = work / "golden.json"
    golden.write_text(json.dumps({"grid-builtin": raw["digests"]}), encoding="utf-8")
    expect(not gate.check_golden("grid-builtin", workload.digests(out), golden), "golden gate fires on clean outputs")

    heatmap = out / "heatmap_identity.csv"
    lines = heatmap.read_text(encoding="utf-8").splitlines(keepends=True)
    zero = next(i for i, line in enumerate(lines) if line.startswith("0.0000,0.0000,0.0000,"))
    fields = lines[zero].split(",")
    fields[6] = "0.0001"  # r_sem of the zero offset
    lines[zero] = ",".join(fields)
    heatmap.write_text("".join(lines), encoding="utf-8")
    expect(bool(gate.check_golden("grid-builtin", workload.digests(out), golden)),
           "golden gate misses a corrupted heatmap")
    n_dev = workload.SIZES["tiny"]["dev_clusters"]
    expect(any("R(0,0,0)" in p for p in gate.check_heatmap(heatmap, gate.FULL_GRID_ROWS, n_dev)),
           "invariant check misses R(0,0,0) != 0")
    print("selfcheck: output gate fires on a corrupted heatmap")


def check_failures_counted(work: Path) -> None:
    from qcpg_kit import paraphrase_corpus

    size = workload.SIZES["tiny"]
    first_word = paraphrase_corpus(size["ext_clusters"], workload.CLUSTER_SIZE, seed=SEED)[0].sentences[0].split()[0]
    raw = workload.measure("external-proc", SEED, 0.0, False, work, size="tiny", fail_on=first_word)
    attempted, failed = run.op_counts(raw)
    expect(failed > 0 and failed / attempted > 0, "a failing stub generator left failed_ratio at 0")
    expect(all(c["bad_exits"] == 0 for c in raw["chains"]), "a per-item failure made a command exit non-zero")
    expect(bool(raw["problems"]), "the gate accepted a heatmap with failed items")
    print(f"selfcheck: failing stub counted: failed_ratio = {failed}/{attempted}")


def main() -> int:
    spec = check_spec()
    print("selfcheck: BENCHMARK.json schema ok")
    check_result_lines(spec)
    work_root = workload.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        check_gate_fires(Path(tmp) / "gate")
        check_failures_counted(Path(tmp) / "fail")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
