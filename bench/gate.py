"""Output correctness gate of the benchmark.

At the default seed every data output of a workload must match the
SHA-256 digest committed in ``golden.json``; at every seed the outputs
must satisfy the invariants below. Each check returns a list of
problems; an empty list means the outputs are correct.

Regenerate the golden digests, after a change that is meant to alter
outputs, with:

    python3 bench/gate.py --write-golden
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"
FULL_GRID_ROWS = 11 ** 3  # default grid 0:5:50 in three dimensions
EXTERNAL_GRID_ROWS = 3 ** 3  # grid 0:25:50
QUALITY_FIELDS = {"q_sem", "q_syn", "q_lex", "sem", "syn", "lex"}


def _rows(path: Path, delimiter: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh, delimiter=delimiter, quoting=csv.QUOTE_NONE))


def _in_range(path: Path, rows: list[dict[str, str]]) -> list[str]:
    for i, row in enumerate(rows, start=2):
        for key in QUALITY_FIELDS & row.keys():
            value = float(row[key])
            if not (math.isfinite(value) and 0.0 <= value <= 100.0):
                return [f"{path.name}:{i}: {key}={row[key]} is outside [0, 100]"]
    return []


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def check_heatmap(path: Path, n_rows: int, n_dev: int) -> list[str]:
    """Row count, R(0,0,0) = 0, n = number of dev items on every row, q in [0, 100]."""
    if not path.is_file():
        return [f"{path.name} is missing"]
    rows = _rows(path, ",")
    problems = _in_range(path, rows)
    _expect(problems, len(rows) == n_rows, f"{path.name}: {len(rows)} rows, expected {n_rows}")
    zero = [r for r in rows if float(r["o_sem"]) == float(r["o_syn"]) == float(r["o_lex"]) == 0.0]
    _expect(problems, len(zero) == 1 and all(float(zero[0][k]) == 0.0 for k in ("r_sem", "r_syn", "r_lex")),
            f"{path.name}: R(0,0,0) is not exactly zero")
    bad_n = [r["n"] for r in rows if int(r["n"]) != n_dev]
    _expect(problems, not bad_n, f"{path.name}: {len(bad_n)} rows have n != {n_dev} dev items")
    return problems


def check_scored(path: Path, n_pairs: int) -> list[str]:
    if not path.is_file():
        return [f"{path.name} is missing"]
    rows = _rows(path, "\t")
    problems = _in_range(path, rows)
    _expect(problems, len(rows) == n_pairs, f"{path.name}: {len(rows)} scored pairs, expected {n_pairs}")
    return problems


def check_pairs(path: Path, n_pairs: int) -> list[str]:
    if not path.is_file():
        return [f"{path.name} is missing"]
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    problems = []
    _expect(problems, len(lines) == n_pairs, f"{path.name}: {len(lines)} pairs, expected {n_pairs}")
    _expect(problems, all(len(f) == 5 for f in lines), f"{path.name}: a row lacks its trees")
    return problems


def check_score_cold(out: Path, n_pairs: int) -> list[str]:
    """Split leaves no cluster in two files; every pair scored; the model is finite."""
    split = {}
    for name in ("train", "dev", "test"):
        path = out / "split" / f"{name}.tsv"
        if not path.is_file():
            return [f"split/{name}.tsv is missing"]
        with open(path, encoding="utf-8") as fh:
            split[name] = [line.split("\t") for line in fh if line.strip()]
    problems = []
    ids = {name: {f[2] for f in rows} for name, rows in split.items()}
    _expect(problems, not (ids["train"] & ids["dev"] or ids["train"] & ids["test"] or ids["dev"] & ids["test"]),
            "split: a cluster appears in two splits")
    _expect(problems, sum(len(rows) for rows in split.values()) == n_pairs,
            f"split: {sum(len(r) for r in split.values())} pairs, expected {n_pairs}")
    problems += check_scored(out / "train_scored.tsv", len(split["train"]))
    problems += check_scored(out / "dev_scored.tsv", len(split["dev"]))
    try:
        model = json.loads((out / "qp.json").read_text(encoding="utf-8"))
        values = [*model["bias"], *(v for row in model["weights"] for v in row)]
        _expect(problems, all(math.isfinite(v) for v in values), "qp.json: non-finite weights")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"qp.json is unreadable: {exc}")
    return problems


def check_operation_point(path: Path, heatmap: Path, floor: float) -> list[str]:
    """The point clears the semantic floor and has the largest diversity among rows that do."""
    try:
        point = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path.name} is unreadable: {exc}"]
    problems = []
    _expect(problems, point["expected"]["sem"] >= floor,
            f"{path.name}: expected sem {point['expected']['sem']} is below the floor {floor}")
    if heatmap.is_file():
        feasible = [float(r["diversity"]) for r in _rows(heatmap, ",") if float(r["q_sem"]) >= floor]
        _expect(problems, bool(feasible) and abs(max(feasible) - point["diversity"]) < 1e-3,
                f"{path.name}: diversity {point['diversity']} is not the feasible maximum")
    return problems


def check_grid_builtin(out: Path, n_dev: int, n_gen: int, floor: float) -> list[str]:
    problems = []
    for kind in ("identity", "retrieval_oracle", "noisy_oracle"):
        problems += check_heatmap(out / f"heatmap_{kind}.csv", FULL_GRID_ROWS, n_dev)
    problems += check_operation_point(out / "operation_point.json", out / "heatmap_noisy_oracle.csv", floor)
    problems += check_pairs(out / "generated.tsv", n_gen)
    if not (out / "eval.tsv").is_file():
        return problems + ["eval.tsv is missing"]
    rows = _rows(out / "eval.tsv", "\t")
    problems += _in_range(out / "eval.tsv", rows)
    _expect(problems, [r["system"] for r in rows] == ["noisy", "identity"] and all(int(r["n"]) == n_gen for r in rows),
            f"eval.tsv: expected rows noisy and identity with n={n_gen}")
    return problems


def check_external_proc(out: Path, n_pairs: int, n_dev: int, n_gen: int) -> list[str]:
    return (
        check_scored(out / "scored_external.tsv", n_pairs)
        + check_heatmap(out / "heatmap_external.csv", EXTERNAL_GRID_ROWS, n_dev)
        + check_pairs(out / "generated_external.tsv", n_gen)
    )


def check_golden(workload: str, digests: dict[str, str], golden_path: Path = GOLDEN) -> list[str]:
    """Every output file's SHA-256 equals the committed digest, and no file is added or lost."""
    if not golden_path.is_file():
        return [f"{golden_path.name} is missing"]
    golden = json.loads(golden_path.read_text(encoding="utf-8")).get(workload)
    if golden is None:
        return [f"golden.json has no digests for {workload}"]
    return [
        f"{name}: output differs from the golden digest"
        for name in sorted(golden.keys() | digests.keys())
        if golden.get(name) != digests.get(name)
    ]


def write_golden() -> None:
    import tempfile

    import workload

    work_root = workload.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    golden = {}
    for name in workload.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            result = workload.measure(name, workload.DEFAULT_SEED, 0.0, False, Path(tmp))
        if result["problems"]:
            raise SystemExit(f"{name}: outputs fail the invariants: {result['problems']}")
        golden[name] = result["digests"]
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-golden"]:
        raise SystemExit("usage: python3 bench/gate.py --write-golden")
    write_golden()
