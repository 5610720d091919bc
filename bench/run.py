"""qcpg-kit benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload score-cold --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another

Each workload runs in fresh child processes (bench/workload.py), one at
a time: ``SETUP_SAMPLES - 1`` processes that only set up, then one that
sets up and repeats the workload's CLI chain for ``--seconds``. With
``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics. The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a human-readable table goes to stderr, and
the full record (environment, every sample) to ``.bench_out/``. The exit
code is 1 when an output fails the correctness gate, 2 when the checkout
lacks the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workload import BENCH, DEFAULT_SEED, ROOT, SIZES, WORKLOADS

SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# per-command throughputs reported by the traced run, from its untraced chains
STEP_FIGURES = ("grid_req_per_s.identity", "grid_req_per_s.retrieval_oracle", "grid_req_per_s.noisy_oracle",
                "grid_req_per_s.external", "generate_sent_per_s", "eval_pairs_per_s")
PAIR_SCORING_FIGURES = ("score_pairs_per_s", "eval_pairs_per_s")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QCPG_KIT_THREADS", None)
    env.update({name: "1" for name in THREAD_VARS})
    return env


def run_child(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workload.py"), *args],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process {args[:2]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def environment(versions: dict) -> dict:
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                      text=True, timeout=10).stdout.strip() or revision
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _per_s(figures: dict, names, normalized: bool) -> float:
    ops = sum(figures[n][0] for n in names if n in figures)
    secs = sum(figures[n][2 if normalized else 1] for n in names if n in figures)
    return ops / secs if secs else 0.0


def op_counts(raw: dict) -> tuple[int, int]:
    """(attempted, failed) operations over all chains of a run.

    Failed operations are the kit's warnings (a skipped pair, a failed
    generation) plus CLI commands that exited non-zero.
    """
    chains = raw["chains"]
    return sum(c["ops"] for c in chains), raw["failures"] + sum(c["bad_exits"] for c in chains)


def metrics_of(raw: dict, setup_samples: list[dict], trace: bool) -> dict[str, float]:
    """Medians over the run's chains.

    End-to-end timings and the tracing overhead are normalized to host
    speed (see calibrate.py); the other per-layer figures are raw.
    """
    chains = raw["chains"]
    attempted, failed = op_counts(raw)
    if not trace:
        return {
            "setup_s": _median([s["norm_setup_s"] for s in setup_samples]),
            "wall_s": _median([c["norm_wall_s"] for c in chains]),
            "score_pairs_per_s": _median([_per_s(c["figures"], PAIR_SCORING_FIGURES, True) for c in chains]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    untraced = [c for c in chains if not c["traced"]]
    layers = {name: _median([t[name] for t in raw["traced"]]) for name in raw["traced"][0]}
    layers["trace.overhead_s"] = (_median([c["norm_wall_s"] for c in chains if c["traced"]])
                                  - _median([c["norm_wall_s"] for c in untraced]))
    layers["failed_ratio"] = failed / attempted
    for name in STEP_FIGURES:
        layers[name] = _median([_per_s(c["figures"], (name,), False) for c in untraced])
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str, spec: dict) -> dict:
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed), "--size", size]
    try:
        setup_samples = [
            run_child([*common, "--setup-only", "--work", str(work / f"setup{i}")],
                      timeout=min(60.0, deadline - time.monotonic()))
            for i in range(SETUP_SAMPLES - 1)
        ]
        raw = run_child([*common, "--seconds", str(seconds), "--trace", str(int(trace)),
                         "--work", str(work / "run")], timeout=deadline - time.monotonic())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_samples.append({"setup_s": raw["setup_s"], "norm_setup_s": raw["norm_setup_s"]})
    values = metrics_of(raw, setup_samples, trace)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"the run did not produce metrics {missing}")
    problems = raw["problems"] + (raw["golden"] or [])
    attempted, failed = op_counts(raw)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "environment": environment(raw["versions"]), "result": result, "problems": problems,
        "golden_checked": raw["golden"] is not None, "setup_samples": setup_samples,
        "all_values": values, "chains": raw["chains"], "traced_chains": raw["traced"],
    }
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"result_{name}_seed{seed}_trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"bench: {name}: INCORRECT: {problem}", file=sys.stderr)
    return result


def print_table(name: str, result: dict, stream) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:14s} {metric:45s} {entry['value']:>14.6g} {entry['unit']}", file=stream)
    if "failed_ratio" not in result["metrics"]:
        ratio = result["failed"] / result["attempted"]
        print(f"{name:14s} {'failed_ratio':45s} {ratio:>14.6g} share of {result['attempted']} ops", file=stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full", help="tiny is for bench/selfcheck.py")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qcpg_kit" / "cli.py").is_file():
        print(f"bench: no qcpg_kit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, seconds, bool(args.trace), args.size, spec)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        print_table(name, results[name], sys.stderr if args.workload != "all" else sys.stdout)
    final = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{m}": e for n, r in results.items() for m, e in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
