"""One benchmark workload in one process: set up inputs, run the CLI chain, report.

``bench/run.py`` starts this file as a fresh child process per workload
(and per extra set-up sample), so ``setup_s`` covers the import of
``qcpg_kit`` and ``peak_rss_mb`` is the workload's own. The chain is run
in process through ``qcpg_kit.cli.main(argv)``, one command at a time,
and repeated until ``--seconds`` are used. The last stdout line is one
JSON object with the raw samples; ``run.py`` turns it into metrics.

    python3 bench/workload.py --workload score-cold --seed 0 --seconds 5 \
        --trace 0 --work .bench_work/manual
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import resource
import shlex
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import gate  # noqa: E402

WORKLOADS = ("score-cold", "grid-builtin", "external-proc")
DEFAULT_SEED = 0
BUILTIN_GENERATORS = ("identity", "retrieval_oracle", "noisy_oracle")
NOISE_STD = "5"
BASELINE_SEM = "40"  # `select` keeps rows with q_sem >= 40 + the default 5-point margin
EXTERNAL_GRID = "0:25:50"  # 27 offsets, including the zero offset
CLUSTER_SIZE = 6

# Sizes of the generated inputs. "tiny" is only for bench/selfcheck.py.
SIZES = {
    "full": {
        "score_clusters": 60, "split": "750,150,0",
        "dev_clusters": 20, "gen_clusters": 10, "qp_clusters": 12,
        "ext_clusters": 6, "ext_dev_items": 6, "ext_gen_clusters": 3,
    },
    "tiny": {
        "score_clusters": 6, "split": "60,30,0",
        "dev_clusters": 3, "gen_clusters": 1, "qp_clusters": 3,
        "ext_clusters": 2, "ext_dev_items": 2, "ext_gen_clusters": 1,
    },
}


@dataclass
class Step:
    """One CLI command of a chain and the unit operations it attempts."""

    argv: list[str]
    ops: Callable[[], int]
    figure: str | None = None  # throughput this command feeds, e.g. "grid_req_per_s.identity"


@dataclass
class Workload:
    steps: list[Step]
    out: Path
    check: Callable[[Path], list[str]]  # invariant check of one chain's outputs
    reference: calibrate.Reference = calibrate.PYTHON  # host-speed reference for the chain's timings


def _lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def _stub(name: str, *args: str) -> str:
    # -S skips site-packages start-up hooks: the stubs need only the standard library
    return shlex.join([sys.executable, "-S", str(BENCH / name), *args])


def _setup_score_cold(seed: int, work: Path, size: dict, fail_on: str | None) -> Workload:
    from qcpg_kit import paraphrase_corpus, save_clusters

    clusters = paraphrase_corpus(size["score_clusters"], CLUSTER_SIZE, seed=seed, length_jitter=8)
    save_clusters(clusters, work / "clusters.jsonl")
    out = work / "out"
    split = out / "split"
    steps = [
        Step(["split", "--clusters", str(work / "clusters.jsonl"), "--sizes", size["split"],
              "--seed", str(seed), "--out", str(split)], lambda: 1),
        Step(["score", "--pairs", str(split / "train.tsv"), "--out", str(out / "train_scored.tsv")],
             lambda: _lines(split / "train.tsv"), "score_pairs_per_s"),
        Step(["score", "--pairs", str(split / "dev.tsv"), "--out", str(out / "dev_scored.tsv")],
             lambda: _lines(split / "dev.tsv"), "score_pairs_per_s"),
        Step(["train-qp", "--pairs", str(out / "train_scored.tsv"), "--dev", str(out / "dev_scored.tsv"),
              "--out", str(out / "qp.json")], lambda: 1),
    ]
    n_pairs = len(clusters) * CLUSTER_SIZE * (CLUSTER_SIZE - 1) // 2
    return Workload(steps, out, lambda o: gate.check_score_cold(o, n_pairs))


def _fit_qp(clusters, path: Path) -> None:
    from qcpg_kit import ALL_UNORDERED, fit, quality_samples, save_model

    save_model(fit(quality_samples(clusters, mode=ALL_UNORDERED)), path)


def _setup_grid_builtin(seed: int, work: Path, size: dict, fail_on: str | None) -> Workload:
    from qcpg_kit import SentencePair, paraphrase_corpus, save_clusters, write_pairs_tsv

    dev = paraphrase_corpus(size["dev_clusters"], CLUSTER_SIZE, seed=seed)
    gen = dev[: size["gen_clusters"]]
    save_clusters(dev, work / "dev.jsonl")
    save_clusters(gen, work / "gen.jsonl")
    _fit_qp(dev[: size["qp_clusters"]], work / "qp.json")
    # the identity system of `eval`: every sentence paired with itself
    write_pairs_tsv(
        [SentencePair(s, s, c.cluster_id, t, t) for c in gen for s, t in zip(c.sentences, c.trees)],
        work / "identity.tsv",
    )
    out = work / "out"
    n_dev, n_gen = len(dev), sum(len(c.sentences) for c in gen)
    steps = []
    for kind in BUILTIN_GENERATORS:
        noise = ["--noise-std", NOISE_STD] if kind == "noisy_oracle" else []
        steps.append(Step(
            ["grid", "--clusters", str(work / "dev.jsonl"), "--model", str(work / "qp.json"),
             "--generator", kind, *noise, "--per-cluster", "1", "--seed", str(seed),
             "--out", str(out / f"heatmap_{kind}.csv")],
            lambda: n_dev * gate.FULL_GRID_ROWS, f"grid_req_per_s.{kind}"))
    steps += [
        Step(["select", "--heatmap", str(out / "heatmap_noisy_oracle.csv"), "--baseline-sem", BASELINE_SEM,
              "--out", str(out / "operation_point.json")], lambda: 1),
        Step(["generate", "--clusters", str(work / "gen.jsonl"), "--model", str(work / "qp.json"),
              "--generator", "noisy_oracle", "--noise-std", NOISE_STD, "--seed", str(seed),
              "--operation-point", str(out / "operation_point.json"), "--out", str(out / "generated.tsv")],
             lambda: n_gen, "generate_sent_per_s"),
        Step(["eval", "--system", f"noisy={out / 'generated.tsv'}", "--system", f"identity={work / 'identity.tsv'}",
              "--out", str(out / "eval.tsv")], lambda: 2 * n_gen, "eval_pairs_per_s"),
    ]
    return Workload(steps, out, lambda o: gate.check_grid_builtin(o, n_dev, n_gen, float(BASELINE_SEM) + 5.0))


def _setup_external_proc(seed: int, work: Path, size: dict, fail_on: str | None) -> Workload:
    from qcpg_kit import ALL_UNORDERED, extract_pairs, paraphrase_corpus, save_clusters, write_pairs_tsv

    clusters = paraphrase_corpus(size["ext_clusters"], CLUSTER_SIZE, seed=seed)
    gen = clusters[: size["ext_gen_clusters"]]
    save_clusters(clusters, work / "clusters.jsonl")
    save_clusters(gen, work / "gen.jsonl")
    pairs = extract_pairs(clusters, ALL_UNORDERED)
    write_pairs_tsv(pairs, work / "pairs.tsv")
    _fit_qp(clusters, work / "qp.json")
    generator = _stub("stub_generator.py", *(["--fail-on", fail_on] if fail_on else []))
    out = work / "out"
    n_dev = min(size["ext_dev_items"], len(clusters))
    n_gen = sum(len(c.sentences) for c in gen)
    steps = [
        Step(["score", "--pairs", str(work / "pairs.tsv"), "--scorer", "external",
              "--scorer-command", _stub("stub_scorer.py"), "--out", str(out / "scored_external.tsv")],
             lambda: len(pairs), "score_pairs_per_s"),
        Step(["grid", "--clusters", str(work / "clusters.jsonl"), "--model", str(work / "qp.json"),
              "--generator", "external", "--generator-command", generator, "--grid", EXTERNAL_GRID,
              "--per-cluster", "1", "--max-dev-items", str(n_dev), "--out", str(out / "heatmap_external.csv")],
             lambda: n_dev * gate.EXTERNAL_GRID_ROWS, "grid_req_per_s.external"),
        Step(["generate", "--clusters", str(work / "gen.jsonl"), "--model", str(work / "qp.json"),
              "--generator", "external", "--generator-command", generator, "--offset", "10,10,10",
              "--out", str(out / "generated_external.tsv")], lambda: n_gen, "generate_sent_per_s"),
    ]
    return Workload(steps, out, lambda o: gate.check_external_proc(o, len(pairs), n_dev, n_gen), calibrate.SPAWN)


SETUPS = {
    "score-cold": _setup_score_cold,
    "grid-builtin": _setup_grid_builtin,
    "external-proc": _setup_external_proc,
}


class FailureCounter(logging.Handler):
    """Counts the kit's warnings; at this commit each one reports a failed operation.

    Warnings are counted, not printed, so a failing generator cannot
    flood the output. Errors (a command's exit reason) are printed.
    """

    def __init__(self):
        super().__init__(logging.WARNING)
        self.failures = 0

    def emit(self, record):
        if record.levelno >= logging.ERROR:  # counted as the command's non-zero exit
            print(f"qcpg_kit: {record.getMessage()}", file=sys.stderr)
        else:
            self.failures += 1


def setup(name: str, seed: int, work: Path, size: str = "full", fail_on: str | None = None):
    """Generate the workload's inputs under ``work``.

    Returns the workload, the raw set-up time and the set-up time
    normalized by the reference task timed three times before and three
    times after it.
    """
    before = [calibrate.PYTHON.sample() for _ in range(3)]
    t0 = time.perf_counter()
    import qcpg_kit.cli  # noqa: F401  (the import is part of set-up)

    work.mkdir(parents=True, exist_ok=True)
    workload = SETUPS[name](seed, work, SIZES[size], fail_on)
    setup_s = time.perf_counter() - t0
    after = [calibrate.PYTHON.sample() for _ in range(3)]
    return workload, setup_s, setup_s * calibrate.PYTHON.nominal_s / statistics.fmean(before + after)


def run_chain(workload: Workload, tracer=None) -> dict:
    """Run every step once.

    The reference task is timed before the first command and after each
    one; a command's normalized time is its time scaled by the mean of the
    two samples around it (see calibrate.py). Returns the summed raw and
    normalized command times, the samples, per-figure [ops, raw seconds,
    normalized seconds], ops and non-zero exits.
    """
    from qcpg_kit import cli

    shutil.rmtree(workload.out, ignore_errors=True)
    workload.out.mkdir(parents=True)
    figures: dict[str, list[float]] = {}
    ops = bad_exits = 0
    wall = norm_wall = 0.0
    refs = [workload.reference.sample()]
    for step in workload.steps:
        n = step.ops()
        span = tracer.open("cli." + step.argv[0].replace("-", "_")) if tracer else None
        t0 = time.perf_counter()
        code = cli.main(step.argv)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        refs.append(workload.reference.sample())
        normalized = elapsed * workload.reference.nominal_s / ((refs[-2] + refs[-1]) / 2)
        wall += elapsed
        norm_wall += normalized
        ops += n
        if code != 0:
            bad_exits += 1
            print(f"bench: `{step.argv[0]}` exited with {code}", file=sys.stderr)
        if step.figure:
            acc = figures.setdefault(step.figure, [0, 0.0, 0.0])
            acc[0] += n
            acc[1] += elapsed
            acc[2] += normalized
    return {"wall_s": wall, "norm_wall_s": norm_wall, "ref_samples": refs,
            "figures": figures, "ops": ops, "bad_exits": bad_exits}


def digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path,
            size: str = "full", fail_on: str | None = None) -> dict:
    """Set up, then repeat the chain for ``seconds``; raw samples for run.py."""
    logging.getLogger().addHandler(logging.NullHandler())  # keeps cli.main's basicConfig silent
    counter = FailureCounter()
    logging.getLogger("qcpg_kit").addHandler(counter)
    try:
        return _measure(name, seed, seconds, trace, work, size, fail_on, counter)
    finally:
        logging.getLogger("qcpg_kit").removeHandler(counter)


def _measure(name, seed, seconds, trace, work, size, fail_on, counter) -> dict:
    workload, setup_s, norm_setup_s = setup(name, seed, work, size, fail_on)

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    chains, traced, problems = [], [], []
    first = None
    t_start = time.perf_counter()
    while True:
        t_iteration = time.perf_counter()
        # a traced run alternates untraced and traced chains, starting untraced:
        # the untraced ones are the reference for the tracing overhead
        traced_now = tracer is not None and len(chains) % 2 == 1
        if traced_now:
            tracer.reset()
            with tracer.installed():
                chain = run_chain(workload, tracer)
            traced.append(tracing.layer_metrics(tracer.summary()))
        else:
            chain = run_chain(workload)
        chain["traced"] = traced_now
        chains.append(chain)
        got = digests(workload.out)
        if first is None:
            first = got
            problems += workload.check(workload.out)
        elif got != first:
            problems.append("outputs differ between repetitions of the chain")
        now = time.perf_counter()
        if now - t_start + (now - t_iteration) > seconds and (tracer is None or traced):
            break
    golden = gate.check_golden(name, first) if seed == DEFAULT_SEED and size == "full" else None
    if tracer is not None:
        tracer.write_spans(ROOT / ".bench_out" / f"spans_{name}_seed{seed}.json.gz")

    import numpy
    import scipy

    return {
        "setup_s": setup_s,
        "norm_setup_s": norm_setup_s,
        "reference": workload.reference.name,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "chains": chains,
        "traced": traced,
        "failures": counter.failures,
        "problems": problems,
        "golden": golden,
        "digests": first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True, help="working directory for inputs and outputs")
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true", help="time set-up alone and exit")
    args = parser.parse_args(argv)
    if args.setup_only:
        _, setup_s, norm_setup_s = setup(args.workload, args.seed, args.work, args.size)
        result = {"setup_s": setup_s, "norm_setup_s": norm_setup_s}
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.work, args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
