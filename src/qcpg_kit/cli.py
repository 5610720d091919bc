"""Command-line pipeline: score pairs, split corpora, fit the reference
predictor, run the offset grid search, select operation points, generate,
and evaluate.

All diagnostics go to stderr; data goes to files or stdout. Exit codes:
0 success, 2 usage, 3 I/O or spawn failure, 4 malformed input or
protocol violation, 5 unsatisfiable data constraints, 6 no feasible
offset.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .dataset import (
    PAIR_MODES,
    ALL_UNORDERED,
    SentencePair,
    dev_items,
    load_clusters,
    read_pairs_tsv,
    read_tree_sidecar,
    resolve_target_tree,
    split_clusters,
    write_pairs_tsv,
)
from .errors import LengthMismatch, MalformedRecord, MissingTree, NonFiniteValue, QcpgError, raise_first_failure
from .generators import GENERATOR_KINDS, GeneratorSpec, build_generator
from .quality import Offset, QualityComputer, QualityVector, apply_offset
from .reference import evaluate_mse, fit, load_model, predict, save_model
from .selection import (
    SelectionConstraint,
    default_grid,
    grid_search,
    export_heatmap_csv,
    read_heatmap_csv,
    select_operation_point,
)
from .semantic import BUILTIN_TRIGRAM, EXTERNAL_COMMAND, SemanticScorer
from .util import read_lines
from .evaluation import evaluate_systems

log = logging.getLogger("qcpg_kit")

def _exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, QcpgError):
        return exc.exit_code
    if isinstance(exc, OSError):
        return 3
    return 5 if isinstance(exc, ValueError) else 1


def _load_config(path: str | None) -> dict[str, str]:
    """key=value lines keyed by option dest; '#' starts a comment; flags override these values."""
    if not path:
        return {}
    config = {}
    for lineno, line in enumerate(read_lines(path), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedRecord(f"config line is not key=value: {line!r}", line=lineno)
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


# the short names --scorer and --generator accept besides the full kind names
_KIND_ALIASES = {"builtin": BUILTIN_TRIGRAM, "external": EXTERNAL_COMMAND}


def _scorer_from(args) -> SemanticScorer:
    return SemanticScorer(kind=_KIND_ALIASES.get(args.scorer, args.scorer), command=args.scorer_command)


def _generator_from(args) -> GeneratorSpec:
    kind = _KIND_ALIASES.get(args.generator, args.generator)
    return GeneratorSpec(kind=kind, noise_std=args.noise_std, command=args.generator_command, seed=args.seed)


def _parse_grid_spec(text: str) -> list[Offset]:
    try:
        lo, step, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise ValueError(f"grid spec must be lo:step:hi, got {text!r}") from None
    return default_grid(lo, step, hi)


def _parse_offset(text: str) -> Offset:
    try:
        sem, syn, lex = (float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"offset must be sem,syn,lex, got {text!r}") from None
    return Offset(sem, syn, lex)


def _read_operation_point(path) -> Offset:
    """The offset of a `select` JSON file: ``{"offset": {"sem": x, "syn": y, "lex": z}, ...}``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"operation point is not JSON: {exc.msg}", line=exc.lineno) from None
    offset = payload.get("offset") if isinstance(payload, dict) else None
    if not (
        isinstance(offset, dict)
        and sorted(offset) == ["lex", "sem", "syn"]
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in offset.values())
    ):
        raise MalformedRecord('operation point needs "offset" with numeric "sem", "syn" and "lex" only', line=1)
    try:
        return Offset(**offset)
    except (OverflowError, NonFiniteValue) as exc:
        raise MalformedRecord(f"operation point {exc}", line=1) from None


def _sidecar(path, n: int) -> list[str | None]:
    """The trees of a sidecar aligned with ``n`` pairs; all None without one."""
    if not path:
        return [None] * n
    trees = read_tree_sidecar(path)
    if len(trees) != n:
        raise LengthMismatch(f"tree sidecar {path} has {len(trees)} lines for {n} pairs")
    return trees


def _pair_trees(pairs, args):
    """Yield (pair, source_tree, target_tree); None where no parse exists."""
    side_src = _sidecar(args.source_trees, len(pairs))
    side_tgt = _sidecar(args.target_trees, len(pairs))
    for pair, src, tgt in zip(pairs, side_src, side_tgt):
        yield pair, pair.source_tree or src, pair.target_tree or tgt


def _write_output(args, text: str) -> int:
    """Write a command's text output to --out, or to stdout without one."""
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_score(args) -> int:
    pairs = read_pairs_tsv(args.pairs)
    computer = QualityComputer(_scorer_from(args))
    parsed = []
    for pair, tree_s, tree_t in _pair_trees(pairs, args):
        if tree_s is None or tree_t is None:
            log.warning("skipping pair %r: missing parse", pair.source[:40])
            continue
        parsed.append((pair, tree_s, tree_t))
    qualities = computer.pair_qualities([(pair.source, pair.target, ts, tt) for pair, ts, tt in parsed])
    rows = [(*row, q) for row, q in zip(parsed, raise_first_failure(qualities))]
    has_trees = any(p.source_tree for p, _, _, _ in rows) or args.source_trees
    header = ["source", "target", "cluster_id"]
    if has_trees:
        header += ["source_tree", "target_tree"]
    header += ["q_sem", "q_syn", "q_lex"]
    lines = ["\t".join(header)]
    for pair, tree_s, tree_t, q in rows:
        fields = [pair.source, pair.target, pair.cluster_id]
        if has_trees:
            fields += [tree_s, tree_t]
        fields += [f"{q.sem:.2f}", f"{q.syn:.2f}", f"{q.lex:.2f}"]
        lines.append("\t".join(fields))
    text = "\n".join(lines) + "\n"
    return _write_output(args, text)


def cmd_split(args) -> int:
    clusters = load_clusters(args.clusters)
    sizes = tuple(int(v) for v in args.sizes.split(","))
    if len(sizes) != 3:
        raise ValueError("--sizes must be train,dev,test pair counts")
    split = split_clusters(clusters, sizes, seed=args.seed, mode=args.mode)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, pairs in (("train", split.train), ("dev", split.dev), ("test", split.test)):
        write_pairs_tsv(pairs, out_dir / f"{name}.tsv")
        log.info("%s: %d pairs", name, len(pairs))
    return 0


def _read_scored_tsv(path) -> list[tuple[str, QualityVector]]:
    lines = read_lines(path)
    header = lines[0].split("\t") if lines else []
    try:
        col = [header.index(name) for name in ("source", "q_sem", "q_syn", "q_lex")]
    except ValueError:
        raise MalformedRecord("scored TSV lacks source/q_sem/q_syn/q_lex columns", line=1) from None
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) <= max(col):
            raise MalformedRecord(f"expected {len(header)} tab-separated fields, got {len(fields)}", line=lineno)
        source, *scores = (fields[i] for i in col)
        try:
            samples.append((source, QualityVector(*map(float, scores))))
        except (ValueError, NonFiniteValue) as exc:
            raise MalformedRecord(f"bad q_sem/q_syn/q_lex {scores!r}: {exc}", line=lineno) from None
    return samples


def cmd_train_qp(args) -> int:
    samples = _read_scored_tsv(args.pairs)
    model = fit(samples, lam=args.lam)
    save_model(model, args.out)
    eval_samples = _read_scored_tsv(args.dev) if args.dev else samples
    which = "dev" if args.dev else "train"
    mse = evaluate_mse(model, eval_samples)
    log.info("%s MSE (sem, syn, lex): %.4f %.4f %.4f", which, *mse)
    return 0


def cmd_predict_qp(args) -> int:
    model = load_model(args.model)
    sentences = read_lines(args.sentences)
    lines = ["sentence\tr_sem\tr_syn\tr_lex"]
    for s in sentences:
        r = predict(model, s)
        lines.append(f"{s}\t{r.sem:.4f}\t{r.syn:.4f}\t{r.lex:.4f}")
    text = "\n".join(lines) + "\n"
    return _write_output(args, text)


def cmd_grid(args) -> int:
    gen = _generator_from(args)
    model = load_model(args.model)
    grid = _parse_grid_spec(args.grid)
    dev = dev_items(load_clusters(args.clusters), per_cluster=args.per_cluster, limit=args.max_dev_items)
    result = grid_search(gen, model, dev, grid=grid, scorer=_scorer_from(args))
    export_heatmap_csv(result, args.out)
    log.info("evaluated %d offsets over %d dev sentences", len(result.offsets), len(dev))
    return 0


def cmd_select(args) -> int:
    result = read_heatmap_csv(args.heatmap)
    constraint = SelectionConstraint(baseline_sem=args.baseline_sem, min_sem_advantage=args.margin)
    point = select_operation_point(result, constraint)
    payload = {
        "offset": dict(zip(("sem", "syn", "lex"), point.offset.as_tuple())),
        "expected": dict(zip(("sem", "syn", "lex"), point.expected.as_tuple())),
        "diversity": point.diversity,
    }
    text = json.dumps(payload, indent=2) + "\n"
    return _write_output(args, text)


def cmd_generate(args) -> int:
    spec = _generator_from(args)
    model = load_model(args.model)
    o = _read_operation_point(args.operation_point) if args.operation_point else _parse_offset(args.offset)
    clusters = load_clusters(args.clusters)
    generator = build_generator(spec, QualityComputer(_scorer_from(args)))
    items = [(s, cluster, cluster.tree_of(s)) for cluster in clusters for s in cluster.sentences]
    outputs = generator.generate_batch([(s, apply_offset(predict(model, s), o), cluster) for s, cluster, _ in items])
    rows = []
    for (s, cluster, tree_s), t in zip(items, outputs):
        if isinstance(t, QcpgError):
            log.warning("generation failed for %r: %s", s[:40], t)
            continue
        rows.append(SentencePair(s, t, cluster.cluster_id, tree_s, resolve_target_tree(t, s, cluster, tree_s)))
    write_pairs_tsv(rows, args.out)
    log.info("generated %d paraphrases at offset %s", len(rows), o.as_tuple())
    return 0


def cmd_eval(args) -> int:
    systems = []
    sources = source_trees = None
    for name, path in args.system:
        pairs = read_pairs_tsv(path)
        if any(p.source_tree is None or p.target_tree is None for p in pairs):
            raise MissingTree(f"system file {path!r} must carry source and target trees")
        sys_sources = [p.source for p in pairs]
        sys_trees = [p.source_tree for p in pairs]
        if sources is None:
            sources, source_trees = sys_sources, sys_trees
        elif (sys_sources, sys_trees) != (sources, source_trees):
            raise LengthMismatch(f"system {name!r} disagrees with the first system's sources or source trees")
        systems.append((name, [p.target for p in pairs], [p.target_tree for p in pairs]))
    references = None
    if args.references:
        references = read_lines(args.references)
    report = evaluate_systems(systems, sources, source_trees, references, _scorer_from(args))
    text = report.to_tsv()
    return _write_output(args, text)


def _system(text: str) -> tuple[str, str]:
    """An ``eval --system`` value: ``name=path``."""
    name, sep, path = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected name=path, got {text!r}")
    return name, path


def _build_parser(config_path: str | None = None, chosen: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; the config file's values become defaults of the ``chosen`` command's options."""
    config = _load_config(config_path)
    parser = argparse.ArgumentParser(prog="qcpg-kit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qcpg-kit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def option(p, *flags, **kwargs) -> argparse.Action:
        """Add an option; a config value under its dest becomes its default, checked like a flag value."""
        action = p.add_argument(*flags, **kwargs)
        if p is not sub.choices.get(chosen) or action.dest not in config:
            return action
        value = config[action.dest]
        where = f"config {config_path}: {action.dest}={value!r}"
        try:
            action.default = action.type(value) if action.type else value
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            raise ValueError(f"{where} is not a valid {action.type.__name__}") from None
        if action.choices is not None and action.default not in action.choices:
            raise ValueError(f"{where} is not one of {', '.join(map(str, action.choices))}")
        action.required = False
        return action

    def command(name, func, out, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key=value file of option defaults, keyed by dest; flags win")
        option(p, "--out", default=out)
        return p

    def seeded(p):
        option(p, "--seed", type=int, default=42)

    def scored(p):
        option(p, "--scorer", choices=[*_KIND_ALIASES, BUILTIN_TRIGRAM, EXTERNAL_COMMAND], default=BUILTIN_TRIGRAM)
        option(p, "--scorer-command")

    def generation(p):
        seeded(p)
        scored(p)
        option(p, "--clusters", required=True, help="clusters JSONL (with trees)")
        option(p, "--model", required=True, help="reference predictor JSON")
        option(p, "--generator", choices=["external", *GENERATOR_KINDS], default="identity")
        option(p, "--generator-command")
        option(p, "--noise-std", type=float)

    p = command("score", cmd_score, None, "append quality columns to a pairs TSV")
    scored(p)
    option(p, "--pairs", required=True)
    option(p, "--source-trees", help="tree sidecar for sources")
    option(p, "--target-trees", help="tree sidecar for targets")

    p = command("split", cmd_split, ".", "leak-free train/dev/test split of a cluster file")
    seeded(p)
    option(p, "--clusters", required=True)
    option(p, "--sizes", required=True, help="train,dev,test pair quotas")
    option(p, "--mode", choices=PAIR_MODES, default=ALL_UNORDERED)

    p = command("train-qp", cmd_train_qp, "qp-model.json", "fit the reference predictor on scored pairs")
    option(p, "--pairs", required=True, help="scored TSV from `score`")
    option(p, "--dev", help="scored TSV for held-out MSE reporting")
    option(p, "--lambda", dest="lam", type=float, default=1.0)

    p = command("predict-qp", cmd_predict_qp, None, "predict reference quality for sentences")
    option(p, "--model", required=True)
    option(p, "--sentences", required=True, help="one sentence per line")

    p = command("grid", cmd_grid, "heatmap.csv", "run the offset grid search, export heatmap CSV")
    generation(p)
    option(p, "--grid", default="0:5:50", help="lo:step:hi per dimension (default %(default)s)")
    option(p, "--per-cluster", type=int, help="dev sentences per cluster")
    option(p, "--max-dev-items", type=int)

    p = command("select", cmd_select, None, "pick the operation point from a heatmap CSV")
    option(p, "--heatmap", required=True)
    option(p, "--baseline-sem", type=float, required=True)
    option(p, "--margin", type=float, default=5.0, help="required semantic advantage (default %(default)s)")

    p = command("generate", cmd_generate, "generated.tsv", "paraphrase cluster sentences at an offset")
    generation(p)
    option(p, "--offset", default="0,0,0", help="sem,syn,lex")
    option(p, "--operation-point", help="JSON from `select`")

    p = command("eval", cmd_eval, None, "compare systems: quality, Self-BLEU, BLEU")
    scored(p)
    p.add_argument("--system", action="append", type=_system, required=True, help="name=pairs.tsv (with trees)")
    option(p, "--references", help="one reference per line, aligned with sources")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    # the command and --config are read first: the config's values become
    # the defaults of that command's options in the one real parse
    pre = argparse.ArgumentParser(prog="qcpg-kit", add_help=False)
    pre.add_argument("command", nargs="?")
    pre.add_argument("--config")
    try:
        known = pre.parse_known_args(argv)[0]
        args = _build_parser(known.config, known.command).parse_args(argv)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single boundary mapping errors to exit codes
        log.error("%s: %s", type(exc).__name__, exc)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
