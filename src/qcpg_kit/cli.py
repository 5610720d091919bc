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
    load_clusters,
    read_pairs_tsv,
    read_tree_sidecar,
    split_clusters,
    write_pairs_tsv,
)
from .errors import (
    AllGenerationsFailed,
    AllTied,
    DegenerateDesign,
    EmptyContext,
    EmptyEvalSet,
    InsufficientData,
    LengthMismatch,
    MalformedControlPrefix,
    MalformedRecord,
    MissingTree,
    MissingZeroPoint,
    ModelFormatError,
    NoFeasibleOffset,
    NonFiniteValue,
    ProtocolError,
    QcpgError,
    SpawnFailure,
    TreeLengthMismatch,
    TreeSyntaxError,
    raise_first_failure,
)
from .generators import GENERATOR_KINDS, GeneratorSpec, build_generator
from .quality import Offset, QualityComputer, QualityVector, apply_offset
from .reference import evaluate_mse, fit, load_model, predict, save_model
from .selection import (
    SelectionConstraint,
    default_grid,
    grid_search,
    export_heatmap_csv,
    read_heatmap_csv,
    resolve_target_tree,
    select_operation_point,
)
from .semantic import BUILTIN_TRIGRAM, EXTERNAL_COMMAND, SemanticScorer
from .util import read_lines
from .evaluation import evaluate_systems

log = logging.getLogger("qcpg_kit")

_EXIT_CODES = (
    (NoFeasibleOffset, 6),
    (
        (
            InsufficientData,
            LengthMismatch,
            MissingTree,
            MissingZeroPoint,
            EmptyContext,
            EmptyEvalSet,
            DegenerateDesign,
            NonFiniteValue,
            AllTied,
            AllGenerationsFailed,
        ),
        5,
    ),
    (
        (
            TreeSyntaxError,
            MalformedRecord,
            TreeLengthMismatch,
            ProtocolError,
            MalformedControlPrefix,
            ModelFormatError,
        ),
        4,
    ),
    ((SpawnFailure, OSError), 3),
)


def _exit_code_for(exc: BaseException) -> int:
    for classes, code in _EXIT_CODES:
        if isinstance(exc, classes):
            return code
    return 5 if isinstance(exc, (QcpgError, ValueError)) else 1


def _load_config(path: str | None) -> dict[str, str]:
    """key=value lines; '#' starts a comment; flags override these values."""
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


def _resolve(args, config: dict[str, str], key: str, default=None, cast=str):
    flag_value = getattr(args, key, None)
    if flag_value is not None:
        return flag_value
    if key in config:
        return cast(config[key])
    return default


def _scorer_from(args, config) -> SemanticScorer:
    kind = _resolve(args, config, "scorer", BUILTIN_TRIGRAM)
    command = _resolve(args, config, "scorer_command")
    if kind == "builtin":
        kind = BUILTIN_TRIGRAM
    if kind == "external":
        kind = EXTERNAL_COMMAND
    return SemanticScorer(kind=kind, command=command)


def _generator_from(args, config, seed: int) -> GeneratorSpec:
    kind = _resolve(args, config, "generator", "identity")
    if kind == "external":
        kind = EXTERNAL_COMMAND
    return GeneratorSpec(
        kind=kind,
        noise_std=_resolve(args, config, "noise_std", cast=float),
        command=_resolve(args, config, "generator_command"),
        seed=seed,
    )


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


def _pair_trees(pairs, args):
    """Yield (pair, source_tree, target_tree); None where no parse exists."""
    side_src = read_tree_sidecar(args.source_trees) if args.source_trees else None
    side_tgt = read_tree_sidecar(args.target_trees) if args.target_trees else None
    for i, pair in enumerate(pairs):
        src = pair.source_tree or (side_src[i] if side_src and i < len(side_src) else None)
        tgt = pair.target_tree or (side_tgt[i] if side_tgt and i < len(side_tgt) else None)
        yield pair, src, tgt


def _write_output(args, config, text: str) -> int:
    """Write a command's text output to --out, or to stdout without one."""
    out_path = _resolve(args, config, "out")
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_score(args, config) -> int:
    pairs = read_pairs_tsv(args.pairs)
    computer = QualityComputer(_scorer_from(args, config))
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
    return _write_output(args, config, text)


def cmd_split(args, config) -> int:
    clusters = load_clusters(_resolve(args, config, "clusters"))
    sizes = tuple(int(v) for v in _resolve(args, config, "sizes").split(","))
    if len(sizes) != 3:
        raise ValueError("--sizes must be train,dev,test pair counts")
    seed = _resolve(args, config, "seed", 42, cast=int)
    mode = _resolve(args, config, "mode", ALL_UNORDERED)
    split = split_clusters(clusters, sizes, seed=seed, mode=mode)
    out_dir = Path(_resolve(args, config, "out", "."))
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
            scores = [float(v) for v in scores]
        except ValueError:
            raise MalformedRecord(f"non-numeric q_sem/q_syn/q_lex in {scores!r}", line=lineno) from None
        samples.append((source, QualityVector(*scores)))
    return samples


def cmd_train_qp(args, config) -> int:
    samples = _read_scored_tsv(args.pairs)
    lam = _resolve(args, config, "lam", 1.0, cast=float)
    model = fit(samples, lam=lam)
    save_model(model, _resolve(args, config, "out", "qp-model.json"))
    eval_samples = _read_scored_tsv(args.dev) if args.dev else samples
    which = "dev" if args.dev else "train"
    mse = evaluate_mse(model, eval_samples)
    log.info("%s MSE (sem, syn, lex): %.4f %.4f %.4f", which, *mse)
    return 0


def cmd_predict_qp(args, config) -> int:
    model = load_model(_resolve(args, config, "model"))
    sentences = read_lines(args.sentences)
    lines = ["sentence\tr_sem\tr_syn\tr_lex"]
    for s in sentences:
        r = predict(model, s)
        lines.append(f"{s}\t{r.sem:.4f}\t{r.syn:.4f}\t{r.lex:.4f}")
    text = "\n".join(lines) + "\n"
    return _write_output(args, config, text)


def _grid_dev_items(args, config):
    clusters = load_clusters(_resolve(args, config, "clusters"))
    from .synthetic import dev_items as flatten

    per_cluster = _resolve(args, config, "per_cluster", cast=int)
    limit = _resolve(args, config, "max_dev_items", cast=int)
    return flatten(clusters, per_cluster=per_cluster, limit=limit)


def cmd_grid(args, config) -> int:
    seed = _resolve(args, config, "seed", 42, cast=int)
    scorer = _scorer_from(args, config)
    gen = _generator_from(args, config, seed)
    model = load_model(_resolve(args, config, "model"))
    grid = _parse_grid_spec(_resolve(args, config, "grid", "0:5:50"))
    dev = _grid_dev_items(args, config)
    result = grid_search(gen, model, dev, grid=grid, scorer=scorer)
    export_heatmap_csv(result, _resolve(args, config, "out", "heatmap.csv"))
    log.info("evaluated %d offsets over %d dev sentences", len(result.offsets), len(dev))
    return 0


def cmd_select(args, config) -> int:
    result = read_heatmap_csv(_resolve(args, config, "heatmap"))
    constraint = SelectionConstraint(
        baseline_sem=_resolve(args, config, "baseline_sem", cast=float),
        min_sem_advantage=_resolve(args, config, "margin", 5.0, cast=float),
    )
    point = select_operation_point(result, constraint)
    payload = {
        "offset": dict(zip(("sem", "syn", "lex"), point.offset.as_tuple())),
        "expected": dict(zip(("sem", "syn", "lex"), point.expected.as_tuple())),
        "diversity": point.diversity,
    }
    text = json.dumps(payload, indent=2) + "\n"
    return _write_output(args, config, text)


def cmd_generate(args, config) -> int:
    seed = _resolve(args, config, "seed", 42, cast=int)
    scorer = _scorer_from(args, config)
    spec = _generator_from(args, config, seed)
    model = load_model(_resolve(args, config, "model"))
    if args.operation_point:
        payload = json.loads(Path(args.operation_point).read_text(encoding="utf-8"))
        o = Offset(**payload["offset"])
    else:
        o = _parse_offset(_resolve(args, config, "offset", "0,0,0"))
    clusters = load_clusters(_resolve(args, config, "clusters"))
    generator = build_generator(spec, scorer, quality=QualityComputer(scorer))
    items = [(s, cluster, cluster.trees[i] if cluster.trees else None)
             for cluster in clusters for i, s in enumerate(cluster.sentences)]
    outputs = generator.generate_batch([(s, apply_offset(predict(model, s), o), cluster) for s, cluster, _ in items])
    rows = []
    for (s, cluster, tree_s), t in zip(items, outputs):
        if isinstance(t, QcpgError):
            log.warning("generation failed for %r: %s", s[:40], t)
            continue
        rows.append(SentencePair(s, t, cluster.cluster_id, tree_s, resolve_target_tree(t, s, cluster, tree_s)))
    write_pairs_tsv(rows, _resolve(args, config, "out", "generated.tsv"))
    log.info("generated %d paraphrases at offset %s", len(rows), o.as_tuple())
    return 0


def cmd_eval(args, config) -> int:
    systems = []
    sources = source_trees = None
    for item in args.system:
        if "=" not in item:
            raise ValueError(f"--system expects name=path, got {item!r}")
        name, path = item.split("=", 1)
        pairs = read_pairs_tsv(path)
        if any(p.source_tree is None or p.target_tree is None for p in pairs):
            raise MissingTree(f"system file {path!r} must carry source and target trees")
        sys_sources = [p.source for p in pairs]
        sys_trees = [p.source_tree for p in pairs]
        if sources is None:
            sources, source_trees = sys_sources, sys_trees
        elif sys_sources != sources:
            raise LengthMismatch(f"system {name!r} disagrees with the first system's sources")
        systems.append((name, [p.target for p in pairs], [p.target_tree for p in pairs]))
    references = None
    if args.references:
        references = read_lines(args.references)
    report = evaluate_systems(systems, sources, source_trees, references, _scorer_from(args, config))
    text = report.to_tsv()
    return _write_output(args, config, text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcpg-kit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qcpg-kit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file; flags win")
        p.add_argument("--seed", type=int)
        p.add_argument("--scorer", choices=["builtin", "external", BUILTIN_TRIGRAM, EXTERNAL_COMMAND])
        p.add_argument("--scorer-command", dest="scorer_command")
        p.add_argument("--out")

    p = sub.add_parser("score", help="append quality columns to a pairs TSV")
    common(p)
    p.add_argument("--pairs", required=True)
    p.add_argument("--source-trees", dest="source_trees", help="tree sidecar for sources")
    p.add_argument("--target-trees", dest="target_trees", help="tree sidecar for targets")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("split", help="leak-free train/dev/test split of a cluster file")
    common(p)
    p.add_argument("--clusters")
    p.add_argument("--sizes", help="train,dev,test pair quotas")
    p.add_argument("--mode", choices=PAIR_MODES)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train-qp", help="fit the reference predictor on scored pairs")
    common(p)
    p.add_argument("--pairs", required=True, help="scored TSV from `score`")
    p.add_argument("--dev", help="scored TSV for held-out MSE reporting")
    p.add_argument("--lambda", dest="lam", type=float)
    p.set_defaults(func=cmd_train_qp)

    p = sub.add_parser("predict-qp", help="predict reference quality for sentences")
    common(p)
    p.add_argument("--model")
    p.add_argument("--sentences", required=True, help="one sentence per line")
    p.set_defaults(func=cmd_predict_qp)

    p = sub.add_parser("grid", help="run the offset grid search, export heatmap CSV")
    common(p)
    p.add_argument("--clusters", help="dev clusters JSONL (with trees)")
    p.add_argument("--model", help="reference predictor JSON")
    p.add_argument("--generator", choices=["external", *GENERATOR_KINDS])
    p.add_argument("--generator-command", dest="generator_command")
    p.add_argument("--noise-std", dest="noise_std", type=float)
    p.add_argument("--grid", help="lo:step:hi per dimension (default 0:5:50)")
    p.add_argument("--per-cluster", dest="per_cluster", type=int, help="dev sentences per cluster")
    p.add_argument("--max-dev-items", dest="max_dev_items", type=int)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("select", help="pick the operation point from a heatmap CSV")
    common(p)
    p.add_argument("--heatmap", required=True)
    p.add_argument("--baseline-sem", dest="baseline_sem", type=float)
    p.add_argument("--margin", type=float, help="required semantic advantage (default 5)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("generate", help="paraphrase cluster sentences at an offset")
    common(p)
    p.add_argument("--clusters")
    p.add_argument("--model")
    p.add_argument("--generator", choices=["external", *GENERATOR_KINDS])
    p.add_argument("--generator-command", dest="generator_command")
    p.add_argument("--noise-std", dest="noise_std", type=float)
    p.add_argument("--offset", help="sem,syn,lex")
    p.add_argument("--operation-point", dest="operation_point", help="JSON from `select`")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="compare systems: quality, Self-BLEU, BLEU")
    common(p)
    p.add_argument("--system", action="append", required=True, help="name=pairs.tsv (with trees)")
    p.add_argument("--references", help="one reference per line, aligned with sources")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except Exception as exc:  # noqa: BLE001 - single boundary mapping errors to exit codes
        log.error("%s: %s", type(exc).__name__, exc)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
