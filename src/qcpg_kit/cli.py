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
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    PAIR_MODES,
    ALL_UNORDERED,
    SentencePair,
    dev_items,
    load_clusters,
    pair_fields,
    pairs_tsv,
    read_pairs_tsv,
    read_tree_sidecar,
    split_clusters,
    write_pairs_tsv,
)
from .errors import (
    AllGenerationsFailed,
    LengthMismatch,
    MalformedRecord,
    NonFiniteValue,
    QcpgError,
    raise_first_failure,
)
from .generators import GENERATOR_KINDS, GeneratorSpec, build_generator
from .quality import ZERO_OFFSET, Offset, QualityComputer, QualityVector
from .reference import evaluate_mse, fit, load_model, predict, save_model
from .selection import (
    SelectionConstraint,
    grid_array,
    grid_search,
    export_heatmap_csv,
    generate_pairs,
    read_heatmap_csv,
    select_operation_point,
)
from .semantic import BUILTIN_TRIGRAM, EXTERNAL_COMMAND, SemanticScorer
from .util import is_json_number, read_lines, read_text, tsv_row, write_text
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


def _parse_grid_spec(text: str) -> np.ndarray:
    try:
        lo, step, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise ValueError(f"grid spec must be lo:step:hi, got {text!r}") from None
    return grid_array(lo, step, hi)


def _parse_offset(text: str) -> Offset:
    try:
        sem, syn, lex = (float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"offset must be sem,syn,lex, got {text!r}") from None
    return Offset(sem, syn, lex)


def _read_operation_point(path) -> Offset:
    """The offset of a `select` JSON file: ``{"offset": {"sem": x, "syn": y, "lex": z}, ...}``."""
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"operation point is not JSON: {exc.msg}", line=exc.lineno) from None
    offset = payload.get("offset") if isinstance(payload, dict) else None
    if not (
        isinstance(offset, dict)
        and sorted(offset) == ["lex", "sem", "syn"]
        and all(is_json_number(v) for v in offset.values())
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


def _pair_trees(pairs, args) -> list[SentencePair]:
    """The pairs, each tree it lacks taken from the sidecars; a pair still lacking one is skipped."""
    side_src = _sidecar(args.source_trees, len(pairs))
    side_tgt = _sidecar(args.target_trees, len(pairs))
    parsed = []
    for pair, src, tgt in zip(pairs, side_src, side_tgt):
        if pair.source_tree is None or pair.target_tree is None:
            pair = replace(pair, source_tree=pair.source_tree or src, target_tree=pair.target_tree or tgt)
            if pair.source_tree is None or pair.target_tree is None:
                log.warning("skipping pair %r: missing parse", pair.source[:40])
                continue
        parsed.append(pair)
    return parsed


def _write_output(args, text: str) -> int:
    """Write a command's text output to --out, or to stdout without one."""
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_score(args) -> int:
    computer = QualityComputer(_scorer_from(args))
    pairs = _pair_trees(read_pairs_tsv(args.pairs), args)
    qualities = computer.pair_qualities([(p.source, p.target, p.source_tree, p.target_tree) for p in pairs])
    lines = [tsv_row("source target cluster_id source_tree target_tree q_sem q_syn q_lex".split())]
    for pair, q in zip(pairs, raise_first_failure(qualities)):
        lines.append(tsv_row([*pair_fields(pair), *(f"{v:.2f}" for v in q.as_tuple())]))
    return _write_output(args, "".join(lines))


def cmd_split(args) -> int:
    clusters = load_clusters(args.clusters)
    sizes = tuple(int(v) for v in args.sizes.split(","))
    if len(sizes) != 3:
        raise ValueError("--sizes must be train,dev,test pair counts")
    split = split_clusters(clusters, sizes, seed=args.seed, mode=args.mode)
    texts = {name: pairs_tsv(getattr(split, name)) for name in ("train", "dev", "test")}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        write_text(out_dir / f"{name}.tsv", text)
        log.info("%s: %d pairs", name, len(getattr(split, name)))
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
    eval_samples = _read_scored_tsv(args.dev) if args.dev else samples
    model = fit(samples, lam=args.lam)
    mse = evaluate_mse(model, eval_samples)
    save_model(model, args.out)
    log.info("%s MSE (sem, syn, lex): %.4f %.4f %.4f", "dev" if args.dev else "train", *mse)
    return 0


def cmd_predict_qp(args) -> int:
    model = load_model(args.model)
    sentences = read_lines(args.sentences)
    lines = [tsv_row("sentence r_sem r_syn r_lex".split())]
    for lineno, s in enumerate(sentences, start=1):
        if "\t" in s:
            raise MalformedRecord("a tab inside a sentence", line=lineno)
        lines.append(tsv_row([s, *(f"{v:.4f}" for v in predict(model, s).as_tuple())]))
    return _write_output(args, "".join(lines))


def cmd_grid(args) -> int:
    gen, scorer = _generator_from(args), _scorer_from(args)
    model = load_model(args.model)
    grid = _parse_grid_spec(args.grid)
    dev = dev_items(load_clusters(args.clusters), per_cluster=args.per_cluster, limit=args.max_dev_items)
    result = grid_search(gen, model, dev, grid=grid, scorer=scorer)
    export_heatmap_csv(result, args.out)
    log.info("evaluated %d offsets over %d dev sentences", len(result.n_array), len(dev))
    return 0


def cmd_select(args) -> int:
    result = read_heatmap_csv(args.heatmap)
    constraint = SelectionConstraint(baseline_sem=args.baseline_sem, min_sem_advantage=args.margin)
    point = select_operation_point(result, constraint)
    payload = {
        "offset": asdict(point.offset),
        "expected": asdict(point.expected),
        "diversity": point.diversity,
    }
    text = json.dumps(payload, indent=2) + "\n"
    return _write_output(args, text)


def cmd_generate(args) -> int:
    """Paraphrase every cluster sentence at one offset, through ``generate_pairs``.

    It sends the controls, chunks and trees the grid has at that offset. A
    row whose output has no tree is still written; ``QualityComputer`` and
    ``eval`` take it as ``MissingTree``.
    """
    if args.operation_point is not None and args.offset is not None:
        raise ValueError("--offset and --operation-point are both set; give one")
    generator = build_generator(_generator_from(args), QualityComputer(_scorer_from(args)))
    model = load_model(args.model)
    if args.operation_point:
        o = _read_operation_point(args.operation_point)
    else:
        o = ZERO_OFFSET if args.offset is None else _parse_offset(args.offset)
    items = [(s, cluster) for cluster in load_clusters(args.clusters) for s in cluster.sentences]
    rows = []
    for chunk in generate_pairs(generator, model, items, [o]):
        # one offset asks one control, so each item has one output
        for (s, cluster), [key], _ in chunk:
            if isinstance(key, QcpgError):
                log.warning("%r failed: %s: %s", s[:40], type(key).__name__, key)
                continue
            _, t, tree_s, tree_t = key
            rows.append(SentencePair(s, t, cluster.cluster_id, tree_s, tree_t))
    if items and not rows:
        raise AllGenerationsFailed(f"every one of the {len(items)} generations failed")
    if treeless := sum(None in (row.source_tree, row.target_tree) for row in rows):
        log.warning(
            "%d of %d rows are written without trees (an output in no cluster, or a cluster without trees); "
            "eval will refuse them with MissingTree",
            treeless,
            len(rows),
        )
    write_pairs_tsv(rows, args.out)
    log.info("generated %d paraphrases at offset %s", len(rows), o.as_tuple())
    return 0


def cmd_eval(args) -> int:
    scorer = _scorer_from(args)
    systems = [
        (name, [(p.source, p.target, p.source_tree, p.target_tree) for p in read_pairs_tsv(path)])
        for name, path in args.system
    ]
    references = None
    if args.references:
        references = read_lines(args.references)
        for lineno, ref in enumerate(references, start=1):
            if not ref.split():
                raise MalformedRecord("a blank reference", line=lineno)
    report = evaluate_systems(systems, references, scorer)
    return _write_output(args, report.to_tsv())


def _system(text: str) -> tuple[str, str]:
    """An ``eval --system`` value: ``name=path``."""
    name, sep, path = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected name=path, got {text!r}")
    return name, path


def _build_parser(config_path: str | None = None, chosen: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; the config file's values become defaults of the ``chosen`` command's options.

    For a valid ``chosen`` command the config file is read and only its
    subparser and options are built; otherwise all eight are, and no
    config is read. The usage line still names every command, so a
    top-level error after the command reads the same either way.
    """
    parser = argparse.ArgumentParser(prog="qcpg-kit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qcpg-kit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def option(p, *flags, **kwargs) -> argparse.Action:
        """Add an option; a config value under its dest becomes its default, checked like a flag value."""
        action = p.add_argument(*flags, **kwargs)
        if action.dest not in config:  # a config is read only when its command's subparser is the only one
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

    def score(p):
        scored(p)
        option(p, "--pairs", required=True)
        option(p, "--source-trees", help="tree sidecar for sources")
        option(p, "--target-trees", help="tree sidecar for targets")

    def split(p):
        seeded(p)
        option(p, "--clusters", required=True)
        option(p, "--sizes", required=True, help="train,dev,test pair quotas")
        option(p, "--mode", choices=PAIR_MODES, default=ALL_UNORDERED)

    def train_qp(p):
        option(p, "--pairs", required=True, help="scored TSV from `score`")
        option(p, "--dev", help="scored TSV for held-out MSE reporting")
        option(p, "--lambda", dest="lam", type=float, default=1.0)

    def predict_qp(p):
        option(p, "--model", required=True)
        option(p, "--sentences", required=True, help="one sentence per line")

    def grid(p):
        generation(p)
        option(p, "--grid", default="0:5:50", help="lo:step:hi per dimension (default %(default)s)")
        option(p, "--per-cluster", type=int, help="dev sentences per cluster")
        option(p, "--max-dev-items", type=int)

    def select(p):
        option(p, "--heatmap", required=True)
        option(p, "--baseline-sem", type=float, required=True)
        option(p, "--margin", type=float, default=5.0, help="required semantic advantage (default %(default)s)")

    def generate(p):
        generation(p)
        option(p, "--offset", help="sem,syn,lex (default 0,0,0); excludes --operation-point")
        option(p, "--operation-point", help="JSON from `select`")

    def eval_(p):
        scored(p)
        p.add_argument("--system", action="append", type=_system, required=True, help="name=pairs.tsv (with trees)")
        option(p, "--references", help="one reference per line, aligned with sources")

    # name: (handler, --out default, help line, the command's own options)
    commands = {
        "score": (cmd_score, None, "append quality columns to a pairs TSV", score),
        "split": (cmd_split, ".", "leak-free train/dev/test split of a cluster file", split),
        "train-qp": (cmd_train_qp, "qp-model.json", "fit the reference predictor on scored pairs", train_qp),
        "predict-qp": (cmd_predict_qp, None, "predict reference quality for sentences", predict_qp),
        "grid": (cmd_grid, "heatmap.csv", "run the offset grid search, export heatmap CSV", grid),
        "select": (cmd_select, None, "pick the operation point from a heatmap CSV", select),
        "generate": (cmd_generate, "generated.tsv", "paraphrase cluster sentences at an offset", generate),
        "eval": (cmd_eval, None, "compare systems: quality, Self-BLEU, BLEU", eval_),
    }
    config = {}
    if chosen in commands:
        config = _load_config(config_path)
        sub.metavar = "{%s}" % ",".join(commands)
        commands = {chosen: commands[chosen]}
    for name, (func, out, help, options) in commands.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key=value file of option defaults, keyed by dest; flags win")
        option(p, "--out", default=out)
        options(p)
    return parser


def main(argv=None) -> int:
    """Run one command line; returns its exit code.

    The command and ``--config`` are read first. When a valid command is
    the first argument, as on every documented command line, the config's
    values become the defaults of its options in the one real parse, and
    only its subparser is built: the top-level parser hands it the rest.
    Otherwise (no or an unknown command, ``--help``, or any option before
    the command) all eight are, since the top-level parser may list them,
    and the config is not read: the parse ends before any command runs.
    """
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    pre = argparse.ArgumentParser(prog="qcpg-kit", add_help=False)
    pre.add_argument("command", nargs="?")
    pre.add_argument("--config")
    try:
        known = pre.parse_known_args(argv)[0]
        first = (sys.argv[1:] if argv is None else argv)[:1] == [known.command]
        args = _build_parser(known.config, known.command if first else None).parse_args(argv)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single boundary mapping errors to exit codes
        log.error("%s: %s", type(exc).__name__, exc)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
