import hashlib
import itertools
import math
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcpg_kit import (
    ALL_ORDERED,
    Cluster,
    GeneratorSpec,
    GridResult,
    Offset,
    OperationPoint,
    QualityComputer,
    QualityVector,
    SelectionConstraint,
    ZERO_OFFSET,
    apply_offset,
    build_generator,
    default_grid,
    dev_items,
    dev_quality_std,
    diversity_of,
    export_heatmap_csv,
    extract_pairs,
    fit,
    grid_search,
    paraphrase_corpus,
    predict,
    prepend_control,
    quality_samples,
    quantize,
    read_heatmap_csv,
    responsiveness,
    save_clusters,
    select_operation_point,
)
from qcpg_kit import quality, selection
from qcpg_kit.errors import (
    AllGenerationsFailed,
    MalformedRecord,
    MissingZeroPoint,
    NoFeasibleOffset,
    NonFiniteValue,
    QcpgError,
)
from qcpg_kit.cli import _parse_grid_spec
from qcpg_kit.selection import _rows, plan_controls

MEMBER_STUB = Path(__file__).with_name("stub_member_generator.py")
ECHO_LINES_STUB = Path(__file__).with_name("stub_echo_lines.py")
COUNTING_STUB = Path(__file__).with_name("stub_counting_generator.py")

IDENTITY_SEM = 100.0 / (1.0 + math.exp(-2.0))
SPECS = (
    GeneratorSpec(kind="identity"),
    GeneratorSpec(kind="retrieval_oracle"),
    GeneratorSpec(kind="noisy_oracle", noise_std=5.0),
)


def per_request_grid(spec, qp_model, items, offsets):
    """(mean quality or None, n) per offset, from one generate call per (item, offset);
    an output without both trees from ``Cluster.tree_of`` is left out."""
    computer = QualityComputer()
    generator = build_generator(spec, quality=computer)
    out = []
    for o in offsets:
        rows = []
        for s, cluster in items:
            try:
                t = generator.generate(s, apply_offset(predict(qp_model, s), o), cluster)
            except QcpgError:
                continue
            trees = (cluster.tree_of(s), cluster.tree_of(t)) if cluster is not None else (None, None)
            if None not in trees:
                rows.append(computer.pair_quality(s, t, *trees).as_tuple())
        out.append((QualityVector(*np.array(rows).mean(axis=0)), len(rows)) if rows else (None, 0))
    return out


@pytest.fixture(scope="module")
def corpus():
    return paraphrase_corpus(n_clusters=8, cluster_size=5, seed=33)


@pytest.fixture(scope="module")
def qp_model(corpus):
    return fit(quality_samples(corpus))


@pytest.fixture(scope="module")
def dev(corpus):
    return dev_items(corpus, per_cluster=1)


class TestExpectedQuality:
    """Q~(0,0,0) alone: a grid of the zero offset."""

    def test_identity_generator(self, qp_model, dev):
        result = grid_search(GeneratorSpec(kind="identity"), qp_model, dev, grid=[ZERO_OFFSET])
        [q], [n] = result.q_tilde, result.n
        assert n == len(dev)
        assert q.sem == pytest.approx(IDENTITY_SEM)
        assert q.syn == 0.0 and q.lex == 0.0

    def test_all_failures_raise(self, qp_model):
        singleton = Cluster("solo", ["only sentence"], trees=["(A)"])
        items = [("only sentence", singleton)]
        with pytest.raises(AllGenerationsFailed):
            grid_search(GeneratorSpec(kind="retrieval_oracle"), qp_model, items, grid=[ZERO_OFFSET])

    def test_empty_dev_rejected(self, qp_model):
        with pytest.raises(ValueError):
            grid_search(GeneratorSpec(kind="identity"), qp_model, [], grid=[ZERO_OFFSET])

    def test_single_sentence_dev(self, corpus, qp_model):
        items = dev_items(corpus, per_cluster=1, limit=1)
        spec = GeneratorSpec(kind="retrieval_oracle")
        result = grid_search(spec, qp_model, items, grid=[ZERO_OFFSET])
        assert result.n == [1]
        assert per_request_grid(spec, qp_model, items, [ZERO_OFFSET]) == [(result.q_tilde[0], 1)]


class TestGridSearch:
    def test_requires_zero_offset(self, qp_model, dev):
        grid = [Offset(5, 5, 5)]
        with pytest.raises(MissingZeroPoint):
            grid_search(GeneratorSpec(kind="identity"), qp_model, dev, grid=grid)

    def test_identity_generator_flat(self, qp_model, dev):
        grid = default_grid(0, 10, 20)  # 27 points
        result = grid_search(GeneratorSpec(kind="identity"), qp_model, dev, grid=grid)
        assert len(result.offsets) == 27
        assert all(r == (0.0, 0.0, 0.0) for r in result.responsiveness)
        assert all(q == result.q_tilde[0] for q in result.q_tilde)

    def test_small_retrieval_grid(self, qp_model, dev):
        grid = default_grid(0, 5, 5)  # {0,5}^3
        result = grid_search(GeneratorSpec(kind="retrieval_oracle"), qp_model, dev, grid=grid)
        assert len(result.offsets) == 8
        assert responsiveness(result, Offset(0, 0, 0)) == (0.0, 0.0, 0.0)
        assert all(n == len(dev) for n in result.n)

    def test_fast_and_generic_paths_agree_exactly(self, qp_model, dev):
        # the batched grid path and one generate call per (item, offset)
        # agree to the last bit
        spec = GeneratorSpec(kind="retrieval_oracle")
        offsets = [Offset(*t) for t in itertools.product((0.0, 5.0, 25.0, 50.0), repeat=3)]
        expected = per_request_grid(spec, qp_model, dev, offsets)
        result = grid_search(spec, qp_model, dev, grid=offsets)
        assert result.q_tilde == [q for q, _ in expected]
        assert result.n == [n for _, n in expected]

    def test_matches_per_request_reference(self, corpus, qp_model, dev, tmp_path):
        # one batch per chunk of dev items must give what one generate call per
        # (item, offset) gives, to the last bit, also where an item fails
        offsets = [Offset(*t) for t in itertools.product((0.0, 5.0, 25.0, 50.0), repeat=3)]
        singleton = Cluster("solo", ["lonely sentence"], trees=["(A)"])
        items = dev + [("lonely sentence", singleton)]
        # an external generator answering with other members and with a sentence in
        # no cluster, whose outputs have no tree; one process per request, so fewer offsets
        clusters = tmp_path / "clusters.jsonl"
        save_clusters([*corpus, singleton], clusters)
        members = GeneratorSpec(kind="external_command", command=f"{sys.executable} -S {MEMBER_STUB} {clusters}")
        for spec, grid in [*((spec, offsets) for spec in SPECS), (members, offsets[::9])]:
            expected = per_request_grid(spec, qp_model, items, grid)
            result = grid_search(spec, qp_model, items, grid=grid)
            assert result.offsets == grid
            assert result.q_tilde == [q for q, _ in expected]
            assert result.n == [n for _, n in expected]
        # the member stub's grid measures some outputs and has no tree for others
        assert 0 < min(result.n) < len(dev)

    def test_deterministic_reruns_byte_identical(self, qp_model, dev, tmp_path):
        spec = GeneratorSpec(kind="retrieval_oracle")
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            result = grid_search(spec, qp_model, dev, grid=default_grid(0, 10, 30))
            export_heatmap_csv(result, path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
    def test_heatmap_bytes_do_not_depend_on_the_batch_bound(self, spec, tmp_path, monkeypatch):
        # chunks of one item, of a few and of most items; jittered lengths give
        # the items distinct reference points, and the lone item fails at
        # every offset in whichever chunk it lands
        corpus = paraphrase_corpus(n_clusters=6, cluster_size=5, seed=8, length_jitter=6)
        model = fit(quality_samples(corpus))
        singleton = Cluster("solo", ["lonely sentence"], trees=["(A)"])
        items = dev_items(corpus)[:9] + [("lonely sentence", singleton)] + dev_items(corpus)[9:]
        assert len({predict(model, s) for s, _ in items}) > 1
        paths = []
        for bound in (1, 400, selection.MAX_BATCH_REQUESTS):
            monkeypatch.setattr(selection, "MAX_BATCH_REQUESTS", bound)
            paths.append(tmp_path / f"heat_{bound}.csv")
            export_heatmap_csv(grid_search(spec, model, items, grid=default_grid(0, 10, 50)), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    def test_equal_offsets_are_evaluated_once(self, qp_model, dev):
        # 0.0 equals -0.0; each offset is kept as the first of its equals, as a set keeps it
        grid = [
            Offset(5, -0.0, 0), Offset(-0.0, -0.0, -0.0), Offset(0, 0, 0), Offset(5, 0.0, -0.0),
            Offset(-5, 0.0, 0), Offset(-5, -0.0, 0), Offset(0.0, -0.0, 0.0),
        ]
        expected = sorted(set(grid), key=Offset.as_tuple)
        assert len(expected) == 3
        result = grid_search(GeneratorSpec(kind="identity"), qp_model, dev[:2], grid=grid)
        assert [repr(o) for o in result.offsets] == [repr(o) for o in expected]
        assert result.n == [2, 2, 2]

    def test_failed_items_excluded_but_grid_survives(self, corpus, qp_model):
        items = dev_items(corpus, per_cluster=1, limit=4)
        singleton = Cluster("solo", ["lonely sentence"], trees=["(A)"])
        items = items + [("lonely sentence", singleton)]
        result = grid_search(
            GeneratorSpec(kind="retrieval_oracle"), qp_model, items, grid=default_grid(0, 5, 5)
        )
        assert all(n == 4 for n in result.n)


class TestClusterlessItem:
    """A dev item without a cluster has no trees: each of its outputs is MissingTree, left out of n."""

    @pytest.fixture(scope="class")
    def small(self):
        corpus = paraphrase_corpus(4, 4, seed=0)
        return fit(quality_samples(corpus)), dev_items(corpus, per_cluster=1)

    def test_only_failures_raise_all_generations_failed(self, small):
        # the echo stub answers with the whole request line, which no cluster holds
        model, dev = small
        echo = GeneratorSpec(kind="external_command", command=f"{sys.executable} {ECHO_LINES_STUB}")
        with pytest.raises(AllGenerationsFailed):
            grid_search(echo, model, dev[1:] + [(dev[0][0], None)], grid=default_grid(0, 25, 50))

    def test_is_left_out_of_the_grid(self, small, tmp_path):
        # the counting stub answers each request with its source
        model, dev = small
        spec = GeneratorSpec(kind="external_command", command=f"{sys.executable} {COUNTING_STUB} {tmp_path / 'starts'}")
        grid = default_grid(0, 25, 50)
        without = grid_search(spec, model, dev[1:], grid=grid)
        assert grid_search(spec, model, dev[1:] + [(dev[0][0], None)], grid=grid) == without


class TestDevQualityStd:
    def test_matches_direct_computation(self, dev):
        computer = QualityComputer()
        rows = []
        for s, cluster in dev:
            for i, t in enumerate(cluster.sentences):
                if t != s:
                    rows.append(
                        computer.pair_quality(s, t, cluster.tree_of(s), cluster.trees[i]).as_tuple()
                    )
        expected = np.array(rows).std(axis=0)
        assert dev_quality_std(dev) == pytest.approx(tuple(expected))

    def test_a_constant_dimension_is_one(self):
        # one tree shape for every member: every pair's syn is 0, so its std falls back to 1.0
        sentences = ["the cat sat", "the cat ran", "a dog ran"]
        trees = [f"(S (NP (DT {d}) (NN {n})) (VP (VBD {v})))" for d, n, v in map(str.split, sentences)]
        items = dev_items([Cluster("same", sentences, trees=trees)])
        keys = [key for s, c in items for key in c.pair_keys(s)]
        rows = np.array([q.as_tuple() for q in QualityComputer().pair_qualities(keys)])
        sem_std, syn_std, lex_std = rows.std(axis=0)
        assert syn_std == 0.0 and sem_std > 0 and lex_std > 0
        assert dev_quality_std(items) == (sem_std, 1.0, lex_std)

    def test_a_std_below_one_is_kept(self):
        # near-identical members: sem and lex stds are small but not zero, syn's is zero
        w = "abcdefghij" * 8
        items = dev_items([Cluster("near", [w, w[:-1] + "z", w[:-2] + "zz"], trees=["(S (NN x))"] * 3)])
        keys = [key for s, c in items for key in c.pair_keys(s)]
        rows = np.array([q.as_tuple() for q in QualityComputer().pair_qualities(keys)])
        sem_std, syn_std, lex_std = rows.std(axis=0)
        assert 0 < sem_std < 1 and syn_std == 0.0 and 0 < lex_std < 1
        assert dev_quality_std(items) == (sem_std, 1.0, lex_std)

    def test_quality_samples_measure_the_same_pairs(self):
        # the first sentence recurs as the last member under another tree
        cluster = Cluster(
            "repeat",
            ["the cat sat", "a dog ran", "cats sit", "the cat sat"],
            trees=[
                "(S (NP (DT the) (NN cat)) (VP (VBD sat)))",
                "(S (NP (DT a) (NN dog)) (VP (VBD ran)))",
                "(S (NP (NNS cats)) (VP (VBP sit)))",
                "(S (X the) (Y cat) (Z sat))",
            ],
        )
        items = dev_items([cluster])
        keys = [key for s, c in items for key in c.pair_keys(s)]
        std_rows = sorted(q.as_tuple() for q in QualityComputer().pair_qualities(keys))
        # quality_samples pairs every two members; the std skips a sentence's pair with its copy
        pairs = extract_pairs([cluster], ALL_ORDERED)
        samples = quality_samples([cluster], mode=ALL_ORDERED)
        rows = sorted(q.as_tuple() for p, (_, q) in zip(pairs, samples) if p.source != p.target)
        assert rows == std_rows
        assert dev_quality_std(items) == pytest.approx(tuple(np.array(rows).std(axis=0)), rel=1e-12)

    def test_no_pairs_warns_and_is_one(self, caplog):
        assert dev_quality_std([("lonely sentence", None)]) == (1.0, 1.0, 1.0)
        assert "no ground-truth pairs" in caplog.text


# Offsets off the multiples of 5 and outside any product grid; the large
# ones clamp r + o below 0 and above 100.
OFF_GRID = [
    Offset(*t)
    for t in [
        (0.0, 0.0, 0.0), (2.5, -7.49, 7.49), (7.49, 2.5, -2.5), (-7.49, 12.5, 2.5),
        (-150.0, 0.0, 250.0), (250.0, -150.0, 7.49), (0.0, 2.5, -150.0), (-2.5, 250.0, 0.0),
    ]
]
# Answers each control-token line with its sentence and appends the line to the file argv[1].
ECHO_STUB = (
    "import sys\n"
    "lines = sys.stdin.read().split('\\n')[:-1]\n"
    "with open(sys.argv[1], 'a', encoding='utf-8') as fh:\n"
    "    fh.writelines(line + '\\n' for line in lines)\n"
    "sys.stdout.write(''.join(line.split(' ', 3)[3] + '\\n' for line in lines))\n"
)
AXIS = st.one_of(
    st.sampled_from([-150.0, -7.49, -2.5, -0.0, 0.0, 2.5, 7.49, 12.5, 97.5, 250.0]),
    st.floats(-200.0, 200.0),
)
# reference values on the bin edges 5*j and one ulp either side, below 0, above 100, and -0.0
EDGES = [float(v) for j in range(21) for v in (np.nextafter(5.0 * j, -np.inf), 5.0 * j, np.nextafter(5.0 * j, np.inf))]
REF = st.one_of(st.floats(0.0, 100.0), st.sampled_from([*EDGES, -0.0, -1e-300, -3.0, 100.5, 1e6]))


def quantized(r, offsets):
    """The scalar reference: ``quantize(r[d] + o[d])`` per offset."""
    return [tuple(quantize(r[d] + o.as_tuple()[d]) for d in range(3)) for o in offsets]


class TestControlPlan:
    def test_off_grid_offsets_match_per_request_reference(self, qp_model, dev, tmp_path):
        singleton = Cluster("solo", ["lonely sentence"], trees=["(A)"])
        items = dev[:4] + [("lonely sentence", singleton)]
        offsets = sorted(OFF_GRID, key=Offset.as_tuple)
        script = tmp_path / "echo.py"
        script.write_text(ECHO_STUB, encoding="utf-8")

        def echo(log):
            return GeneratorSpec(kind="external_command", command=f"{sys.executable} -S {script} {tmp_path / log}")

        for reference_spec, spec in [*((s, s) for s in SPECS), (echo("reference.log"), echo("grid.log"))]:
            expected = per_request_grid(reference_spec, qp_model, items, offsets)
            result = grid_search(spec, qp_model, items, grid=OFF_GRID)
            assert result.offsets == offsets and not result.dropped
            assert result.q_tilde == [q for q, _ in expected]
            assert result.n == [n for _, n in expected]
        # one process per item reads the item's distinct controls in order of first occurrence
        lines = [
            prepend_control(s, c)
            for s, _ in items
            for c in dict.fromkeys(apply_offset(predict(qp_model, s), o) for o in offsets)
        ]
        assert (tmp_path / "grid.log").read_text(encoding="utf-8").splitlines() == lines

    @settings(max_examples=80, deadline=None)
    @given(
        refs=st.lists(st.tuples(REF, REF, REF), min_size=1, max_size=3),
        offsets=st.lists(st.tuples(AXIS, AXIS, AXIS), min_size=1, max_size=30),
    )
    def test_planned_controls_are_the_quantized_offsets(self, refs, offsets):
        offsets = [Offset(*o) for o in offsets]
        plans = list(plan_controls(refs, offsets))
        assert len(plans) == len(refs)
        for r, (controls, slots) in zip(refs, plans):
            expected = quantized(r, offsets)
            assert controls.dtype == np.int64 and controls.shape == (len(set(expected)), 3)
            # distinct rows, in order of first occurrence
            assert [tuple(row) for row in controls.tolist()] == list(dict.fromkeys(expected))
            assert [tuple(row) for row in controls[slots].tolist()] == expected

    def test_items_planned_in_blocks_match_the_scalar_reference(self):
        # the items span several blocks of a few items each; each item's plan is its own
        grid = default_grid(0, 10, 50)
        assert len(grid) * 2 < selection.PLAN_BLOCK < len(grid) * 11
        rng = np.random.default_rng(71)
        refs = [tuple(float(v) for v in rng.choice([*EDGES, -0.0, -3.0, 100.5], size=3)) for _ in range(11)]
        for r, (controls, slots) in zip(refs, plan_controls(np.array(refs), np.array([o.as_tuple() for o in grid]))):
            expected = quantized(r, grid)
            assert [tuple(row) for row in controls.tolist()] == list(dict.fromkeys(expected))
            assert [tuple(row) for row in controls[slots].tolist()] == expected

    @pytest.mark.parametrize("ref", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, 1e308)])
    def test_a_non_finite_control_raises(self, ref):
        # 1e308 + 1e308 overflows to inf
        with pytest.raises(NonFiniteValue):
            list(plan_controls([(50.0, 50.0, 50.0), ref], [ZERO_OFFSET, Offset(0, 0, 1e308)]))


class TestResponsiveness:
    def test_requires_zero_point(self):
        result = GridResult(
            offsets=[Offset(5, 0, 0)],
            q_tilde=[QualityVector(50, 50, 50)],
            responsiveness=[(0, 0, 0)],
            n=[1],
        )
        with pytest.raises(MissingZeroPoint):
            responsiveness(result, Offset(5, 0, 0))

    def test_unknown_offset(self, qp_model, dev):
        result = grid_search(GeneratorSpec(kind="identity"), qp_model, dev, grid=default_grid(0, 5, 5))
        with pytest.raises(ValueError):
            responsiveness(result, Offset(40, 40, 40))

    def test_matches_direct_difference(self, qp_model, dev):
        spec = GeneratorSpec(kind="retrieval_oracle")
        grid = default_grid(0, 10, 20)
        result = grid_search(spec, qp_model, dev, grid=grid)
        [(q0, _)] = per_request_grid(spec, qp_model, dev, [ZERO_OFFSET])
        for o, q in zip(result.offsets, result.q_tilde):
            direct = tuple(a - b for a, b in zip(q.as_tuple(), q0.as_tuple()))
            assert responsiveness(result, o) == pytest.approx(direct)


def make_grid_result(rows):
    """rows: list of (offset tuple, q tuple)."""
    offsets = [Offset(*o) for o, _ in rows]
    qs = [QualityVector(*q) for _, q in rows]
    zero = qs[0]
    return GridResult(
        offsets=offsets,
        q_tilde=qs,
        responsiveness=[tuple(a - b for a, b in zip(q.as_tuple(), zero.as_tuple())) for q in qs],
        n=[10] * len(rows),
    )


def selection_oracle(result, constraint):
    feasible = [
        (o, q)
        for o, q in zip(result.offsets, result.q_tilde)
        if q.sem >= constraint.baseline_sem + constraint.min_sem_advantage
    ]
    if not feasible:
        return None
    ranked = sorted(
        feasible,
        key=lambda item: (
            -diversity_of(item[1]),
            -item[1].sem,
            sum(abs(v) for v in item[0].as_tuple()),
            item[0].as_tuple(),
        ),
    )
    o, q = ranked[0]
    return OperationPoint(offset=o, expected=q, diversity=diversity_of(q))


class TestSelectOperationPoint:
    def test_single_feasible_point(self):
        result = make_grid_result([((0, 0, 0), (70, 30, 40))])
        point = select_operation_point(result, SelectionConstraint(baseline_sem=60))
        assert point.offset == Offset(0, 0, 0)
        assert point.diversity == 35.0

    def test_diversity_argmax_blocked_by_constraint(self):
        result = make_grid_result(
            [
                ((0, 0, 0), (80, 20, 20)),
                ((0, 5, 5), (55, 90, 90)),   # most diverse but infeasible
                ((0, 5, 0), (70, 60, 60)),   # second best, feasible
            ]
        )
        point = select_operation_point(
            result, SelectionConstraint(baseline_sem=60, min_sem_advantage=5)
        )
        assert point.offset == Offset(0, 5, 0)

    def test_no_feasible_offset_reports_max_sem(self):
        result = make_grid_result([((0, 0, 0), (40, 10, 10)), ((5, 0, 0), (45, 5, 5))])
        with pytest.raises(NoFeasibleOffset) as exc:
            select_operation_point(result, SelectionConstraint(baseline_sem=60))
        assert exc.value.max_sem == 45.0

    def test_matches_exhaustive_scan_with_ties(self):
        rng = np.random.default_rng(113)
        non_negative = [float(v) for v in range(0, 55, 5)]
        signed = [-10.0, -5.0, -2.5, -0.0, 0.0, 2.5, 5.0, 10.0]
        for axis in [non_negative] * 100 + [signed] * 100:
            n_rows = int(rng.integers(1, 40))
            seen = set()  # 0.0 and -0.0 are one offset: the first drawn is kept
            rows = []
            for _ in range(n_rows):
                o = tuple(float(v) for v in rng.choice(axis, size=3))
                if o in seen:
                    continue
                seen.add(o)
                # coarse value grids force frequent diversity and sem ties; a copied row forces both
                if rows and rng.random() < 0.3:
                    q = rows[int(rng.integers(len(rows)))][1]
                else:
                    q = (
                        float(rng.choice(range(30, 90, 10))),
                        float(rng.choice(range(0, 60, 20))),
                        float(rng.choice(range(0, 60, 20))),
                    )
                rows.append((o, q))
            result = make_grid_result(rows)
            shuffled = make_grid_result([rows[i] for i in rng.permutation(len(rows))])
            constraint = SelectionConstraint(
                baseline_sem=float(rng.choice(range(20, 80, 10))), min_sem_advantage=5.0
            )
            expected = selection_oracle(result, constraint)
            if expected is None:
                for grid in (result, shuffled):
                    with pytest.raises(NoFeasibleOffset):
                        select_operation_point(grid, constraint)
            else:
                # repr tells -0.0 from 0.0
                assert repr(select_operation_point(result, constraint)) == repr(expected)
                assert repr(select_operation_point(shuffled, constraint)) == repr(expected)

    def test_empty_grid(self):
        empty = GridResult(offsets=[], q_tilde=[], responsiveness=[], n=[])
        with pytest.raises(ValueError):
            select_operation_point(empty, SelectionConstraint(baseline_sem=0))


class TestHeatmapCsv:
    def test_format_and_invariants(self, qp_model, dev, tmp_path):
        result = grid_search(
            GeneratorSpec(kind="retrieval_oracle"), qp_model, dev, grid=default_grid(0, 10, 20)
        )
        path = tmp_path / "heat.csv"
        export_heatmap_csv(result, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "o_sem,o_syn,o_lex,q_sem,q_syn,q_lex,r_sem,r_syn,r_lex,diversity,n"
        assert len(lines) == 1 + len(result.offsets)
        parsed = [line.split(",") for line in lines[1:]]
        offsets = [tuple(float(v) for v in row[:3]) for row in parsed]
        assert offsets == sorted(offsets)
        zero_row = parsed[offsets.index((0.0, 0.0, 0.0))]
        assert zero_row[6:9] == ["0.0000", "0.0000", "0.0000"]
        for row in parsed:
            q_syn, q_lex, diversity = float(row[4]), float(row[5]), float(row[9])
            assert abs(diversity - (q_syn + q_lex) / 2.0) <= 1e-4 + 1e-12
            assert int(row[10]) > 0

    def test_round_trip_and_select_agreement(self, qp_model, dev, tmp_path):
        result = grid_search(
            GeneratorSpec(kind="retrieval_oracle"), qp_model, dev, grid=default_grid(0, 10, 30)
        )
        path = tmp_path / "heat.csv"
        export_heatmap_csv(result, path)
        loaded = read_heatmap_csv(path)
        assert [o.as_tuple() for o in loaded.offsets] == [o.as_tuple() for o in result.offsets]
        constraint = SelectionConstraint(baseline_sem=result.q_tilde[0].sem - 20)
        on_disk = select_operation_point(loaded, constraint)
        in_memory = select_operation_point(result, constraint)
        assert on_disk.offset == in_memory.offset
        # the file holds 4 decimals, so only a rewrite of what was read reads back the same
        again = tmp_path / "again.csv"
        export_heatmap_csv(read_heatmap_csv(path), again)
        assert read_heatmap_csv(again) == loaded

    def test_values_exact_at_four_decimals_round_trip_byte_for_byte(self, tmp_path):
        # sorted by value, negative offsets first; -0.0 is written as -0.0000
        rows = [
            ((-5.0, 0.0, 2.5), (61.25, 30.5, 0.0)),
            ((-0.0, -5.0, 0.0), (70.5, 0.125, 12.0)),
            ((0.0, 0.0, 0.0), (50.0, 10.25, 20.5)),
            ((0.0, 2.5, -5.0), (55.0625, 40.0, 99.75)),
            ((5.0, -0.0, 10.0), (100.0, 100.0, 100.0)),
        ]
        result = make_grid_result(rows)
        path, again, shuffled = tmp_path / "heat.csv", tmp_path / "again.csv", tmp_path / "shuffled.csv"
        export_heatmap_csv(result, path)
        assert "\n-0.0000,-5.0000,0.0000," in path.read_text(encoding="utf-8")
        assert read_heatmap_csv(path) == result
        export_heatmap_csv(read_heatmap_csv(path), again)
        assert again.read_bytes() == path.read_bytes()
        order = [3, 0, 4, 2, 1]
        columns = (result.offset_array, result.q_tilde_array, result.responsiveness_array, result.n_array)
        export_heatmap_csv(GridResult(*(column[order] for column in columns)), shuffled)
        assert shuffled.read_bytes() == path.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "heat.csv"
        path.write_text("a,b,c\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as info:
            read_heatmap_csv(path)
        assert info.value.line == 1


class TestColumnarGrid:
    def test_grid_heatmap_and_select_build_few_objects(self, qp_model, dev, tmp_path, monkeypatch):
        # the estimates stay columns from grid_search to select: no object per offset
        grid = default_grid()
        built = []
        post_init = quality._Triple.__post_init__
        monkeypatch.setattr(quality._Triple, "__post_init__", lambda self: built.append(type(self)) or post_init(self))
        result = grid_search(GeneratorSpec(kind="identity"), qp_model, dev[:2], grid=grid)
        export_heatmap_csv(result, tmp_path / "heat.csv")
        point = select_operation_point(read_heatmap_csv(tmp_path / "heat.csv"), SelectionConstraint(baseline_sem=0))
        assert len(result.n_array) == 1331 and point.offset == ZERO_OFFSET
        assert len(built) < 50, Counter(t.__name__ for t in built)

    def test_list_views_and_columns_agree(self):
        result = make_grid_result([((0, 0, 0), (50, 10, 20)), ((-0.0, 5, 2.5), (60, 30, 0))])
        assert result.offset_array.shape == result.q_tilde_array.shape == (2, 3)
        assert result.n_array.dtype == np.int64 and result.n == [10, 10]
        assert result.offsets == [Offset(0, 0, 0), Offset(-0.0, 5, 2.5)]
        assert result.q_tilde == [QualityVector(50, 10, 20), QualityVector(60, 30, 0)]
        assert result.responsiveness == [(0.0, 0.0, 0.0), (10.0, 20.0, -20.0)]
        assert GridResult(result.offset_array, result.q_tilde_array, result.responsiveness_array, [10, 10]) == result
        assert GridResult(result.offsets, result.q_tilde, result.responsiveness, [10, 9]) != result


class TestDefaultGrid:
    def test_full_grid_size(self):
        grid = default_grid()
        assert len(grid) == 1331
        assert Offset(0, 0, 0) in grid
        assert Offset(50, 50, 50) in grid

    def test_custom_range(self):
        grid = default_grid(0, 25, 50)
        assert len(grid) == 27

    @pytest.mark.parametrize(
        "lo, step, hi",
        [(0, 5, math.inf), (-math.inf, 5, 50), (0, math.inf, 50), (math.nan, 5, 50), (0, 5, math.nan), (0, math.nan, 50)],
    )
    def test_non_finite_bounds_rejected(self, lo, step, hi):
        with pytest.raises(ValueError, match="finite"):
            default_grid(lo, step, hi)

    @pytest.mark.parametrize("spec", ["0:5:50", "0:25:50", "0:0.1:0.3", "-10:5:10", "-0.1:0.1:0.2"])
    def test_cli_grid_spec_is_the_default_grid_as_an_array(self, spec):
        array = _parse_grid_spec(spec)
        expected = _rows(default_grid(*(float(v) for v in spec.split(":"))))
        assert array.dtype == np.float64 and array.shape == expected.shape
        assert array.tolist() == expected.tolist()
        assert (np.signbit(array) == np.signbit(expected)).all()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("0:5", "grid spec must be lo:step:hi, got '0:5'"),
            ("0:5:50:1", "grid spec must be lo:step:hi"),
            ("a:5:50", "grid spec must be lo:step:hi"),
            ("0:5:inf", "grid bounds and step must be finite, got 0.0:5.0:inf"),
            ("nan:5:50", "grid bounds and step must be finite"),
            ("0:0:50", "step must be positive"),
            ("0:-5:50", "step must be positive"),
        ],
    )
    def test_cli_grid_spec_errors(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            _parse_grid_spec(spec)


class TestHeatmapPins:
    # SHA-256 of each built-in generator's heatmap CSV, taken before the
    # grid evaluator was merged into one batched path: the CSV bytes must
    # not change with how generations are batched
    PINS = {
        "identity": "5d79320ed9ea1e6ddb12b8cfeb3ebf7ef502370ff411c3d1f6efd57bb8032e1a",
        "retrieval_oracle": "3ebdbba3e37aaf9ab0b4a37b85f5a3fbd592d2678d47be12da1b7ec0e9275772",
        "noisy_oracle": "78c950fc3ce19b434b68cf2186d6738c973a139f34ca982e89c4bfd68421cf13",
    }

    def test_builtin_heatmaps_byte_identical(self, qp_model, dev, tmp_path):
        for spec in SPECS:
            path = tmp_path / f"{spec.kind}.csv"
            export_heatmap_csv(grid_search(spec, qp_model, dev, grid=default_grid(0, 10, 50)), path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINS[spec.kind], spec.kind
