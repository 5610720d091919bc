import hashlib
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcpg_kit import (
    ALL_ORDERED,
    Cluster,
    ControlVector,
    GeneratorSpec,
    GridResult,
    Offset,
    OperationPoint,
    QualityComputer,
    QualityVector,
    SelectionConstraint,
    apply_offset,
    build_generator,
    default_grid,
    dev_items,
    diversity_of,
    expected_quality,
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
    select_operation_point,
)
from qcpg_kit.errors import AllGenerationsFailed, MalformedRecord, MissingZeroPoint, NoFeasibleOffset, QcpgError
from qcpg_kit.selection import plan_controls

IDENTITY_SEM = 100.0 / (1.0 + math.exp(-2.0))
SPECS = (
    GeneratorSpec(kind="identity"),
    GeneratorSpec(kind="retrieval_oracle"),
    GeneratorSpec(kind="noisy_oracle", noise_std=5.0),
)


def per_request_grid(spec, qp_model, items, offsets):
    """(mean quality or None, n) per offset, from one generate call per (item, offset)."""
    computer = QualityComputer()
    generator = build_generator(spec, quality=computer)
    out = []
    for o in offsets:
        rows = []
        for s, cluster, tree_s in items:
            try:
                t = generator.generate(s, apply_offset(predict(qp_model, s), o), cluster)
            except QcpgError:
                continue
            tree_t = tree_s if t == s else cluster.trees[cluster.sentences.index(t)]
            rows.append(computer.pair_quality(s, t, tree_s, tree_t).as_tuple())
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
    def test_identity_generator(self, qp_model, dev):
        q, n = expected_quality(GeneratorSpec(kind="identity"), qp_model, dev, Offset(0, 0, 0))
        assert n == len(dev)
        assert q.sem == pytest.approx(IDENTITY_SEM)
        assert q.syn == 0.0 and q.lex == 0.0

    def test_all_failures_raise(self, qp_model):
        singleton = Cluster("solo", ["only sentence"], trees=["(A)"])
        items = [("only sentence", singleton, "(A)")]
        with pytest.raises(AllGenerationsFailed):
            expected_quality(GeneratorSpec(kind="retrieval_oracle"), qp_model, items, Offset(0, 0, 0))

    def test_empty_dev_rejected(self, qp_model):
        with pytest.raises(ValueError):
            expected_quality(GeneratorSpec(kind="identity"), qp_model, [], Offset(0, 0, 0))

    def test_single_sentence_dev(self, corpus, qp_model):
        items = dev_items(corpus, per_cluster=1, limit=1)
        spec = GeneratorSpec(kind="retrieval_oracle")
        q, n = expected_quality(spec, qp_model, items, Offset(0, 0, 0))
        assert n == 1
        assert per_request_grid(spec, qp_model, items, [Offset(0, 0, 0)]) == [(q, n)]


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

    def test_matches_per_request_reference(self, qp_model, dev):
        # one batch per dev item must give what one generate call per
        # (item, offset) gives, to the last bit, also where an item fails
        offsets = [Offset(*t) for t in itertools.product((0.0, 5.0, 25.0, 50.0), repeat=3)]
        singleton = Cluster("solo", ["lonely sentence"], trees=["(A)"])
        items = dev + [("lonely sentence", singleton, "(A)")]
        for spec in SPECS:
            expected = per_request_grid(spec, qp_model, items, offsets)
            result = grid_search(spec, qp_model, items, grid=offsets)
            assert result.offsets == offsets
            assert result.q_tilde == [q for q, _ in expected]
            assert result.n == [n for _, n in expected]

    def test_deterministic_reruns_byte_identical(self, qp_model, dev, tmp_path):
        spec = GeneratorSpec(kind="retrieval_oracle")
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            result = grid_search(spec, qp_model, dev, grid=default_grid(0, 10, 30))
            export_heatmap_csv(result, path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_failed_items_excluded_but_grid_survives(self, corpus, qp_model):
        items = dev_items(corpus, per_cluster=1, limit=4)
        singleton = Cluster("solo", ["lonely sentence"], trees=["(A)"])
        items = items + [("lonely sentence", singleton, "(A)")]
        result = grid_search(
            GeneratorSpec(kind="retrieval_oracle"), qp_model, items, grid=default_grid(0, 5, 5)
        )
        assert all(n == 4 for n in result.n)

    def test_dim_std_matches_direct_computation(self, corpus, qp_model, dev):
        result = grid_search(
            GeneratorSpec(kind="retrieval_oracle"), qp_model, dev, grid=default_grid(0, 25, 25)
        )
        from qcpg_kit import QualityComputer

        computer = QualityComputer()
        rows = []
        for s, cluster, tree_s in dev:
            for i, t in enumerate(cluster.sentences):
                if t != s:
                    rows.append(
                        computer.pair_quality(s, t, tree_s, cluster.trees[i]).as_tuple()
                    )
        expected = np.array(rows).std(axis=0)
        assert result.dim_std == pytest.approx(tuple(expected))

    def test_quality_samples_measure_the_std_unit_pairs(self, qp_model):
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
        keys = [key for s, c, _ in items for key in c.pair_keys(s)]
        std_unit_rows = sorted(q.as_tuple() for q in QualityComputer().pair_qualities(keys))
        # quality_samples pairs every two members; the std units skip a sentence's pair with its copy
        pairs = extract_pairs([cluster], ALL_ORDERED)
        samples = quality_samples([cluster], mode=ALL_ORDERED)
        rows = sorted(q.as_tuple() for p, (_, q) in zip(pairs, samples) if p.source != p.target)
        assert rows == std_unit_rows
        result = grid_search(GeneratorSpec(kind="identity"), qp_model, items, grid=[Offset(0.0, 0.0, 0.0)])
        assert result.dim_std == pytest.approx(tuple(np.array(rows).std(axis=0)), rel=1e-12)


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


class TestControlPlan:
    def test_off_grid_offsets_match_per_request_reference(self, qp_model, dev, tmp_path):
        singleton = Cluster("solo", ["lonely sentence"], trees=["(A)"])
        items = dev[:4] + [("lonely sentence", singleton, "(A)")]
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
            for s, _, _ in items
            for c in dict.fromkeys(apply_offset(predict(qp_model, s), o) for o in offsets)
        ]
        assert (tmp_path / "grid.log").read_text(encoding="utf-8").splitlines() == lines

    @settings(max_examples=60, deadline=None)
    @given(
        refs=st.lists(st.tuples(*[st.floats(0.0, 100.0)] * 3), min_size=1, max_size=3),
        offsets=st.lists(st.tuples(AXIS, AXIS, AXIS), min_size=1, max_size=30),
    )
    def test_planned_controls_are_the_quantized_offsets(self, refs, offsets):
        offsets = [Offset(*o) for o in offsets]
        plans = list(plan_controls(refs, offsets))
        assert len(plans) == len(refs)
        for r, (controls, slots) in zip(refs, plans):
            expected = [ControlVector(*(quantize(r[d] + o.as_tuple()[d]) for d in range(3))) for o in offsets]
            assert [controls[k] for k in slots] == expected
            assert controls == list(dict.fromkeys(expected))
        planned = [c for controls, _ in plans for c in controls]
        assert len({id(c) for c in planned}) == len(set(planned))


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

    def test_std_units(self, qp_model, dev):
        result = grid_search(
            GeneratorSpec(kind="retrieval_oracle"), qp_model, dev, grid=default_grid(0, 25, 50)
        )
        o = Offset(0, 25, 50)
        raw = responsiveness(result, o)
        scaled = responsiveness(result, o, std_units=True)
        assert scaled == pytest.approx(tuple(v / s for v, s in zip(raw, result.dim_std)))

    def test_matches_direct_difference(self, qp_model, dev):
        spec = GeneratorSpec(kind="retrieval_oracle")
        grid = default_grid(0, 10, 20)
        result = grid_search(spec, qp_model, dev, grid=grid)
        q0, _ = expected_quality(spec, qp_model, dev, Offset(0, 0, 0))
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
        for _ in range(100):
            n_rows = int(rng.integers(1, 40))
            seen = set()
            rows = []
            for _ in range(n_rows):
                o = tuple(float(v) for v in rng.choice(range(0, 55, 5), size=3))
                if o in seen:
                    continue
                seen.add(o)
                # coarse value grids force frequent diversity and sem ties
                q = (
                    float(rng.choice(range(30, 90, 10))),
                    float(rng.choice(range(0, 60, 20))),
                    float(rng.choice(range(0, 60, 20))),
                )
                rows.append((o, q))
            result = make_grid_result(rows)
            constraint = SelectionConstraint(
                baseline_sem=float(rng.choice(range(20, 80, 10))), min_sem_advantage=5.0
            )
            expected = selection_oracle(result, constraint)
            if expected is None:
                with pytest.raises(NoFeasibleOffset):
                    select_operation_point(result, constraint)
            else:
                assert select_operation_point(result, constraint) == expected

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

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "heat.csv"
        path.write_text("a,b,c\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as info:
            read_heatmap_csv(path)
        assert info.value.line == 1


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
