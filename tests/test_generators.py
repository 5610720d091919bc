import sys
from pathlib import Path

import numpy as np
import pytest

from qcpg_kit import (
    Cluster,
    ControlVector,
    GeneratorSpec,
    QualityComputer,
    SemanticScorer,
    decode_control,
    paraphrase_corpus,
)
from qcpg_kit import util
from qcpg_kit.errors import EmptyContext, NonFiniteValue, ProtocolError, QcpgError, SpawnFailure
from qcpg_kit.generators import (
    ExternalCommandGenerator,
    IdentityGenerator,
    NoisyOracleGenerator,
    RetrievalOracleGenerator,
    build_generator,
    control_array,
)
from qcpg_kit.util import rng_for


COUNTING_STUB = Path(__file__).with_name("stub_counting_generator.py")
COUNTING_SCORER = Path(__file__).with_name("stub_counting_scorer.py")
ECHO_STUB = Path(__file__).with_name("stub_echo_lines.py")


@pytest.fixture(scope="module")
def cluster():
    return paraphrase_corpus(n_clusters=1, cluster_size=5, seed=21)[0]


def random_groups(cluster, n, seed):
    """n groups, each a random member of ``cluster`` with 1 to 4 random controls."""
    rng = np.random.default_rng(seed)
    return [
        (
            cluster.sentences[int(rng.integers(0, len(cluster.sentences)))],
            cluster,
            control_array(
                ControlVector(*(int(v) for v in rng.choice(range(0, 100, 5), size=3)))
                for _ in range(int(rng.integers(1, 5)))
            ),
        )
        for _ in range(n)
    ]


def per_control(gen, groups):
    """What ``gen.generate`` returns or raises for each control of each group."""
    out = []
    for s, context, controls in groups:
        group = []
        for c in controls.tolist():
            try:
                group.append(gen.generate(s, ControlVector(*c), context))
            except QcpgError as exc:
                group.append(exc)
        out.append(group)
    return out


def assert_same_outputs(batch, expected):
    """Equal strings, and failures of the same class and message, group by group."""
    assert [len(group) for group in batch] == [len(group) for group in expected]
    for got, want in zip(sum(batch, []), sum(expected, [])):
        if isinstance(want, QcpgError):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert got == want


class TestSpecValidation:
    def test_noisy_requires_std(self):
        with pytest.raises(ValueError):
            GeneratorSpec(kind="noisy_oracle")

    def test_external_requires_command(self):
        for command in (None, "", " ", "\t\n"):
            with pytest.raises(ValueError):
                GeneratorSpec(kind="external_command", command=command)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GeneratorSpec(kind="bogus")


class TestIdentity:
    def test_returns_input(self):
        gen = IdentityGenerator()
        for c in (ControlVector(0, 0, 0), ControlVector(95, 95, 95)):
            assert gen.generate("a cat sat", c) == "a cat sat"


class TestRetrievalOracle:
    def test_exact_control_returns_that_member(self, cluster):
        gen = RetrievalOracleGenerator()
        s = cluster.sentences[0]
        q = gen.quality.pair_quality(s, cluster.sentences[2], cluster.trees[0], cluster.trees[2])
        c = ControlVector(*(min(int(v // 5), 19) * 5 for v in q.as_tuple()))
        # with the control sitting nearest member 2's quality, member 2 wins
        distances = [
            sum((qq - cc) ** 2 for qq, cc in zip(
                gen.quality.pair_quality(s, t, cluster.trees[0], cluster.trees[i]).as_tuple(),
                c.as_tuple(),
            ))
            for i, t in enumerate(cluster.sentences) if t != s
        ]
        expected = [t for t in cluster.sentences if t != s][int(np.argmin(distances))]
        assert gen.generate(s, c, cluster) == expected

    def test_matches_bruteforce_argmin(self, cluster):
        gen = RetrievalOracleGenerator()
        rng = np.random.default_rng(103)
        # up to 8-member clusters: the output's distance to the control must
        # be minimal over every member, by exhaustive comparison
        big = paraphrase_corpus(n_clusters=2, cluster_size=8, tokens_per_sentence=16, seed=23)
        for ctx in [cluster, *big]:
            for _ in range(40):
                s = ctx.sentences[int(rng.integers(0, len(ctx.sentences)))]
                c = ControlVector(*(int(v) for v in rng.choice(range(0, 100, 5), size=3)))
                candidates = gen.candidate_qualities(s, ctx)
                best, _ = min(
                    candidates,
                    key=lambda row: sum(
                        (q - cc) ** 2 for q, cc in zip(row[1].as_tuple(), c.as_tuple())
                    ),
                )
                assert gen.generate(s, c, ctx) == best

    def test_tie_breaks_to_lowest_index(self):
        # members 1 and 2 permute the same words, share a tree string, and
        # share no trigram with the source (raw score saturates), so their
        # quality vectors are exactly equal for any control
        tree_s = "(S (PH (T aa) (T bb) (T cc)))"
        tree_t = "(S (PH (T xx) (T yy) (T zz)))"
        cluster = Cluster(
            "t",
            ["aa bb cc", "xx yy zz", "yy xx zz"],
            trees=[tree_s, tree_t, tree_t],
        )
        gen = RetrievalOracleGenerator()
        q1 = gen.quality.pair_quality("aa bb cc", "xx yy zz", tree_s, tree_t)
        q2 = gen.quality.pair_quality("aa bb cc", "yy xx zz", tree_s, tree_t)
        assert q1 == q2
        for c in (ControlVector(0, 0, 0), ControlVector(95, 95, 95), ControlVector(50, 5, 20)):
            assert gen.generate("aa bb cc", c, cluster) == "xx yy zz"

    def test_never_returns_source(self, cluster):
        gen = RetrievalOracleGenerator()
        for s in cluster.sentences:
            for c in (ControlVector(95, 0, 0), ControlVector(90, 0, 5)):
                assert gen.generate(s, c, cluster) != s

    def test_singleton_cluster(self):
        gen = RetrievalOracleGenerator()
        singleton = Cluster("s", ["only one"], trees=["(A)"])
        with pytest.raises(EmptyContext):
            gen.generate("only one", ControlVector(0, 0, 0), singleton)

    def test_missing_context_or_trees(self, cluster):
        gen = RetrievalOracleGenerator()
        with pytest.raises(EmptyContext):
            gen.generate("x", ControlVector(0, 0, 0), None)
        bare = Cluster("b", list(cluster.sentences))
        with pytest.raises(EmptyContext):
            gen.generate(cluster.sentences[0], ControlVector(0, 0, 0), bare)

    def test_sentence_not_in_cluster(self, cluster):
        gen = RetrievalOracleGenerator()
        with pytest.raises(EmptyContext):
            gen.generate("not a member", ControlVector(0, 0, 0), cluster)


class TestNoisyOracle:
    def test_deterministic_given_seed(self, cluster):
        a = NoisyOracleGenerator(noise_std=5.0, seed=9)
        b = NoisyOracleGenerator(noise_std=5.0, seed=9)
        s, c = cluster.sentences[0], ControlVector(50, 20, 40)
        assert a.generate(s, c, cluster) == b.generate(s, c, cluster)

    def test_zero_noise_equals_retrieval(self, cluster):
        noisy = NoisyOracleGenerator(noise_std=0.0, seed=9)
        clean = RetrievalOracleGenerator()
        rng = np.random.default_rng(107)
        for _ in range(20):
            s = cluster.sentences[int(rng.integers(0, len(cluster.sentences)))]
            c = ControlVector(*(int(v) for v in rng.choice(range(0, 100, 5), size=3)))
            assert noisy.generate(s, c, cluster) == clean.generate(s, c, cluster)

    def test_seeds_can_change_choice(self, cluster):
        s, c = cluster.sentences[0], ControlVector(50, 25, 50)
        outputs = {
            NoisyOracleGenerator(noise_std=40.0, seed=seed).generate(s, c, cluster)
            for seed in range(12)
        }
        assert len(outputs) > 1


def _gen_stub(tmp_path, body):
    script = tmp_path / "gen_stub.py"
    script.write_text(body, encoding="utf-8")
    return f"{sys.executable} {script}"


class TestExternalGenerator:
    def test_echo_sentence(self, tmp_path):
        # stub strips the three control tokens and echoes the sentence
        cmd = _gen_stub(
            tmp_path,
            "import sys\n"
            "for line in sys.stdin:\n"
            "    print(line.rstrip('\\n').split(' ', 3)[3])\n",
        )
        groups = [
            ("a cat", None, control_array([ControlVector(0, 0, 0)])),
            ("the dog ran", None, control_array([ControlVector(5, 10, 15)])),
        ]
        assert ExternalCommandGenerator(cmd).generate_batch(groups) == [["a cat"], ["the dog ran"]]

    def test_prefix_round_trips_through_decoder(self, tmp_path):
        cmd = _gen_stub(
            tmp_path,
            "import sys\nfor line in sys.stdin:\n    print(line.rstrip('\\n'))\n",
        )
        c = ControlVector(35, 50, 5)
        [[echoed]] = ExternalCommandGenerator(cmd).generate_batch([("a cat", None, control_array([c]))])
        assert decode_control(echoed) == (c, "a cat")


class TestBuildGenerator:
    def test_kinds(self, cluster):
        assert isinstance(build_generator(GeneratorSpec(kind="identity")), IdentityGenerator)
        assert isinstance(
            build_generator(GeneratorSpec(kind="retrieval_oracle")), RetrievalOracleGenerator
        )
        assert isinstance(
            build_generator(GeneratorSpec(kind="noisy_oracle", noise_std=1.0)),
            NoisyOracleGenerator,
        )

    def test_shared_quality_computer(self, cluster):
        computer = QualityComputer()
        gen = build_generator(GeneratorSpec(kind="retrieval_oracle"), quality=computer)
        gen.generate(cluster.sentences[0], ControlVector(50, 20, 50), cluster)
        assert len(computer._pairs) > 0

    def test_builtins_never_return_empty(self, cluster):
        rng = np.random.default_rng(109)
        for spec in (
            GeneratorSpec(kind="identity"),
            GeneratorSpec(kind="retrieval_oracle"),
            GeneratorSpec(kind="noisy_oracle", noise_std=3.0),
        ):
            gen = build_generator(spec)
            for _ in range(10):
                s = cluster.sentences[int(rng.integers(0, len(cluster.sentences)))]
                c = ControlVector(*(int(v) for v in rng.choice(range(0, 100, 5), size=3)))
                assert gen.generate(s, c, cluster) != ""

    def test_every_generator_class_binds_the_one_generate(self):
        # each class's own binding, which the tracer patches, and one function behind all four
        classes = (IdentityGenerator, RetrievalOracleGenerator, NoisyOracleGenerator, ExternalCommandGenerator)
        bound = [cls.__dict__["generate"] for cls in classes]
        assert all(f is bound[0] for f in bound)


class TestGenerateBatch:
    SPECS = (
        GeneratorSpec(kind="identity"),
        GeneratorSpec(kind="retrieval_oracle"),
        GeneratorSpec(kind="noisy_oracle", noise_std=10.0),
    )

    def test_batch_equals_per_request_generate(self, cluster):
        singleton = Cluster("s", ["only one"], trees=["(A)"])
        groups = random_groups(cluster, 12, seed=131)
        # failing groups sit between successful ones
        groups[4:4] = [("only one", singleton, control_array([ControlVector(0, 0, 0), ControlVector(50, 5, 20)]))]
        groups[9:9] = [("not a member", cluster, control_array([ControlVector(50, 50, 50)]))]
        for spec in self.SPECS:
            batch = build_generator(spec).generate_batch(groups)
            assert_same_outputs(batch, per_control(build_generator(spec), groups))
        batch = build_generator(GeneratorSpec(kind="retrieval_oracle")).generate_batch(groups)
        assert all(isinstance(out, EmptyContext) for k in (4, 9) for out in batch[k])
        assert all(isinstance(out, str) for k, group in enumerate(batch) if k not in (4, 9) for out in group)

    def test_noisy_independent_of_repeats_and_order(self, cluster):
        gen = NoisyOracleGenerator(noise_std=20.0, seed=5)
        groups = random_groups(cluster, 15, seed=137) * 2
        expected = per_control(gen, groups)
        assert len(set(sum(expected, []))) > 1
        assert gen.generate_batch(groups) == expected
        order = np.random.default_rng(139).permutation(len(groups))
        reordered = [(s, context, controls[::-1]) for s, context, controls in (groups[k] for k in order)]
        assert gen.generate_batch(reordered) == [expected[k][::-1] for k in order]

    def test_noisy_derives_the_keys_of_a_batch_once(self, monkeypatch):
        a, b = paraphrase_corpus(n_clusters=2, cluster_size=4, seed=27)
        groups = random_groups(a, 10, seed=157) + random_groups(b, 10, seed=163)
        assert len({s for s, _, _ in groups}) > 2
        gen = NoisyOracleGenerator(noise_std=20.0, seed=2**40 + 3)
        expected = per_control(gen, groups)
        passes = []
        derive = util.seed_sequence_keys
        monkeypatch.setattr(util, "seed_sequence_keys", lambda words: passes.append(len(words)) or derive(words))
        assert gen.generate_batch(groups) == expected
        assert passes == [sum(len(controls) for _, _, controls in groups)]

    def test_noisy_noise_is_rng_for_per_control(self, cluster):
        two = control_array([ControlVector(5, 10, 15), ControlVector(95, 0, 50)])
        three = control_array([ControlVector(0, 0, 0), ControlVector(50, 25, 75), ControlVector(95, 95, 95)])
        one = control_array([ControlVector(45, 5, 90)])
        # k candidates per group, as in clusters of k + 1 members: several k in one batch
        groups = [(s, two, k) for k, s in enumerate(cluster.sentences)]
        groups += [(cluster.sentences[0], three, 2), (cluster.sentences[1], one, 5), (cluster.sentences[2], three, 5)]
        for std in (7.5, 0.0):
            gen = NoisyOracleGenerator(noise_std=std, seed=2**40 + 3)
            noises = gen._noise(groups)
            assert len(noises) == len(groups)
            for (s, controls, k), noise in zip(groups, noises):
                expected = [
                    rng_for(gen.seed, "noisy_oracle", s, *c).normal(0.0, std, size=(k, 3)) for c in controls.tolist()
                ]
                assert noise.shape == (len(controls), k, 3)
                assert (noise == np.array(expected).reshape(noise.shape)).all()

    def test_same_sentence_and_cluster_in_two_groups(self, cluster):
        s = cluster.sentences[1]
        controls = control_array([ControlVector(5, 10, 15), ControlVector(95, 0, 50), ControlVector(50, 25, 50)])
        for spec in self.SPECS:
            [whole] = build_generator(spec).generate_batch([(s, cluster, controls)])
            split = build_generator(spec).generate_batch([(s, cluster, controls[:2]), (s, cluster, controls[2:])])
            assert split == [whole[:2], whole[2:]]

    def test_empty_context_fails_every_control_of_its_group(self, cluster):
        singleton = Cluster("s", ["only one"], trees=["(A)"])
        controls = control_array([ControlVector(0, 0, 0), ControlVector(50, 5, 20), ControlVector(95, 95, 95)])
        for gen in (RetrievalOracleGenerator(), NoisyOracleGenerator(noise_std=3.0)):
            bad, good = gen.generate_batch([("only one", singleton, controls), (cluster.sentences[0], cluster, controls)])
            assert len(bad) == 3 and all(isinstance(out, EmptyContext) for out in bad)
            assert len(good) == 3 and all(isinstance(out, str) for out in good)

    def oracle_with_counting_scorer(self, tmp_path, *options, name="scorer_starts"):
        count = tmp_path / name
        command = " ".join([sys.executable, str(COUNTING_SCORER), str(count), *options])
        return count, RetrievalOracleGenerator(QualityComputer(SemanticScorer(kind="external_command", command=command)))

    def test_one_scorer_batch_for_every_group(self, tmp_path):
        a, b = paraphrase_corpus(n_clusters=2, cluster_size=4, seed=27)
        singleton = Cluster("s", ["only one"], trees=["(A)"])
        groups = random_groups(a, 6, seed=149) + [("only one", singleton, control_array([ControlVector(0, 0, 0)]))]
        groups += random_groups(b, 6, seed=151)
        count, gen = self.oracle_with_counting_scorer(tmp_path)
        batch = gen.generate_batch(groups)
        assert len(count.read_text(encoding="utf-8").splitlines()) == 1
        _, per_request = self.oracle_with_counting_scorer(tmp_path, name="per_request_starts")
        expected = per_control(per_request, groups)
        assert all(isinstance(out, EmptyContext) for out in expected[6])
        assert_same_outputs(batch, expected)

    def test_scorer_failure_fails_every_group_nan_only_its_own(self, tmp_path):
        a, b = paraphrase_corpus(n_clusters=2, cluster_size=4, seed=27)
        word = a.sentences[0].split()[-1]  # in members 0-2 of a, nowhere in b
        assert [word in t.split() for t in a.sentences + b.sentences] == [True] * 3 + [False] * 5
        c, d = ControlVector(50, 50, 50), ControlVector(5, 95, 20)
        groups = [
            (a.sentences[0], a, control_array([c, d])),
            (a.sentences[3], a, control_array([c])),
            (b.sentences[0], b, control_array([d, c])),
        ]
        _, gen = self.oracle_with_counting_scorer(tmp_path, "--exit-on", word)
        out = gen.generate_batch(groups)
        assert [len(group) for group in out] == [2, 1, 2]
        assert all(isinstance(e, ProtocolError) for group in out for e in group)
        _, gen = self.oracle_with_counting_scorer(tmp_path, "--nan-on", word)
        out = gen.generate_batch(groups)
        assert len(out[0]) == 2 and all(isinstance(e, NonFiniteValue) for e in out[0])
        assert all(isinstance(t, str) for group in out[1:] for t in group)

    def test_empty_batch(self, tmp_path, cluster):
        count = tmp_path / "starts"
        for gen in (
            IdentityGenerator(),
            RetrievalOracleGenerator(),
            NoisyOracleGenerator(noise_std=1.0),
            ExternalCommandGenerator(f"{sys.executable} {COUNTING_STUB} {count}"),
        ):
            assert gen.generate_batch([]) == []
            # a group asking for no control, a (0, 3) array, gets no output
            assert gen.generate_batch([(cluster.sentences[0], cluster, np.empty((0, 3), dtype=np.int64))]) == [[]]
        assert not count.exists()

    def test_group_without_controls_among_others(self, tmp_path, cluster):
        none = (cluster.sentences[1], cluster, np.empty((0, 3), dtype=np.int64))
        groups = random_groups(cluster, 4, seed=167)
        count = tmp_path / "starts"
        for gen in (
            *(build_generator(spec) for spec in self.SPECS),
            ExternalCommandGenerator(f"{sys.executable} {COUNTING_STUB} {count}"),
        ):
            out = gen.generate_batch([groups[0], none, *groups[1:3], none, groups[3]])
            assert out[1] == [] and out[4] == []
            assert out[:1] + out[2:4] + out[5:] == gen.generate_batch(groups)
        assert len(count.read_text(encoding="utf-8").splitlines()) == 2


class TestExternalBatch:
    GROUPS = [
        ("a cat sat", None, control_array([ControlVector(0, 0, 0)])),
        ("the dog ran", None, control_array([ControlVector(5, 10, 15), ControlVector(35, 50, 5)])),
        ("a bird flew", None, control_array([ControlVector(95, 95, 95)])),
    ]

    def run(self, tmp_path, *options):
        count = tmp_path / "starts"
        command = " ".join([sys.executable, str(COUNTING_STUB), str(count), *options])
        out = ExternalCommandGenerator(command).generate_batch(self.GROUPS)
        starts = len(count.read_text(encoding="utf-8").splitlines()) if count.exists() else 0
        return out, starts

    def tab_stub(self, tmp_path, word):
        return _gen_stub(
            tmp_path,
            "import sys\n"
            "for line in sys.stdin:\n"
            f"    print(line.rstrip('\\n').split(' ', 3)[3].replace(' {word} ', '\\t{word} '))\n",
        )

    def test_one_process_per_batch(self, tmp_path):
        out, starts = self.run(tmp_path)
        assert out == [["a cat sat"], ["the dog ran", "the dog ran"], ["a bird flew"]]
        assert starts == 1
        # one stdin line per control, in group order
        echoed = ExternalCommandGenerator(f"{sys.executable} {ECHO_STUB}").generate_batch(self.GROUPS)
        assert [[decode_control(line) for line in group] for group in echoed] == [
            [(ControlVector(*c), s) for c in controls.tolist()] for s, _, controls in self.GROUPS
        ]

    def test_empty_line_fails_only_its_request(self, tmp_path):
        out, starts = self.run(tmp_path, "--empty-on", "dog,<lex_5>")
        assert out[0] == ["a cat sat"] and out[1][0] == "the dog ran" and out[2] == ["a bird flew"]
        assert isinstance(out[1][1], ProtocolError) and out[1][1].line == 3
        assert starts == 1

    def test_tab_fails_only_its_request(self, tmp_path):
        out = ExternalCommandGenerator(self.tab_stub(tmp_path, "dog")).generate_batch(self.GROUPS)
        assert out[0] == ["a cat sat"] and out[2] == ["a bird flew"]
        assert [(type(e), e.line) for e in out[1]] == [(ProtocolError, 2), (ProtocolError, 3)]

    def test_failed_line_in_a_later_group_counts_across_the_batch(self, tmp_path):
        empty, _ = self.run(tmp_path, "--empty-on", "bird")
        tab = ExternalCommandGenerator(self.tab_stub(tmp_path, "bird")).generate_batch(self.GROUPS)
        for out in (empty, tab):
            assert out[:2] == [["a cat sat"], ["the dog ran", "the dog ran"]]
            [err] = out[2]
            assert isinstance(err, ProtocolError) and err.line == 4

    def test_nonzero_exit_fails_whole_batch(self, tmp_path):
        out, starts = self.run(tmp_path, "--exit-on", "dog")
        assert [len(group) for group in out] == [1, 2, 1]
        assert all(isinstance(e, ProtocolError) and "status 1" in str(e) for group in out for e in group)
        assert starts == 1

    def test_wrong_line_count_fails_whole_batch(self, tmp_path):
        cmd = _gen_stub(tmp_path, "import sys\nsys.stdin.read()\nprint('just one')\n")
        out = ExternalCommandGenerator(cmd).generate_batch(self.GROUPS)
        assert [len(group) for group in out] == [1, 2, 1]
        assert all(isinstance(e, ProtocolError) for group in out for e in group)

    def test_spawn_failure_fails_whole_batch(self, tmp_path):
        out = ExternalCommandGenerator(str(tmp_path / "no-such-program")).generate_batch(self.GROUPS)
        assert [len(group) for group in out] == [1, 2, 1]
        assert all(isinstance(e, SpawnFailure) for group in out for e in group)
