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
    external_generate,
    generate,
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
)
from qcpg_kit.util import rng_for


COUNTING_STUB = Path(__file__).with_name("stub_counting_generator.py")
COUNTING_SCORER = Path(__file__).with_name("stub_counting_scorer.py")


@pytest.fixture(scope="module")
def cluster():
    return paraphrase_corpus(n_clusters=1, cluster_size=5, seed=21)[0]


def random_requests(cluster, n, seed):
    rng = np.random.default_rng(seed)
    return [
        (
            cluster.sentences[int(rng.integers(0, len(cluster.sentences)))],
            ControlVector(*(int(v) for v in rng.choice(range(0, 100, 5), size=3))),
            cluster,
        )
        for _ in range(n)
    ]


class TestSpecValidation:
    def test_noisy_requires_std(self):
        with pytest.raises(ValueError):
            GeneratorSpec(kind="noisy_oracle")

    def test_external_requires_command(self):
        with pytest.raises(ValueError):
            GeneratorSpec(kind="external_command")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GeneratorSpec(kind="bogus")


class TestIdentity:
    def test_returns_input(self):
        gen = IdentityGenerator()
        for c in (ControlVector(0, 0, 0), ControlVector(95, 95, 95)):
            assert gen.generate("a cat sat", c) == "a cat sat"

    def test_functional_form(self):
        assert generate(GeneratorSpec(kind="identity"), "hello", ControlVector(5, 10, 15)) == "hello"


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
                best = min(
                    candidates,
                    key=lambda item: sum(
                        (q - cc) ** 2 for q, cc in zip(item[3].as_tuple(), c.as_tuple())
                    ),
                )
                assert gen.generate(s, c, ctx) == best[1]

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
        batch = [("a cat", ControlVector(0, 0, 0)), ("the dog ran", ControlVector(5, 10, 15))]
        assert external_generate(cmd, batch) == ["a cat", "the dog ran"]

    def test_prefix_round_trips_through_decoder(self, tmp_path):
        cmd = _gen_stub(
            tmp_path,
            "import sys\nfor line in sys.stdin:\n    print(line.rstrip('\\n'))\n",
        )
        c = ControlVector(35, 50, 5)
        [echoed] = external_generate(cmd, [("a cat", c)])
        assert decode_control(echoed) == (c, "a cat")

    def test_length_mismatch(self, tmp_path):
        cmd = _gen_stub(tmp_path, "import sys\nsys.stdin.read()\nprint('just one')\n")
        with pytest.raises(ProtocolError):
            external_generate(cmd, [("a", ControlVector(0, 0, 0)), ("b", ControlVector(0, 0, 0))])

    def test_empty_paraphrase_rejected(self, tmp_path):
        cmd = _gen_stub(tmp_path, "import sys\nfor _ in sys.stdin:\n    print()\n")
        with pytest.raises(ProtocolError):
            external_generate(cmd, [("a", ControlVector(0, 0, 0))])


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


class TestGenerateBatch:
    SPECS = (
        GeneratorSpec(kind="identity"),
        GeneratorSpec(kind="retrieval_oracle"),
        GeneratorSpec(kind="noisy_oracle", noise_std=10.0),
    )

    def test_batch_equals_per_request_generate(self, cluster):
        singleton = Cluster("s", ["only one"], trees=["(A)"])
        requests = random_requests(cluster, 12, seed=131)
        # failing requests sit between successful ones
        requests[4:4] = [("only one", ControlVector(0, 0, 0), singleton)]
        requests[9:9] = [("not a member", ControlVector(50, 50, 50), cluster)]
        for spec in self.SPECS:
            gen = build_generator(spec)
            batch = gen.generate_batch(requests)
            assert len(batch) == len(requests)
            for (s, c, context), out in zip(requests, batch):
                try:
                    expected = build_generator(spec).generate(s, c, context)
                except QcpgError as exc:
                    assert type(out) is type(exc) and str(out) == str(exc)
                else:
                    assert out == expected
        batch = build_generator(GeneratorSpec(kind="retrieval_oracle")).generate_batch(requests)
        assert isinstance(batch[4], EmptyContext) and isinstance(batch[9], EmptyContext)
        assert all(isinstance(out, str) for k, out in enumerate(batch) if k not in (4, 9))

    def test_noisy_independent_of_repeats_and_order(self, cluster):
        gen = NoisyOracleGenerator(noise_std=20.0, seed=5)
        requests = random_requests(cluster, 15, seed=137) * 2
        expected = [gen.generate(s, c, context) for s, c, context in requests]
        assert len(set(expected)) > 1
        assert gen.generate_batch(requests) == expected
        order = np.random.default_rng(139).permutation(len(requests))
        assert gen.generate_batch([requests[k] for k in order]) == [expected[k] for k in order]

    def test_noisy_derives_the_keys_of_a_batch_once(self, monkeypatch):
        a, b = paraphrase_corpus(n_clusters=2, cluster_size=4, seed=27)
        requests = random_requests(a, 10, seed=157) + random_requests(b, 10, seed=163)
        assert len({s for s, _, _ in requests}) > 2
        gen = NoisyOracleGenerator(noise_std=20.0, seed=2**40 + 3)
        expected = [gen.generate(s, c, context) for s, c, context in requests]
        passes = []
        derive = util.seed_sequence_keys
        monkeypatch.setattr(util, "seed_sequence_keys", lambda words: passes.append(len(words)) or derive(words))
        assert gen.generate_batch(requests) == expected
        assert passes == [len(requests)]

    def test_noisy_noise_is_rng_for_per_control(self, cluster):
        gen = NoisyOracleGenerator(noise_std=7.5, seed=2**40 + 3)
        groups = [(s, [ControlVector(5, 10, 15), ControlVector(95, 0, 50)], k) for k, s in enumerate(cluster.sentences)]
        for (s, controls, k), noise in zip(groups, gen._noise(groups)):
            expected = [rng_for(gen.seed, "noisy_oracle", s, *c.as_tuple()).normal(0.0, 7.5, size=(k, 3)) for c in controls]
            assert (noise == np.array(expected)).all()

    def oracle_with_counting_scorer(self, tmp_path, *options, name="scorer_starts"):
        count = tmp_path / name
        command = " ".join([sys.executable, str(COUNTING_SCORER), str(count), *options])
        return count, RetrievalOracleGenerator(QualityComputer(SemanticScorer(kind="external_command", command=command)))

    def test_one_scorer_batch_for_every_group(self, tmp_path):
        a, b = paraphrase_corpus(n_clusters=2, cluster_size=4, seed=27)
        singleton = Cluster("s", ["only one"], trees=["(A)"])
        requests = random_requests(a, 6, seed=149) + [("only one", ControlVector(0, 0, 0), singleton)]
        requests += random_requests(b, 6, seed=151)
        count, gen = self.oracle_with_counting_scorer(tmp_path)
        batch = gen.generate_batch(requests)
        assert len(count.read_text(encoding="utf-8").splitlines()) == 1
        _, per_request = self.oracle_with_counting_scorer(tmp_path, name="per_request_starts")
        for (s, c, context), out in zip(requests, batch):
            try:
                expected = per_request.generate(s, c, context)
            except EmptyContext as exc:
                assert type(out) is EmptyContext and str(out) == str(exc)
            else:
                assert out == expected

    def test_scorer_failure_fails_every_group_nan_only_its_own(self, tmp_path):
        a, b = paraphrase_corpus(n_clusters=2, cluster_size=4, seed=27)
        word = a.sentences[0].split()[-1]  # in members 0-2 of a, nowhere in b
        assert [word in t.split() for t in a.sentences + b.sentences] == [True] * 3 + [False] * 5
        c = ControlVector(50, 50, 50)
        requests = [(a.sentences[0], c, a), (a.sentences[3], c, a), (b.sentences[0], c, b)]
        _, gen = self.oracle_with_counting_scorer(tmp_path, "--exit-on", word)
        assert all(isinstance(out, ProtocolError) for out in gen.generate_batch(requests))
        _, gen = self.oracle_with_counting_scorer(tmp_path, "--nan-on", word)
        out = gen.generate_batch(requests)
        assert isinstance(out[0], NonFiniteValue)
        assert isinstance(out[1], str) and isinstance(out[2], str)

    def test_empty_batch(self, tmp_path):
        count = tmp_path / "starts"
        for gen in (
            IdentityGenerator(),
            RetrievalOracleGenerator(),
            NoisyOracleGenerator(noise_std=1.0),
            ExternalCommandGenerator(f"{sys.executable} {COUNTING_STUB} {count}"),
        ):
            assert gen.generate_batch([]) == []
        assert not count.exists()


class TestExternalBatch:
    REQUESTS = [
        ("a cat sat", ControlVector(0, 0, 0), None),
        ("the dog ran", ControlVector(5, 10, 15), None),
        ("a bird flew", ControlVector(95, 95, 95), None),
    ]

    def run(self, tmp_path, *options):
        count = tmp_path / "starts"
        command = " ".join([sys.executable, str(COUNTING_STUB), str(count), *options])
        out = ExternalCommandGenerator(command).generate_batch(self.REQUESTS)
        starts = len(count.read_text(encoding="utf-8").splitlines()) if count.exists() else 0
        return out, starts

    def test_one_process_per_batch(self, tmp_path):
        out, starts = self.run(tmp_path)
        assert out == ["a cat sat", "the dog ran", "a bird flew"]
        assert starts == 1

    def test_empty_line_fails_only_its_request(self, tmp_path):
        out, starts = self.run(tmp_path, "--empty-on", "dog")
        assert out[0] == "a cat sat" and out[2] == "a bird flew"
        assert isinstance(out[1], ProtocolError) and out[1].line == 2
        assert starts == 1

    def test_nonzero_exit_fails_whole_batch(self, tmp_path):
        out, starts = self.run(tmp_path, "--exit-on", "dog")
        assert all(isinstance(e, ProtocolError) and "status 1" in str(e) for e in out)
        assert starts == 1

    def test_wrong_line_count_fails_whole_batch(self, tmp_path):
        cmd = _gen_stub(tmp_path, "import sys\nsys.stdin.read()\nprint('just one')\n")
        out = ExternalCommandGenerator(cmd).generate_batch(self.REQUESTS)
        assert all(isinstance(e, ProtocolError) for e in out)

    def test_spawn_failure_fails_whole_batch(self, tmp_path):
        out = ExternalCommandGenerator(str(tmp_path / "no-such-program")).generate_batch(self.REQUESTS)
        assert len(out) == 3 and all(isinstance(e, SpawnFailure) for e in out)
