"""Controlled-generator interface and built-in test generators.

A generator maps a batch of (sentence, control vector, cluster) requests
to one paraphrase or one QcpgError each, in order (``generate_batch``);
``generate`` is a batch of one. Besides the external-command bridge for
real trained models, the built-ins make the selection machinery
testable end to end without any training:

* identity        -- returns the input unchanged (control-blind baseline);
* retrieval_oracle -- returns the cluster member whose measured quality
  is nearest the requested control, i.e. a generator that conforms to
  the control as well as the data allows;
* noisy_oracle    -- the retrieval oracle with seeded Gaussian noise on
  the measured qualities, simulating an imperfect model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Cluster
from .errors import EmptyContext, ProtocolError, QcpgError, raise_first_failure
from .quality import ControlVector, QualityComputer, prepend_control
from .semantic import DEFAULT_SCORER, SemanticScorer, run_line_protocol, sanitize_line_field
# rng_for is no longer called here, but bench/tracing.py spans this binding.
from .util import as_entropy, keyed_generators, philox_keys, rng_for  # noqa: F401

IDENTITY = "identity"
RETRIEVAL_ORACLE = "retrieval_oracle"
NOISY_ORACLE = "noisy_oracle"
EXTERNAL_COMMAND = "external_command"
GENERATOR_KINDS = (IDENTITY, RETRIEVAL_ORACLE, NOISY_ORACLE, EXTERNAL_COMMAND)

Request = tuple[str, ControlVector, "Cluster | None"]


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str = IDENTITY
    noise_std: float | None = None
    command: str | None = None
    seed: int = 42

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == NOISY_ORACLE and (self.noise_std is None or self.noise_std < 0):
            raise ValueError("noisy_oracle requires a non-negative noise_std")
        if self.kind == EXTERNAL_COMMAND and not self.command:
            raise ValueError("external_command generator requires a command string")


class IdentityGenerator:
    def generate(self, s: str, c: ControlVector, context: Cluster | None = None) -> str:
        return raise_first_failure(self.generate_batch([(s, c, context)]))[0]

    def generate_batch(self, requests: list[Request]) -> list[str | QcpgError]:
        return [s for s, _, _ in requests]


class RetrievalOracleGenerator:
    """Returns the cluster member with quality nearest the control.

    Distance is Euclidean over the 3 quality dimensions; ties go to the
    lowest cluster index. The source sentence itself is never returned.
    """

    def __init__(self, quality: QualityComputer | None = None):
        self.quality = quality or QualityComputer()

    def candidate_qualities(self, s: str, context: Cluster | None):
        """(index, sentence, tree, QualityVector) for every member != s; a table of one."""
        return raise_first_failure(self.candidate_tables([(s, context)]))[0]

    @staticmethod
    def _members(s: str, context: Cluster | None):
        """(source tree, [(index, sentence, tree)] for every member != s)."""
        if context is None:
            raise EmptyContext("retrieval oracle requires a cluster context")
        if context.trees is None:
            raise EmptyContext(
                f"cluster {context.cluster_id!r} has no trees; the oracle needs parses"
            )
        try:
            s_idx = context.sentences.index(s)
        except ValueError:
            raise EmptyContext(
                f"sentence is not a member of cluster {context.cluster_id!r}"
            ) from None
        members = [(i, t, context.trees[i]) for i, t in enumerate(context.sentences) if t != s]
        if not members:
            raise EmptyContext(f"cluster {context.cluster_id!r} has no candidate other than the input")
        return context.trees[s_idx], members

    def candidate_tables(self, groups: list[tuple[str, Cluster | None]]) -> list[list | QcpgError]:
        """One candidate table, or the failure it met, per (sentence, context), in order.

        The members of every valid group are measured in one batch, so an
        external scorer starts one process for all of them. A group fails
        with its own EmptyContext or with the first failure among its
        members' qualities; a scorer process failure fails every group
        that reached the batch.
        """
        tables: list = [None] * len(groups)
        keys, spans = [], []
        for g, (s, context) in enumerate(groups):
            try:
                tree_s, members = self._members(s, context)
            except QcpgError as exc:
                tables[g] = exc
                continue
            spans.append((g, members, len(keys)))
            keys += [(s, t, tree_s, tree_t) for _, t, tree_t in members]
        qualities = self.quality.pair_qualities(keys)
        for g, members, start in spans:
            try:
                group = raise_first_failure(qualities[start:start + len(members)])
            except QcpgError as exc:
                tables[g] = exc
                continue
            tables[g] = [(*member, q) for member, q in zip(members, group)]
        return tables

    def _noise(self, groups: list[tuple[str, list[ControlVector], int]]) -> list:
        """Perturbation of the k candidate qualities per control, for each (s, controls, k) group; none here."""
        return [0.0] * len(groups)

    def generate(self, s: str, c: ControlVector, context: Cluster | None = None) -> str:
        return raise_first_failure(self.generate_batch([(s, c, context)]))[0]

    def generate_batch(self, requests: list[Request]) -> list[str | QcpgError]:
        """One candidate table per (sentence, context), one argmin over its controls.

        The tables of the whole batch are measured in one scorer batch,
        and the noise of the whole batch is drawn in one ``_noise`` call.
        """
        out: list = [None] * len(requests)
        groups: dict[tuple[str, int], list[int]] = {}
        for i, (s, _, context) in enumerate(requests):
            groups.setdefault((s, id(context)), []).append(i)
        tables = self.candidate_tables([(s, requests[members[0]][2]) for (s, _), members in groups.items()])
        live = []
        for ((s, _), members), candidates in zip(groups.items(), tables):
            if isinstance(candidates, QcpgError):
                for i in members:
                    out[i] = candidates
            else:
                live.append((s, [requests[i][1] for i in members], members, candidates))
        noises = self._noise([(s, controls, len(candidates)) for s, controls, _, candidates in live])
        for (_, controls, members, candidates), noise in zip(live, noises):
            q = np.array([cand[3].as_tuple() for cand in candidates], dtype=np.float64)
            c = np.array([ctl.as_tuple() for ctl in controls], dtype=np.float64)
            dist = ((q + noise - c[:, None, :]) ** 2).sum(axis=2)
            for i, k in zip(members, dist.argmin(axis=1)):
                out[i] = candidates[k][1]
        return out


class NoisyOracleGenerator(RetrievalOracleGenerator):
    """Retrieval oracle over qualities perturbed by noise seeded per (sentence, control)."""

    def __init__(self, noise_std: float, seed: int = 42, quality: QualityComputer | None = None):
        super().__init__(quality)
        self.noise_std = noise_std
        self.seed = seed

    def _noise(self, groups: list[tuple[str, list[ControlVector], int]]) -> list:
        """Per control, ``rng_for(seed, "noisy_oracle", s, sem, syn, lex).normal(0, std, (k, 3))``.

        The Philox keys of the whole batch come from one ``philox_keys``
        pass, and each sentence is hashed once.
        """
        if not groups:
            return []
        seed, tag = as_entropy(self.seed), as_entropy("noisy_oracle")
        digests = {s: as_entropy(s) for s, _, _ in groups}
        parts = [(seed, tag, digests[s], *c.as_tuple()) for s, controls, _ in groups for c in controls]
        streams = keyed_generators(philox_keys(parts))
        return [
            np.array([next(streams).normal(0.0, self.noise_std, size=(k, 3)) for _ in controls])
            for _, controls, k in groups
        ]

    def generate(self, s: str, c: ControlVector, context: Cluster | None = None) -> str:
        return raise_first_failure(self.generate_batch([(s, c, context)]))[0]


class ExternalCommandGenerator:
    """Bridge to an external generator speaking the control-token protocol.

    One process per batch; a failure of the process fails every request,
    an empty output line only its own.
    """

    def __init__(self, command: str):
        self.command = command

    def generate(self, s: str, c: ControlVector, context: Cluster | None = None) -> str:
        return raise_first_failure(self.generate_batch([(s, c, context)]))[0]

    def generate_batch(self, requests: list[Request]) -> list[str | QcpgError]:
        if not requests:
            return []
        lines = [prepend_control(sanitize_line_field(s), c) for s, c, _ in requests]
        try:
            out = run_line_protocol(self.command, lines, "generator")
        except QcpgError as exc:
            return [exc] * len(requests)
        return [
            ProtocolError("generator returned an empty paraphrase", line=lineno) if not text and s else text
            for lineno, (text, (s, _, _)) in enumerate(zip(out, requests), start=1)
        ]


def external_generate(command: str, batch: list[tuple[str, ControlVector]]) -> list[str]:
    """Run a batch through an external generator command; raise its first failure.

    Protocol: each stdin line is the three control tokens followed by the
    sentence; stdout returns exactly one paraphrase per line.
    """
    return raise_first_failure(ExternalCommandGenerator(command).generate_batch([(s, c, None) for s, c in batch]))


def build_generator(spec: GeneratorSpec, scorer: SemanticScorer = DEFAULT_SCORER, quality: QualityComputer | None = None):
    """Instantiate the generator described by ``spec``.

    Oracle generators measure candidate quality with ``scorer`` (through
    a shared :class:`QualityComputer` when one is supplied).
    """
    if spec.kind == IDENTITY:
        return IdentityGenerator()
    if spec.kind == RETRIEVAL_ORACLE:
        return RetrievalOracleGenerator(quality or QualityComputer(scorer))
    if spec.kind == NOISY_ORACLE:
        return NoisyOracleGenerator(spec.noise_std, spec.seed, quality or QualityComputer(scorer))
    return ExternalCommandGenerator(spec.command)


def generate(
    spec: GeneratorSpec,
    s: str,
    c: ControlVector,
    context: Cluster | None = None,
    scorer: SemanticScorer = DEFAULT_SCORER,
) -> str:
    """One-shot functional form of the generator interface."""
    return build_generator(spec, scorer).generate(s, c, context)
