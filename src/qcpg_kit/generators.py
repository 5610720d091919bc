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

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Cluster
from .errors import EmptyContext, ProtocolError, QcpgError, raise_first_failure
from .quality import ControlVector, QualityComputer, prepend_control
from .semantic import DEFAULT_SCORER, EXTERNAL_COMMAND, SemanticScorer, run_line_protocol, sanitize_line_field
# rng_for is no longer called here, but bench/tracing.py spans this binding.
from .util import as_entropy, keyed_generators, philox_keys, rng_for  # noqa: F401

IDENTITY = "identity"
RETRIEVAL_ORACLE = "retrieval_oracle"
NOISY_ORACLE = "noisy_oracle"
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
        if self.noise_std is not None and not math.isfinite(self.noise_std):
            raise ValueError(f"noise_std must be finite, got {self.noise_std}")
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
        """(member, QualityVector) for every member != s, in member order; a table of one."""
        return raise_first_failure(self.candidate_tables([(s, context)]))[0]

    def candidate_tables(self, groups: list[tuple[str, Cluster | None]]) -> list[list | QcpgError]:
        """One candidate table, or the failure it met, per (sentence, context), in order.

        A table's rows are ``(member, quality)`` over ``context.pair_keys(s)``.
        The keys of every valid group are measured in one batch, so an
        external scorer starts one process for all of them. A group fails
        with its own EmptyContext or with the first failure among its
        members' qualities; a scorer process failure fails every group
        that reached the batch.
        """
        tables: list = [None] * len(groups)
        keys, spans = [], []
        for g, (s, context) in enumerate(groups):
            if context is None:
                tables[g] = EmptyContext("retrieval oracle requires a cluster context")
            elif context.trees is None:
                tables[g] = EmptyContext(f"cluster {context.cluster_id!r} has no trees; the oracle needs parses")
            elif s not in context.sentences:
                tables[g] = EmptyContext(f"sentence is not a member of cluster {context.cluster_id!r}")
            elif not (group := context.pair_keys(s)):
                tables[g] = EmptyContext(f"cluster {context.cluster_id!r} has no candidate other than the input")
            else:
                spans.append((g, len(keys), len(keys) + len(group)))
                keys += group
        qualities = self.quality.pair_qualities(keys)
        for g, start, stop in spans:
            try:
                group = raise_first_failure(qualities[start:stop])
            except QcpgError as exc:
                tables[g] = exc
                continue
            tables[g] = [(key[1], q) for key, q in zip(keys[start:stop], group)]
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
            q = np.array([cand[1].as_tuple() for cand in candidates], dtype=np.float64)
            c = np.array([ctl.as_tuple() for ctl in controls], dtype=np.float64)
            dist = ((q + noise - c[:, None, :]) ** 2).sum(axis=2)
            for i, k in zip(members, dist.argmin(axis=1)):
                out[i] = candidates[k][0]
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
    an empty output line or one holding a tab only its own.
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
        results: list = []
        for lineno, (text, (s, _, _)) in enumerate(zip(out, requests), start=1):
            if not text and s:
                text = ProtocolError("generator returned an empty paraphrase", line=lineno)
            elif "\t" in text:
                text = ProtocolError("generator returned a tab, which no TSV field may hold", line=lineno)
            results.append(text)
        return results


def external_generate(command: str, batch: list[tuple[str, ControlVector]]) -> list[str]:
    """Run a batch through an external generator command; raise its first failure.

    Protocol: each stdin line is the three control tokens followed by the
    sentence; stdout returns exactly one paraphrase per line.
    """
    return raise_first_failure(ExternalCommandGenerator(command).generate_batch([(s, c, None) for s, c in batch]))


def build_generator(spec: GeneratorSpec, quality: QualityComputer | None = None):
    """Instantiate the generator described by ``spec``.

    Oracle generators measure candidate quality through ``quality``
    (by default a fresh :class:`QualityComputer` with the built-in scorer).
    """
    if spec.kind == IDENTITY:
        return IdentityGenerator()
    if spec.kind == RETRIEVAL_ORACLE:
        return RetrievalOracleGenerator(quality)
    if spec.kind == NOISY_ORACLE:
        return NoisyOracleGenerator(spec.noise_std, spec.seed, quality)
    return ExternalCommandGenerator(spec.command)


def generate(
    spec: GeneratorSpec,
    s: str,
    c: ControlVector,
    context: Cluster | None = None,
    scorer: SemanticScorer = DEFAULT_SCORER,
) -> str:
    """One-shot functional form of the generator interface."""
    return build_generator(spec, QualityComputer(scorer)).generate(s, c, context)
