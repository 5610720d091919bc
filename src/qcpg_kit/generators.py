"""Controlled-generator interface and built-in test generators.

A generator maps a batch of groups, each a sentence, its cluster (or
None) and the controls asked of it as a ``(k, 3)`` integer array of
quantized (sem, syn, lex) rows (``control_array`` builds one from
``ControlVector``s), to one list per group of one paraphrase or one
QcpgError per row (``generate_batch``); each generator's ``generate``
method is a group of one ``ControlVector``. Callers send at most
``semantic.MAX_BATCH_REQUESTS`` controls per batch (``batches``). Besides the
external-command bridge for real trained models, the built-ins make the
selection machinery testable end to end without any training:

* identity        -- returns the input unchanged (control-blind baseline);
* retrieval_oracle -- returns the cluster member whose measured quality
  is nearest the requested control, i.e. a generator that conforms to
  the control as well as the data allows;
* noisy_oracle    -- the retrieval oracle with seeded Gaussian noise on
  the measured qualities, simulating an imperfect model. Each control
  draws from its own stream per (seed, sentence, control); the Philox
  keys of every stream of a batch come from one vectorized pass
  (``util.philox_keys``) over one uint64 entropy row per control, then
  one Philox is reset per control (``util.keyed_generators``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Cluster
from .errors import EmptyContext, ProtocolError, QcpgError, raise_first_failure
from .quality import ControlVector, QualityComputer, prepend_control
from .semantic import EXTERNAL_COMMAND, run_line_protocol, sanitize_line_field
from .util import as_entropy, keyed_generators, philox_keys
from .util import rng_for  # noqa: F401 - not called here, but bench/tracing.py spans this binding

IDENTITY = "identity"
RETRIEVAL_ORACLE = "retrieval_oracle"
NOISY_ORACLE = "noisy_oracle"
GENERATOR_KINDS = (IDENTITY, RETRIEVAL_ORACLE, NOISY_ORACLE, EXTERNAL_COMMAND)

# (sentence, cluster or None, (k, 3) integer array of quantized controls)
Group = tuple[str, "Cluster | None", np.ndarray]

def batches(groups, bound: int):
    """Consecutive runs of ``groups``, each holding at most ``bound`` controls
    unless one group alone holds more. A group's controls are its third field;
    any further fields ride along."""
    chunk, size = [], 0
    for group in groups:
        n = len(group[2])
        if chunk and size + n > bound:
            yield chunk
            chunk, size = [], 0
        chunk.append(group)
        size += n
    if chunk:
        yield chunk


def control_array(controls) -> np.ndarray:
    """The ``(k, 3)`` int64 control array of a group's ``ControlVector``s."""
    return np.array([c.as_tuple() for c in controls], dtype=np.int64).reshape(-1, 3)


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
        if self.kind == EXTERNAL_COMMAND and not (self.command or "").strip():
            raise ValueError("external_command generator requires a command string")


class IdentityGenerator:
    def generate(self, s: str, c: ControlVector, context: Cluster | None = None) -> str:
        return raise_first_failure(self.generate_batch([(s, context, control_array([c]))])[0])[0]

    def generate_batch(self, groups: list[Group]) -> list[list[str | QcpgError]]:
        return [[s] * len(controls) for s, _, controls in groups]


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

    def _noise(self, groups: list[tuple[str, np.ndarray, int]]) -> list:
        """Perturbation of the k candidate qualities per control, for each (s, controls, k) group; none here."""
        return [0.0] * len(groups)

    def generate(self, s: str, c: ControlVector, context: Cluster | None = None) -> str:
        return raise_first_failure(self.generate_batch([(s, context, control_array([c]))])[0])[0]

    def generate_batch(self, groups: list[Group]) -> list[list[str | QcpgError]]:
        """One candidate table per group, one argmin per control over it.

        The tables of the whole batch are measured in one scorer batch,
        and the noise of the whole batch is drawn in one ``_noise`` call.
        """
        tables = self.candidate_tables([(s, context) for s, context, _ in groups])
        live = [(s, cs, len(t)) for (s, _, cs), t in zip(groups, tables) if len(cs) and isinstance(t, list)]
        noises = iter(self._noise(live))
        out = []
        for (_, _, controls), candidates in zip(groups, tables):
            if not (len(controls) and isinstance(candidates, list)):
                out.append([candidates] * len(controls))
                continue
            members = np.array([t for t, _ in candidates], dtype=object)
            q = np.array([v.as_tuple() for _, v in candidates], dtype=np.float64)
            dist = ((q + next(noises) - controls[:, None, :]) ** 2).sum(axis=2)
            out.append(members[dist.argmin(axis=1)].tolist())
        return out


class NoisyOracleGenerator(RetrievalOracleGenerator):
    """Retrieval oracle over qualities perturbed by noise seeded per (sentence, control)."""

    def __init__(self, noise_std: float, seed: int = 42, quality: QualityComputer | None = None):
        super().__init__(quality)
        self.noise_std = noise_std
        self.seed = seed

    def _noise(self, groups: list[tuple[str, np.ndarray, int]]) -> list:
        """Per control, ``rng_for(seed, "noisy_oracle", s, sem, syn, lex).normal(0, std, (k, 3))``.

        The Philox keys of the whole batch come from one ``philox_keys``
        pass over one ``(seed, tag, digest, sem, syn, lex)`` uint64 row
        per control, and each sentence is hashed once. Each group gets one
        ``(len(c), k, 3)`` array: each control's stream fills its own row
        with standard normals, and the block is then scaled by the std.
        ``normal`` computes ``0.0 + std * z`` from the same draws, so the
        values are equal; only the sign of a zero may differ.
        """
        if not groups:
            return []
        seed, tag = as_entropy(self.seed), as_entropy("noisy_oracle")
        digests = {s: as_entropy(s) for s, _, _ in groups}
        # an explicit uint64 array: a digest above 2**63 must not pass through float64
        heads = np.array([(seed, tag, digests[s]) for s, _, _ in groups], dtype=np.uint64)
        controls = np.concatenate([c for _, c, _ in groups]).astype(np.uint64)
        parts = np.hstack([np.repeat(heads, [len(c) for _, c, _ in groups], axis=0), controls])
        streams = keyed_generators(philox_keys(parts))
        blocks = []
        for _, c, k in groups:
            block = np.empty((len(c), k, 3))
            for row in block:
                next(streams).standard_normal(out=row)
            block *= self.noise_std
            blocks.append(block)
        return blocks

    def generate(self, s: str, c: ControlVector, context: Cluster | None = None) -> str:
        return raise_first_failure(self.generate_batch([(s, context, control_array([c]))])[0])[0]


class ExternalCommandGenerator:
    """Bridge to an external generator speaking the control-token protocol.

    One process per batch, one stdin line per control; a process failure
    fails every control, an empty output line or one with a tab only its own.
    """

    def __init__(self, command: str):
        self.command = command

    def generate(self, s: str, c: ControlVector, context: Cluster | None = None) -> str:
        return raise_first_failure(self.generate_batch([(s, context, control_array([c]))])[0])[0]

    def generate_batch(self, groups: list[Group]) -> list[list[str | QcpgError]]:
        lines = [
            prepend_control(sanitize_line_field(s), ControlVector(*row))
            for s, _, controls in groups
            for row in controls.tolist()
        ]
        try:
            out = enumerate(run_line_protocol(self.command, lines, "generator"), start=1)
        except QcpgError as exc:
            return [[exc] * len(controls) for _, _, controls in groups]
        results = []
        for s, _, controls in groups:
            group: list = []
            for lineno, text in itertools.islice(out, len(controls)):
                if not text and s:
                    text = ProtocolError("generator returned an empty paraphrase", line=lineno)
                elif "\t" in text:
                    text = ProtocolError("generator returned a tab, which no TSV field may hold", line=lineno)
                group.append(text)
            results.append(group)
        return results


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
