"""Comparing generators: quality means, Self-BLEU, and BLEU.

The evaluation report mirrors generator-vs-baseline comparison tables:
per system, the mean quality vector over pairs, Self-BLEU against the
sources (high = copying), and optionally BLEU against references.
"""

from qcpg_kit import (
    GeneratorSpec,
    Offset,
    build_generator,
    dev_items,
    evaluate_systems,
    fit,
    generate_pairs,
    kendall_tau,
    paraphrase_corpus,
    quality_samples,
)
from qcpg_kit.errors import raise_first_failure

corpus = paraphrase_corpus(n_clusters=25, cluster_size=5, seed=77, length_jitter=6)
qp = fit(quality_samples(corpus))
items = dev_items(corpus, per_cluster=1)

def run_system(spec, offset):
    """One (source, output, source_tree, output_tree) row per dev item."""
    chunks = generate_pairs(build_generator(spec), qp, items, [offset])
    return raise_first_failure([key for chunk in chunks for _, [key], _ in chunk])

report = evaluate_systems(
    [
        ("identity", run_system(GeneratorSpec(kind="identity"), Offset(0, 0, 0))),
        ("oracle+small-offset", run_system(GeneratorSpec(kind="retrieval_oracle"), Offset(0, 5, 5))),
        ("oracle+large-offset", run_system(GeneratorSpec(kind="retrieval_oracle"), Offset(0, 25, 35))),
    ],
    references=[c.sentences[1] for c in corpus],  # a held-out member as reference
)
print(report.to_tsv())
print("identity copies exactly (Self-BLEU 100); larger offsets buy diversity")
print("at a semantic price, which the grid search makes explicit.")

print()
print("== metric agreement via Kendall's tau ==")
from qcpg_kit import QualityComputer, self_bleu

# over the corpus's own ground-truth pairs, lexical distance and
# Self-BLEU should rank pairs in nearly opposite order
computer = QualityComputer()
per_pair_lex, per_pair_selfbleu = [], []
for cluster in corpus:
    s, tree_s = cluster.sentences[0], cluster.trees[0]
    for i in range(1, len(cluster.sentences)):
        t = cluster.sentences[i]
        per_pair_lex.append(computer.pair_quality(s, t, tree_s, cluster.trees[i]).lex)
        per_pair_selfbleu.append(self_bleu(t, s))
tau = kendall_tau(per_pair_lex, per_pair_selfbleu)
print(f"tau-b(lexical distance, Self-BLEU) = {tau:+.3f}  over "
      f"{len(per_pair_lex)} ground-truth pairs (strongly anti-correlated)")
