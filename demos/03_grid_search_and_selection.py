"""Offset grid search, responsiveness curves, and operation-point selection.

Sweeping an offset grid around the per-sentence reference reveals how a
generator trades semantic similarity against linguistic diversity. The
retrieval-oracle generator (nearest cluster member to the requested
control) stands in for a trained model, so the whole loop runs in
seconds on synthetic data.
"""

from pathlib import Path

from qcpg_kit import (
    GeneratorSpec,
    Offset,
    SelectionConstraint,
    default_grid,
    dev_items,
    dev_quality_std,
    diversity_of,
    export_heatmap_csv,
    fit,
    grid_search,
    paraphrase_corpus,
    quality_samples,
    responsiveness,
    select_operation_point,
)

corpus = paraphrase_corpus(n_clusters=40, cluster_size=6, seed=9, length_jitter=6)
qp = fit(quality_samples(corpus))
dev = dev_items(corpus, per_cluster=1)
oracle = GeneratorSpec(kind="retrieval_oracle")

print("== responsiveness along one controlled dimension ==")
sweep = [Offset(0, 0, v) for v in (0, 10, 20, 30, 40, 50)]
result = grid_search(oracle, qp, dev, grid=sweep)
print("dev-set quality std per dimension:", tuple(round(v, 1) for v in dev_quality_std(dev)))
print(" o_lex   R_sem   R_syn   R_lex")
for o in sweep:
    r = responsiveness(result, o)
    print(f"  {o.lex:4.0f}  {r[0]:+6.2f}  {r[1]:+6.2f}  {r[2]:+6.2f}")
print("(the controlled dimension responds most; coupling moves the others)")

print()
print("== full 3-D grid and heatmap export ==")
full = grid_search(oracle, qp, dev, grid=default_grid(0, 10, 50))  # 216 offsets
out = Path("heatmap_demo.csv")
export_heatmap_csv(full, out)
print(f"wrote {out} with {len(full.offsets)} rows")
print("columns: o_sem,o_syn,o_lex,q_sem,q_syn,q_lex,r_sem,r_syn,r_lex,diversity,n")

print()
print("== selecting the operation point ==")
zero_q = full.q_tilde[[o.as_tuple() for o in full.offsets].index((0.0, 0.0, 0.0))]
baseline_sem = zero_q.sem - 10  # pretend an uncontrolled baseline sits 10 points below
print(f"baseline semantic score: {baseline_sem:.2f}")
point = select_operation_point(
    full, SelectionConstraint(baseline_sem=baseline_sem, min_sem_advantage=5.0)
)
print("selected offset:   ", point.offset.as_tuple())
print("expected quality:  ", tuple(round(v, 2) for v in point.expected.as_tuple()))
print("diversity:         ", round(point.diversity, 2), "=",
      f"({point.expected.syn:.2f} + {point.expected.lex:.2f}) / 2")
assert point.diversity == diversity_of(point.expected)
out.unlink()
