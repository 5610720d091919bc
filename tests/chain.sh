#!/usr/bin/env bash
# The seven-command chain, split -> score -> train-qp -> grid -> select ->
# generate -> eval, one qcpg-kit process per command; each must exit 0.
#
#     bash tests/chain.sh WORKDIR
#
# Runs the `python` and `qcpg-kit` found on PATH, and leaves corpus.jsonl,
# splits/, scored.tsv, qp.json, heatmap.csv, op.json, generated.tsv and
# report.tsv in WORKDIR.
set -euo pipefail
work=${1:?usage: chain.sh WORKDIR}
python -c "import sys, qcpg_kit as q; q.save_clusters(q.paraphrase_corpus(12, 4, seed=0, length_jitter=3), sys.argv[1])" "$work/corpus.jsonl"
qcpg-kit split --clusters "$work/corpus.jsonl" --sizes 30,6,6 --out "$work/splits"
qcpg-kit score --pairs "$work/splits/train.tsv" --out "$work/scored.tsv"
qcpg-kit train-qp --pairs "$work/scored.tsv" --out "$work/qp.json"
qcpg-kit grid --clusters "$work/corpus.jsonl" --model "$work/qp.json" --generator retrieval_oracle \
  --grid 0:25:50 --out "$work/heatmap.csv"
qcpg-kit select --heatmap "$work/heatmap.csv" --baseline-sem 20 --out "$work/op.json"
qcpg-kit generate --clusters "$work/corpus.jsonl" --model "$work/qp.json" --generator retrieval_oracle \
  --operation-point "$work/op.json" --out "$work/generated.tsv"
qcpg-kit eval --system ours="$work/generated.tsv" --out "$work/report.tsv"
test -s "$work/report.tsv"
