#!/usr/bin/env bash
# A CLI round trip with both repair models, through `python -m sparsedoa`:
# dataset and train on 60 rows for one epoch (the hybrid dataset is written
# twice and must match byte for byte: its 60 rows are one full block of 32
# samples and one short block, so rows of an unfilled block buffer would show;
# the hybrid model is trained again without --dataset and must match the one
# trained from the file byte for byte, since a dataset is float32 in memory and
# on disk alike), an 80-item sweep (three blocks) at 1 and 2 workers whose
# results.csv and records.csv must match byte for byte (criterion 8 with the
# stacked covariance layers and the batched network forward in forked workers;
# a record holds no clock time), the spectrum of one trial, whose CSV must hold
# one row per grid angle and a finite, positive value in every method column,
# then eval (one record per method) and simulate. Both trained models must load
# with float32 parameter vectors, and eval must also run with a float64 copy of
# the hybrid model, the dtype of every model file written before float32
# training.
#
# Usage: .github/cli-roundtrip.sh [work-dir]   (default: a new temporary directory)
set -euo pipefail

rt="${1:-$(mktemp -d)}"
mkdir -p "$rt"
cli() { python -m sparsedoa "$@"; }

python -c "import sparsedoa as sd; print(sd.preset('desk', n_train_samples=60, epochs=1, batch_size=16, q_trials=40, test_snrs_db=(0.0, 10.0)).to_json())" > "$rt/rt.json"
cfg=(--config "$rt/rt.json")
models=(--hybrid-model "$rt/model_hybrid.bin" --data-driven-model "$rt/model_data-driven.bin")

for v in hybrid data-driven; do
  cli dataset "${cfg[@]}" --variant "$v" --out "$rt"
  cli train "${cfg[@]}" --variant "$v" --dataset "$rt/dataset_$v.bin" --out "$rt"
done
cli dataset "${cfg[@]}" --variant hybrid --out "$rt/again"
cmp "$rt/dataset_hybrid.bin" "$rt/again/dataset_hybrid.bin"
cli train "${cfg[@]}" --variant hybrid --out "$rt/direct"
cmp "$rt/model_hybrid.bin" "$rt/direct/model_hybrid.bin"
for w in 1 2; do
  cli sweep "${cfg[@]}" --workers "$w" --out "$rt/w$w" --records "${models[@]}"
done
cmp "$rt/w1/results.csv" "$rt/w2/results.csv"
cmp "$rt/w1/records.csv" "$rt/w2/records.csv"

cli spectrum "${cfg[@]}" --out "$rt" "${models[@]}"
cli eval "${cfg[@]}" --out "$rt" "${models[@]}"
python - "$rt" <<'PY'
import dataclasses, sys
import numpy as np
from sparsedoa.neural import load_model, save_model
rt = sys.argv[1]
for v in ("hybrid", "data-driven"):
    model = load_model(f"{rt}/model_{v}.bin")
    assert model.flat.dtype == np.float32, (v, model.flat.dtype)
hybrid = load_model(f"{rt}/model_hybrid.bin")
save_model(dataclasses.replace(hybrid, flat=hybrid.flat.astype(np.float64)),
           f"{rt}/model_hybrid64.bin")
assert load_model(f"{rt}/model_hybrid64.bin").flat.dtype == np.float64
PY
cli eval "${cfg[@]}" --out "$rt/eval64" --hybrid-model "$rt/model_hybrid64.bin" \
  --data-driven-model "$rt/model_data-driven.bin"
test -s "$rt/eval64/records_snr0_trial0.csv"
python - "$rt" <<'PY'
import csv, math, sys
import sparsedoa as sd
rt = sys.argv[1]
cfg = sd.ExperimentConfig.from_json(open(f"{rt}/rt.json").read())
rows = list(csv.reader(open(f"{rt}/spectrum_snr-10.csv")))
assert rows[0] == ["angle_deg", *cfg.estimation_methods], rows[0]
assert len(rows) - 1 == round(180 / cfg.grid_step), len(rows) - 1
bad = [r for r in rows[1:] if not all(0 < float(v) < math.inf for v in r[1:])]
assert not bad, bad[:3]
records = list(csv.DictReader(open(f"{rt}/records_snr0_trial0.csv")))
assert [r["method"] for r in records] == list(cfg.estimation_methods), records
PY
cli simulate "${cfg[@]}" --out "$rt"
echo "CLI round trip passed in $rt"
