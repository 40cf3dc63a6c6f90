"""Run the full injection sweep and read the sensitivity table.

The experiment runner owns the whole pipeline: it fits each model once
on clean training data, then re-evaluates the fixed models while an
increasing fraction of test rows carries additive standard-normal noise.
Sensitivity is the relative percent RMSE change against the clean run.
"""

from pathlib import Path
from tempfile import TemporaryDirectory

from pvfdi.experiment import (
    ExperimentConfig,
    emit_report,
    fraction_label,
    run_noise_sweep,
    sensitivity_label,
)

# Default configuration: eight models, fractions 0% / 10% / 50% / 100%,
# Normal(0, 1) noise added to the feature cells of the selected rows.
cfg = ExperimentConfig(synth_n=4000, seed=42)
report = run_noise_sweep(cfg)

print(f"{'model':6}  " + "  ".join(f"{fraction_label(f):>8}" for f in cfg.fractions))
for name in report.model_order:
    row = report.noise_table[name]
    print(f"{name:6}  " + "  ".join(f"{row[f]:8.4f}" for f in cfg.fractions))

# The 0% column above is the clean benchmark bit-for-bit, so the
# sensitivity table reads directly as robustness: near-zero cells mean
# the model barely notices the corrupted rows.
print(f"\n{'model':6}  " + "  ".join(f"{sensitivity_label(f):>12}" for f in cfg.fractions[1:]))
for name in report.model_order:
    row = report.sensitivity_table[name]
    cells = "  ".join(f"{row[sensitivity_label(f)]:+11.2f}%" for f in cfg.fractions[1:])
    print(f"{name:6}  {cells}")

# Emission writes the same numbers as exact-round-trip CSVs plus a
# provenance block; a rerun of this script reproduces every byte.
with TemporaryDirectory(prefix="pvfdi-demo-") as tmp:
    out_dir = Path(tmp)
    written = emit_report(report, out_dir)
    print(f"\nwrote {len(written)} files under {out_dir}")
    for path in written[:4]:
        print(f"  {path.relative_to(out_dir)}")
    print("  ...")
