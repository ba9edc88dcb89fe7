from pathlib import Path

from riskchoice import ExperimentConfig, GeneratorConfig, run_experiment
from riskchoice.pipeline import CptSettings

out = Path("demo_experiment")
cfg = ExperimentConfig(
    generator=GeneratorConfig(n=3000, seed=42),
    cpt=CptSettings(n_restarts=5),
)
doc = run_experiment(cfg, out)  # the document written to report.json

print("wrote:", ", ".join(sorted(p.name for p in out.iterdir())))

print("\n" + (out / "table1.csv").read_text())

refl = doc["reflection"]["p_risky_by_frame"]
print(f"reflection: P(risky | frame=-1) = {refl['-1']:.3f}, "
      f"P(risky | frame=+1) = {refl['1']:.3f}")

# same config in, same bytes out
rerun = Path("demo_experiment_rerun")
run_experiment(cfg, rerun)
same = all(
    (out / name).read_bytes() == (rerun / name).read_bytes()
    for name in doc["manifest"]
)
print(f"rerun byte-identical: {same}")
