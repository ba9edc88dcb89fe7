import numpy as np

from riskchoice import GeneratorConfig, generate_dataset
from riskchoice.scenario import write_dataset_csv, read_dataset_csv

# draw a synthetic choice set: sure payoff vs a risky prospect, framed as
# gain or loss, with the decision sampled from a logistic latent index; the
# dataset comes back as columns, one array entry per scenario
cfg = GeneratorConfig(n=2000, seed=42)
arrays = generate_dataset(cfg)

print(f"generated {len(arrays)} scenarios with seed {cfg.seed}")
print("true coefficients:", cfg.true_coeffs)

print("\nfirst five rows (safe, risky, p, frame, choice):")
for i in range(5):
    print(
        f"  {arrays.safe[i]:8.3f} {arrays.risky[i]:8.3f} "
        f"{arrays.p[i]:.3f} {arrays.frame[i]:+d} {arrays.choice[i]}"
    )

print(f"\nrisky-choice rate: {arrays.choice.mean():.3f}")
print(f"loss-frame share:  {np.mean(arrays.frame == -1):.3f}")

rate_loss = arrays.choice[arrays.frame == -1].mean()
rate_gain = arrays.choice[arrays.frame == 1].mean()
print(f"P(risky | loss frame) = {rate_loss:.3f}")
print(f"P(risky | gain frame) = {rate_gain:.3f}")

# round-trips through CSV exactly, so a rerun with the same seed is
# byte-identical on disk
write_dataset_csv(arrays, "demo_dataset.csv")
back = read_dataset_csv("demo_dataset.csv")
assert np.array_equal(back.safe, arrays.safe) and np.array_equal(back.choice, arrays.choice)
print("\nwrote demo_dataset.csv and read it back, values exact")
