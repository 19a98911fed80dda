"""End-to-end non-classicality certification.

Finite-area data cannot be compared against the uniform-plane bound 1/2.
The sound procedure instead:

  1. takes the sampled area (radius R, from the data or asserted),
  2. picks the Gaussian inverse width lam with tail exp(-lam R^2) = epsilon,
  3. reweights each record by exp(-lam |beta|^2),
  4. compares the weighted average against (1 + lam) / (2 + lam),
     requiring the bootstrap CI lower bound to clear it.

This script certifies synthetic benchmark data, shows that a purely
classical channel is never certified at sound epsilon, and demonstrates why
epsilon must be small.

Run:  python3 demos/certification_walkthrough.py
"""

from telebound import (
    Constant,
    SimulatedGain,
    UniformDisk,
    generate_dataset,
    optimize_gain,
    truncated_gain_fidelity,
    verdict,
)

print("=" * 72)
print("Scenario: a 0.58 average-fidelity benchmark, sampled on disks")
print("=" * 72)
print("  The same measured value certifies or not depending on how much of")
print("  the plane the inputs covered (epsilon = 0.01 throughout):")
print(f"  {'radius':>8} {'lambda':>9} {'bound':>9} {'weighted F':>11} {'verdict':>14}")
for radius in (1.0, 3.0, 5.0):
    ds = generate_dataset(radius, 5_000, Constant(0.58), seed=17)
    rep = verdict(ds, epsilon=0.01, resamples=300, seed=1, radius=radius)
    print(f"  {radius:8.1f} {rep.lam:9.4f} {rep.classical_bound:9.4f} "
          f"{rep.weighted_fidelity:11.4f} {rep.verdict:>14}")
print("  Small sampled areas force a wide Gaussian surrogate (large lam) whose")
print("  classical bound exceeds 0.58; only the radius-5 region certifies.")

print()
print("=" * 72)
print("Honesty: classical channels must never be certified")
print("=" * 72)
print("  Simulate the best classical gain for each disk, then try to certify:")
for radius in (1.0, 2.0, 3.0):
    g = optimize_gain(UniformDisk(radius)).best_strategy.g
    ds = generate_dataset(radius, 20_000, SimulatedGain(g), seed=42)
    rep = verdict(ds, epsilon=0.01, resamples=300, seed=2)
    print(f"  disk R={radius:3.1f}, gain {g:.3f}: weighted F = {rep.weighted_fidelity:.4f} "
          f"vs bound {rep.classical_bound:.4f}  -> {rep.verdict}")

print()
print("=" * 72)
print("Why epsilon must be small")
print("=" * 72)
print("  The weighted mean estimates the truncated-Gaussian average, which a")
print("  classical strategy can push above the whole-plane bound by a margin")
print("  on the order of epsilon. Classical reach vs bound at R = 2:")
g2 = optimize_gain(UniformDisk(2.0)).best_strategy.g
ds2 = generate_dataset(2.0, 30_000, SimulatedGain(g2), seed=7)
for eps in (0.1, 0.01, 0.001):
    rep = verdict(ds2, epsilon=eps, resamples=300, seed=3)
    reach = truncated_gain_fidelity(rep.lam, 2.0, g2)
    flag = "FALSE POSITIVE" if rep.verdict == "NONCLASSICAL" else "ok"
    print(f"  epsilon={eps:<6} bound={rep.classical_bound:.4f} classical reach={reach:.4f} "
          f"-> {rep.verdict:<13} {flag}")
print("  At epsilon = 0.1 the tail is not 'almost 0' and the procedure breaks.")
print("  Smaller epsilon narrows the gap but does not close it: with 1e6 records")
print("  a classical gain-0.458 channel on R = 2 is certified even at 0.01.")

print()
print("=" * 72)
print("The same walkthrough via the command line")
print("=" * 72)
print("  telebound generate --radius 5 -n 5000 --model const:0.58 --seed 17 -o bench.csv")
print("  telebound analyze bench.csv --epsilon 0.01 --radius 5 --bootstrap 1000 --seed 1")
