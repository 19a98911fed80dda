"""Tour of the classical teleportation bounds.

A measure-and-prepare channel heterodynes each incoming coherent state and
re-prepares a guess. How well can it do on average? That depends entirely on
what the sender is known to send:

  * inputs Gaussian over the whole plane, inverse width lam:
    best classical fidelity = (1 + lam) / (2 + lam)
  * inputs uniform over the whole plane (lam -> 0): bound 1/2
  * inputs uniform over a finite disk: strictly more than 1/2, because the
    finite extent itself is usable prior information.

The third line is the punchline: a bench experiment necessarily uses a
finite input region, so beating 1/2 on such data is not by itself proof of
entanglement.

Run:  python3 demos/classical_bounds_tour.py
"""

from telebound import (
    UniformDisk,
    classical_bound_estimate,
    fidelity_kernel,
    gaussian_bound,
    optimize_gain,
)

print("=" * 72)
print("The overlap kernel")
print("=" * 72)
for a, b in [(0j, 0j), (1 + 0j, 0j), (2 + 1j, 2 - 1j)]:
    print(f"  |<{a}|{b}>|^2 = {fidelity_kernel(a, b):.6f}")

print()
print("=" * 72)
print("Whole-plane Gaussian ensembles: bound = (1 + lam) / (2 + lam)")
print("=" * 72)
for lam in (0.0, 0.1, 0.5, 1.0, 2.0, 10.0):
    print(f"  lam = {lam:5.2f}   classical bound = {gaussian_bound(lam):.6f}")
print("  lam -> 0 recovers the uniform-plane threshold 1/2.")

print()
print("=" * 72)
print("Uniform disks: the finite-area thesis")
print("=" * 72)
print("  best gain strategy per disk radius (closed form + grid refinement):")
print(f"  {'radius':>8} {'best gain':>10} {'fidelity':>10} {'above 1/2':>10}")
rows = []
for radius in (0.5, 1.0, 2.0, 3.0, 5.0, 10.0):
    rep = optimize_gain(UniformDisk(radius))
    rows.append((radius, rep.best_strategy.g, rep.best_value))
    print(f"  {radius:8.1f} {rep.best_strategy.g:10.4f} {rep.best_value:10.4f} "
          f"{rep.best_value - 0.5:+10.4f}")
print("  The bound decreases toward 1/2 as the disk grows, but never reaches it.")

print()
print("  Gain 1 (re-prepare the raw outcome) scores exactly 1/2 for ANY input")
print("  ensemble; this is the floor every strategy above clears:")
for radius in (1.0, 3.0):
    from telebound import disk_gain_fidelity
    print(f"    radius {radius:3.1f}: gain-1 fidelity = {disk_gain_fidelity(radius, 1.0):.6f}")

print()
print("=" * 72)
print("Widening the family: tabulated radial guess curves")
print("=" * 72)
print("  Gains are not optimal on disks. Optimizing the guess radius outcome")
print("  by outcome (8-node curve) tightens the classical bound estimate:")
print(f"  {'radius':>8} {'gain only':>10} {'with curve':>11}")
for radius in (1.0, 2.0, 3.0):
    gain_val = optimize_gain(UniformDisk(radius)).best_value
    est = classical_bound_estimate(UniformDisk(radius))
    print(f"  {radius:8.1f} {gain_val:10.4f} {est.value:11.4f}")

print()
print("=" * 72)
print("What this means for a 0.58 benchmark figure")
print("=" * 72)
est2 = classical_bound_estimate(UniformDisk(2.0))
print(f"  A classical channel reaches {est2.value:.4f} on a radius-2 disk, so an")
print("  average fidelity of 0.58 measured over such a region is reachable")
print("  without any entanglement. The uniform-plane gap that a bench test")
print("  would need to certify is the distance to the finite-area optimum,")
print(f"  here {est2.value:.4f} - 0.5 = {est2.value - 0.5:.4f}, not 0.")
print("  Certification must instead reweight the data; see")
print("  demos/certification_walkthrough.py.")
