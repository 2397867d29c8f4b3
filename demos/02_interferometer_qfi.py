"""Quantum Fisher information of the pumped-up interferometer.

Builds the full pipeline, compares the QFI from the exact strain tangent
against the closed forms, and sweeps the tritter angle to expose the interior
optimum where the pump population boosts the information by orders of
magnitude.
"""

import numpy as np

from pumpedsu11 import (ChannelSpec, InterferometerConfig, optimal_phases,
                        optimal_tritter_angle, qfi_closed_form, qfi_numeric)

nbar, r = 1e6, 2.0
n_side = 2.0 * np.sinh(r) ** 2
squeeze_phase, tritter_phase = optimal_phases("squeezing", 0.0, 0.0)


def config(theta, kind="squeezing"):
    sq, tp = optimal_phases(kind, 0.0, 0.0)
    return InterferometerConfig(nbar=nbar, r=r, theta=theta,
                                channel=ChannelSpec(kind, 1.0, 0.0),
                                squeeze_phase=sq, tritter_phase=tp)


print("=== numeric vs closed form ===")
for theta in (0.0, 0.3, 0.79, 1.4):
    cfg = config(theta)
    print(f"theta = {theta:4.2f}:  H_numeric = {qfi_numeric(cfg):.6e}   "
          f"H_closed = {qfi_closed_form(cfg):.6e}")

print("\n=== the tritter opens up the pump reservoir ===")
bare = qfi_closed_form(config(0.0))
theta_t = optimal_tritter_angle(nbar, n_side)
best = qfi_closed_form(config(theta_t))
print(f"bare interferometer (theta = 0):  H = {bare:.4e}")
print(f"optimal tritter angle theta_t = {theta_t:.4f}")
print(f"pumped-up at theta_t:             H = {best:.4e}  ({best / bare:.0f}x)")

print("\n=== sweep of the tritter angle ===")
print(" theta      H(theta)")
for theta in np.linspace(0.0, np.pi / 2, 16):
    print(f" {theta:6.3f}   {qfi_closed_form(config(float(theta))):.4e}")

print("\n=== named asymptotic regimes at their operating points ===")
cfg = config(0.1)
for regime in ("pumped", "pumped_limit"):
    print(f"{regime:13s}: {qfi_closed_form(cfg, regime):.6e}   "
          f"(exact {qfi_closed_form(cfg):.6e})")
cfg = config(theta_t)
for regime in ("turning_point", "turning_point_limit"):
    print(f"{regime:13s}: {qfi_closed_form(cfg, regime):.6e}   "
          f"(exact {qfi_closed_form(cfg):.6e})")

print("\n=== mode-mixing channel ===")
for theta in (0.0, 0.5, theta_t):
    cfg = config(theta, kind="mode_mixing")
    print(f"theta = {theta:5.3f}:  H = {qfi_closed_form(cfg):.6e}")
