"""Tropical integrals against genuine two-dimensional annulus integrals.

The correspondence sends a coefficient f on the line to the rotation-
invariant form (i/4pi) f(log|z|) dz^dzbar/|z|^2 on the punctured plane;
its integral over e^a < |z| < e^b equals the tropical integral of f over
(a, b).  The annulus side below is computed as an honest polar double
integral (64 angular nodes times graded radial panels), so the agreement
is a real cross-check of the normalization constants.
"""

import math

from trophodge.superform import EdgeFunction
from trophodge.theta import AnnulusDomain, annulus_integral, compare_tropical_complex

line = (-math.inf, math.inf)

cases = [
    ("f = 1 on (0,1)", "1", (0.0, 1.0)),
    ("f = x^2 on (0,1)", "x^2", (0.0, 1.0)),
    ("Fubini-Study on the unit disk", "2*exp(2*x)/(1+exp(2*x))^2", (-math.inf, 0.0)),
    ("Fubini-Study on the whole line", "2*exp(2*x)/(1+exp(2*x))^2", (-math.inf, math.inf)),
]

print(f"{'case':34s} {'tropical':>12s} {'annulus':>12s} {'residual':>10s}")
for name, source, interval in cases:
    fn = EdgeFunction.from_expression(source, domain=line)
    result = compare_tropical_complex(fn, interval)
    print(f"{name:34s} {result['tropical']:12.8f} {result['annulus']:12.8f} {result['residual']:10.2e}")

# one direct annulus integral: the Fubini-Study mass of the unit disk
fs = EdgeFunction.from_expression("2*exp(2*x)/(1+exp(2*x))^2", domain=line)
print("\nFubini-Study mass of the unit punctured disk:",
      annulus_integral(fs, AnnulusDomain(-math.inf, 0.0)), "(expect 1/2)")
