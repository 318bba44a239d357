#!/usr/bin/env python3
"""Watch the dynamical residue converge along a shrinking region family.

Two experiments:

1. The linearizable sanity check: for f(z) = 2z and the density built
   from W = 1/z, the residue is log|lambda|^2 = log 4.  We print the
   per-region trace so the Richardson-style extrapolation is visible.

2. The parabolic case: for f(z) = z + z^2 and W = (1 + nu z)/z^2 the
   estimate converges to 2*Re(nu) (see the reference values in
   ratdyn.residue).

Run:  python3 demos/residue_convergence.py          (under a second)
"""

import math

from ratdyn import FormDensity, dynamical_residue, parse_map
from ratdyn.parabolic import tangency_and_residu


def show(title, est, target):
    print(f"\n=== {title}")
    print(f"  {'param':>10}  {'estimate':>14}")
    for p, v in est.parameter_trace:
        print(f"  {p:>10.5f}  {v:>14.8f}")
    print(f"  extrapolated : {est.value:.8f}  +/- {est.error_bar:.1e}")
    print(f"  target       : {target:.8f}"
          f"   (off by {abs(est.value - target):.1e})")
    print(f"  reliable     : {est.reliable}"
          + (f"   notes: {est.notes}" if est.notes else ""))


def main():
    est = dynamical_residue(parse_map("2*z"), FormDensity.parse("1/z"),
                            kind="disc")
    show("f(z) = 2z,  density from W = 1/z", est, math.log(4.0))

    f = parse_map("z + z^2")
    inv = tangency_and_residu(f, 0.0, 1, 1)
    mu = FormDensity.parse(f"(1 + {inv.nu.real}*z)/z^2")
    est = dynamical_residue(f, mu, kind="fatou", inv=inv, budget=2_000_000)
    show("f(z) = z + z^2,  density from W = (1 + nu z)/z^2",
         est, 2 * inv.nu.real)


if __name__ == "__main__":
    main()
