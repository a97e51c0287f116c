"""Sweepout widths on the round sphere and their square-root growth.

Cutting the sphere with the zero sets of p-parameter families of
functions and recording the longest cut gives width estimates; across p
these grow like sqrt(p), mirroring the length budget 2 pi d available to
a degree-d polynomial family.
"""

import numpy as np

from cel import (harmonic_width_series, length_budget_check, make_shape,
                 scaling_fit)


def main():
    mesh = make_shape("sphere", resolution=24)

    print("length budget: sampled sup of degree-d zero sets vs 2 pi d")
    for rep in length_budget_check(mesh, max_degree=5, samples=150):
        frac = rep.sup_length / rep.budget
        print(f"  d={rep.degree}: sup={rep.sup_length:7.3f} "
              f"budget={rep.budget:7.3f} used {100 * frac:5.1f}%")

    print("\nharmonic width series (seed 0):")
    series = harmonic_width_series(mesh, seed=0)
    for est in series:
        print(f"  p={est.p:2d}  width={est.width:7.4f} "
              f" width/sqrt(p)={est.width / np.sqrt(est.p):6.4f}")
    fit = scaling_fit(series)
    print(f"\nlog-log slope {fit.exponent:.4f} (square-root growth is 0.5)")


if __name__ == "__main__":
    main()
