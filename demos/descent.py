"""Gradient descent back to the optimal shapes.

A jittered square torus flows back down to the torus energy level, and a
jittered flat image of the fibration link tightens back toward the round
configuration. Both traces are monotone by construction (Armijo line
search with a collision guard on the link side).
"""

import numpy as np

from cel import make_shape, mobius_descent, willmore_descent
from cel.fixtures import perturb_link, perturb_mesh
from cel.projection import project_link


def show(label, trace, floor):
    print(f"{label} ({trace.status}):")
    for i, e in enumerate(trace.energies):
        print(f"  step {i:2d}: E={e:10.5f}")
    print(f"  floor {floor:.5f} (2 pi^2 = {2 * np.pi ** 2:.5f})\n")


def main():
    torus = perturb_mesh(make_shape("clifford_torus", resolution=16), 0.06,
                         seed=11)
    _, trace = willmore_descent(torus, steps=8)
    show("surface descent, jittered square torus", trace,
         floor=2 * np.pi ** 2 * 0.987)

    hopf = make_shape("hopf_link", resolution=64)
    # the unit pole (1, 1, 1, 1) / 2 is far from both core circles
    flat = perturb_link(project_link(hopf, np.full(4, 0.5)), 0.08, seed=11)
    _, trace = mobius_descent(flat, steps=12)
    show("link descent, jittered flat fibration", trace,
         floor=2 * np.pi ** 2)


if __name__ == "__main__":
    main()
