"""Cross energy, linking numbers, and the chord-direction torus.

The cross energy of a two-component link is bounded below by 4 pi times
the absolute linking number. The standard fibration link meets the bound
ratio 2 pi^2 / 4 pi and is the only configuration whose chord-direction
torus carries the full energy as area.
"""

import numpy as np

from cel import (energy_linking_bound_check, gauss_area_energy_check,
                 gauss_map_torus, linking_number, make_shape, mobius_energy)
from cel.fixtures import perturb_link


def describe(label, link):
    rep = mobius_energy(link)
    lk = linking_number(link)
    bound = energy_linking_bound_check(link)
    print(f"{label:>24}  E={rep.value:9.4f}  lk={lk.value:+d}  "
          f"4pi|lk|={bound.bound:8.4f}  margin={bound.margin:8.4f}")


def main():
    hopf = make_shape("hopf_link", resolution=192)
    describe("fibration link", hopf)
    describe("(2,4) torus link", make_shape("torus_link", resolution=192,
                                            p=2, q=4))
    describe("far circles", make_shape("coaxial_circles", resolution=96,
                                       separation=6.0))
    describe("perturbed fibration", perturb_link(hopf, 0.05, seed=1))

    print("\nchord-direction torus of the fibration link:")
    gm = gauss_map_torus(hopf)
    dev = np.abs(gm.vertices[:, 0] ** 2 + gm.vertices[:, 1] ** 2 - 0.5).max()
    rep = gauss_area_energy_check(hopf)
    print(f"  distance from the square flat torus: {dev:.2e}")
    print(f"  area {rep.area:.4f} vs energy {rep.energy:.4f} "
          f"(ratio {rep.ratio:.6f})")


if __name__ == "__main__":
    main()
