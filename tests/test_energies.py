"""Bending and cross energies against closed forms, and the linking
integral against a crossing-count oracle that shares no code with it."""

import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from cel import (InputError, ResolutionWarning, TriMesh,
                 energy_linking_bound_check, gauss_area_energy_check,
                 gauss_map_torus, linking_number, make_shape, mobius_energy,
                 willmore_energy)
from cel import energies
from cel.conformal import dilate_link
from cel.energies import _POLE_CANDIDATES, _far_pole, _linking_bound
from cel.fixtures import genus2_surface, perturb_link
from cel.projection import project_link

TWO_PI_SQ = 2.0 * np.pi ** 2


def crossing_count_linking(link, seed=3):
    """Signed crossings of the two planar projections, halved.

    After a seeded generic rotation the last coordinate becomes height.
    Where the projected segments cross transversally, the crossing sign is
    the planar determinant of (strand one, strand two) when strand one is
    the higher one, and its negative otherwise; the linking number is half
    the signed total. Shares nothing with the double-integral route.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    g1 = link.gamma1 @ q
    g2 = link.gamma2 @ q
    d1 = np.roll(g1, -1, axis=0) - g1
    d2 = np.roll(g2, -1, axis=0) - g2
    total = 0.0
    for i in range(len(g1)):
        # g1[i] + t d1[i] = g2 + s d2 in the plane, solved for every j
        cross = d1[i, 0] * d2[:, 1] - d1[i, 1] * d2[:, 0]
        rhs = g2[:, :2] - g1[i, :2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rhs[:, 0] * d2[:, 1] - rhs[:, 1] * d2[:, 0]) / cross
            s = (d1[i, 1] * rhs[:, 0] - d1[i, 0] * rhs[:, 1]) / cross
        hit = (np.abs(cross) > 1e-14) & (t > 0) & (t < 1) & (s > 0) & (s < 1)
        for j in np.nonzero(hit)[0]:
            h1 = g1[i, 2] + t[j] * d1[i, 2]
            h2 = g2[j, 2] + s[j] * d2[j, 2]
            total += np.sign(cross[j]) * np.sign(h1 - h2)
    return int(round(total / 2.0))


def flatten(link):
    return project_link(link, _far_pole(link)) if link.dim == 4 else link


@pytest.mark.parametrize("kind,kw,expected", [
    ("hopf_link", {}, 1),
    # the torus-link generator winds its components so the pair links
    # negatively; both routes must agree on the signed value
    ("torus_link", dict(p=2, q=4), -2),
    ("torus_link", dict(p=2, q=6), -3),
    ("coaxial_circles", dict(separation=5.0), 0),
])
def test_linking_number_matches_crossing_oracle(kind, kw, expected):
    link = flatten(make_shape(kind, resolution=96, **kw))
    assert linking_number(link).value == expected
    assert crossing_count_linking(link) == expected


def test_linking_survives_perturbation():
    base = flatten(make_shape("hopf_link", resolution=96))
    for seed in range(4):
        pert = perturb_link(base, 0.05, seed=seed)
        assert linking_number(pert).value == 1
        assert crossing_count_linking(pert) == 1


def test_linking_number_needs_r3():
    with pytest.raises(InputError):
        linking_number(make_shape("hopf_link", resolution=32))


def test_willmore_closed_forms(sphere16, clifford16):
    assert willmore_energy(sphere16).value == pytest.approx(
        4.0 * np.pi, rel=1.5e-2)
    assert willmore_energy(clifford16).value == pytest.approx(
        TWO_PI_SQ, rel=2e-2)
    # the inner ring of the sqrt(2) tube converges slowly; the tight check
    # runs at resolution 96 in the acceptance suite
    tube = make_shape("tube_torus", resolution=48,
                      big_radius=np.sqrt(2.0), tube_radius=1.0)
    assert willmore_energy(tube).value == pytest.approx(TWO_PI_SQ, rel=4e-2)


@pytest.mark.parametrize("name", ["sphere", "tube", "ellipsoid", "genus2"])
def test_bending_energy_is_similarity_invariant(name):
    # the quadric fit is equivariant under rigid motions and scaling, and
    # the bending energy is scale free, so only round-off may move it
    mesh = {"sphere": lambda: make_shape("sphere", resolution=8),
            "tube": lambda: make_shape("tube_torus", resolution=12),
            "ellipsoid": lambda: make_shape("ellipsoid", resolution=12,
                                            a=1.0, b=0.8, c=0.6),
            "genus2": lambda: genus2_surface(resolution=16)}[name]()
    base = willmore_energy(mesh, error_estimate=False).value

    @settings(deadline=None, max_examples=20)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
               lambda q: np.linalg.norm(q) > 0.1),
           st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           st.floats(-3.0, 3.0))
    def inner(quat, shift, log_scale):
        w, x, y, z = np.array(quat) / np.linalg.norm(quat)
        rot = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
        moved = TriMesh(np.exp(log_scale) * mesh.vertices @ rot.T
                        + np.array(shift), mesh.faces)
        got = willmore_energy(moved, error_estimate=False).value
        assert abs(got - base) <= 1e-12 * base

    inner()


def test_geodesic_spheres_share_one_energy():
    # every distance sphere balances area against curvature to 4 pi
    for rho in (np.pi / 6, np.pi / 2):
        gs = make_shape("geodesic_sphere", resolution=16,
                        center=(0, 1, 0, 0), radius=rho)
        assert willmore_energy(gs).value == pytest.approx(4.0 * np.pi, rel=1e-2)


def test_error_estimate_tracks_actual(clifford16):
    rep = willmore_energy(clifford16)
    actual = abs(rep.value - TWO_PI_SQ) / TWO_PI_SQ
    assert rep.error == pytest.approx(actual, rel=0.5)


def test_mobius_energy_hopf(hopf128):
    rep = mobius_energy(hopf128)
    assert rep.value == pytest.approx(TWO_PI_SQ, rel=1.5e-3)
    assert rep.error is not None and rep.error < 5e-3


def test_mobius_warns_when_components_graze():
    link = make_shape("coaxial_circles", separation=0.05, resolution=16)
    with pytest.warns(ResolutionWarning):
        mobius_energy(link)


def test_bound_margins():
    hopf = make_shape("hopf_link", resolution=128)
    rep = energy_linking_bound_check(hopf)
    assert rep.bound == pytest.approx(4.0 * np.pi)
    assert rep.margin == pytest.approx(TWO_PI_SQ - 4.0 * np.pi, rel=1e-2)
    far = make_shape("coaxial_circles", separation=8.0, resolution=64)
    rep = energy_linking_bound_check(far)
    assert rep.bound == 0.0 and rep.energy > 0.0


@pytest.mark.parametrize("resolution,amplitude,seed",
                         [(64, 0.0, 0), (256, 0.03, 0), (256, 0.1, 3)])
def test_r4_linking_number_does_not_depend_on_the_pole(resolution, amplitude,
                                                        seed, monkeypatch):
    # stereographic charts from different poles can reverse orientation;
    # the reported value is in S^3's own orientation, so every candidate
    # pole that clears the link must give the fibration's +1
    link = make_shape("hopf_link", resolution=resolution)
    if amplitude:
        link = perturb_link(link, amplitude, seed=seed)
    rep = mobius_energy(link)
    pts = np.vstack([link.gamma1, link.gamma2])
    clear = [pole for pole in _POLE_CANDIDATES
             if np.linalg.norm(pts - pole, axis=1).min() >= 1e-3]
    assert len(clear) >= 16
    for pole in clear:
        monkeypatch.setattr(energies, "_far_pole", lambda _, p=pole: p)
        assert _linking_bound(link, rep)[0].value == 1, pole


def test_r4_linking_number_survives_dilations():
    # a dilation is isotopic to the identity, yet it moves the far pole to
    # charts of either orientation
    link = perturb_link(make_shape("hopf_link", resolution=256), 0.1, seed=3)
    for strength in (0.1, 0.3, 0.5):
        for axis in np.eye(4):
            moved = dilate_link(link, strength * axis)
            assert _linking_bound(moved, mobius_energy(moved))[0].value == 1


def test_gauss_map_flatness(hopf128):
    gm = gauss_map_torus(hopf128)
    dev = np.abs(gm.vertices[:, 0] ** 2 + gm.vertices[:, 1] ** 2 - 0.5)
    assert float(dev.max()) < 1e-12
    rep = gauss_area_energy_check(hopf128, tol=0.02)
    assert rep.ratio == pytest.approx(1.0, abs=2e-3)


def test_gauss_map_needs_r4():
    flat = flatten(make_shape("hopf_link", resolution=32))
    with pytest.raises(InputError):
        gauss_map_torus(flat)


def test_gauss_ratio_below_one_off_the_optimum(hopf128):
    # any move away from the standard fibration costs energy faster than
    # the chord-direction torus gains area
    pert = perturb_link(hopf128, 0.08, seed=5)
    rep = gauss_area_energy_check(pert, tol=0.02)
    assert rep.ratio < 1.0
