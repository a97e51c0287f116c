"""Dilations of the three-sphere and their action on energies."""

import numpy as np
import pytest

from cel import (ConformalDilation, InputError, InversionR4, ParameterError,
                 apply_dilation, apply_inversion, dilate_link, dilate_mesh,
                 g_family, hopf_link, linking_number, make_shape,
                 mobius_energy, perturb_link, project_link,
                 radial_limit_check, willmore_energy)
from cel.energies import _far_pole

TWO_PI_SQ = 2.0 * np.pi ** 2


def random_s3_points(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    return x / np.linalg.norm(x, axis=1)[:, None]


def test_zero_strength_is_identity():
    pts = random_s3_points(64, 0)
    out = apply_dilation(ConformalDilation(np.zeros(4)), pts)
    np.testing.assert_allclose(out, pts, atol=1e-15)


def test_dilation_preserves_the_sphere():
    pts = random_s3_points(256, 1)
    for s in (0.2, 0.5, 0.8):
        v = s * np.array([0.1, -0.7, 0.3, 0.2]) / np.linalg.norm(
            [0.1, -0.7, 0.3, 0.2])
        out = apply_dilation(ConformalDilation(v), pts)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0,
                                   atol=1e-12)


def test_dilation_strength_guard():
    with pytest.raises(ParameterError):
        ConformalDilation(np.array([1.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_dilations_are_rejected(clifford16, bad):
    v = np.array([0.1, bad, 0.0, 0.0])
    for build in (ConformalDilation, InversionR4):
        with pytest.raises(ParameterError, match="finite"):
            build(v)
    with pytest.raises(ParameterError):
        dilate_mesh(clifford16, np.full(4, bad))


def test_energy_drift_under_dilation(clifford32):
    base = willmore_energy(clifford32, error_estimate=False).value
    v = 0.3 * np.array([0.0, 1.0, 0.0, 0.0])
    moved = willmore_energy(dilate_mesh(clifford32, v),
                            error_estimate=False).value
    assert abs(moved - base) / base < 0.02


@pytest.mark.parametrize("strength", [0.1, 0.3, 0.5])
def test_link_oracles_are_dilation_invariant(strength):
    # the cross energy is conformally invariant and a dilation is isotopic
    # to the identity; projecting every image from one pole keeps the
    # chart's orientation, so the signed linking number must not move
    link = perturb_link(hopf_link(256), 0.05, seed=1)
    pole = _far_pole(link)
    base = mobius_energy(link).value
    lk = linking_number(project_link(link, pole)).value
    for d in ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
              [0.5, 0.5, 0.5, 0.5], [0.0, 0.6, 0.0, 0.8]):
        moved = dilate_link(link, strength * np.array(d))
        assert abs(mobius_energy(moved).value - base) <= 1e-6 * base
        assert linking_number(project_link(moved, pole)).value == lk


def test_dilated_link_stays_on_sphere(hopf128):
    v = 0.4 * np.array([0.5, 0.5, 0.5, 0.5])
    out = dilate_link(hopf128, v)
    assert out.on_sphere()


def test_family_area_peaks_at_the_fibration(hopf128):
    # chord-torus area equals the cross energy only at the untransformed
    # fibration; every other family member loses area
    energy = mobius_energy(hopf128).value
    at_origin = g_family(hopf128, np.zeros(4), 1.0).area()
    assert at_origin == pytest.approx(energy, rel=2e-3)
    for s, lam in ((0.2, 1.0), (0.4, 0.5), (0.3, 2.0)):
        v = s * np.array([1.0, 0.0, 0.0, 0.0])
        area = g_family(hopf128, v, lam).area()
        assert area < at_origin
        assert area <= energy * 1.01


def test_family_guards(hopf128):
    with pytest.raises(ParameterError):
        g_family(hopf128, np.zeros(4), -1.0)


def test_inversion_round_trip():
    # the map sends x to (x - v)/|x - v|^2, so inverting the image about
    # the origin recovers the shifted input
    pts = random_s3_points(64, 2) * 1.7
    v = np.array([0.2, 0.1, -0.3, 0.4])
    out = apply_inversion(InversionR4(v), pts)
    back = out / np.sum(out ** 2, axis=1)[:, None]
    np.testing.assert_allclose(back, pts - v, atol=1e-12)


def test_radial_limit_decay(clifford16):
    rep = radial_limit_check(clifford16, vertex=0)
    assert rep.distances[0] > rep.distances[-1]


def test_radial_limit_fixed_great_sphere(great_sphere16):
    # the great sphere is its own blow-up limit at every strength
    rep = radial_limit_check(great_sphere16, vertex=0)
    assert max(rep.distances) < 1e-6


def test_radial_limit_guards(sphere16, clifford16):
    with pytest.raises(InputError):
        radial_limit_check(sphere16, vertex=0)
    with pytest.raises(InputError):
        radial_limit_check(clifford16, vertex=10 ** 6)
