"""Parallel surfaces in the three-sphere and the family-area comparison."""

import numpy as np
import pytest

from cel import (GeometryError, InputError, ParameterError,
                 canonical_family_area, hk_verify, make_shape, parallel_area,
                 parallel_area_curve, willmore_energy)
from cel.fixtures import ellipsoid_s3

TWO_PI_SQ = 2.0 * np.pi ** 2


def test_zero_offset_returns_the_area(clifford16):
    assert parallel_area(clifford16, t=0.0) == pytest.approx(
        clifford16.area(), rel=1e-12)


def test_clifford_parallel_curve_is_cos_2t(clifford32):
    # principal curvatures +-1 make the area element cos(2t), clamped at
    # its zero crossing, so area(t) = area * max(cos 2t, 0)
    t_grid = np.linspace(-np.pi / 2, np.pi / 2, 41)
    curve = parallel_area_curve(clifford32, t_grid=t_grid)
    want = clifford32.area() * np.clip(np.cos(2.0 * t_grid), 0.0, None)
    np.testing.assert_allclose(curve.areas, want, atol=0.12 * clifford32.area())
    assert float(np.max(curve.areas)) == pytest.approx(clifford32.area(),
                                                       rel=2e-2)


def test_geodesic_sphere_family_max_is_energy():
    # sliding a distance sphere through its parallels sweeps a maximal
    # area of 4 pi regardless of the starting radius
    rho = np.pi / 3
    gs = make_shape("geodesic_sphere", resolution=24,
                    center=(1, 0, 0, 0), radius=rho)
    t_grid = np.linspace(-np.pi, np.pi, 129)
    curve = parallel_area_curve(gs, t_grid=t_grid)
    assert float(np.max(curve.areas)) == pytest.approx(4.0 * np.pi, rel=2e-2)


def test_family_area_at_origin(clifford16):
    a = canonical_family_area(clifford16, v=np.zeros(4), t=0.0)
    assert a == pytest.approx(clifford16.area(), rel=1e-9)


def test_hk_verify_clifford(clifford32):
    rep = hk_verify(clifford32)
    assert 0.97 <= rep.ratio <= 1.02
    assert rep.energy == pytest.approx(willmore_energy(clifford32).value)


def test_hk_verify_ellipsoid_stays_below():
    rep = hk_verify(ellipsoid_s3(resolution=24))
    assert rep.ratio <= 1.0


def test_hk_guards(sphere16, clifford16):
    with pytest.raises(InputError):
        hk_verify(sphere16)
    with pytest.raises(ParameterError):
        hk_verify(clifford16, vmax=0.9)


@pytest.mark.parametrize("grids", [{"vsteps": 0}, {"tsteps": 0},
                                   {"vsteps": -1}, {"tsteps": -2},
                                   {"v_grid": []}, {"t_grid": []}])
def test_hk_verify_rejects_empty_grids(clifford16, grids):
    with pytest.raises(ParameterError):
        hk_verify(clifford16, **grids)
