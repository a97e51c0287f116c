"""Parallel surfaces in the three-sphere and the family-area comparison."""

import pickle

import numpy as np
import pytest

import cel
from cel import (GeometryError, InputError, ParameterError,
                 canonical_family_curve, estimate_curvatures, hk_verify,
                 make_shape, parallel_area_curve, willmore_energy)
from cel._accum import stable_sum, unit_directions
from cel.fixtures import ellipsoid_s3

TWO_PI_SQ = 2.0 * np.pi ** 2


def test_zero_offset_returns_the_area(clifford16):
    area = parallel_area_curve(clifford16, t_grid=[0.0]).areas[0]
    assert area == pytest.approx(clifford16.area(), rel=1e-12)


def test_clifford_parallel_curve_is_cos_2t(clifford32):
    # principal curvatures +-1 make the area element cos(2t), clamped at
    # its zero crossing, so area(t) = area * max(cos 2t, 0)
    t_grid = np.linspace(-np.pi / 2, np.pi / 2, 41)
    curve = parallel_area_curve(clifford32, t_grid=t_grid)
    want = clifford32.area() * np.clip(np.cos(2.0 * t_grid), 0.0, None)
    np.testing.assert_allclose(curve.areas, want, atol=0.12 * clifford32.area())
    assert float(np.max(curve.areas)) == pytest.approx(clifford32.area(),
                                                       rel=2e-2)


def _scalar_t_area(field, t):
    """Parallel area at one scalar time, the clamped Jacobian written out."""
    k1, k2 = field.k1, field.k2
    jac = (np.cos(t) - k1 * np.sin(t)) * (np.cos(t) - k2 * np.sin(t))
    first_pos = np.minimum(np.arctan2(1.0, k1), np.arctan2(1.0, k2))
    first_neg = np.maximum(np.arctan2(1.0, k1), np.arctan2(1.0, k2)) - np.pi
    return stable_sum(np.where((t > first_neg) & (t < first_pos), jac, 0.0)
                      * field.weight)


@pytest.mark.parametrize("build", [
    lambda: make_shape("clifford_torus", resolution=16),
    lambda: make_shape("geodesic_sphere", resolution=16,
                       center=(1, 0, 0, 0), radius=np.pi / 3),
    lambda: ellipsoid_s3(resolution=16),
], ids=["clifford", "geo_sphere", "ellipsoid"])
def test_parallel_area_curve_is_the_pointwise_area_bit_for_bit(build, monkeypatch):
    # a (rows, V) block must round like a scalar time, whatever path the
    # array cos and sin loops take: one block, blocks of 5 rows with a
    # partial last one, and one row per block
    mesh = build()
    field = estimate_curvatures(mesh)
    grid = np.linspace(-np.pi, np.pi, 33)
    want = [_scalar_t_area(field, float(t)) for t in grid]
    for entries in (cel.canonical._AREA_ENTRIES, 5 * mesh.vertex_count, 1):
        monkeypatch.setattr(cel.canonical, "_AREA_ENTRIES", entries)
        areas = parallel_area_curve(mesh, field, grid).areas
        assert areas.tolist() == want, entries
    for t, area in zip(grid, areas):
        assert area == parallel_area_curve(mesh, field, [t]).areas[0], t


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
    curve = canonical_family_curve(clifford16, v=np.zeros(4), t_grid=[0.0])
    a = curve.areas[0]
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


@pytest.mark.parametrize("t", [np.nan, np.inf, -4.0])
def test_parallel_area_rejects_times_outside_the_range(clifford16, t):
    with pytest.raises(ParameterError):
        parallel_area_curve(clifford16, t_grid=[t])


@pytest.mark.parametrize("t_grid", [[], [0.0, np.nan], [np.inf], [-4.0, 0.0]])
def test_parallel_area_curve_rejects_bad_grids(clifford16, t_grid):
    with pytest.raises(ParameterError):
        parallel_area_curve(clifford16, t_grid=t_grid)


@pytest.mark.parametrize("grids", [{"vsteps": 0}, {"tsteps": 0},
                                   {"vsteps": -1}, {"tsteps": -2}])
def test_hk_verify_rejects_empty_grids(clifford16, grids):
    with pytest.raises(ParameterError):
        hk_verify(clifford16, **grids)


@pytest.mark.parametrize("vsteps", [1, 2, 3])
def test_hk_verify_evaluates_v_zero_once(clifford16, vsteps, monkeypatch):
    # v = 0 is one family member in every direction; each nonzero strength
    # is evaluated in all vsteps directions, each on its own dilated image
    curves, dilations = [], []
    curve, dilate = cel.canonical.parallel_area_curve, cel.canonical.dilate_mesh

    def counted_curve(mesh, field, t_grid):
        curves.append(mesh)
        return curve(mesh, field, t_grid)

    def counted_dilate(mesh, v):
        dilations.append(np.array(v))
        return dilate(mesh, v)

    monkeypatch.setattr(cel.canonical, "parallel_area_curve", counted_curve)
    monkeypatch.setattr(cel.canonical, "dilate_mesh", counted_dilate)
    hk_verify(clifford16, vmax=0.3, vsteps=vsteps, tsteps=5)
    assert len(curves) == 1 + vsteps * (vsteps - 1)
    assert len(dilations) == vsteps * (vsteps - 1)
    assert curves[0] is clifford16 and all(m is not clifford16 for m in curves[1:])
    assert all(np.any(v) for v in dilations)


def _hk_reference(mesh, vmax=0.5, vsteps=5, tsteps=33):
    """hk_verify's report from canonical_family_curve and willmore_energy,
    each member fitted on its own."""
    dirs = unit_directions(vsteps, 4, seed=0)
    v_grid = [0.0 * dirs[0]] + [s * d for s in np.linspace(0.0, vmax, vsteps)
                                if s > 0.0 for d in dirs]
    t_grid = np.linspace(-np.pi, np.pi, tsteps)
    energy = willmore_energy(mesh)
    best = (-np.inf, None, None)
    for v in v_grid:
        curve = cel.canonical_family_curve(mesh, v, t_grid)
        i = int(np.argmax(curve.areas))
        if curve.areas[i] > best[0]:
            best = (float(curve.areas[i]), v, float(t_grid[i]))
    return cel.canonical.HKReport(max_area=best[0], energy=energy.value,
                                  ratio=best[0] / energy.value,
                                  v_at_max=best[1], t_at_max=best[2])


@pytest.mark.parametrize("build", [
    lambda: make_shape("clifford_torus", resolution=16),
    lambda: make_shape("geodesic_sphere", resolution=16, center=(1, 0, 0, 0),
                       radius=np.pi / 3),
    lambda: ellipsoid_s3(resolution=16),
], ids=["clifford", "geo_sphere", "ellipsoid"])
def test_hk_verify_equals_its_per_member_path_bit_for_bit(build):
    mesh = build()
    assert pickle.dumps(hk_verify(mesh)) == pickle.dumps(_hk_reference(mesh))
