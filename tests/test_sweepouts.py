"""Level sets, sweepout families, and width estimates on the sphere."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cel import (InputError, ParameterError, clifford_torus,
                 eigenfunction_width_series, harmonic_width_series,
                 length_budget_check, level_set_length, polynomial_sup_length,
                 real_harmonic_basis, scaling_fit, sublevel_boundary,
                 lumped_mass)
from cel.sweepouts import WidthEstimate


def test_equator_cut_length(sphere16):
    # the plane z = h meets the unit sphere in a circle of radius
    # sqrt(1 - h^2); inscribed chords undershoot slightly
    for h in (0.0, 0.5, -0.8):
        got = level_set_length(sphere16, sphere16.vertices[:, 2], level=h)
        want = 2.0 * np.pi * np.sqrt(1.0 - h * h)
        assert want * 0.98 < got <= want * 1.0001


def test_empty_level_set(sphere16):
    assert level_set_length(sphere16, sphere16.vertices[:, 2], 2.0) == 0.0


def test_empty_sublevel_boundary(sphere16):
    cycles = sublevel_boundary(sphere16, sphere16.vertices[:, 2], 2.0)
    assert cycles.loops == [] and cycles.total_length == 0.0


def test_field_length_guard(sphere16):
    with pytest.raises(InputError):
        level_set_length(sphere16, np.ones(7))


@pytest.mark.parametrize("fn", [level_set_length, sublevel_boundary])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_level_set_rejects_non_finite_input(sphere16, fn, bad):
    values = sphere16.vertices[:, 2].copy()
    values[5] = bad
    with pytest.raises(InputError, match="finite"):
        fn(sphere16, values, 0.1)
    with pytest.raises(ParameterError, match="finite"):
        fn(sphere16, sphere16.vertices[:, 2], bad)


@pytest.mark.parametrize("samples", [0, -3])
def test_polynomial_sup_needs_a_sample(sphere16, samples):
    with pytest.raises(ParameterError, match="samples"):
        polynomial_sup_length(sphere16, 2, samples=samples)


def test_torus_band_boundary():
    torus = clifford_torus(resolution=24)
    # cos of the first circle angle cuts the torus in two fixed-angle
    # circles, each of circumference 2 pi / sqrt(2)
    angle = np.arctan2(torus.vertices[:, 1], torus.vertices[:, 0])
    cycles = sublevel_boundary(torus, np.cos(angle), level=0.0)
    assert len(cycles.loops) == 2
    want = 2.0 * 2.0 * np.pi / np.sqrt(2.0)
    assert cycles.total_length == pytest.approx(want, rel=5e-3)
    for loop in cycles.loops:
        assert loop.shape[1] == 4


def test_cut_length_is_scale_free_data():
    mesh = clifford_torus(resolution=12)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(mesh.vertex_count)
    base = level_set_length(mesh, values, 0.3)

    @settings(deadline=None, max_examples=40)
    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def inner(c):
        assert level_set_length(mesh, c * values, c * 0.3) == pytest.approx(
            base, rel=1e-9)

    inner()


def test_harmonic_basis_is_orthonormal(sphere16):
    basis = real_harmonic_basis(sphere16.vertices, degree=3)
    assert basis.shape == (sphere16.vertex_count, 16)
    weights = lumped_mass(sphere16).diagonal()
    gram = basis.T @ (weights[:, None] * basis)
    np.testing.assert_allclose(gram, np.eye(16), atol=3e-3)


def test_harmonic_basis_rejects_off_sphere():
    with pytest.raises(InputError):
        real_harmonic_basis(np.array([[0.5, 0.0, 0.0]]), degree=2)


def test_width_series_shapes(sphere16):
    series = harmonic_width_series(sphere16, lengths=(2, 4, 9), seed=0)
    assert [e.p for e in series] == [1, 3, 8]
    widths = [e.width for e in series]
    # nested families can only push the sampled sup upward
    assert widths == sorted(widths)
    assert all(w > 0 for w in widths)


def test_width_ratio_band(sphere16):
    # ratio of the 9-parameter width to the 1-parameter width, pinned by
    # repeated seeded runs of this estimator
    for seed in (0, 7):
        series = harmonic_width_series(sphere16, lengths=(2, 10), seed=seed)
        ratio = series[1].width / series[0].width
        assert 2.1 <= ratio <= 2.6, (seed, ratio)


def test_eigen_width_series():
    torus = clifford_torus(resolution=16)
    series = eigenfunction_width_series(torus, lengths=(2, 5, 9), seed=1)
    widths = [e.width for e in series]
    assert widths == sorted(widths) and widths[0] > 0


def test_scaling_fit_guards():
    fake = [WidthEstimate(p=p, width=np.sqrt(p), samples=1)
            for p in range(1, 11)]
    fit = scaling_fit(fake)
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(Exception):
        scaling_fit(fake[:5])


def test_polynomial_sup_respects_budget(sphere16):
    for degree in (1, 2, 4):
        rep = polynomial_sup_length(sphere16, degree, samples=100)
        assert rep.sup_length <= rep.budget
        assert rep.budget == pytest.approx(2.0 * np.pi * degree)
    # degree one families max out at great circles
    rep = polynomial_sup_length(sphere16, 1, samples=200)
    assert rep.sup_length >= 0.95 * 2.0 * np.pi


def test_length_budget_check(sphere16):
    reports = length_budget_check(sphere16, max_degree=4, samples=100)
    assert [r.degree for r in reports] == [1, 2, 3, 4]
    assert all(r.sup_length <= r.budget * 1.02 for r in reports)


def test_width_needs_unit_sphere(clifford16):
    with pytest.raises(InputError):
        harmonic_width_series(clifford16, lengths=(2, 4), seed=0)


def test_width_series_need_at_least_one_family(sphere16, clifford16):
    with pytest.raises(ParameterError, match="empty"):
        harmonic_width_series(sphere16, lengths=())
    with pytest.raises(ParameterError, match="empty"):
        eigenfunction_width_series(clifford16, lengths=[])
