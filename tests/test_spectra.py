"""Second-variation index counts for minimal surfaces in the three-sphere."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cel.spectra
from cel import (NotMinimalError, ParameterError, jacobi_index_analytic,
                 jacobi_index_numeric, make_shape)
from cel.fixtures import ellipsoid_s3


def test_analytic_counts():
    gs = jacobi_index_analytic("great_sphere")
    assert gs.index == 1 and gs.near_zero == 3
    assert list(gs.eigenvalues) == [-2.0]
    cl = jacobi_index_analytic("clifford_torus")
    assert cl.index == 5 and cl.near_zero == 4
    assert sorted(cl.eigenvalues) == [-4.0, -2.0, -2.0, -2.0, -2.0]
    with pytest.raises(ParameterError):
        jacobi_index_analytic("catenoid")


def test_numeric_great_sphere():
    gs = make_shape("geodesic_sphere", resolution=32,
                    center=(1, 0, 0, 0), radius=np.pi / 2)
    rep = jacobi_index_numeric(gs)
    assert rep.index == 1
    assert rep.near_zero == 3


def test_numeric_window_widens_until_it_covers_the_spectrum(monkeypatch,
                                                            great_sphere16):
    # two eigenpairs cannot reach the bottom of the spectrum, so the solve
    # retries with more; the counts must not depend on the first window
    calls = []
    eigsh = cel.spectra._eigsh

    def counted(operator, mass, k, *args):
        calls.append(k)
        return eigsh(operator, mass, k, *args)

    monkeypatch.setattr(cel.spectra, "_EIGENPAIRS", 2)
    monkeypatch.setattr(cel.spectra, "_eigsh", counted)
    rep = jacobi_index_numeric(great_sphere16)
    assert len(calls) > 1
    assert calls == [2 ** (k + 1) for k in range(len(calls))]
    assert (rep.index, rep.near_zero) == (1, 3)


def test_numeric_clifford():
    rep = jacobi_index_numeric(make_shape("clifford_torus", resolution=48))
    assert rep.index == 5
    assert rep.near_zero == 4
    negatives = sorted(v for v in rep.eigenvalues if v < -0.1)
    np.testing.assert_allclose(negatives, [-4, -2, -2, -2, -2], atol=0.1)


def test_rejects_non_minimal_surfaces(sphere16):
    with pytest.raises(NotMinimalError):
        jacobi_index_numeric(sphere16)
    with pytest.raises(NotMinimalError):
        jacobi_index_numeric(ellipsoid_s3(resolution=16))


@settings(deadline=None, max_examples=200)
@given(st.floats(-50, 50), st.floats(-50, 50),
       st.floats(-np.pi, np.pi))
def test_parallel_jacobian_never_beats_one_plus_h2(k1, k2, t):
    # (cos t - k1 sin t)(cos t - k2 sin t) <= 1 + ((k1 + k2)/2)^2 is a sum
    # of squares; float rounding gets a relative allowance
    h2 = 0.25 * (k1 + k2) ** 2
    jac = (np.cos(t) - k1 * np.sin(t)) * (np.cos(t) - k2 * np.sin(t))
    assert 1.0 + h2 - jac >= -1e-12 * (1.0 + h2 + abs(jac))
