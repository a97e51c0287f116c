"""Cotangent Laplace spectra against the two classical references."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cel import (ParameterError, SolverError, cotan_stiffness, ellipsoid_s3,
                 genus2_surface, jacobi_index_numeric, laplace_eigs,
                 laplace_minmax, lumped_mass, make_shape, perturb_mesh)


def _reference_stiffness(mesh):
    """Corner-by-corner assembly from lists of COO triplets."""
    verts, faces = mesh.vertices, mesh.faces
    rows, cols, vals = [], [], []
    for c in range(3):
        i = faces[:, (c + 1) % 3]
        j = faces[:, (c + 2) % 3]
        k = faces[:, c]
        u = verts[i] - verts[k]
        v = verts[j] - verts[k]
        uu = np.einsum("ij,ij->i", u, u)
        vv = np.einsum("ij,ij->i", v, v)
        uv = np.einsum("ij,ij->i", u, v)
        cot = uv / np.sqrt(np.maximum(uu * vv - uv * uv, 1e-300))
        half = 0.5 * cot
        rows.extend([i, j, i, j])
        cols.extend([j, i, i, j])
        vals.extend([-half, -half, half, half])
    n = mesh.vertex_count
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                 np.concatenate(cols))),
                         shape=(n, n))


def _reference_mass(mesh):
    """Barycentric mass added one face column at a time."""
    areas = mesh.face_areas() / 3.0
    m = np.zeros(mesh.vertex_count)
    for c in range(3):
        np.add.at(m, mesh.faces[:, c], areas)
    return m


@pytest.mark.parametrize("build", [
    lambda: make_shape("sphere", resolution=16),
    lambda: make_shape("clifford_torus", resolution=24),
    lambda: perturb_mesh(make_shape("tube_torus", resolution=20), 1e-3, seed=3),
    genus2_surface,
    lambda: ellipsoid_s3(resolution=12),
], ids=["sphere", "clifford", "perturbed_tube", "genus2", "ellipsoid_s3"])
def test_assembly_matches_the_loop_reference(build):
    mesh = build()
    got, want = cotan_stiffness(mesh), _reference_stiffness(mesh)
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert lumped_mass(mesh).diagonal().tobytes() == _reference_mass(mesh).tobytes()


def test_flat_torus_spectrum_is_exact(clifford32):
    # the grid is uniform and the surface intrinsically flat, so the low
    # eigenvalues 0, 2 (x4), 4 (x4) come out at rounding accuracy
    vals = laplace_minmax(clifford32, 9)
    want = np.array([0.0, 2, 2, 2, 2, 4, 4, 4, 4])
    np.testing.assert_allclose(vals, want, atol=1e-8)


def test_sphere_spectrum_l_l_plus_1(sphere16):
    vals = laplace_minmax(sphere16, 9)
    want = np.array([0.0, 2, 2, 2, 6, 6, 6, 6, 6])
    np.testing.assert_allclose(vals, want, atol=0.02 * 6)


def test_mass_matrix_sums_to_the_area(clifford16):
    mass = lumped_mass(clifford16)
    assert mass.diagonal().sum() == pytest.approx(clifford16.area(),
                                                  rel=1e-12)


def test_stiffness_rows_sum_to_zero(sphere16):
    stiff = cotan_stiffness(sphere16)
    rows = np.abs(np.asarray(stiff.sum(axis=1))).max()
    assert rows < 1e-10
    rng = np.random.default_rng(0)
    x = rng.standard_normal(sphere16.vertex_count)
    assert x @ (stiff @ x) > -1e-9


def test_eigencount_guard(clifford16):
    with pytest.raises(ParameterError):
        laplace_minmax(clifford16, clifford16.vertex_count)
    with pytest.raises(ParameterError):
        laplace_minmax(clifford16, 0)


def test_eigensolver_failure_is_a_solver_error(monkeypatch, clifford16):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    message = "eigenvalue iteration did not converge"
    with pytest.raises(SolverError, match=message):
        laplace_eigs(clifford16, 4)
    with pytest.raises(SolverError, match=message):
        jacobi_index_numeric(clifford16)
