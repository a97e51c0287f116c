"""Meshes, links, file round trips, and the stereographic charts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cel
from cel import (FormatError, InputError, NearPoleError, ParameterError,
                 PolyLink, TriMesh, euler_genus, load_link, load_obj,
                 make_shape, save_link, save_obj)
from cel.energies import gauss_map_torus
from cel.fixtures import genus2_surface
from cel.projection import stereographic, stereographic_inverse
from cel.shapes import _grid_torus_faces


def test_mesh_validate_all_kinds():
    for kind, kw in (("sphere", {}), ("ellipsoid", dict(a=1.2, b=0.9, c=0.7)),
                     ("tube_torus", {}), ("clifford_torus", {}),
                     ("geodesic_sphere", dict(center=(0, 1, 0, 0), radius=0.8))):
        mesh = make_shape(kind, resolution=12, **kw)
        mesh.validate()
        counts = mesh.edges(return_counts=True)[1]
        assert np.all(counts == 2), kind


def test_euler_genus():
    assert euler_genus(make_shape("sphere", resolution=8)) == 0
    assert euler_genus(make_shape("tube_torus", resolution=12)) == 1
    assert euler_genus(make_shape("clifford_torus", resolution=12)) == 1
    g2 = genus2_surface(resolution=16)
    g2.validate()
    assert euler_genus(g2) == 2


def test_euler_genus_rejects_disjoint_spheres():
    s = make_shape("sphere", resolution=8)
    pair = TriMesh(np.vstack([s.vertices, s.vertices + 3.0]),
                   np.vstack([s.faces, s.faces + s.vertex_count]))
    with pytest.raises(cel.MeshQualityError, match="not connected"):
        euler_genus(pair)


def _reference_grid_faces(positions, n, m):
    """Cell-by-cell construction of the grid torus faces."""
    faces = []
    for i in range(n):
        for j in range(m):
            a = i * m + j
            b = ((i + 1) % n) * m + j
            c = ((i + 1) % n) * m + (j + 1) % m
            d = i * m + (j + 1) % m
            diag_ac = np.sum((positions[a] - positions[c]) ** 2)
            diag_bd = np.sum((positions[b] - positions[d]) ** 2)
            if diag_ac <= diag_bd:
                faces.append((a, b, c))
                faces.append((a, c, d))
            else:
                faces.append((a, b, d))
                faces.append((b, c, d))
    return np.array(faces, dtype=np.int64)


@pytest.mark.parametrize("n", [8, 13, 16, 24, 32])
@pytest.mark.parametrize("kind", ["tube_torus", "clifford_torus"])
def test_grid_faces_match_cell_by_cell_reference(kind, n):
    # Clifford grid quads are squares, so both diagonals tie exactly
    verts = make_shape(kind, resolution=n).vertices
    faces = _grid_torus_faces(verts, n)
    assert faces.dtype == np.int64
    np.testing.assert_array_equal(faces, _reference_grid_faces(verts, n, n))


def test_grid_faces_on_an_unequal_gauss_map_grid():
    link = PolyLink(cel.hopf_link(64).gamma1,
                    cel.perturb_link(cel.hopf_link(96), 0.1, seed=5).gamma2)
    torus = gauss_map_torus(link)
    np.testing.assert_array_equal(
        torus.faces, _reference_grid_faces(torus.vertices, 64, 96))


def test_genus2_surface_is_pinned():
    g2 = genus2_surface(resolution=16)
    assert (g2.vertex_count, g2.face_count) == (508, 1020)
    assert g2.area() == pytest.approx(156.7642862120606, rel=1e-12)
    assert g2.vertices[:, 0].max() == pytest.approx(9.609844938560219, rel=1e-15)


@pytest.mark.parametrize("kind, kw", [
    ("sphere", dict(resolution=20)),
    ("geodesic_sphere", dict(resolution=16, center=(0, 0, 1, 0), radius=1.0)),
])
def test_principal_curvatures_ignore_vertex_labels(kind, kw):
    # every vertex of a round sphere is umbilic, where k1 - k2 is a square
    # root of rounding noise unless the discriminant is formed as a sum
    mesh = make_shape(kind, **kw)
    perm = np.random.default_rng(11).permutation(mesh.vertex_count)
    inv = np.argsort(perm)
    moved = TriMesh(mesh.vertices[perm], inv[mesh.faces], ambient=mesh.ambient)
    before, after = cel.estimate_curvatures(mesh), cel.estimate_curvatures(moved)
    for k in ("k1", "k2"):
        old, new = getattr(before, k)[perm], getattr(after, k)
        assert np.abs(new - old).max() / np.abs(old).max() < 1e-12, k


def test_areas_match_closed_forms():
    assert make_shape("sphere", resolution=16).area() == pytest.approx(
        4.0 * np.pi, rel=2e-3)
    assert make_shape("clifford_torus", resolution=24).area() == pytest.approx(
        2.0 * np.pi ** 2, rel=8e-3)
    # distance sphere of radius rho has area 4 pi sin(rho)^2
    rho = np.pi / 3
    gs = make_shape("geodesic_sphere", resolution=16,
                    center=(0, 0, 1, 0), radius=rho)
    assert gs.area() == pytest.approx(4.0 * np.pi * np.sin(rho) ** 2, rel=2e-3)


def test_make_shape_guards():
    with pytest.raises(ParameterError):
        make_shape("klein_bottle", resolution=8)
    with pytest.raises(ParameterError):
        make_shape("geodesic_sphere", resolution=8, center=(1, 0, 0, 0),
                   radius=np.pi)
    with pytest.raises(ParameterError):
        make_shape("geodesic_sphere", resolution=8, center=(2, 0, 0, 0),
                   radius=0.5)


def test_hopf_link_geometry(hopf128):
    assert hopf128.dim == 4
    assert hopf128.on_sphere()
    # the two core circles sit at chordal distance sqrt(2); segment
    # midpoints sag inward by O(h^2)
    assert hopf128.min_distance() == pytest.approx(np.sqrt(2.0), abs=1e-3)


def test_link_rejects_contact():
    t = 2.0 * np.pi * np.arange(32) / 32
    circle = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    with pytest.raises(InputError):
        PolyLink(circle, circle.copy())


def test_min_distance_matches_brute_force():
    rng = np.random.default_rng(5)
    link = cel.PolyLink(rng.normal(size=(300, 3)),
                        rng.normal(size=(700, 3)) + 4.0)
    p1 = np.vstack([link.gamma1, link.segments(1)[0]])
    p2 = np.vstack([link.gamma2, link.segments(2)[0]])
    brute = np.sqrt(np.sum((p1[:, None, :] - p2[None, :, :]) ** 2, axis=2).min())
    assert link.min_distance() == brute


def test_obj_round_trip(tmp_path, clifford16):
    path = str(tmp_path / "mesh.obj")
    save_obj(clifford16, path)
    back = load_obj(path)
    assert back.ambient == "S3"
    assert np.array_equal(back.faces, clifford16.faces)
    np.testing.assert_allclose(back.vertices, clifford16.vertices,
                               rtol=0, atol=1e-15)


def test_link_round_trip(tmp_path, hopf128):
    path = str(tmp_path / "link.json")
    save_link(hopf128, path)
    back = load_link(path)
    np.testing.assert_array_equal(back.gamma1, hopf128.gamma1)
    np.testing.assert_array_equal(back.gamma2, hopf128.gamma2)


def test_load_garbage(tmp_path):
    bad = tmp_path / "bad.obj"
    bad.write_text("v 1 2\nf 1 2 3\n")
    with pytest.raises(FormatError):
        load_obj(str(bad))


def test_curvatures_of_reference_surfaces(sphere16, clifford32):
    f = cel.estimate_curvatures(sphere16)
    np.testing.assert_allclose(f.k1, 1.0, atol=1e-2)
    np.testing.assert_allclose(f.k2, 1.0, atol=1e-2)
    f = cel.estimate_curvatures(clifford32)
    np.testing.assert_allclose(f.k1, 1.0, atol=0.05)
    np.testing.assert_allclose(f.k2, -1.0, atol=0.05)
    assert f.total_area() == pytest.approx(clifford32.area())


@settings(deadline=None, max_examples=60)
@given(arrays(np.float64, (4,),
              elements=st.floats(-1.0, 1.0, allow_nan=False)))
def test_stereographic_round_trip(raw):
    # random direction on the three-sphere, kept away from the pole
    n = np.linalg.norm(raw)
    if n < 1e-3:
        return
    x = raw / n
    pole = np.array([0.0, 0.0, 0.0, 1.0])
    if abs(x @ pole - 1.0) < 1e-2:
        return
    flat = stereographic(x[None, :], pole)
    back = stereographic_inverse(flat, pole)
    np.testing.assert_allclose(back[0], x, atol=1e-9)


def test_projection_pole_guard():
    pole = np.array([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(NearPoleError):
        stereographic(pole[None, :], pole)


def test_mesh_projection_round_trip(clifford16):
    pole = np.array([0.0, 0.0, 0.0, -1.0])
    flat = cel.project_mesh(clifford16, pole)
    assert flat.ambient == "R3"
    back = cel.lift_mesh(flat, pole)
    np.testing.assert_allclose(back.vertices, clifford16.vertices, atol=1e-12)


def test_with_vertices_drops_recipe(clifford16):
    moved = clifford16.with_vertices(clifford16.vertices * 1.0)
    assert moved.recipe is None
    kept = clifford16.with_vertices(clifford16.vertices, keep_recipe=True)
    assert kept.recipe == clifford16.recipe


def test_validate_rejects_open_mesh():
    verts = np.eye(3)
    faces = np.array([[0, 1, 2]])
    with pytest.raises(cel.MeshQualityError):
        TriMesh(verts, faces, ambient="R3").validate()
