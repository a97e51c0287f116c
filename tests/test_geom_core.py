"""Meshes, links, file round trips, and the stereographic charts."""

import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cel
import cel.cli
import cel.mesh
from cel import (FormatError, InputError, MeshQualityError, NearPoleError,
                 ParameterError, PolyLink, ResolutionWarning, TriMesh,
                 euler_genus, load_link, load_obj, make_shape, mobius_energy,
                 save_link, save_obj)
from cel._accum import stable_sum
from cel.curvature import _tangent_bases
from cel.energies import _POLE_CANDIDATES, gauss_map_torus
from cel.fixtures import ellipsoid_s3, genus2_surface, perturb_mesh
from cel.mesh import _BOX_ROWS, _boxes, _min_gap, _pair_tiles, _segments, _touch
from cel.optimize import willmore_gradient
from cel.projection import stereographic, stereographic_inverse
from cel.shapes import _grid_torus_faces, _icosahedron, _icosphere


def _signed_volume(vertices, faces):
    """Volume enclosed by a closed R^3 mesh, positive when it winds outward."""
    a, b, c = (vertices[faces[:, k]] for k in range(3))
    return float(np.einsum("ij,ij->", a, np.cross(b, c))) / 6.0


def test_mesh_validate_all_kinds():
    for kind, kw in (("sphere", {}), ("ellipsoid", dict(a=1.2, b=0.9, c=0.7)),
                     ("tube_torus", {}), ("clifford_torus", {}),
                     ("geodesic_sphere", dict(center=(0, 1, 0, 0), radius=0.8))):
        mesh = make_shape(kind, resolution=12, **kw)
        mesh.validate()


def test_euler_genus():
    assert euler_genus(make_shape("sphere", resolution=8)) == 0
    assert euler_genus(make_shape("tube_torus", resolution=12)) == 1
    assert euler_genus(make_shape("clifford_torus", resolution=12)) == 1
    g2 = genus2_surface()
    g2.validate()
    assert euler_genus(g2) == 2


def test_validate_rejects_one_reversed_face():
    mesh = make_shape("sphere", resolution=8)
    faces = mesh.faces.copy()
    faces[5] = faces[5, ::-1]
    with pytest.raises(MeshQualityError, match="face windings are not consistent"):
        TriMesh(mesh.vertices, faces).validate()


def test_euler_genus_rejects_disjoint_spheres():
    s = make_shape("sphere", resolution=8)
    pair = TriMesh(np.vstack([s.vertices, s.vertices + 3.0]),
                   np.vstack([s.faces, s.faces + s.vertex_count]))
    with pytest.raises(cel.MeshQualityError, match="not connected"):
        euler_genus(pair)


def test_euler_genus_rejects_a_face_with_a_repeated_corner():
    s = make_shape("sphere", resolution=8)
    far = int(np.argmin(s.vertices @ s.vertices[0]))    # not adjacent to 0
    mesh = TriMesh(s.vertices, np.vstack([s.faces, [[0, 0, far]]]))
    with pytest.raises(cel.MeshQualityError, match="not closed"):
        euler_genus(mesh)


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
            if diag_bd < diag_ac * (1.0 - 1e-12):
                faces.append((a, b, d))
                faces.append((b, c, d))
            else:
                faces.append((a, b, c))
                faces.append((a, c, d))
    return np.array(faces, dtype=np.int64)


def _ac_grid_faces(n):
    """Every cell of the n x n grid split along its a-c diagonal."""
    i, j = np.divmod(np.arange(n * n), n)
    a, b = i * n + j, (i + 1) % n * n + j
    c, d = (i + 1) % n * n + (j + 1) % n, i * n + (j + 1) % n
    return np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)


@pytest.mark.parametrize("n", [8, 13, 16, 24, 32])
@pytest.mark.parametrize("kind", ["tube_torus", "clifford_torus"])
def test_grid_faces_match_cell_by_cell_reference(kind, n):
    # Clifford grid quads are squares, so both diagonals tie exactly
    verts = make_shape(kind, resolution=n).vertices
    faces = _grid_torus_faces(verts, n)
    assert faces.dtype == np.int64
    np.testing.assert_array_equal(faces, _reference_grid_faces(verts, n, n))


@pytest.mark.parametrize("n", [8, 13, 48, 96])
def test_tube_faces_depend_only_on_the_resolution(n):
    # both diagonals of a cell on a surface of revolution are equal in
    # exact arithmetic, so no tube cell is split by rounding
    faces = [make_shape("tube_torus", resolution=n, big_radius=a,
                        tube_radius=1.0).faces for a in (1.1, np.sqrt(2.0), 2.9)]
    np.testing.assert_array_equal(faces[0], faces[1])
    np.testing.assert_array_equal(faces[0], faces[2])


def test_clifford_faces_take_the_ac_diagonal_everywhere():
    for n in range(8, 97):
        np.testing.assert_array_equal(cel.clifford_torus(resolution=n).faces,
                                      _ac_grid_faces(n))


def test_hopf_chord_torus_area_is_pinned():
    # the chord torus of the fibration link has square cells like the
    # Clifford torus; its area is pinned bit for bit
    assert gauss_map_torus(cel.hopf_link(64)).area() == 19.72335955068155
    assert gauss_map_torus(cel.hopf_link(128)).area() == 19.735245534455515


def test_grid_faces_on_an_unequal_gauss_map_grid():
    link = PolyLink(cel.hopf_link(64).gamma1,
                    cel.perturb_link(cel.hopf_link(96), 0.1, seed=5).gamma2)
    torus = gauss_map_torus(link)
    np.testing.assert_array_equal(
        torus.faces, _reference_grid_faces(torus.vertices, 64, 96))


def _reference_icosphere(freq):
    """Point-by-point subdivision with a dict of corner keys."""
    base_v, base_f = _icosahedron()
    key_to_index = {}
    verts = []
    faces = []

    def corner_key(ids, weights):
        return tuple(sorted((int(i), int(w)) for i, w in zip(ids, weights) if w > 0))

    for tri in base_f:
        grid = {}
        for i in range(freq + 1):
            for j in range(freq + 1 - i):
                w = (freq - i - j, i, j)
                key = corner_key(tri, w)
                if key not in key_to_index:
                    p = (base_v[tri[0]] * w[0] + base_v[tri[1]] * w[1]
                         + base_v[tri[2]] * w[2]) / freq
                    key_to_index[key] = len(verts)
                    verts.append(p)
                grid[(i, j)] = key_to_index[key]
        for i in range(freq):
            for j in range(freq - i):
                faces.append((grid[(i, j)], grid[(i + 1, j)], grid[(i, j + 1)]))
                if i + j < freq - 1:
                    faces.append((grid[(i + 1, j)], grid[(i + 1, j + 1)],
                                  grid[(i, j + 1)]))
    verts = np.array(verts)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    return verts, np.array(faces, dtype=np.int64)


@pytest.mark.parametrize("freq", [8, 9, 13, 16, 32, 64, 96])
def test_icosphere_matches_point_by_point_reference(freq):
    verts, faces = _icosphere(freq)
    ref_verts, ref_faces = _reference_icosphere(freq)
    assert faces.dtype == np.int64
    assert verts.shape == (10 * freq ** 2 + 2, 3)
    assert faces.shape == (20 * freq ** 2, 3)
    # bytes, so that signed zeros match too
    assert verts.tobytes() == ref_verts.tobytes()
    np.testing.assert_array_equal(faces, ref_faces)
    assert _signed_volume(verts, faces) > 0.0


def test_icosahedron_table_is_a_closed_outward_icosahedron():
    verts, faces = _icosahedron()
    mesh = TriMesh(verts, faces).validate()
    assert euler_genus(mesh) == 0
    assert np.array_equal(np.bincount(faces.ravel()), np.full(12, 5))
    a, b, c = (verts[faces[:, k]] for k in range(3))
    assert np.all(np.einsum("ij,ij->i", np.cross(b - a, c - a), a + b + c) > 0.0)


def _rotations(faces):
    """Oriented faces as tuples, each rotated to start at its smallest index."""
    first = np.argmin(faces, axis=1)[:, None]
    return {tuple(row) for row in np.take_along_axis(
        faces, (first + np.arange(3)) % 3, axis=1)}


def test_icosahedron_table_matches_the_convex_hull():
    from scipy.spatial import ConvexHull

    verts, faces = _icosahedron()
    hull = ConvexHull(verts).simplices.astype(np.int64)
    a, b, c = (verts[hull[:, k]] for k in range(3))
    inward = np.einsum("ij,ij->i", np.cross(b - a, c - a), a) < 0.0
    hull[inward] = hull[inward][:, [0, 2, 1]]
    assert len(faces) == 20
    assert _rotations(faces) == _rotations(hull)


@pytest.mark.parametrize("resolution", [8, 9, 33])
@pytest.mark.parametrize("big, tube", [(1.01, 1.0), (2.0, 1.0), (10.0, 0.01)])
def test_tube_torus_winds_outward(big, tube, resolution):
    mesh = cel.tube_torus(big, tube, resolution).validate()
    assert _signed_volume(mesh.vertices, mesh.faces) > 0.0


def _fresh_python(code):
    """stdout of `code` run in a new interpreter that imports this cel."""
    src = str(pathlib.Path(cel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_import_leaves_scipy_spatial_out():
    out = _fresh_python("import sys, cel; print('scipy.spatial' in sys.modules)")
    assert out.strip() == "False"


def test_genus2_surface_is_pinned():
    g2 = genus2_surface()
    assert (g2.vertex_count, g2.face_count) == (508, 1020)
    assert g2.area() == pytest.approx(156.75499754926668, rel=1e-12)
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
    with pytest.raises(ParameterError) as exc:
        make_shape("klein_bottle", resolution=8)
    assert str(exc.value) == (
        "unknown shape kind 'klein_bottle'; known kinds: ['clifford_torus', "
        "'ellipsoid', 'geodesic_sphere', 'sphere', 'tube_torus', "
        "'coaxial_circles', 'hopf_link', 'torus_link']")
    with pytest.raises(ParameterError):
        make_shape("geodesic_sphere", resolution=8, center=(1, 0, 0, 0),
                   radius=np.pi)
    with pytest.raises(ParameterError):
        make_shape("geodesic_sphere", resolution=8, center=(2, 0, 0, 0),
                   radius=0.5)
    for kind in ("sphere", "hopf_link"):
        with pytest.raises(ParameterError, match=r"\['bogus', 'zz'\]"):
            make_shape(kind, resolution=8, zz=2, bogus=1)


@pytest.mark.parametrize("p, q", [(2.5, 4), (2, 4.9), (np.nan, 4), (2, np.inf)])
def test_torus_link_rejects_non_integer_counts(p, q):
    with pytest.raises(ParameterError, match="integer p and q"):
        cel.torus_link(p=p, q=q, resolution=16)


def test_torus_link_takes_integral_floats():
    # the command line parses every parameter as a float
    want = cel.torus_link(p=2, q=6, resolution=16)
    got = cel.torus_link(p=2.0, q=6.0, resolution=16)
    np.testing.assert_array_equal(got.gamma1, want.gamma1)
    np.testing.assert_array_equal(got.gamma2, want.gamma2)


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
    for dim in (3, 4):
        link = cel.PolyLink(rng.normal(size=(300, dim)),
                            rng.normal(size=(700, dim)) + 4.0)
        p1 = np.vstack([link.gamma1, _segments(link.gamma1)[0]])
        p2 = np.vstack([link.gamma2, _segments(link.gamma2)[0]])
        brute = np.sqrt(np.sum((p1[:, None, :] - p2[None, :, :]) ** 2, axis=2).min())
        assert link.min_distance() == brute


def _clouds(dim, scale, seed):
    """Seeded point clouds whose last boxes are partial."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(3 * _BOX_ROWS + 17, dim)) * scale,
            rng.normal(size=(2 * _BOX_ROWS + 5, dim)) * scale)


def _touch_cases(p, q):
    """p, q, then copies with the pair p[i] = offset / 2, q[j] = -offset / 2
    planted in the first, middle and partial last box, at offsets 0,
    1e-170 (its d2 underflows) and 1e-160 (it does not)."""
    yield p, q
    for i, j in ((3, 5), (len(p) // 2, len(q) // 2), (len(p) - 2, len(q) - 3)):
        for offset in (0.0, 1e-170, 1e-160):
            planted_p, planted_q = p.copy(), q.copy()
            planted_p[i], planted_q[j] = 0.5 * offset, -0.5 * offset
            yield planted_p, planted_q


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-162, 1e-170])
def test_touch_equals_the_min_gap_test(dim, scale):
    # clouds in opposite orthants: a planted pair straddles the gap between
    # their boxes, which only the padding closes
    p, q = _clouds(dim, scale, seed=dim)
    outcomes = set()
    for p, q in _touch_cases(np.abs(p), -np.abs(q)):
        assert _touch(p, q) == (_min_gap(p, q) <= 0.0)
        assert _touch(q, p) == (_min_gap(q, p) <= 0.0)
        outcomes.add(_touch(p, q))
    # at 1e-162 and below some unplanted pair's gaps already all underflow
    assert outcomes == ({True, False} if scale >= 1e-150 else {True})


@pytest.mark.parametrize("dim", [3, 4])
def test_touch_equals_the_min_gap_test_when_every_box_overlaps(dim):
    flat = np.r_[np.ones(dim - 1), 0.0]
    p, q = _clouds(dim, 1.0, seed=dim)
    for p, q in _touch_cases(p * flat, q * flat):    # coplanar, interleaved
        plo, phi = _boxes(p)
        qlo, qhi = _boxes(q)
        assert np.all((plo[:, None] <= qhi) & (qlo <= phi[:, None]))
        assert _touch(p, q) == (_min_gap(p, q) <= 0.0)


def test_link_construction_prunes_every_pair_of_the_hopf_link(monkeypatch):
    evaluated = []

    def counted(p, q):
        for tile in _pair_tiles(p, q):
            evaluated.append(tile[2].size)
            yield tile

    monkeypatch.setattr(cel.mesh, "_pair_tiles", counted)
    hopf = cel.hopf_link(resolution=1024)
    cel.project_link(hopf, np.full(4, 0.5))
    assert sum(evaluated) == 0
    # the torus link's boxes overlap, so the wrapper does see its pairs
    cel.torus_link(2, 4, resolution=256)
    assert sum(evaluated) > 0


@pytest.mark.parametrize("p_shape, m", [
    ((300, 3), 700),       # R^3 points: 93-row tiles
    ((300, 4), 700),       # R^4 points
])
def test_pair_tiles_match_the_interleaved_broadcast(p_shape, m):
    rng = np.random.default_rng(11)
    p = rng.normal(size=p_shape)
    q = rng.normal(size=(m, p_shape[-1]))
    full = p[:, None, :] - q
    covered = 0
    for rows, diff, d2 in _pair_tiles(p, q):
        assert rows.start == covered
        assert len(diff) == p_shape[-1]
        assert all(dk.flags.c_contiguous for dk in diff)
        assert np.array_equal(np.stack(diff, axis=-1), full[rows])
        assert np.array_equal(d2, np.sum(full[rows] ** 2, axis=-1))
        covered += len(d2)
    assert covered == len(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_link_rejects_non_finite_coordinates(bad):
    t = 2.0 * np.pi * np.arange(32) / 32
    circle = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    other = circle[:, [1, 2, 0]] + [1.0, 0.0, 0.0]
    circle[5, 1] = bad
    with pytest.raises(ParameterError, match="finite"):
        PolyLink(circle, other)
    with pytest.raises(ParameterError, match="finite"):
        PolyLink(other, circle)


def _circle16():
    t = 2.0 * np.pi * np.arange(16) / 16
    return np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)


def test_link_rejects_overflowing_midpoints():
    # every coordinate is finite and the spread is small, but two circles
    # at height 1e308 have neighbouring heights that sum past the float
    # range, so a segment midpoint is inf
    circle = _circle16()
    high = circle + [0.0, 0.0, 1e308]
    assert np.isfinite(high).all()
    with pytest.raises(InputError, match="midpoints overflow"):
        PolyLink(high, high + [3.0, 0.0, 0.0])
    # at 4e307 every sum of two neighbours stays in range
    low = circle + [0.0, 0.0, 4e307]
    PolyLink(low, low + [3.0, 0.0, 0.0])


def test_link_rejects_coordinates_whose_squared_distances_overflow():
    circle = _circle16()
    other = circle[:, [1, 2, 0]] + [1.0, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a circle of radius 5e153 built before the bound and gave a finite
        # energy; the bound rejects it all the same
        for big in (1e200 * circle, 4e307 * circle, 1e308 * circle,
                    circle + [0.0, 1e160, 0.0], 2.0 ** 510 * circle,
                    5e153 * circle):
            with pytest.raises(InputError, match="squared sample distances"):
                PolyLink(big, other)
            with pytest.raises(InputError, match="squared sample distances"):
                PolyLink(other, big)
        # both components scaled by 2^508 spread over 3 * 2^508 < 2^510:
        # the link builds, and its distances and energy are those of the
        # unit link times a power of two
        unit = PolyLink(circle, other)
        scale = 2.0 ** 508
        link = PolyLink(scale * circle, scale * other)
        assert link.min_distance() == scale * unit.min_distance()
        assert link.diameter() == scale * unit.diameter()
        warnings.simplefilter("ignore", ResolutionWarning)
        assert mobius_energy(link) == mobius_energy(unit)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mesh_rejects_non_finite_vertices(bad, sphere16):
    verts = sphere16.vertices.copy()
    verts[7, 2] = bad
    with pytest.raises(ParameterError, match="finite"):
        TriMesh(verts, sphere16.faces)


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


def _block_meshes():
    for kind in cel.MESH_KINDS:
        kw = (dict(center=(0, 0, 1, 0), radius=0.8)
              if kind == "geodesic_sphere" else {})
        for res in (8, 16, 32):
            yield pytest.param(lambda kind=kind, res=res, kw=kw: make_shape(
                kind, resolution=res, **kw), id=f"{kind}{res}")
    yield pytest.param(genus2_surface, id="genus2")
    yield pytest.param(lambda: perturb_mesh(make_shape(
        "clifford_torus", resolution=16), 0.1, seed=3), id="perturbed_clifford")


@pytest.mark.parametrize("build", _block_meshes())
def test_curvatures_do_not_depend_on_the_fit_block_size(build, monkeypatch):
    # every block keeps the global stencil width, so each row's fit is the
    # same arithmetic in any block
    mesh = build()
    want = cel.estimate_curvatures(mesh)
    sizes = (7, 512, mesh.vertex_count) + ((1,) if mesh.vertex_count <= 700 else ())
    for rows in sizes:
        monkeypatch.setattr(cel.curvature, "_FIT_ROWS", rows)
        got = cel.estimate_curvatures(mesh)
        for name in ("k1", "k2", "normal", "weight"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (rows, name)


def test_curvature_fit_memory_is_bounded():
    # one fit of sphere(96), V = 92,162, held about 330 MB as a single batch
    grown = _fresh_python(
        "import resource; from cel import sphere, willmore_energy\n"
        "mesh = sphere(resolution=96)\n"
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "before = peak()\n"
        "willmore_energy(mesh, error_estimate=False)\n"
        "print((peak() - before) / 1024.0)")
    assert float(grown) < 100.0


def test_parallel_area_curve_memory_is_bounded():
    # the default 129-point grid on V = 65,536 held about 170 MB as one
    # (T, V) pass; blocks of t rows keep a few MB
    grown = _fresh_python(
        "import resource\n"
        "from cel import clifford_torus, estimate_curvatures, parallel_area_curve\n"
        "mesh = clifford_torus(resolution=256)\n"
        "field = estimate_curvatures(mesh)\n"
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "before = peak()\n"
        "parallel_area_curve(mesh, field)\n"
        "print((peak() - before) / 1024.0)")
    assert float(grown) < 20.0


@pytest.mark.parametrize("build", _block_meshes())
def test_curvature_weights_sum_to_the_mesh_area(build):
    # the barycentric weights split every face area in thirds, so their
    # total is the mesh area up to round-off (equal on all 17 meshes here),
    # and they are the lumped mass, read from the same area element
    mesh = build()
    weight = cel.estimate_curvatures(mesh).weight
    assert stable_sum(weight) == pytest.approx(mesh.area(), rel=1e-12, abs=0.0)
    assert weight.tobytes() == cel.lumped_mass(mesh).diagonal().tobytes()


def _s3_point_sets():
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((20000, 4))
    yield pytest.param(lambda: raw / np.linalg.norm(raw, axis=1)[:, None], id="random")
    for res in (8, 16, 33, 48):
        yield pytest.param(lambda res=res: make_shape(
            "clifford_torus", resolution=res).vertices, id=f"clifford{res}")
        for center, radius in (((1, 0, 0, 0), np.pi / 2), ((0, 0, 1, 0), 0.8),
                               ((0.5, -0.5, 0.5, 0.5), np.pi / 6)):
            yield pytest.param(lambda res=res, c=center, r=radius: make_shape(
                "geodesic_sphere", resolution=res, center=c, radius=r).vertices,
                id=f"geodesic{res}_{radius:.2f}")
        yield pytest.param(lambda res=res: ellipsoid_s3(resolution=res).vertices,
                           id=f"ellipsoid{res}")


@pytest.mark.parametrize("build", [*_s3_point_sets(), pytest.param(
    lambda: np.vstack([_POLE_CANDIDATES, [0.6, 0.0, -0.8, 0.0]]), id="poles")])
def test_tangent_bases_share_the_determinant_handedness(build):
    # [p; basis] is the rotation by the unit quaternion of p applied to
    # the pole's frame, so it is orthonormal with det = -1 at every point,
    # both in the curvature charts' batches and in the one-point frames of
    # the stereographic charts and the geodesic sphere centers
    verts = build()
    basis = _tangent_bases(verts)
    frames = np.concatenate([verts[:, None, :], basis], axis=1)
    assert np.abs(frames @ frames.transpose(0, 2, 1) - np.eye(4)).max() < 1e-14
    assert np.abs(np.linalg.det(frames) + 1.0).max() < 1e-12
    for p, batch in zip(verts[:16], basis):
        assert np.array_equal(_tangent_bases(p[None])[0], batch)


def test_the_pole_frame_is_the_first_three_axes():
    # so the chart from (0, 0, 0, 1) rescales the first three coordinates
    assert np.array_equal(_tangent_bases(np.array([[0.0, 0.0, 0.0, 1.0]]))[0],
                          np.eye(4)[:3])


def _poles_across_a_tie(eps=1e-9):
    """Two unit points eps apart on either side of |p0| = |p1|."""
    tie = np.array([0.3, 0.3, 0.5, 0.7]) / np.sqrt(0.92)
    step = np.array([1.0, -1.0, 0.0, 0.0]) * eps / np.sqrt(2.0)
    points = [tie - 0.5 * step, tie + 0.5 * step]
    return [p / np.linalg.norm(p) for p in points]


def test_geodesic_spheres_move_continuously_with_their_center():
    # the frame is linear in the center, so no coordinate tie makes the
    # sphere's vertices jump
    below, above = (make_shape("geodesic_sphere", resolution=8, center=c,
                               radius=1.0).vertices for c in _poles_across_a_tie())
    assert np.abs(below - above).max() < 1e-8


def test_stereographic_charts_move_continuously_with_their_pole():
    raw = np.random.default_rng(7).standard_normal((200, 4))
    pts = raw / np.linalg.norm(raw, axis=1)[:, None]
    below, above = _poles_across_a_tie()
    pts = pts[pts @ below < 0.5]
    assert np.abs(stereographic(pts, below) - stereographic(pts, above)).max() < 1e-8
    flat = stereographic(pts, below)
    assert np.abs(stereographic_inverse(flat, below)
                  - stereographic_inverse(flat, above)).max() < 1e-8


def test_geodesic_spheres_wind_away_from_every_center():
    # one frame handedness: the normal points away from the center, and
    # k1 = k2 = cot r > 0 about it, whichever candidate pole is the center
    for center in _POLE_CANDIDATES:
        gs = make_shape("geodesic_sphere", resolution=8, center=center, radius=1.0)
        field = cel.estimate_curvatures(gs)
        assert field.k1.mean() == pytest.approx(1.0 / np.tan(1.0), rel=0.02), center
        assert np.all(field.normal @ center < 0.0), center


def test_lifted_spheres_curve_one_way_from_every_pole():
    # every stereographic chart keeps the orientation of S^3, so one R^3
    # sphere lifts to images with one curvature sign from every pole
    mesh = cel.sphere(radius=0.5, resolution=8)
    signs = set()
    for pole in _POLE_CANDIDATES:
        field = cel.estimate_curvatures(cel.lift_mesh(mesh, pole))
        signs.update(np.sign(np.concatenate([field.k1, field.k2])).tolist())
    assert len(signs) == 1


def test_faceless_mesh_raises_a_typed_error():
    mesh = TriMesh(cel.sphere(resolution=8).vertices, np.zeros((0, 3), int))
    for fn in (cel.estimate_curvatures, cel.willmore_energy,
               cel.willmore_relative_gradient):
        with pytest.raises(MeshQualityError, match="mesh has no faces"):
            fn(mesh)


def _octahedron():
    """The regular octahedron, wound outward: every two-ring has 5 points."""
    verts = np.vstack([np.eye(3), -np.eye(3)])
    faces = [[a, b, c] for a in (0, 3) for b in (1, 4) for c in (2, 5)]
    faces = [f if _signed_volume(verts, np.array([f])) > 0 else f[::-1] for f in faces]
    return TriMesh(verts, np.array(faces)).validate()


def test_too_small_fit_neighborhoods_raise_a_typed_error(tmp_path, capsys):
    # a quadric fit with cubic columns needs 9 points; the octahedron's
    # two-rings have 5
    mesh = _octahedron()
    for fn in (cel.estimate_curvatures, cel.willmore_energy,
               willmore_gradient):
        with pytest.raises(MeshQualityError, match="a fit neighborhood has too few points"):
            fn(mesh)
    path = str(tmp_path / "octahedron.obj")
    save_obj(mesh, path)
    assert cel.cli.main(["energy", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "a fit neighborhood has too few points" in err


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


@pytest.mark.parametrize("call, name", [
    (lambda v: stereographic(np.array([[1.0, 0.0, 0.0, 0.0]]), v), "pole"),
    (lambda v: stereographic_inverse(np.zeros((1, 3)), v), "pole"),
    (lambda v: cel.project_link(cel.hopf_link(resolution=8), v), "pole"),
    (lambda v: make_shape("geodesic_sphere", resolution=8, center=v, radius=0.5),
     "center"),
], ids=["stereographic", "inverse", "project_link", "geodesic_sphere"])
@pytest.mark.parametrize("bad", [(0.0, 0.0, 0.0, 2.0), (0.0, 0.0, 0.0, 0.0),
                                 (0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1e-4)])
def test_unit_vector_check_names_its_argument(call, name, bad):
    with pytest.raises(ParameterError, match=rf"^{name} must be a unit vector in R\^4$"):
        call(bad)


def test_projections_take_only_rows_of_points():
    pole = np.array([0.0, 0.0, 0.0, 1.0])
    for bad in (np.array([1.0, 0.0, 0.0, 0.0]), np.ones((2, 3)),
                np.ones((1, 2, 4)), np.zeros((0, 4))):
        with pytest.raises(ParameterError, match=r"\(n, 4\)"):
            stereographic(bad, pole)
    for bad in (np.zeros(3), np.ones((2, 4)), np.zeros((0, 3))):
        with pytest.raises(ParameterError, match=r"\(n, 3\)"):
            stereographic_inverse(bad, pole)


def test_mesh_projection_round_trip(clifford16):
    pole = np.array([0.0, 0.0, 0.0, -1.0])
    flat = cel.project_mesh(clifford16, pole)
    assert flat.ambient == "R3"
    back = cel.lift_mesh(flat, pole)
    np.testing.assert_allclose(back.vertices, clifford16.vertices, atol=1e-12)


def test_with_vertices_drops_recipe(clifford16):
    moved = clifford16.with_vertices(clifford16.vertices * 1.0)
    assert moved.recipe is None


def test_validate_rejects_open_mesh():
    verts = np.eye(3)
    faces = np.array([[0, 1, 2]])
    with pytest.raises(cel.MeshQualityError):
        TriMesh(verts, faces, ambient="R3").validate()
