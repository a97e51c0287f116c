"""Gradients checked against brute-force differencing, then the descents."""

import warnings

import numpy as np
import pytest

import cel.optimize
from cel import (ParameterError, PolyLink, ResolutionWarning, TriMesh,
                 estimate_curvatures, genus2_surface, make_shape,
                 mobius_descent, mobius_energy, tube_family_sweep,
                 willmore_descent, willmore_energy, willmore_relative_gradient)
import cel.curvature
from cel._accum import stable_sum
from cel.curvature import _bending_density, _LocalEnergyModel, _stencils
from cel.energies import _far_pole, _cross_energy_sum
from cel.fixtures import ellipsoid_s3, perturb_link, perturb_mesh
from cel.optimize import mobius_gradient, willmore_gradient
from cel.projection import project_link


def brute_willmore_gradient(mesh, h, vertices=None):
    """Central differences over every vertex (or the given ones) and axis,
    one full curvature refit per evaluation. Only usable on tiny meshes."""
    s3 = mesh.ambient == "S3"

    def energy(verts):
        f = estimate_curvatures(mesh.with_vertices(verts))
        hmean = f.mean()
        dens = 1.0 + hmean ** 2 if s3 else hmean ** 2
        return float(np.sum(dens * f.weight))

    grad = np.zeros_like(mesh.vertices)
    for i in range(mesh.vertex_count) if vertices is None else vertices:
        for a in range(mesh.vertices.shape[1]):
            plus = mesh.vertices.copy()
            plus[i, a] += h
            minus = mesh.vertices.copy()
            minus[i, a] -= h
            if s3:
                plus[i] /= np.linalg.norm(plus[i])
                minus[i] /= np.linalg.norm(minus[i])
            grad[i, a] = (energy(plus) - energy(minus)) / (2.0 * h)
    return grad


def test_grouped_gradient_matches_brute_force_r3():
    mesh = perturb_mesh(make_shape("tube_torus", resolution=8), 0.02, seed=3)
    h = 1e-5 * mesh.bbox_diameter()
    fast = willmore_gradient(mesh)
    slow = brute_willmore_gradient(mesh, h)
    scale = np.abs(slow).max()
    assert np.abs(fast - slow).max() / scale < 1e-6


def test_grouped_gradient_matches_brute_force_s3():
    mesh = perturb_mesh(make_shape("clifford_torus", resolution=8), 0.02,
                        seed=4)
    h = 1e-5 * mesh.bbox_diameter()
    fast = willmore_gradient(mesh)
    slow = brute_willmore_gradient(mesh, h)
    scale = np.abs(slow).max()
    assert np.abs(fast - slow).max() / scale < 1e-6


@pytest.mark.parametrize("kind,kw", [
    ("sphere", {}),
    ("geodesic_sphere", {"center": (0.5, 0.5, 0.5, 0.5), "radius": 1.2}),
])
def test_grouped_gradient_matches_brute_force_on_icospheres(kind, kw):
    # the derivative at a valence-5 vertex sums terms of two-rings shorter
    # than the padded stencil width
    mesh = perturb_mesh(make_shape(kind, resolution=8, **kw), 0.02, seed=5)
    vertices = np.flatnonzero(np.bincount(mesh.faces.ravel()) == 5)
    assert len(vertices) == 12
    h = 1e-5 * mesh.bbox_diameter()
    fast = willmore_gradient(mesh)[vertices]
    slow = brute_willmore_gradient(mesh, h, vertices)[vertices]
    assert np.abs(fast - slow).max() / np.abs(slow).max() < 1e-6


def _local_terms(model, positions):
    """The gradient's energy term of every stencil row, at rest."""
    _, local, diff = model._rows(positions, np.arange(len(positions)))
    return model._terms(local, diff, model.fan, model.counts)


@pytest.mark.parametrize("kind", ["tube_torus", "sphere", "clifford_torus"])
def test_local_terms_sum_to_the_energy(kind):
    mesh = perturb_mesh(make_shape(kind, resolution=12), 0.05, seed=6)
    terms = _local_terms(_LocalEnergyModel(mesh), mesh.vertices)
    assert stable_sum(terms) == willmore_energy(mesh, error_estimate=False).value


@pytest.mark.parametrize("build", [
    lambda: make_shape("tube_torus", resolution=32),
    lambda: perturb_mesh(make_shape("sphere", resolution=12), 0.02, seed=5),
    lambda: genus2_surface(),
    lambda: perturb_mesh(make_shape("clifford_torus", resolution=24), 0.05, seed=9),
    lambda: ellipsoid_s3(resolution=12),
], ids=["tube_torus", "sphere", "genus2", "clifford_torus", "ellipsoid_s3"])
def test_gradient_terms_are_the_energy_density(build):
    # the gradient differentiates the density willmore_energy sums, read
    # from the same principal curvatures; a mean curvature taken from the
    # shape operator's trace differs in the last bit at some vertices of
    # every mesh here
    mesh = build()
    field = estimate_curvatures(mesh)
    want = _bending_density(mesh.ambient, field.k1, field.k2, field.weight)
    assert np.array_equal(_local_terms(_LocalEnergyModel(mesh), mesh.vertices), want)


@pytest.mark.parametrize("kind", ["tube_torus", "clifford_torus"])
def test_model_energy_is_the_willmore_energy(kind):
    mesh = make_shape(kind, resolution=12)
    pts = perturb_mesh(mesh, 0.05, seed=7).vertices
    want = willmore_energy(mesh.with_vertices(pts), error_estimate=False).value
    assert _LocalEnergyModel(mesh).energy(pts) == want


def _bipyramid(k):
    """Closed bipyramid over a k-gon: equator vertices 0..k-1, apexes k and
    k+1. The apexes share all k equator vertices as neighbors."""
    t = 2.0 * np.pi * np.arange(k) / k
    verts = np.vstack([np.stack([np.cos(t), np.sin(t), np.zeros(k)], axis=1),
                       [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    e, e1 = np.arange(k), (np.arange(k) + 1) % k
    faces = np.vstack([np.stack([e, e1, np.full(k, k)], axis=1),
                       np.stack([e1, e, np.full(k, k + 1)], axis=1)])
    return TriMesh(verts, faces, ambient="R3")


def test_two_ring_counts_do_not_wrap():
    # 256 shared neighbors must not count as zero paths between the apexes
    mesh = _bipyramid(256)
    mesh.validate()
    ring, counts = _stencils(mesh)[:2]
    nbrs = [set() for _ in range(mesh.vertex_count)]
    for a, b in mesh.edges():
        nbrs[a].add(b)
        nbrs[b].add(a)
    for v in range(mesh.vertex_count):
        expect = set().union(nbrs[v], *(nbrs[w] for w in nbrs[v])) - {v}
        assert sorted(expect) == ring[v, :counts[v]].tolist(), v
    assert len(expect) == 257


@pytest.mark.parametrize("build", [
    lambda: perturb_mesh(make_shape("clifford_torus", resolution=12), 0.05, seed=9),
    lambda: genus2_surface(resolution=16),
    lambda: perturb_mesh(make_shape("sphere", resolution=8), 0.02, seed=5),
], ids=["clifford_torus", "genus2", "sphere"])
def test_gradient_does_not_depend_on_the_chunk_size(build, monkeypatch):
    # chunk-mates that neighbour each other must see each other unmoved
    mesh = build()
    want = willmore_gradient(mesh)
    for chunk in (1, 7, mesh.vertex_count):
        monkeypatch.setattr(cel.curvature, "_CHUNK", chunk)
        assert np.array_equal(willmore_gradient(mesh), want), chunk


def test_grouped_gradient_is_a_one_vertex_difference_bit_for_bit():
    # a valence-5 vertex's own row is padded, and its padded slots must
    # chart as exactly zero once the vertex moves
    mesh = perturb_mesh(make_shape("sphere", resolution=8), 0.02, seed=5)
    model = _LocalEnergyModel(mesh)
    grad = model.gradient(mesh.vertices)
    h = 1e-5 * mesh.bbox_diameter()
    for v in np.flatnonzero(np.bincount(mesh.faces.ravel()) == 5):
        rows = np.r_[v, model.ring[v, :model.counts[v]]]
        for axis in range(3):
            sums = []
            for sign in (1.0, -1.0):
                pts = mesh.vertices.copy()
                pts[v, axis] += sign * h
                f = model.field(pts)
                terms = _bending_density("R3", f.k1[rows], f.k2[rows], f.weight[rows])
                sums.append(np.add.reduceat(terms, [0])[0])
            assert (sums[0] - sums[1]) / (2.0 * h) == grad[v, axis], (v, axis)


def test_grouped_gradient_matches_brute_force_at_high_valence():
    # the apexes have valence 40 and a two-ring of every other vertex,
    # so every row is padded to the widest stencil
    mesh = perturb_mesh(_bipyramid(40), 0.02, seed=8)
    vertices = [40, 41, 0, 20]
    h = 1e-5 * mesh.bbox_diameter()
    fast = willmore_gradient(mesh)[vertices]
    slow = brute_willmore_gradient(mesh, h, vertices)[vertices]
    assert np.abs(fast - slow).max() / np.abs(slow).max() < 1e-9


def brute_mobius_gradient(link):
    """Central differences of the whole cross energy over every vertex and
    axis."""
    h = 1e-6 * link.diameter()
    n1 = len(link.gamma1)
    stacked = np.vstack([link.gamma1, link.gamma2])
    grad = np.zeros_like(stacked)
    for i in range(len(stacked)):
        for a in range(3):
            plus = stacked.copy()
            plus[i, a] += h
            minus = stacked.copy()
            minus[i, a] -= h
            ep = _cross_energy_sum(plus[:n1], plus[n1:])
            em = _cross_energy_sum(minus[:n1], minus[n1:])
            grad[i, a] = (ep - em) / (2.0 * h)
    return grad


def test_mobius_gradient_matches_brute_force():
    hopf = make_shape("hopf_link", resolution=16)
    link = perturb_link(project_link(hopf, _far_pole(hopf)), 0.05, seed=2)
    fast = np.vstack(mobius_gradient(link))
    slow = brute_mobius_gradient(link)
    assert np.abs(fast - slow).max() / np.abs(slow).max() < 1e-7


def test_mobius_gradient_takes_a_repeated_vertex():
    # a link may hold a zero-length segment; the derivative of its length
    # is taken as zero, the central difference of |v| at v = 0
    hopf = make_shape("hopf_link", resolution=16)
    flat = project_link(hopf, _far_pole(hopf))
    link = PolyLink(np.insert(flat.gamma1, 3, flat.gamma1[3], axis=0), flat.gamma2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = np.vstack(mobius_gradient(link))
    assert np.all(np.isfinite(fast))
    slow = brute_mobius_gradient(link)
    assert np.abs(fast - slow).max() / np.abs(slow).max() < 1e-5


def test_willmore_descent_decreases_energy():
    mesh = perturb_mesh(make_shape("clifford_torus", resolution=12), 0.05,
                        seed=9)
    final, trace = willmore_descent(mesh, steps=4)
    energies = np.array(trace.energies)
    assert np.all(np.diff(energies) <= 0.0)
    assert energies[-1] < energies[0]
    assert trace.status in ("max_steps", "stationary", "stagnated")
    assert np.max(np.abs(np.linalg.norm(final.vertices, axis=1) - 1.0)) < 1e-12


def test_descent_detects_stationarity(monkeypatch):
    monkeypatch.setattr(cel.optimize, "_GRAD_TOL", 1e9)
    mesh = make_shape("clifford_torus", resolution=12)
    _, trace = willmore_descent(mesh, steps=3)
    assert trace.status == "stationary"
    assert len(trace.energies) == 1


def test_mobius_descent_decreases_energy():
    hopf = make_shape("hopf_link", resolution=32)
    link = perturb_link(project_link(hopf, _far_pole(hopf)), 0.08, seed=9)
    final, trace = mobius_descent(link, steps=6)
    energies = np.array(trace.energies)
    assert np.all(np.diff(energies) <= 0.0)
    assert energies[-1] < energies[0]


def test_mobius_descent_resamples_without_raising_the_energy(monkeypatch):
    # 52 steps pass the resample point at 50 accepted steps
    hopf = make_shape("hopf_link", resolution=32)
    link = perturb_link(project_link(hopf, _far_pole(hopf)), 0.08, seed=9)
    calls = []
    resample = cel.optimize._resample_closed

    def counted(g, count):
        calls.append(resample(g, count))
        return calls[-1]

    monkeypatch.setattr(cel.optimize, "_resample_closed", counted)
    _, trace = mobius_descent(link, steps=52)
    assert [len(g) for g in calls] == [32, 32]
    # a kept resample is no step: its energy replaces the one of step 50,
    # and each energy still pairs with the gradient taken where it was
    assert len(trace.energies) == 1 + 52 and len(trace.gradient_norms) == 52
    assert trace.energies[50] == _cross_energy_sum(*calls)
    assert np.all(np.diff(trace.energies) <= 0.0)


def test_mobius_descent_stops_on_contact():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        link = make_shape("coaxial_circles", separation=0.001, resolution=64)
        _, trace = mobius_descent(link, steps=5)
    assert trace.status == "collision"
    assert len(trace.energies) == 1


def test_reference_surfaces_are_stationary(great_sphere16):
    assert willmore_relative_gradient(great_sphere16) < 1e-3


def test_tube_sweep_finds_sqrt2():
    radii = np.array([1.2, 1.3, np.sqrt(2.0), 1.5, 1.7])
    sweep = tube_family_sweep(radii=radii, resolution=16)
    assert sweep.min_radius == pytest.approx(np.sqrt(2.0))
    assert len(sweep.energies) == len(radii)
    with pytest.raises(ParameterError):
        tube_family_sweep(radii=np.array([0.9, 1.5]), resolution=16)


def test_tube_sweep_equals_its_per_tube_energies_bit_for_bit():
    radii = np.array([1.1, 1.3, np.sqrt(2.0), 2.2, 2.95])
    sweep = tube_family_sweep(radii=radii, resolution=24)
    per_tube = [willmore_energy(cel.tube_torus(big_radius=a, tube_radius=1.0,
                                               resolution=24),
                                error_estimate=False).value for a in radii]
    assert np.array_equal(sweep.energies, per_tube)


def test_tube_sweep_rejects_a_tube_with_other_faces(monkeypatch):
    # the sweep fits every tube on the first tube's stencils
    tube = cel.optimize.tube_torus

    def rolled(big_radius, **kw):
        mesh = tube(big_radius=big_radius, **kw)
        if big_radius > 1.5:
            mesh = TriMesh(mesh.vertices, mesh.faces[:, [1, 2, 0]])
        return mesh

    monkeypatch.setattr(cel.optimize, "tube_torus", rolled)
    with pytest.raises(cel.MeshQualityError, match="other faces"):
        tube_family_sweep(radii=np.array([1.2, 1.8]), resolution=16)


@pytest.mark.parametrize("move_scale", [0.0, -1.0, np.nan, np.inf])
def test_descents_need_a_positive_finite_move_scale(move_scale):
    mesh = make_shape("clifford_torus", resolution=8)
    with pytest.raises(ParameterError, match="move_scale"):
        willmore_descent(mesh, steps=1, move_scale=move_scale)
    hopf = make_shape("hopf_link", resolution=16)
    link = project_link(hopf, _far_pole(hopf))
    with pytest.raises(ParameterError, match="move_scale"):
        mobius_descent(link, steps=1, move_scale=move_scale)
