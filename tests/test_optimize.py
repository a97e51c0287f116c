"""Gradients checked against brute-force differencing, then the descents."""

import warnings

import numpy as np
import pytest

import cel.optimize
from cel import (ParameterError, ResolutionWarning, TriMesh, estimate_curvatures,
                 genus2_surface, make_shape, mobius_descent, mobius_energy,
                 tube_family_sweep, willmore_descent, willmore_energy,
                 willmore_relative_gradient)
from cel.curvature import _stencils
from cel.energies import _far_pole, _cross_energy_sum
from cel.fixtures import perturb_link, perturb_mesh
from cel.optimize import (_LocalEnergyModel, mobius_gradient,
                          willmore_gradient)
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


@pytest.mark.parametrize("kind", ["tube_torus", "sphere", "clifford_torus"])
def test_local_terms_sum_to_the_energy(kind):
    mesh = perturb_mesh(make_shape(kind, resolution=12), 0.05, seed=6)
    terms = _LocalEnergyModel(mesh).energy_terms(
        mesh.vertices, np.arange(mesh.vertex_count))
    want = willmore_energy(mesh, error_estimate=False).value
    assert abs(np.sum(terms) - want) <= 1e-12 * abs(want)


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
        monkeypatch.setattr(cel.optimize, "_CHUNK", chunk)
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
                sums.append(np.add.reduceat(model.energy_terms(pts, rows), [0])[0])
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


def test_mobius_gradient_matches_brute_force():
    hopf = make_shape("hopf_link", resolution=16)
    link = perturb_link(project_link(hopf, _far_pole(hopf)), 0.05, seed=2)
    fast = np.vstack(mobius_gradient(link))
    h = 1e-6 * link.diameter()
    n1 = len(link.gamma1)
    slow = np.zeros_like(fast)
    stacked = np.vstack([link.gamma1, link.gamma2])
    for i in range(len(stacked)):
        for a in range(3):
            plus = stacked.copy()
            plus[i, a] += h
            minus = stacked.copy()
            minus[i, a] -= h
            ep = _cross_energy_sum(plus[:n1], plus[n1:])
            em = _cross_energy_sum(minus[:n1], minus[n1:])
            slow[i, a] = (ep - em) / (2.0 * h)
    assert np.abs(fast - slow).max() / np.abs(slow).max() < 1e-4


def test_willmore_descent_decreases_energy():
    mesh = perturb_mesh(make_shape("clifford_torus", resolution=12), 0.05,
                        seed=9)
    final, trace = willmore_descent(mesh, steps=4)
    energies = np.array(trace.energies)
    assert np.all(np.diff(energies) <= 0.0)
    assert energies[-1] < energies[0]
    assert trace.status in ("max_steps", "stationary", "stagnated")
    assert np.max(np.abs(np.linalg.norm(final.vertices, axis=1) - 1.0)) < 1e-12


def test_descent_detects_stationarity():
    mesh = make_shape("clifford_torus", resolution=12)
    _, trace = willmore_descent(mesh, steps=3, grad_tol=1e9)
    assert trace.status == "stationary"
    assert len(trace.energies) == 1


def test_mobius_descent_decreases_energy():
    hopf = make_shape("hopf_link", resolution=32)
    link = perturb_link(project_link(hopf, _far_pole(hopf)), 0.08, seed=9)
    final, trace = mobius_descent(link, steps=6)
    energies = np.array(trace.energies)
    assert np.all(np.diff(energies) <= 0.0)
    assert energies[-1] < energies[0]


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
