"""Gradients checked against brute-force differencing, then the descents."""

import warnings

import numpy as np
import pytest

import cel.optimize
from cel import (MeshQualityError, ParameterError, PolyLink,
                 ResolutionWarning, TriMesh, estimate_curvatures,
                 genus2_surface, make_shape,
                 mobius_descent, mobius_energy, tube_family_sweep,
                 willmore_descent, willmore_energy, willmore_relative_gradient)
import cel.curvature
from cel._accum import stable_sum
from cel.curvature import _bending_density, _LocalEnergyModel, _stencils
from cel.energies import _far_pole, _cross_energy_sum
from cel.fixtures import ellipsoid_s3, perturb_link, perturb_mesh
from cel.mesh import _vertex_areas
from cel.optimize import mobius_gradient, willmore_gradient
from cel.projection import project_link


def _richardson(difference, h0, halvings=3):
    """Richardson tableau of a central difference quotient difference(h),
    whose error is even in h, over the steps h0 / 2^k for k up to
    `halvings`, extrapolated to the end. More halvings only add roundoff:
    at the high-valence apexes five of them leave 2.3e-9 where three
    leave 5.7e-10."""
    table = []
    for k in range(halvings + 1):
        row = [difference(h0 / 2 ** k)]
        for j in range(1, k + 1):
            row.append(row[j - 1] + (row[j - 1] - table[-1][j - 1]) / (4 ** j - 1))
        table.append(row)
    return table[-1][-1]


def _energy_along(mesh):
    """Total bending energy of the mesh's connectivity at given positions,
    one full curvature refit per evaluation, renormalized on S^3."""
    s3 = mesh.ambient == "S3"

    def energy(verts):
        if s3:
            verts = verts / np.linalg.norm(verts, axis=1)[:, None]
        f = estimate_curvatures(mesh.with_vertices(verts))
        hmean = f.mean()
        dens = 1.0 + hmean ** 2 if s3 else hmean ** 2
        return float(np.sum(dens * f.weight))
    return energy


def _directional(mesh, direction):
    """Richardson-extrapolated central difference of the bending energy
    along `direction` (V, dim)."""
    energy = _energy_along(mesh)
    x = mesh.vertices
    return _richardson(lambda h: (energy(x + h * direction) - energy(x - h * direction))
                       / (2.0 * h), 3e-5 * mesh.bbox_diameter())


def brute_willmore_gradient(mesh, vertices=None):
    """Richardson-extrapolated central differences over every vertex (or
    the given ones) and axis. Only usable on tiny meshes."""
    grad = np.zeros_like(mesh.vertices)
    for i in range(mesh.vertex_count) if vertices is None else vertices:
        for a in range(mesh.vertices.shape[1]):
            direction = np.zeros_like(mesh.vertices)
            direction[i, a] = 1.0
            grad[i, a] = _directional(mesh, direction)
    return grad


def test_grouped_gradient_matches_brute_force_r3():
    mesh = perturb_mesh(make_shape("tube_torus", resolution=8), 0.02, seed=3)
    fast = willmore_gradient(mesh)
    slow = brute_willmore_gradient(mesh)
    scale = np.abs(slow).max()
    assert np.abs(fast - slow).max() / scale < 1e-6


def test_grouped_gradient_matches_brute_force_s3():
    mesh = perturb_mesh(make_shape("clifford_torus", resolution=8), 0.02,
                        seed=4)
    fast = willmore_gradient(mesh)
    slow = brute_willmore_gradient(mesh)
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
    fast = willmore_gradient(mesh)[vertices]
    slow = brute_willmore_gradient(mesh, vertices)[vertices]
    assert np.abs(fast - slow).max() / np.abs(slow).max() < 1e-6


def _local_terms(model, positions):
    """The energy density of every stencil row, read from the forward pass
    and the vertex areas the gradient differentiates."""
    _, _, (_, (k1, k2), _, _) = model._forward(positions, np.arange(len(positions)))
    return _bending_density(model.ambient, k1, k2, _vertex_areas(positions, model.faces))


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
    genus2_surface,
    lambda: perturb_mesh(make_shape("sphere", resolution=8), 0.02, seed=5),
], ids=["clifford_torus", "genus2", "sphere"])
def test_gradient_does_not_depend_on_the_row_block_size(build, monkeypatch):
    # rows are independent; blocks change only the order of the sums
    mesh = build()
    want = willmore_gradient(mesh)
    for rows in (1, 7, mesh.vertex_count):
        monkeypatch.setattr(cel.curvature, "_GRAD_ROWS", rows)
        got = willmore_gradient(mesh)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), rows


def test_grouped_gradient_matches_brute_force_at_high_valence():
    # the apexes have valence 40 and a two-ring of every other vertex,
    # so every row is padded to the widest stencil
    mesh = perturb_mesh(_bipyramid(40), 0.02, seed=8)
    vertices = [40, 41, 0, 20]
    fast = willmore_gradient(mesh)[vertices]
    slow = brute_willmore_gradient(mesh, vertices)[vertices]
    assert np.abs(fast - slow).max() / np.abs(slow).max() < 1e-9


_INVARIANT_MESHES = {
    "tube_torus": lambda: perturb_mesh(make_shape("tube_torus", resolution=12), 0.05, seed=3),
    "genus2": lambda: genus2_surface(),
    "sphere": lambda: perturb_mesh(make_shape("sphere", resolution=8), 0.05, seed=5),
    "clifford_torus": lambda: perturb_mesh(make_shape("clifford_torus", resolution=12),
                                           0.05, seed=4),
    "ellipsoid_s3": lambda: ellipsoid_s3(resolution=12),
}


@pytest.mark.parametrize("kind", ["tube_torus", "genus2", "sphere"])
def test_r3_gradient_is_blind_to_similarities(kind):
    # H^2 w is invariant under translations, rotations and scalings, so the
    # gradient has no net force, torque or dilation
    mesh = _INVARIANT_MESHES[kind]()
    x = mesh.vertices - mesh.vertices.mean(axis=0)
    g = _LocalEnergyModel(mesh).gradient(x)
    size = np.linalg.norm(x, axis=1)[:, None]
    bound = 1e-12 * np.sum(size * np.linalg.norm(g, axis=1)[:, None])
    assert np.abs(g.sum(axis=0)).max() <= 1e-12 * np.abs(g).sum()
    assert np.abs(np.cross(x, g).sum(axis=0)).max() <= bound
    assert abs(np.sum(x * g)) <= bound


@pytest.mark.parametrize("kind", ["clifford_torus", "ellipsoid_s3"])
def test_s3_gradient_is_tangent_and_blind_to_rotations(kind):
    # (1 + H^2) w is invariant under SO(4): the gradient has no torque in
    # any plane of R^4, and it is tangent to the sphere at every vertex
    mesh = _INVARIANT_MESHES[kind]()
    x = mesh.vertices
    g = willmore_gradient(mesh)
    norms = np.linalg.norm(g, axis=1)
    assert np.all(np.abs(np.einsum("vd,vd->v", x, g)) <= 1e-14 * norms.max())
    torque = x.T @ g
    assert np.abs(torque - torque.T).max() <= 1e-12 * norms.sum()


@pytest.mark.parametrize("kind", sorted(_INVARIANT_MESHES))
def test_gradient_is_the_directional_derivative(kind):
    mesh = _INVARIANT_MESHES[kind]()
    rng = np.random.default_rng(11)
    direction = rng.standard_normal(mesh.vertices.shape)
    if mesh.ambient == "S3":
        x = mesh.vertices
        direction -= np.einsum("vd,vd->v", direction, x)[:, None] * x
    want = _directional(mesh, direction)
    got = float(np.sum(willmore_gradient(mesh) * direction))
    assert abs(got - want) <= 1e-8 * abs(want)


def test_gradient_is_finite_across_a_collinear_face():
    # a zero-area triangle has no derivative of its area; it takes 0
    mesh = make_shape("tube_torus", resolution=12)
    a, b, c = mesh.faces[0]
    verts = mesh.vertices.copy()
    verts[c] = 0.5 * (verts[a] + verts[b])
    flat = mesh.with_vertices(verts)
    assert flat.face_areas()[0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        g = willmore_gradient(flat)
    assert np.all(np.isfinite(g))


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
    final, trace = willmore_descent(mesh, steps=3)
    assert trace.status == "stationary"
    assert len(trace.energies) == 1
    # no step was accepted, so the input comes back untouched
    assert np.array_equal(final.vertices, mesh.vertices)


@pytest.mark.parametrize("steps", [1, 3])
def test_descent_returns_the_mesh_its_trace_ends_on(steps):
    mesh = perturb_mesh(make_shape("geodesic_sphere", center=(1, 0, 0, 0),
                                   radius=1.0, resolution=16), 0.06, seed=11)
    final, trace = willmore_descent(mesh, steps=steps)
    assert len(trace.energies) == steps + 1
    assert willmore_energy(final, error_estimate=False).value == trace.energies[-1]


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


def _perturbed_flat_hopf():
    hopf = make_shape("hopf_link", resolution=32)
    return perturb_link(project_link(hopf, _far_pole(hopf)), 0.08, seed=9)


def test_descents_stagnate_when_no_halving_is_left(monkeypatch):
    # without a halving the line search tries nothing and accepts nothing
    monkeypatch.setattr(cel.optimize, "_HALVINGS", 0)
    mesh = perturb_mesh(make_shape("clifford_torus", resolution=12), 0.05, seed=9)
    final, trace = willmore_descent(mesh, steps=3)
    assert trace.status == "stagnated"
    assert len(trace.energies) == len(trace.gradient_norms) == 1
    assert np.array_equal(final.vertices, mesh.vertices)
    link = _perturbed_flat_hopf()
    final, trace = mobius_descent(link, steps=3)
    assert trace.status == "stagnated"
    assert len(trace.energies) == len(trace.gradient_norms) == 1
    assert np.array_equal(final.gamma1, link.gamma1)
    assert np.array_equal(final.gamma2, link.gamma2)


def test_line_search_scores_a_broken_candidate_as_infinite():
    # the full step folds the mesh; the halved step is accepted
    tried = []

    def evaluate(x):
        tried.append(float(x[0]))
        if x[0] < -0.5:
            raise MeshQualityError("folded")
        return float(x @ x)

    x = np.array([1.0])
    new, e, ok = cel.optimize._armijo(evaluate, x, 2.0 * x, 1.0, 1.0)
    assert tried == [-1.0, 0.0]
    assert ok and e == 0.0 and np.array_equal(new, [0.0])


def test_mobius_descent_detects_stationarity(monkeypatch):
    monkeypatch.setattr(cel.optimize, "_GRAD_TOL", 1e9)
    link = _perturbed_flat_hopf()
    final, trace = mobius_descent(link, steps=3)
    assert trace.status == "stationary"
    assert len(trace.energies) == len(trace.gradient_norms) == 1
    assert np.array_equal(final.gamma1, link.gamma1)


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
