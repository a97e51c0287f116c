"""Mesh and link generators.

All generators take a `resolution` parameter with a floor of 8. Spheres (and
everything derived from them) are subdivided icosahedra whose resolution is
the subdivision frequency, giving 10*res^2 + 2 nearly uniform vertices. Tori
are res x res parameter grids with quads split along the shorter diagonal.
Generated meshes carry a `recipe` so half-resolution companions can be built
for error estimates.
"""

import math

import numpy as np
from scipy.spatial import ConvexHull

from .errors import ParameterError, ResolutionError
from .mesh import PolyLink, TriMesh

RESOLUTION_FLOOR = 8


def _check_resolution(resolution):
    if int(resolution) != resolution or resolution < RESOLUTION_FLOOR:
        raise ResolutionError(f"resolution must be an integer >= {RESOLUTION_FLOOR}")
    return int(resolution)


def _signed_volume(vertices, faces):
    a = vertices[faces[:, 0]]
    b = vertices[faces[:, 1]]
    c = vertices[faces[:, 2]]
    return float(np.einsum("ij,ij->", a, np.cross(b, c))) / 6.0


def _orient_outward(vertices, faces):
    """Flip all faces if the enclosed signed volume is negative."""
    if _signed_volume(vertices, faces) < 0.0:
        faces = faces[:, [0, 2, 1]]
    return faces


def _icosahedron():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    v = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            v.append((0.0, a, b))
            v.append((a, b, 0.0))
            v.append((b, 0.0, a))
    verts = np.array(v) / math.sqrt(1.0 + phi * phi)
    hull = ConvexHull(verts)
    faces = hull.simplices.astype(np.int64)
    # hull simplices come with arbitrary winding; make each face outward
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    flip = np.einsum("ij,ij->i", np.cross(b - a, c - a), a) < 0.0
    faces[flip] = faces[flip][:, [0, 2, 1]]
    return verts, faces


def _icosphere(freq):
    """Unit sphere from a frequency-`freq` subdivision of the icosahedron."""
    base_v, base_f = _icosahedron()
    key_to_index = {}
    verts = []
    faces = []

    def corner_key(ids, weights):
        items = tuple(sorted((int(i), int(w)) for i, w in zip(ids, weights) if w > 0))
        return items

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
    faces = np.array(faces, dtype=np.int64)
    faces = _orient_outward(verts, faces)
    return verts, faces


def sphere(radius=1.0, resolution=32):
    """Round sphere of the given radius in R^3."""
    resolution = _check_resolution(resolution)
    if radius <= 0.0:
        raise ParameterError("sphere radius must be positive")
    verts, faces = _icosphere(resolution)
    return TriMesh(verts * radius, faces, ambient="R3",
                   recipe=("sphere", {"radius": radius}, resolution))


def ellipsoid(a=1.0, b=1.0, c=1.0, resolution=32):
    """Axis-aligned ellipsoid with semi-axes a, b, c."""
    resolution = _check_resolution(resolution)
    if min(a, b, c) <= 0.0:
        raise ParameterError("ellipsoid semi-axes must be positive")
    verts, faces = _icosphere(resolution)
    verts = verts * np.array([a, b, c])
    return TriMesh(verts, faces, ambient="R3",
                   recipe=("ellipsoid", {"a": a, "b": b, "c": c}, resolution))


def _grid_torus_faces(positions, n, m=None):
    """Faces for an n x m wraparound grid, two per cell in row-major cell
    order. The quad a, b, c, d of cell (i, j) runs (i, j), (i+1, j),
    (i+1, j+1), (i, j+1) and is split along the shorter diagonal (ties take
    the a-c diagonal)."""
    if m is None:
        m = n
    i, j = np.divmod(np.arange(n * m), m)
    i1, j1 = (i + 1) % n, (j + 1) % m
    a, b, c, d = i * m + j, i1 * m + j, i1 * m + j1, i * m + j1
    diag_ac = np.sum((positions[a] - positions[c]) ** 2, axis=1)
    diag_bd = np.sum((positions[b] - positions[d]) ** 2, axis=1)
    faces = np.where((diag_ac <= diag_bd)[:, None],
                     np.stack([a, b, c, a, c, d], axis=1),
                     np.stack([a, b, d, b, c, d], axis=1))
    return faces.reshape(-1, 3)


def tube_torus(big_radius=2.0, tube_radius=1.0, resolution=32):
    """Torus of revolution in R^3: tube of radius r around a circle of
    radius R, parametrized by tube angle u and ring angle v."""
    resolution = _check_resolution(resolution)
    if not 0.0 < tube_radius < big_radius:
        raise ParameterError("need 0 < tube_radius < big_radius")
    n = resolution
    u = 2.0 * np.pi * np.arange(n) / n
    v = 2.0 * np.pi * np.arange(n) / n
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ring = big_radius + tube_radius * np.cos(uu)
    verts = np.stack([ring * np.cos(vv), ring * np.sin(vv),
                      tube_radius * np.sin(uu)], axis=-1).reshape(-1, 3)
    faces = _grid_torus_faces(verts, n)
    faces = _orient_outward(verts, faces)
    return TriMesh(verts, faces, ambient="R3",
                   recipe=("tube_torus", {"big_radius": big_radius,
                                          "tube_radius": tube_radius}, resolution))


def clifford_torus(resolution=32):
    """The square torus in the unit three-sphere: both circle factors have
    radius 1/sqrt(2)."""
    resolution = _check_resolution(resolution)
    n = resolution
    u = 2.0 * np.pi * np.arange(n) / n
    v = 2.0 * np.pi * np.arange(n) / n
    uu, vv = np.meshgrid(u, v, indexing="ij")
    s = 1.0 / np.sqrt(2.0)
    verts = np.stack([np.cos(uu), np.sin(uu), np.cos(vv), np.sin(vv)],
                     axis=-1).reshape(-1, 4) * s
    faces = _grid_torus_faces(verts, n)
    return TriMesh(verts, faces, ambient="S3",
                   recipe=("clifford_torus", {}, resolution))


def _orthobasis(p):
    """Deterministic orthonormal basis of the hyperplane orthogonal to p."""
    p = np.asarray(p, dtype=np.float64)
    p = p / np.linalg.norm(p)
    d = len(p)
    order = sorted(range(d), key=lambda i: (abs(p[i]), i))
    basis = []
    for idx in order:
        cand = np.zeros(d)
        cand[idx] = 1.0
        cand -= p[idx] * p
        for b in basis:
            cand = cand - np.dot(cand, b) * b
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            basis.append(cand / norm)
        if len(basis) == d - 1:
            break
    return np.array(basis)


def geodesic_sphere(center, radius, resolution=32):
    """Distance sphere in S^3: points at geodesic distance `radius` from
    `center`. Radius pi/2 gives a great two-sphere."""
    resolution = _check_resolution(resolution)
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (4,) or abs(np.linalg.norm(center) - 1.0) > 1e-9:
        raise ParameterError("center must be a unit vector in R^4")
    if not 0.0 < radius < np.pi:
        raise ParameterError("radius must lie in (0, pi)")
    center = center / np.linalg.norm(center)
    basis = _orthobasis(center)  # (3, 4)
    q, faces = _icosphere(resolution)
    verts = math.cos(radius) * center + math.sin(radius) * (q @ basis)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    return TriMesh(verts, faces, ambient="S3",
                   recipe=("geodesic_sphere", {"center": tuple(center),
                                               "radius": radius}, resolution))


def hopf_link(resolution=64):
    """The two core circles of the unit three-sphere: one in the x1 x2
    plane, one in the x3 x4 plane."""
    resolution = _check_resolution(resolution)
    t = 2.0 * np.pi * np.arange(resolution) / resolution
    g1 = np.stack([np.cos(t), np.sin(t), np.zeros_like(t), np.zeros_like(t)], axis=1)
    g2 = np.stack([np.zeros_like(t), np.zeros_like(t), np.cos(t), np.sin(t)], axis=1)
    return PolyLink(g1, g2)


def coaxial_circles(separation=10.0, resolution=64):
    """Two parallel unit circles on a common axis, an unlinked pair."""
    resolution = _check_resolution(resolution)
    if separation <= 0.0:
        raise ParameterError("separation must be positive")
    t = 2.0 * np.pi * np.arange(resolution) / resolution
    g1 = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    g2 = np.stack([np.cos(t), np.sin(t), np.full_like(t, separation)], axis=1)
    return PolyLink(g1, g2)


def torus_link(p=2, q=4, resolution=64):
    """Two-component torus link: parallel (p/2, q/2) curves on the torus
    with radii R=2, r=1, offset half a turn in the tube angle."""
    resolution = _check_resolution(resolution)
    if math.gcd(int(p), int(q)) != 2:
        raise ParameterError("torus_link needs gcd(p, q) == 2 for two components")
    p2, q2 = int(p) // 2, int(q) // 2
    big_r, tube_r = 2.0, 1.0
    t = 2.0 * np.pi * np.arange(resolution) / resolution
    comps = []
    for k in (0, 1):
        phi = p2 * t
        theta = q2 * t + np.pi * k
        ring = big_r + tube_r * np.cos(theta)
        comps.append(np.stack([ring * np.cos(phi), ring * np.sin(phi),
                               tube_r * np.sin(theta)], axis=1))
    return PolyLink(comps[0], comps[1])


_MESH_KINDS = {
    "sphere": sphere,
    "ellipsoid": ellipsoid,
    "tube_torus": tube_torus,
    "clifford_torus": clifford_torus,
    "geodesic_sphere": geodesic_sphere,
}

_LINK_KINDS = {
    "hopf_link": hopf_link,
    "coaxial_circles": coaxial_circles,
    "torus_link": torus_link,
}

MESH_KINDS = tuple(sorted(_MESH_KINDS))
LINK_KINDS = tuple(sorted(_LINK_KINDS))
KNOWN_SHAPES = MESH_KINDS + LINK_KINDS


def make_shape(kind, resolution, **params):
    """Build a named shape. Mesh kinds return TriMesh, link kinds PolyLink."""
    if kind in _MESH_KINDS:
        return _MESH_KINDS[kind](resolution=resolution, **params)
    if kind in _LINK_KINDS:
        return _LINK_KINDS[kind](resolution=resolution, **params)
    known = sorted(_MESH_KINDS) + sorted(_LINK_KINDS)
    raise ParameterError(f"unknown shape kind {kind!r}; known kinds: {known}")
