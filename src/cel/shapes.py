"""Mesh and link generators.

All generators take a `resolution` parameter with a floor of 8. Spheres (and
everything derived from them) are subdivided icosahedra whose resolution is
the subdivision frequency, giving 10*res^2 + 2 nearly uniform vertices. Tori
are res x res parameter grids with quads split along the shorter diagonal,
shorter by a relative gap over 1e-12; a cell whose diagonals agree to
rounding takes the a-c diagonal. Both diagonals of every cell of a surface
of revolution are equal in exact arithmetic, so tube faces depend only on
the resolution.
Generated meshes carry a `recipe` so half-resolution companions can be built
for error estimates.
"""

import inspect
import math

import numpy as np

from .curvature import _tangent_bases
from .errors import ParameterError, ResolutionError
from .mesh import PolyLink, TriMesh

RESOLUTION_FLOOR = 8


def _check_resolution(resolution):
    if int(resolution) != resolution or resolution < RESOLUTION_FLOOR:
        raise ResolutionError(f"resolution must be an integer >= {RESOLUTION_FLOOR}")
    return int(resolution)


def _icosahedron():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    v = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            v.append((0.0, a, b))
            v.append((a, b, 0.0))
            v.append((b, 0.0, a))
    verts = np.array(v) / math.sqrt(1.0 + phi * phi)
    # the 20 outward faces of the hull of these vertices
    faces = np.array([[0, 1, 2], [6, 2, 4], [6, 5, 0], [6, 0, 2], [7, 3, 1],
                      [7, 0, 5], [7, 1, 0], [8, 4, 2], [8, 2, 1], [8, 1, 3],
                      [8, 3, 9], [8, 9, 4], [10, 4, 9], [10, 6, 4], [10, 5, 6],
                      [11, 7, 5], [11, 9, 3], [11, 3, 7], [11, 10, 9], [11, 5, 10]],
                     dtype=np.int64)
    return verts, faces


def _icosphere(freq):
    """Unit sphere from a frequency-`freq` subdivision of the icosahedron.

    Point (i, j) of base face (t0, t1, t2) weighs its corners (freq - i - j,
    i, j). Shared points merge on one integer key, their sorted positive
    (corner, weight) pairs, and are numbered and placed by first occurrence
    in (face, i, j) order. Faces go per base face and cell, up triangle then
    down, which keeps the icosahedron's outward winding."""
    base_v, base_f = _icosahedron()
    m = freq + 1
    i, j = np.nonzero(np.add.outer(np.arange(m), np.arange(m)) <= freq)
    corners = np.repeat(base_f, len(i), axis=0)
    weights = np.tile(np.stack([freq - i - j, i, j], axis=1), (len(base_f), 1))
    code = np.sort(np.where(weights > 0, corners * m + weights, 12 * m), axis=1)
    key = (code[:, 0] * 13 * m + code[:, 1]) * 13 * m + code[:, 2]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    c, w = corners[first[order]], weights[first[order]]
    verts = (base_v[c[:, 0]] * w[:, :1] + base_v[c[:, 1]] * w[:, 1:2]
             + base_v[c[:, 2]] * w[:, 2:]) / freq
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    # local point of (i, j); -1 off the triangle drops diagonal cells' down faces
    grid = np.full((m, m), -1)
    grid[i, j] = np.arange(len(i))
    i, j = np.nonzero(np.add.outer(np.arange(m), np.arange(m)) < freq)
    cells = np.stack([grid[i, j], grid[i + 1, j], grid[i, j + 1], grid[i + 1, j],
                      grid[i + 1, j + 1], grid[i, j + 1]], axis=1).reshape(-1, 3)
    cells = cells[cells.min(axis=1) >= 0]
    faces = rank[inverse].reshape(len(base_f), -1)[:, cells].reshape(-1, 3)
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
    (i+1, j+1), (i, j+1) and is split along b-d only where that diagonal is
    shorter than a-c by a relative gap over 1e-12, and along a-c otherwise,
    so cells whose diagonals tie in exact arithmetic are not split by
    rounding."""
    if m is None:
        m = n
    i, j = np.divmod(np.arange(n * m), m)
    i1, j1 = (i + 1) % n, (j + 1) % m
    a, b, c, d = i * m + j, i1 * m + j, i1 * m + j1, i * m + j1
    diag_ac = np.sum((positions[a] - positions[c]) ** 2, axis=1)
    diag_bd = np.sum((positions[b] - positions[d]) ** 2, axis=1)
    faces = np.where((diag_bd < diag_ac * (1.0 - 1e-12))[:, None],
                     np.stack([a, b, d, b, c, d], axis=1),
                     np.stack([a, b, c, a, c, d], axis=1))
    return faces.reshape(-1, 3)


def tube_torus(big_radius=2.0, tube_radius=1.0, resolution=32):
    """Torus of revolution in R^3: tube of radius r around a circle of
    radius R, parametrized by tube angle u and ring angle v."""
    resolution = _check_resolution(resolution)
    if not 0.0 < tube_radius < big_radius:
        raise ParameterError("need 0 < tube_radius < big_radius")
    n = resolution
    t = 2.0 * np.pi * np.arange(n) / n
    uu, vv = np.meshgrid(t, t, indexing="ij")
    ring = big_radius + tube_radius * np.cos(uu)
    verts = np.stack([ring * np.cos(vv), ring * np.sin(vv),
                      tube_radius * np.sin(uu)], axis=-1).reshape(-1, 3)
    # the (u, v) grid winds inward for every 0 < r < R; reverse it
    faces = _grid_torus_faces(verts, n)[:, [0, 2, 1]]
    return TriMesh(verts, faces, ambient="R3",
                   recipe=("tube_torus", {"big_radius": big_radius,
                                          "tube_radius": tube_radius}, resolution))


def clifford_torus(resolution=32):
    """The square torus in the unit three-sphere: both circle factors have
    radius 1/sqrt(2)."""
    resolution = _check_resolution(resolution)
    n = resolution
    t = 2.0 * np.pi * np.arange(n) / n
    uu, vv = np.meshgrid(t, t, indexing="ij")
    s = 1.0 / np.sqrt(2.0)
    verts = np.stack([np.cos(uu), np.sin(uu), np.cos(vv), np.sin(vv)],
                     axis=-1).reshape(-1, 4) * s
    faces = _grid_torus_faces(verts, n)
    return TriMesh(verts, faces, ambient="S3",
                   recipe=("clifford_torus", {}, resolution))


def _unit_r4(vector, name):
    """`vector` as a unit array of R^4, or a ParameterError naming it; NaN
    fails the comparison and so is refused too."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (4,) or not abs(np.linalg.norm(vector) - 1.0) <= 1e-9:
        raise ParameterError(f"{name} must be a unit vector in R^4")
    return vector / np.linalg.norm(vector)


def geodesic_sphere(center, radius, resolution=32):
    """Distance sphere in S^3: points at geodesic distance `radius` from
    `center`. Radius pi/2 gives a great two-sphere. Whatever the center,
    the faces wind so that the normal points away from it, and
    k1 = k2 = cot(radius) about that normal."""
    resolution = _check_resolution(resolution)
    center = _unit_r4(center, "center")
    if not 0.0 < radius < np.pi:
        raise ParameterError("radius must lie in (0, pi)")
    basis = _tangent_bases(center[None])[0]  # (3, 4)
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
    if not (float(p).is_integer() and float(q).is_integer()):
        raise ParameterError("torus_link needs integer p and q")
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
_KINDS = {**_MESH_KINDS, **_LINK_KINDS}


def make_shape(kind, resolution, **params):
    """Build a named shape. Mesh kinds return TriMesh, link kinds PolyLink.
    Every parameter but the `center` of a geodesic sphere is one number."""
    if kind not in _KINDS:
        raise ParameterError(f"unknown shape kind {kind!r}; known kinds: {list(KNOWN_SHAPES)}")
    signature = inspect.signature(_KINDS[kind])
    unknown = sorted(set(params) - set(signature.parameters))
    if unknown:
        raise ParameterError(f"{kind} takes no parameter(s) {unknown}")
    try:
        signature.bind(resolution=resolution, **params)
    except TypeError as exc:
        raise ParameterError(f"{kind}: {exc}") from exc
    lists = sorted(k for k, v in params.items() if k != "center" and np.ndim(v))
    if lists:
        raise ParameterError(f"{kind}: parameter(s) {lists} take one number, not a list")
    return _KINDS[kind](resolution=resolution, **params)
