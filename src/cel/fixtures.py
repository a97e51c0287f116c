"""Derived test surfaces: a generic ellipsoid on the three-sphere, a glued
genus-two surface, and seeded perturbation helpers."""

import numpy as np

from .errors import ParameterError
from .mesh import PolyLink, TriMesh, _segments
from .projection import lift_mesh
from .shapes import ellipsoid, tube_torus


def ellipsoid_s3(resolution=32):
    """Ellipsoid with semi-axes 1, 0.8 and 0.6 carried onto the three-sphere
    by inverse stereographic projection from the pole (0, 0, 0, 1).
    Distinct semi-axes keep the principal curvatures distinct almost
    everywhere, which makes it a good generic test surface."""
    flat = ellipsoid(a=1.0, b=0.8, c=0.6, resolution=resolution)
    return lift_mesh(flat, np.array([0.0, 0.0, 0.0, 1.0]))


def genus2_surface():
    """Genus-two surface: two tube tori (ring radius 2, tube radius 1,
    resolution 16) joined through a square neck.

    One grid cell (two faces) is removed from the outermost point of a tube
    torus; the second torus is the mirror image through a plane just beyond
    that point, with face windings flipped to restore orientation. Matching
    boundary vertices are merged at their midpoints, which land on the
    mirror plane, forming the neck. The result is closed, consistently
    oriented, and has Euler characteristic -2.
    """
    big_radius, tube_radius, n = 2.0, 1.0, 16
    base = tube_torus(big_radius=big_radius, tube_radius=tube_radius,
                      resolution=n)
    verts1 = base.vertices
    # drop the two faces of the first grid cell, whose corners are grid
    # vertices 0, 1, n and n + 1; vertex 0 sits at the outermost point
    # (R + r, 0, 0) of the torus
    faces1 = base.faces[2:]
    quad = np.unique(base.faces[:2])

    outer = big_radius + tube_radius
    cell_span = np.linalg.norm(verts1[0] - verts1[n + 1])
    plane_x = outer + 0.25 * cell_span

    verts2 = verts1.copy()
    verts2[:, 0] = 2.0 * plane_x - verts2[:, 0]
    faces2 = faces1[:, [0, 2, 1]]  # mirror image needs rewinding

    v0 = len(verts1)
    merged = np.vstack([verts1, verts2])
    faces2 = faces2 + v0

    # merge each boundary vertex with its own mirror image; the midpoint is
    # the projection onto the mirror plane
    remap = np.arange(2 * v0)
    for vid in quad:
        remap[v0 + vid] = vid
        merged[vid] = 0.5 * (verts1[vid] + verts2[vid])
    faces = remap[np.vstack([faces1, faces2])]

    used = np.zeros(2 * v0, dtype=bool)
    used[faces.ravel()] = True
    new_id = np.cumsum(used) - 1
    return TriMesh(merged[used], new_id[faces], ambient="R3")


def perturb_mesh(mesh, amplitude, seed=0):
    """Seeded Gaussian jitter of the vertices, scaled by `amplitude` times
    the mean edge length; vertices of a three-sphere mesh are renormalized
    afterward. The generator recipe is dropped because the perturbed shape
    no longer has one."""
    if amplitude < 0.0:
        raise ParameterError("amplitude must be nonnegative")
    rng = np.random.default_rng(seed)
    scale = amplitude * float(np.mean(mesh.edge_lengths()))
    pts = mesh.vertices + scale * rng.standard_normal(mesh.vertices.shape)
    if mesh.ambient == "S3":
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    return mesh.with_vertices(pts)


def perturb_link(link, amplitude, seed=0):
    """Seeded Gaussian jitter of both components, scaled by `amplitude`
    times the mean segment length. A link on the unit sphere stays there:
    the jittered points are pulled back radially."""
    if amplitude < 0.0:
        raise ParameterError("amplitude must be nonnegative")
    rng = np.random.default_rng(seed)
    segs = [np.linalg.norm(_segments(g)[1], axis=1) for g in (link.gamma1, link.gamma2)]
    scale = amplitude * float(np.mean(np.concatenate(segs)))
    spherical = link.on_sphere()
    g1 = link.gamma1 + scale * rng.standard_normal(link.gamma1.shape)
    g2 = link.gamma2 + scale * rng.standard_normal(link.gamma2.shape)
    if spherical:
        g1 = g1 / np.linalg.norm(g1, axis=1)[:, None]
        g2 = g2 / np.linalg.norm(g2, axis=1)[:, None]
    return PolyLink(g1, g2)
