"""Stereographic projection between the unit three-sphere and R^3.

The forward map projects from a pole P: a point x of S^3 with x != P goes to
the hyperplane orthogonal to P, scaled so that the equator two-sphere of P
lands on the unit sphere of R^3. Coordinates on that hyperplane come from
the frame of P-perp that the curvature charts use (curvature._tangent_bases),
which has det[P; frame] < 0 at every P. So every chart keeps the orientation
of S^3 as the boundary of the unit ball (outward normal first), whatever the
pole. For the pole (0, 0, 0, 1) the image coordinates are just the first
three ambient coordinates rescaled.
"""

import numpy as np

from .curvature import _tangent_bases
from .errors import InputError, NearPoleError, ParameterError
from .mesh import PolyLink, TriMesh
from .shapes import _unit_r4


def _rows(points, dim):
    """points as a finite float (n, dim) array, n >= 1; anything else is a
    ParameterError. NaN would slip past every later norm comparison."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != dim or len(pts) == 0:
        raise ParameterError(f"expected an (n, {dim}) array of points in R^{dim}, "
                             "n >= 1")
    if not np.isfinite(pts).all():
        raise ParameterError("points must be finite")
    return pts


def _check_on_sphere(points):
    err = np.abs(np.linalg.norm(points, axis=-1) - 1.0)
    if err.max() > 1e-9:
        raise InputError(f"points must lie on S^3 (max |1 - |x|| = {err.max():.3g})")


def stereographic(points, pole):
    """Project (n, 4) points of S^3 \\ {pole} to (n, 3) points of R^3.

    x maps to (x - <x,P>P) / (1 - <x,P>), expressed in the tangent frame of
    P-perp. The equator two-sphere of the pole maps to the unit sphere, the
    antipode of the pole to the origin.
    """
    pole = _unit_r4(pole, "pole")
    pts = _rows(points, 4)
    _check_on_sphere(pts)
    basis = _tangent_bases(pole[None])[0]
    diff = pts - pole
    dist = np.linalg.norm(diff, axis=1)
    if dist.min() < 1e-9:
        raise NearPoleError(f"point within {dist.min():.3g} of the projection pole")
    # 1 - <x,P> = |x - P|^2 / 2 for unit vectors; the difference form stays
    # accurate when x is close to the pole
    denom = 0.5 * dist**2
    return (pts @ basis.T) / denom[:, None]


def stereographic_inverse(points, pole):
    """Inverse of `stereographic`: (n, 3) points of R^3 map back to S^3 \\ {pole}."""
    pole = _unit_r4(pole, "pole")
    pts = _rows(points, 3)
    basis = _tangent_bases(pole[None])[0]
    s = np.sum(pts**2, axis=1)
    out = (2.0 * (pts @ basis) + (s - 1.0)[:, None] * pole) / (s + 1.0)[:, None]
    return out / np.linalg.norm(out, axis=1)[:, None]


def project_mesh(mesh, pole):
    """Stereographic image of an S3 mesh as an R3 mesh (same faces)."""
    if mesh.ambient != "S3":
        raise InputError("project_mesh expects an S3 mesh")
    verts = stereographic(mesh.vertices, pole)
    return TriMesh(verts, mesh.faces.copy(), ambient="R3")


def project_link(link, pole):
    """Stereographic image of an R^4 link as an R^3 link."""
    if link.dim != 4:
        raise InputError("project_link expects a link in R^4")
    return PolyLink(stereographic(link.gamma1, pole),
                    stereographic(link.gamma2, pole))


def lift_mesh(mesh, pole):
    """Inverse stereographic image of an R3 mesh as an S3 mesh."""
    if mesh.ambient != "R3":
        raise InputError("lift_mesh expects an R3 mesh")
    verts = stereographic_inverse(mesh.vertices, pole)
    return TriMesh(verts, mesh.faces.copy(), ambient="S3")
