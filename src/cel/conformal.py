"""Conformal maps of the three-sphere and of R^4.

A dilation of S^3 centered at a unit direction is built by conjugating a
linear scaling of R^3 with stereographic projection: project from the
antipode, scale by (1+|v|)/(1-|v|), map back. It fixes the two poles, is the
identity at v = 0, and pushes everything toward the center direction as |v|
approaches one. The scale profile in |v| is this artifact's normalization;
any increasing profile with value 1 at 0 and a blow-up at 1 describes the
same family of maps.

The R^4 inversion x -> (x - v)/|x - v|^2 sends the unit sphere to a round
sphere centered at v/(1 - |v|^2); that center is what the scaled two-curve
construction in `g_family` pivots around.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curvature import estimate_curvatures
from .errors import (DegenerateInputError, GeometryError, InputError,
                     NearPoleError, ParameterError)
from .mesh import PolyLink, TriMesh
from .projection import stereographic, stereographic_inverse
from .shapes import _orthobasis


def _ball_point(v, what):
    """v as a float array, checked to be a finite point of the open unit
    ball of R^4; NaN would slip past a plain norm comparison."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (4,):
        raise ParameterError(f"{what} must be a point of R^4")
    if not np.all(np.isfinite(v)):
        raise ParameterError(f"{what} must be finite")
    if np.linalg.norm(v) >= 1.0:
        raise ParameterError(f"{what} must lie in the open unit ball")
    return v


@dataclass(frozen=True)
class ConformalDilation:
    """Dilation of S^3 toward v/|v| with strength |v| < 1."""

    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _ball_point(self.v, "dilation parameter"))

    @property
    def strength(self):
        return float(np.linalg.norm(self.v))

    @property
    def scale(self):
        s = self.strength
        return (1.0 + s) / (1.0 - s)


@dataclass(frozen=True)
class InversionR4:
    """Inversion of R^4 in the unit sphere centered at v, |v| < 1."""

    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _ball_point(self.v, "inversion center"))


def inversion_center(v):
    """Center c(v) = v/(1 - |v|^2) of the image of S^3 under InversionR4(v)."""
    v = np.asarray(v, dtype=np.float64)
    return v / (1.0 - float(v @ v))


class RadialLimitReport(NamedTuple):
    s_values: tuple
    distances: tuple      # max geodesic distance of image samples to the great sphere
    edge_scale: float     # mean source edge length, the resolution floor


def apply_dilation(dilation, points):
    """Apply a three-sphere dilation to unit points of R^4.

    The exact pole -v/|v| is a fixed point and maps to itself; anything else
    inside the 1e-9 ball around it is numerically unreliable in the chart
    and raises NearPoleError. Output is renormalized to unit length.
    """
    if not isinstance(dilation, ConformalDilation):
        dilation = ConformalDilation(np.asarray(dilation, dtype=np.float64))
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if dilation.strength == 0.0:
        out = pts / np.linalg.norm(pts, axis=1)[:, None]
        return out[0] if single else out

    center = dilation.v / dilation.strength
    pole = -center
    dist = np.linalg.norm(pts - pole, axis=1)
    at_pole = dist < 1e-12
    near = (dist < 1e-9) & ~at_pole
    if near.any():
        raise NearPoleError("point within 1e-9 of the dilation pole; "
                            "the chart cannot resolve it")

    basis = _orthobasis(pole)
    out = np.empty_like(pts)
    out[at_pole] = pole
    free = ~at_pole
    if free.any():
        chart = stereographic(pts[free], pole, basis=basis)
        out[free] = stereographic_inverse(dilation.scale * chart, pole, basis=basis)
    return out[0] if single else out


def dilate_mesh(mesh, v):
    """Conformal image of an S3 mesh; a pointwise map, faces unchanged."""
    if mesh.ambient != "S3":
        raise InputError("dilations act on S3 meshes")
    return TriMesh(apply_dilation(ConformalDilation(np.asarray(v, dtype=np.float64)),
                                  mesh.vertices),
                   mesh.faces.copy(), ambient="S3")


def dilate_link(link, v):
    """Conformal image of an R^4 link on the three-sphere."""
    if not link.on_sphere(tol=1e-9):
        raise InputError("dilations act on links lying on S^3")
    d = ConformalDilation(np.asarray(v, dtype=np.float64))
    return PolyLink(apply_dilation(d, link.gamma1), apply_dilation(d, link.gamma2))


def apply_inversion(inversion, points):
    """Apply x -> (x - v)/|x - v|^2 to points of R^4."""
    if not isinstance(inversion, InversionR4):
        inversion = InversionR4(np.asarray(inversion, dtype=np.float64))
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    diff = pts - inversion.v
    d2 = np.sum(diff**2, axis=1)
    if d2.min() < 1e-24:
        raise NearPoleError("point within 1e-12 of the inversion center")
    out = diff / d2[:, None]
    return out[0] if single else out


# ---------------------------------------------------------------------------
# the scaled two-curve torus family
# ---------------------------------------------------------------------------


def g_family(link, v, lam):
    """Chord-direction torus of an inverted, asymmetrically scaled link.

    The first component maps through the inversion centered at v; the second
    maps, then is scaled by `lam` about the image-sphere center c(v). Both
    transformed curves lie on round spheres centered at c(v), which is
    verified to 1e-9 before the torus is built. At v = 0, lam = 1 the
    construction is exactly the chord-direction torus of the input link.
    """
    from .energies import gauss_map_torus

    if link.dim != 4 or not link.on_sphere(tol=1e-9):
        raise InputError("g_family needs a link on the three-sphere")
    if lam <= 0.0:
        raise ParameterError("scale factor must be positive")
    v = np.asarray(v, dtype=np.float64)
    inv = InversionR4(v)

    if np.linalg.norm(v) == 0.0 and lam == 1.0:
        return gauss_map_torus(link)

    c = inversion_center(v)
    radius = 1.0 / (1.0 - float(v @ v))
    t1 = apply_inversion(inv, link.gamma1)
    t2 = apply_inversion(inv, link.gamma2)
    t2 = lam * (t2 - c) + c
    for curve, want in ((t1, radius), (t2, lam * radius)):
        dev = np.abs(np.linalg.norm(curve - c, axis=1) - want).max()
        if dev > 1e-9:
            raise GeometryError(f"transformed curve left its sphere by {dev:.3g}")
    try:
        moved = PolyLink(t1, t2)
    except InputError as exc:
        raise DegenerateInputError(
            "transformed curves intersect; the scale puts the second sphere "
            "through the first curve") from exc
    return gauss_map_torus(moved)


# ---------------------------------------------------------------------------
# radial blow-up toward a surface point
# ---------------------------------------------------------------------------


def _geodesic_midpoints(a, b):
    mid = a + b
    norms = np.linalg.norm(mid, axis=1)
    return mid / norms[:, None], norms


def _dense_image_samples(mesh, map_fn, pole, target, max_points=400000):
    """Map mesh vertices, bisecting source edges whose image spans more than
    `target`, until the image is sampled at roughly uniform density.

    Returns image points. Sample points landing within 1e-8 of the map's
    pole are dropped; the pole is a fixed point on the tangent great sphere,
    so it cannot carry the maximum distance.
    """
    pts = mesh.vertices.copy()
    segs = mesh.edges()
    keep = np.linalg.norm(pts - pole, axis=1) > 1e-8
    img = map_fn(pts[keep])
    for _ in range(40):
        full = np.zeros_like(pts)
        full[keep] = img
        usable = keep[segs[:, 0]] & keep[segs[:, 1]]
        span = np.linalg.norm(full[segs[:, 0]] - full[segs[:, 1]], axis=1)
        hot = usable & (span > target)
        if not hot.any() or len(pts) >= max_points:
            break
        mids, chord = _geodesic_midpoints(pts[segs[hot, 0]], pts[segs[hot, 1]])
        split = np.flatnonzero(hot)[chord > 1e-9]   # near-antipodal pairs stay
        if len(split) == 0:
            break
        mids = mids[chord > 1e-9]
        a, b = segs[split, 0], segs[split, 1]
        m_idx = len(pts) + np.arange(len(mids))
        pts = np.vstack([pts, mids])
        keep = np.concatenate([keep, np.linalg.norm(mids - pole, axis=1) > 1e-8])
        rest = np.ones(len(segs), dtype=bool)
        rest[split] = False
        segs = np.vstack([segs[rest],
                          np.stack([a, m_idx], axis=1),
                          np.stack([m_idx, b], axis=1)])
        img = map_fn(pts[keep])
    return img


def radial_limit_check(mesh, vertex, s_values=(0.9, 0.99, 0.999), field=None):
    """Distance of the blown-up surface to its tangent great sphere.

    Dilating toward a surface point p with strength s -> 1 flattens the
    surface onto the great sphere orthogonal to the surface normal at p. For
    each s the report records the maximum geodesic distance of image samples
    to that great sphere; the sequence must not increase (a rise past the
    sampling floor raises GeometryError). Source edges are bisected until
    the image is sampled at the source mesh's own edge scale.
    """
    if mesh.ambient != "S3":
        raise InputError("radial limits are defined for S3 meshes")
    if not 0 <= vertex < mesh.vertex_count:
        raise InputError("vertex index out of range")
    if field is None:
        field = estimate_curvatures(mesh)
    if len(field.k1) != mesh.vertex_count:
        raise InputError("curvature field does not match the mesh")
    s_values = tuple(float(s) for s in s_values)
    if any(not 0.0 < s < 1.0 for s in s_values):
        raise ParameterError("dilation strengths must lie in (0, 1)")

    p = mesh.vertices[vertex]
    nu = field.normal[vertex]
    nu = nu / np.linalg.norm(nu)
    edge_scale = float(np.mean(mesh.edge_lengths()))

    distances = []
    for s in s_values:
        dil = ConformalDilation(s * p)
        img = _dense_image_samples(mesh, lambda x: apply_dilation(dil, x),
                                   pole=-p, target=edge_scale)
        sine = np.clip(np.abs(img @ nu), 0.0, 1.0)
        distances.append(float(np.arcsin(sine).max()))

    # once the distance reaches the sampling floor it may dither by a small
    # fraction of an edge length; only a genuine rise counts as a violation
    slack = max(1e-8, 0.05 * edge_scale)
    for earlier, later in zip(distances, distances[1:]):
        if later > earlier + slack:
            raise GeometryError(
                f"blow-up distance rose from {earlier:.3g} to {later:.3g}; "
                "expected decay toward the tangent great sphere")
    return RadialLimitReport(s_values=s_values, distances=tuple(distances),
                             edge_scale=edge_scale)
