"""Conformal maps of the three-sphere and of R^4.

A dilation of S^3 centered at a unit direction is a linear scaling of R^3
conjugated with stereographic projection: project from the antipode, scale
by (1+|v|)/(1-|v|), map back, written as one closed form. It fixes the two
poles, is the identity at v = 0, and pushes everything toward the center
direction as |v| approaches one. The scale profile in |v| is this
artifact's normalization; any increasing profile with value 1 at 0 and a
blow-up at 1 describes the same family of maps.

The R^4 inversion x -> (x - v)/|x - v|^2 sends the unit sphere to a round
sphere centered at v/(1 - |v|^2); that center is what the scaled two-curve
construction in `g_family` pivots around.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curvature import CurvatureField, _LocalEnergyModel, estimate_curvatures
from .energies import _willmore_report, gauss_map_torus
from .errors import (DegenerateInputError, GeometryError, InputError,
                     NearPoleError, ParameterError)
from .mesh import PolyLink, TriMesh, _vertex_areas
from .projection import _check_on_sphere, _rows


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


class RadialLimitReport(NamedTuple):
    s_values: tuple
    distances: tuple      # max geodesic distance of image samples to the great sphere
    edge_scale: float     # mean source edge length, the resolution floor


def apply_dilation(dilation, points):
    """Apply a ConformalDilation to (n, 4) unit points of R^4.

    Projecting from the pole P = -v/|v|, scaling by lam and projecting back
    is, with a = <x, P>, the closed form
    x -> (2 lam (x - a P) + (lam^2 (1 + a) - (1 - a)) P) / (lam^2 (1 + a) + 1 - a).
    Its denominator is at least 2 (lam >= 1), so it needs no chart and no
    care near the pole, which it fixes. Output is renormalized to unit
    length.
    """
    pts = _rows(points, 4)
    if dilation.strength == 0.0:
        return pts / np.linalg.norm(pts, axis=1)[:, None]
    _check_on_sphere(pts)
    pole, lam = -dilation.v / dilation.strength, dilation.scale
    a = (pts @ pole)[:, None]
    up, down = lam * lam * (1.0 + a), 1.0 - a
    out = (2.0 * lam * (pts - a * pole) + (up - down) * pole) / (up + down)
    return out / np.linalg.norm(out, axis=1)[:, None]


def dilate_mesh(mesh, v):
    """Conformal image of an S3 mesh; a pointwise map, faces unchanged."""
    if mesh.ambient != "S3":
        raise InputError("dilations act on S3 meshes")
    return TriMesh(apply_dilation(ConformalDilation(v), mesh.vertices),
                   mesh.faces.copy(), ambient="S3")


def _dilated_field(mesh, field, image, v):
    """CurvatureField of `image`, the dilation of `mesh` by v, carried over
    from the field of `mesh` by the conformal law instead of a refit.

    The dilation pulls the round metric back to e^(2u) g, where, with P, lam
    and a as in `apply_dilation` and D = lam^2 (1 + a) + 1 - a, e^u = 2 lam / D
    and d_nu u = -(lam^2 - 1) <nu, P> / D. The image's principal curvatures
    are k' = e^(-u) (k + d_nu u), so k1 >= k2 is kept, and its normal is the
    differential of the map applied to nu, scaled to unit length. The
    weights are the image's own vertex areas. At v = 0 the field is
    returned as it is.
    """
    d = ConformalDilation(v)
    if d.strength == 0.0:
        return field
    pole, lam = -d.v / d.strength, d.scale
    a, b = mesh.vertices @ pole, field.normal @ pole
    denom = lam * lam * (1.0 + a) + 1.0 - a
    shrink, du = denom / (2.0 * lam), -(lam * lam - 1.0) * b / denom
    # D times the differential of apply_dilation's closed form along nu
    normal = (2.0 * lam * field.normal + np.outer((lam - 1.0) ** 2 * b, pole)
              - ((lam * lam - 1.0) * b)[:, None] * image.vertices)
    return CurvatureField(k1=shrink * (field.k1 + du), k2=shrink * (field.k2 + du),
                          normal=normal / np.linalg.norm(normal, axis=1)[:, None],
                          weight=_vertex_areas(image.vertices, image.faces))


def _dilation_drifts(mesh, vs, error_estimate):
    """Bending energy report of an S3 mesh, and the energy of its image
    under each dilation in `vs` with its drift relative to the mesh's. The
    images keep the mesh's faces, so all are fitted on one model."""
    model = _LocalEnergyModel(mesh)
    base = _willmore_report(mesh, model.field(mesh.vertices), error_estimate)
    moved = [model.energy(dilate_mesh(mesh, v).vertices) for v in vs]
    return base, [(e, abs(e - base.value) / base.value) for e in moved]


def dilate_link(link, v):
    """Conformal image of an R^4 link on the three-sphere."""
    if not link.on_sphere():
        raise InputError("dilations act on links lying on S^3")
    d = ConformalDilation(v)
    return PolyLink(apply_dilation(d, link.gamma1), apply_dilation(d, link.gamma2))


def apply_inversion(inversion, points):
    """Apply the InversionR4 x -> (x - v)/|x - v|^2 to (n, 4) points of R^4."""
    diff = _rows(points, 4) - inversion.v
    d2 = np.sum(diff**2, axis=1)
    if d2.min() < 1e-24:
        raise NearPoleError("point within 1e-12 of the inversion center")
    return diff / d2[:, None]


# ---------------------------------------------------------------------------
# the scaled two-curve torus family
# ---------------------------------------------------------------------------


def g_family(link, v, lam):
    """Chord-direction torus of an inverted, asymmetrically scaled link.

    The first component maps through the inversion centered at v; the second
    maps, then is scaled by `lam` about the image-sphere center c(v). Both
    transformed curves lie on round spheres centered at c(v), which is
    verified to 1e-9 before the torus is built. At v = 0, lam = 1 the
    construction is the chord-direction torus of the input link, up to the
    rounding of x/|x|^2 on its unit points.
    """
    if link.dim != 4 or not link.on_sphere():
        raise InputError("g_family needs a link on the three-sphere")
    if lam <= 0.0:
        raise ParameterError("scale factor must be positive")
    v = np.asarray(v, dtype=np.float64)
    inv = InversionR4(v)
    c = v / (1.0 - float(v @ v))
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


# sample count past which _dense_image_samples stops bisecting
_MAX_IMAGE_SAMPLES = 400000
# dilation strengths of radial_limit_check, increasing toward the blow-up
_BLOWUP_STRENGTHS = (0.9, 0.99, 0.999)


def _geodesic_midpoints(a, b):
    mid = a + b
    norms = np.linalg.norm(mid, axis=1)
    return mid / norms[:, None], norms


def _dense_image_samples(mesh, map_fn, target):
    """Map mesh vertices, bisecting source edges whose image spans more than
    `target`, until the image is sampled at roughly uniform density.

    Returns the image points. map_fn sees each sample point once: the
    vertices first, then each round's new midpoints.
    """
    pts = mesh.vertices
    segs = mesh.edges()
    img = map_fn(pts)
    for _ in range(40):
        span = np.linalg.norm(img[segs[:, 0]] - img[segs[:, 1]], axis=1)
        hot = span > target
        if not hot.any() or len(pts) >= _MAX_IMAGE_SAMPLES:
            break
        mids, chord = _geodesic_midpoints(pts[segs[hot, 0]], pts[segs[hot, 1]])
        split = np.flatnonzero(hot)[chord > 1e-9]   # near-antipodal pairs stay
        if len(split) == 0:
            break
        mids = mids[chord > 1e-9]
        a, b = segs[split, 0], segs[split, 1]
        m_idx = len(pts) + np.arange(len(mids))
        pts = np.vstack([pts, mids])
        img = np.vstack([img, map_fn(mids)])
        rest = np.ones(len(segs), dtype=bool)
        rest[split] = False
        segs = np.vstack([segs[rest],
                          np.stack([a, m_idx], axis=1),
                          np.stack([m_idx, b], axis=1)])
    return img


def radial_limit_check(mesh, vertex):
    """Distance of the blown-up surface to its tangent great sphere.

    Dilating toward a surface point p with strength s -> 1 flattens the
    surface onto the great sphere orthogonal to the surface normal at p. For
    each s in `_BLOWUP_STRENGTHS` the report records the maximum geodesic
    distance of image samples to that great sphere; the sequence must not
    increase (a rise past the sampling floor raises GeometryError). Source
    edges are bisected until the image is sampled at the source mesh's own
    edge scale.
    """
    if mesh.ambient != "S3":
        raise InputError("radial limits are defined for S3 meshes")
    if not 0 <= vertex < mesh.vertex_count:
        raise InputError("vertex index out of range")

    p = mesh.vertices[vertex]
    nu = estimate_curvatures(mesh).normal[vertex]
    nu = nu / np.linalg.norm(nu)
    edge_scale = float(np.mean(mesh.edge_lengths()))

    distances = []
    for s in _BLOWUP_STRENGTHS:
        dil = ConformalDilation(s * p)
        img = _dense_image_samples(mesh, lambda x: apply_dilation(dil, x),
                                   edge_scale)
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
    return RadialLimitReport(s_values=_BLOWUP_STRENGTHS,
                             distances=tuple(distances), edge_scale=edge_scale)
