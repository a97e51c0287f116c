"""Bending and cross energies, the linking number, and the Gauss-map torus.

Willmore energy integrates H^2 (plus the area term in the three-sphere) from
a per-vertex curvature field. The cross energy of a two-component link is a
midpoint-rule double sum; no singularity handling is needed because the
components are disjoint. Every reduction goes through compensated summation
so the reported values do not depend on evaluation order.

The link sums run in one tiled pass over midpoint pairs (mesh._pair_tiles):
each tile of about 2^16 pairs is reduced as it is made and its integrand
streamed into one math.fsum, so peak memory is one tile, not n^2 pairs, and
the values equal those of the full broadcast bit for bit.

Error estimates are Richardson style: the same quantity is recomputed at
half resolution and the gap, scaled for a second-order method, becomes the
relative `error` field of the report. Meshes that lack a generator recipe
cannot be rebuilt coarser and report `error = None`.
"""

import itertools
import math
import warnings
from typing import NamedTuple, Optional

import numpy as np

from ._accum import stable_sum
from .curvature import estimate_curvatures
from .errors import InputError, ParameterError, ResolutionError, ResolutionWarning
from .mesh import TriMesh, _pair_tiles, _segments
from .projection import project_link
from .shapes import RESOLUTION_FLOOR, _grid_torus_faces, _orthobasis, make_shape


class EnergyReport(NamedTuple):
    value: float
    resolution: int          # quadrature nodes: mesh vertices or curve segments
    error: Optional[float]   # relative discretization estimate, None if unknown


class LinkingReport(NamedTuple):
    value: int
    residual: float          # gap between the Gauss integral and its rounding


class BoundReport(NamedTuple):
    energy: float
    bound: float             # 4 pi |linking number|
    margin: float            # energy - bound


class GaussReport(NamedTuple):
    area: float
    energy: float
    ratio: float             # area / energy


# ---------------------------------------------------------------------------
# Willmore energy
# ---------------------------------------------------------------------------


def _willmore_sum(mesh, field):
    h2 = field.mean() ** 2
    if mesh.ambient == "S3":
        return stable_sum((1.0 + h2) * field.weight)
    return stable_sum(h2 * field.weight)


def willmore_energy(mesh, field=None, error_estimate=True):
    """Total squared mean curvature of a closed mesh.

    In R^3 this is sum_v H_v^2 w_v; in the three-sphere the integrand is
    1 + H^2, the form that stays conformally invariant there. If `field` is
    omitted it is computed from the mesh. A field passed in must match the
    mesh (vertex count, ambient dimension, total area). error_estimate=False
    skips the half-resolution recomputation; parameter sweeps that only rank
    values do not need it.
    """
    if field is None:
        field = estimate_curvatures(mesh)
    if len(field.k1) != mesh.vertex_count or field.normal.shape[1] != mesh.vertices.shape[1]:
        raise InputError("curvature field does not match the mesh")
    if abs(field.total_area() - mesh.area()) > 1e-8 * max(mesh.area(), 1.0):
        raise InputError("curvature field weights disagree with the mesh area")

    value = _willmore_sum(mesh, field)
    error = None
    if error_estimate and mesh.recipe is not None:
        kind, params, res = mesh.recipe
        if res // 2 >= RESOLUTION_FLOOR:
            coarse = make_shape(kind, resolution=res // 2, **params)
            coarse_value = _willmore_sum(coarse, estimate_curvatures(coarse))
            error = abs(value - coarse_value) / (3.0 * max(abs(value), 1e-30))
    return EnergyReport(value=value, resolution=mesh.vertex_count, error=error)


# ---------------------------------------------------------------------------
# cross energy and linking number
# ---------------------------------------------------------------------------


def _cross_energy_sum(g1, g2, ratios=None):
    """Midpoint-rule sum of |v1||v2| / |m1 - m2|^2 over segment pairs. A
    list passed as `ratios` gets each tile's least midpoint distance over
    the longer of the two segment lengths."""
    m1, v1 = _segments(g1)
    m2, v2 = _segments(g2)
    len1 = np.linalg.norm(v1, axis=1)
    len2 = np.linalg.norm(v2, axis=1)

    def tiles():
        for rows, _, d2 in _pair_tiles(m1, m2):
            if ratios is not None:
                ratios.append(float((np.sqrt(d2) / np.maximum(len1[rows, None], len2)).min()))
            yield ((len1[rows, None] * len2) / d2).ravel().tolist()

    return math.fsum(itertools.chain.from_iterable(tiles()))


def mobius_energy(link):
    """Cross energy of a two-component link by the midpoint rule.

    Disjointness is enforced at link construction; if some segment pair is
    closer than ten times its own segment lengths the quadrature is suspect
    there and a ResolutionWarning is issued (the criterion is local, so a
    long segment far from the other curve does not trip it). The error
    estimate reruns the sum on curves subsampled to every other vertex.
    """
    ratios = []
    value = _cross_energy_sum(link.gamma1, link.gamma2, ratios)
    if min(ratios) < 10.0:
        warnings.warn("link components pass within 10 segment lengths; "
                      "increase the curve resolution", ResolutionWarning)
    coarse = _cross_energy_sum(link.gamma1[::2], link.gamma2[::2])
    error = abs(value - coarse) / (3.0 * max(abs(value), 1e-30))
    return EnergyReport(value=value,
                        resolution=max(len(link.gamma1), len(link.gamma2)),
                        error=error)


def linking_number(link):
    """Gauss linking integral of an R^3 link, rounded to an integer.

    The midpoint-rule value of (1/4pi) times the double integral of
    det(v1, v2, m1 - m2)/|m1 - m2|^3 is rounded; the pre-rounding gap comes
    back as the residual. A residual above 0.1 means the quadrature cannot
    be trusted at this resolution.
    """
    if link.dim != 3:
        raise InputError("linking_number needs a link in R^3; project first")

    m1, v1 = _segments(link.gamma1)
    m2, v2 = _segments(link.gamma2)
    # det(v1, v2, diff) pairwise via the scalar triple product
    raw = math.fsum(itertools.chain.from_iterable(
        (np.sum(np.cross(v1[rows, None, :], v2) * diff, axis=2) / d2 ** 1.5).ravel().tolist()
        for rows, diff, d2 in _pair_tiles(m1, m2))) / (4.0 * np.pi)
    value = int(round(raw))
    residual = abs(raw - value)
    if residual > 0.1:
        raise ResolutionError(
            f"linking integral {raw:.4f} is {residual:.3f} from an integer; "
            "increase the curve resolution")
    return LinkingReport(value=value, residual=residual)


_POLE_CANDIDATES = np.array(
    [[s if j == i else 0.0 for j in range(4)] for i in range(4) for s in (1.0, -1.0)]
    + [[c / 2.0 for c in signs] for signs in itertools.product((1.0, -1.0), repeat=4)])


def _far_pole(link):
    """Deterministic projection pole for an R^4 link: the candidate unit
    vector (signed axes, then normalized sign patterns) farthest from both
    components."""
    pts = np.vstack([link.gamma1, link.gamma2])
    d = np.linalg.norm(pts[None, :, :] - _POLE_CANDIDATES[:, None, :], axis=2)
    best = int(np.argmax(d.min(axis=1)))
    if d[best].min() < 1e-3:
        raise InputError("no projection pole clears the link; curves fill S^3 "
                         "too densely for an axis-aligned pole")
    return _POLE_CANDIDATES[best]


def _linking_bound(link, report):
    """Linking number of `link` and the 4 pi |lk| bound on its cross energy,
    whose mobius_energy report is given.

    Links in R^4 are projected first. The chart maps the antipode of the
    pole to the origin with differential along _orthobasis(pole), so it
    keeps the orientation of S^3 (outward normal first) exactly when
    det[-pole; basis] > 0; the projected linking number is multiplied by
    that sign so the reported value does not depend on the pole.
    """
    if link.dim == 4:
        pole = _far_pole(link)
        lk = linking_number(project_link(link, pole))
        if np.linalg.det(np.vstack([pole, _orthobasis(pole)])) > 0.0:
            lk = lk._replace(value=-lk.value)
    else:
        lk = linking_number(link)
    bound = 4.0 * np.pi * abs(lk.value)
    margin = report.value - bound
    allowance = report.error * report.value if report.error is not None else 0.0
    if margin < -allowance:
        raise InputError(
            f"cross energy {report.value:.6f} fell below 4pi|lk| = {bound:.6f} "
            "by more than the discretization error")
    return lk, BoundReport(energy=report.value, bound=bound, margin=margin)


def energy_linking_bound_check(link):
    """Check the cross-energy lower bound 4 pi |lk| on one link.

    Links in R^4 (on the three-sphere) are projected stereographically from
    a deterministically chosen pole before the linking integral, which only
    needs |lk| and so is projection-invariant. Raises if the margin dips
    below the reported discretization error, which would signal a broken
    quadrature rather than a near-equality case.
    """
    return _linking_bound(link, mobius_energy(link))[1]


# ---------------------------------------------------------------------------
# Gauss-map torus
# ---------------------------------------------------------------------------


def _resample_closed(g, count):
    """Periodic linear resampling of a closed polyline by parameter index."""
    n = len(g)
    t = np.arange(count) * (n / count)
    i0 = np.floor(t).astype(np.int64)
    frac = (t - i0)[:, None]
    return g[i0 % n] * (1.0 - frac) + g[(i0 + 1) % n] * frac


def gauss_map_torus(link, resolution=None):
    """Unit-chord direction torus of an R^4 link.

    Vertex (i, j) is (gamma1_i - gamma2_j) normalized, a point of the
    three-sphere; the (s, t) parameter grid is triangulated like a torus
    with quads split along the shorter diagonal. By default the grid is the
    polylines' own sampling; pass `resolution` to resample both components.
    """
    if link.dim != 4:
        raise InputError("gauss_map_torus needs a link in R^4")
    g1, g2 = link.gamma1, link.gamma2
    if resolution is not None:
        if resolution < RESOLUTION_FLOOR:
            raise ResolutionError(f"resolution must be >= {RESOLUTION_FLOOR}")
        g1 = _resample_closed(g1, int(resolution))
        g2 = _resample_closed(g2, int(resolution))
    diff = g1[:, None, :] - g2[None, :, :]
    norms = np.linalg.norm(diff, axis=2)
    if norms.min() < 1e-12:
        raise InputError("components share a point; the chord direction degenerates")
    verts = (diff / norms[:, :, None]).reshape(-1, 4)
    faces = _grid_torus_faces(verts, len(g1), len(g2))
    return TriMesh(verts, faces, ambient="S3")


def gauss_area_energy_check(link, tol=0.02):
    """Compare area(gauss_map_torus) against the cross energy.

    The continuum inequality is area <= energy, with equality exactly for
    the standard Hopf link. Discretely the ratio may exceed 1 by quadrature
    error; beyond `tol` the check fails.
    """
    report = mobius_energy(link)
    area = gauss_map_torus(link).area()
    ratio = area / report.value
    if ratio > 1.0 + tol:
        raise InputError(
            f"gauss-map area exceeds the cross energy by {ratio - 1.0:.4f}, "
            f"past the allowed tolerance {tol}")
    return GaussReport(area=area, energy=report.value, ratio=ratio)
