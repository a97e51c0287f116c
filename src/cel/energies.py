"""Bending and cross energies, the linking number, and the Gauss-map torus.

Willmore energy integrates H^2 (plus the area term in the three-sphere) from
a per-vertex curvature field, with the sum the bending gradient also
differentiates (curvature._field_energy). The cross energy of a
two-component link is a midpoint-rule double sum; no singularity handling
is needed because the components are disjoint. Every reduction goes through
compensated summation so the reported values do not depend on evaluation
order.

The link sums run in one tiled pass over midpoint pairs (mesh._pair_tiles):
each tile of about 2^16 pairs is reduced as it is made (to a few parts
whose exact sum is the tile's, _accum._exact_parts, all added by one
math.fsum; or into whole-row np.sum for the gradient's row sums), so peak
memory is one tile, not n^2 pairs, and the values equal those of the full
broadcast bit for bit. A tile holds one contiguous (rows, m) difference
array per coordinate, and its squared distances add the squared
coordinates in the order 0, 1, ..., d - 1, the order of np.sum over a
coordinate axis. The linking number builds its triple product from the
cross components in np.cross's own formula and sums them left to right, so
no np.cross or short-axis sum runs over the pairs and no rounding changes.
A link on S^3 is charted by the linking number itself, stereographically
from `_far_pole`; every chart keeps the orientation of S^3, so the signed
value does not depend on that pole.

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

from ._accum import _fsum_terms
from .curvature import _field_energy, estimate_curvatures
from .errors import InputError, ResolutionError, ResolutionWarning
from .mesh import TriMesh, _pair_tiles, _segments
from .projection import project_link
from .shapes import RESOLUTION_FLOOR, _grid_torus_faces, make_shape


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


def _willmore_report(mesh, field, error_estimate=True):
    """willmore_energy of `mesh` whose curvature field is `field`."""
    value = _field_energy(mesh.ambient, field)
    error = None
    if error_estimate and mesh.recipe is not None:
        kind, params, res = mesh.recipe
        if res // 2 >= RESOLUTION_FLOOR:
            coarse = make_shape(kind, resolution=res // 2, **params)
            coarse_value = _field_energy(coarse.ambient, estimate_curvatures(coarse))
            error = abs(value - coarse_value) / (3.0 * max(abs(value), 1e-30))
    return EnergyReport(value=value, resolution=mesh.vertex_count, error=error)


def willmore_energy(mesh, error_estimate=True):
    """Total squared mean curvature of a closed mesh.

    In R^3 this is sum_v H_v^2 w_v; in the three-sphere the integrand is
    1 + H^2, the form that stays conformally invariant there. The curvature
    field is estimated from the mesh. error_estimate=False skips the
    half-resolution recomputation; parameter sweeps that only rank values do
    not need it.
    """
    return _willmore_report(mesh, estimate_curvatures(mesh), error_estimate)


# ---------------------------------------------------------------------------
# cross energy and linking number
# ---------------------------------------------------------------------------


def _cross_energy_sum(g1, g2, near=None):
    """Midpoint-rule sum of |v1||v2| / |m1 - m2|^2 over segment pairs. A
    list passed as `near` gets one flag per tile: whether some pair's
    midpoints are closer than ten times the longer of its two segments,
    tested as d^2 < 100 max(l1, l2)^2, so that zero-length segments
    divide nothing."""
    m1, v1 = _segments(g1)
    m2, v2 = _segments(g2)
    len1 = np.linalg.norm(v1, axis=1)
    len2 = np.linalg.norm(v2, axis=1)
    reach1, reach2 = 100.0 * len1 ** 2, 100.0 * len2 ** 2

    def tiles():
        for rows, _, d2 in _pair_tiles(m1, m2):
            if near is not None:
                near.append(bool((d2 < np.maximum(reach1[rows, None], reach2)).any()))
            yield _fsum_terms(((len1[rows, None] * len2) / d2).ravel())

    return math.fsum(itertools.chain.from_iterable(tiles()))


def _cross_row_sums(m1, m2, len2):
    """Row sums a_i = sum_j len2_j / d_ij^2 and b_i = sum_j len2_j (m1_i -
    m2_j) / d_ij^4 between the midpoints m1 (n, d) and the midpoints m2
    (m, d) with lengths len2, where d_ij = |m1_i - m2_j|. Each row is
    reduced whole by np.sum, so the sums do not depend on the tiling."""
    a = np.empty(len(m1))
    b = np.empty_like(m1)
    for rows, diff, d2 in _pair_tiles(m1, m2):
        w = len2 / d2
        a[rows] = w.sum(axis=1)
        w /= d2
        for k, dk in enumerate(diff):
            b[rows, k] = (w * dk).sum(axis=1)
    return a, b


def mobius_energy(link):
    """Cross energy of a two-component link by the midpoint rule.

    Link construction rejects components that share a sample point, a
    vertex or segment midpoint, so no midpoint pair of the full-resolution
    sum is at squared distance 0. If some segment pair is closer than ten
    times its own segment lengths the quadrature is suspect there and a
    ResolutionWarning is issued (the criterion is local, so a long segment
    far from the other curve does not trip it). The error estimate reruns
    the sum on curves subsampled to every other vertex.
    """
    near = []
    value = _cross_energy_sum(link.gamma1, link.gamma2, near)
    if any(near):
        warnings.warn("link components pass within 10 segment lengths; "
                      "increase the curve resolution", ResolutionWarning)
    coarse = _cross_energy_sum(link.gamma1[::2], link.gamma2[::2])
    error = abs(value - coarse) / (3.0 * max(abs(value), 1e-30))
    return EnergyReport(value=value,
                        resolution=max(len(link.gamma1), len(link.gamma2)),
                        error=error)


def linking_number(link):
    """Gauss linking integral of a link in R^3 or on S^3, rounded to an
    integer.

    A link in R^4 is charted first, stereographically from `_far_pole`;
    every stereographic chart keeps the orientation of S^3, so the result
    does not depend on the pole, and a link off the sphere is an
    InputError. The midpoint-rule value of (1/4pi) times the double
    integral of det(v1, v2, m1 - m2)/|m1 - m2|^3 is rounded; the
    pre-rounding gap comes back as the residual. A residual above 0.1
    means the quadrature cannot be trusted at this resolution.
    """
    if link.dim == 4:
        link = project_link(link, _far_pole(link))

    m1, v1 = _segments(link.gamma1)
    m2, v2 = _segments(link.gamma2)
    b0, b1, b2 = np.ascontiguousarray(v2.T)

    def tiles():
        # det(v1, v2, diff) as the triple product (v1 x v2) . diff, with the
        # cross components and the left-to-right sum of np.cross and np.sum
        for rows, (x, y, z), d2 in _pair_tiles(m1, m2):
            a0, a1, a2 = (v1[rows, k, None] for k in range(3))
            det = (a1 * b2 - a2 * b1) * x
            det += (a2 * b0 - a0 * b2) * y
            det += (a0 * b1 - a1 * b0) * z
            yield _fsum_terms((det / d2 ** 1.5).ravel())

    raw = math.fsum(itertools.chain.from_iterable(tiles())) / (4.0 * np.pi)
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
    whose mobius_energy report is given."""
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

    Links on the three-sphere are charted by linking_number itself. Raises
    if the margin dips below the reported discretization error, which would
    signal a broken quadrature rather than a near-equality case.
    """
    return _linking_bound(link, mobius_energy(link))[1]


# ---------------------------------------------------------------------------
# Gauss-map torus
# ---------------------------------------------------------------------------


def gauss_map_torus(link):
    """Unit-chord direction torus of an R^4 link.

    Vertex (i, j) is (gamma1_i - gamma2_j) normalized, a point of the
    three-sphere; the (s, t) parameter grid is triangulated like a torus
    with quads split along the shorter diagonal: a-c unless b-d is shorter
    by a relative gap over 1e-12, so cells that tie take a-c as on the
    Clifford torus. The grid is the polylines' own sampling.
    """
    if link.dim != 4:
        raise InputError("gauss_map_torus needs a link in R^4")
    g1, g2 = link.gamma1, link.gamma2
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
