"""Families of level-set cycles on a mesh and their sampled sup lengths.

A family is a linear space of scalar functions on the vertices, taken
projectively: a member is a direction in coefficient space, its cycle is the
zero level set, extracted by linear interpolation along crossed edges. The
width of a family is estimated as the supremum of cycle length over seeded
random members.

A family of dimension L sits inside any larger one in the same series by
zero padding its coefficients, so every sampled member of a smaller family
is also a member of the larger ones. The running maximum across the series
is therefore a legitimate per-family estimate and makes the width series
monotone in the family size by construction.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._accum import unit_directions
from .errors import (GeometryError, InputError, InsufficientDataError,
                     MeshQualityError, ParameterError)
from .laplace import laplace_eigs
from .mesh import _TILE_PAIRS


@dataclass
class CycleSet:
    """Closed polyline cycles from one level-set extraction. Each loop is a
    (k, d) array of points; the segment from the last row back to the first
    is implicit. total_length is the sum over all loops."""

    loops: list
    total_length: float

    @property
    def loop_count(self):
        return len(self.loops)


class WidthEstimate(NamedTuple):
    p: int             # family dimension minus one
    width: float       # sup of cycle length over the sampled members
    samples: int


class ScalingFit(NamedTuple):
    exponent: float    # slope of log(width) against log(p)
    prefactor: float


class FamilySupReport(NamedTuple):
    degree: int
    sup_length: float
    budget: float      # 2 pi degree, the great-circle length budget
    samples: int


# ---------------------------------------------------------------------------
# level-set extraction
# ---------------------------------------------------------------------------


# the first and last crossed edge slot of a face, by its corner code
# above[c0] + 2 above[c1] + 4 above[c2]; slot s is the edge from corner s to
# corner s+1 mod 3, crossed when its two corners fall on opposite sides
_CORNERS = (np.arange(8)[:, None] >> np.arange(3)) & 1
_CROSSED = _CORNERS != np.roll(_CORNERS, -1, axis=1)
_FIRST_SLOT = _CROSSED.argmax(axis=1)
_LAST_SLOT = 2 - _CROSSED[:, ::-1].argmax(axis=1)


def _cut_faces(faces, fields, level):
    """Every face that the level set of a field in a (B, V) block cuts.

    A vertex with value exactly at the level counts as above, which keeps
    the above/below partition binary with no special cases. Returns the
    field and face index of each cut, ordered by field and then by face,
    with its first and last crossed slot.
    """
    above = (fields >= level).view(np.uint8)
    code = (above[:, faces[:, 0]] | above[:, faces[:, 1]] << 1
            | above[:, faces[:, 2]] << 2)
    cut = np.flatnonzero((code != 0) & (code != 7))
    field, face = np.divmod(cut, len(faces))
    code = code.ravel()[cut]
    return field, face, _FIRST_SLOT[code], _LAST_SLOT[code]


def _crossings(verts, fields, level, field, i, j):
    """Points where field row `field` crosses the level on edges (i, j)."""
    ti = fields[field, i]
    tj = fields[field, j]
    t = (level - ti) / (tj - ti)
    vi = verts[i]
    return vi + t[:, None] * (verts[j] - vi)


def _level_set_lengths(mesh, fields, level):
    """Level-set length of each field in a (B, V) block, as a list.

    Each cut triangle contributes the straight segment between its two edge
    crossings, and each field's segments are summed on their own, so a
    length does not depend on the block it was computed in.
    """
    faces = mesh.faces
    field, face, first, last = _cut_faces(faces, fields, level)
    a = _crossings(mesh.vertices, fields, level, field,
                   faces[face, first], faces[face, (first + 1) % 3])
    b = _crossings(mesh.vertices, fields, level, field,
                   faces[face, last], faces[face, (last + 1) % 3])
    seg = np.linalg.norm(a - b, axis=1)
    ends = np.searchsorted(field, np.arange(1, len(fields)))
    return [float(part.sum()) for part in np.split(seg, ends)]


def _one_field(mesh, values):
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (mesh.vertex_count,):
        raise InputError("field length does not match the vertex count")
    return values[None, :]


def level_set_length(mesh, values, level=0.0):
    """Total length of the level set of a vertex scalar field.

    Each cut triangle contributes the straight segment between its two edge
    crossings; no loop assembly happens, which makes this the cheap path for
    supremum sampling. An empty level set has length zero.
    """
    return _level_set_lengths(mesh, _one_field(mesh, values), level)[0]


def sublevel_boundary(mesh, values, level=0.0):
    """Level set of a vertex field as closed loops (a CycleSet).

    The crossing points on crossed edges are shared between the two faces
    meeting there, so on a closed mesh every crossing has exactly two
    segment neighbors and the segments chain into disjoint closed loops.
    """
    fields = _one_field(mesh, values)
    field, face, first, last = _cut_faces(mesh.faces, fields, level)
    if len(face) == 0:
        return CycleSet(loops=[], total_length=0.0)

    v = mesh.vertex_count

    def edge_key(slot):
        i = mesh.faces[face, slot]
        j = mesh.faces[face, (slot + 1) % 3]
        return np.minimum(i, j) * v + np.maximum(i, j)

    # segment s joins crossings ends[2s] and ends[2s + 1]
    keys, ends = np.unique(np.stack([edge_key(first), edge_key(last)], axis=1),
                           return_inverse=True)
    ends = ends.ravel()
    if np.any(np.bincount(ends, minlength=len(keys)) != 2):
        raise MeshQualityError("level set does not close up; the mesh is "
                               "not a closed manifold")
    # a stable sort by crossing keeps each crossing's two segments in
    # segment order; the neighbor through a segment is its other end
    order = np.argsort(ends, kind="stable")
    nbr = ends[order ^ 1].reshape(-1, 2)

    points = _crossings(mesh.vertices, fields, level, np.zeros_like(keys),
                        keys // v, keys % v)

    visited = np.zeros(len(keys), dtype=bool)
    loops = []
    total = 0.0
    for start in range(len(keys)):
        if visited[start]:
            continue
        chain = [start]
        visited[start] = True
        prev = -1
        node = start
        while True:
            a, b = nbr[node]
            nxt = b if a == prev else a
            if nxt == start:
                break
            chain.append(nxt)
            visited[nxt] = True
            prev, node = node, nxt
        pts = points[np.array(chain)]
        seg = pts - np.roll(pts, -1, axis=0)
        total += float(np.linalg.norm(seg, axis=1).sum())
        loops.append(pts)
    return CycleSet(loops=loops, total_length=total)


# ---------------------------------------------------------------------------
# spherical harmonic basis
# ---------------------------------------------------------------------------


def real_harmonic_basis(points, degree):
    """Orthonormal real harmonics through `degree` at unit 3-vectors.

    Column order is degree-major; within degree l the order is m = 0, then
    (cos, sin) pairs for m = 1..l, so the first (d+1)^2 columns always span
    the polynomials of degree at most d on the sphere. Truncating the
    columns at any length gives a well-defined nested family.

    The associated Legendre parts are generated by the standard three-term
    recurrence in semi-normalized form (the sin^m theta factor is carried by
    the Cartesian azimuth polynomials), so there is no pole singularity and
    no trigonometry.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ParameterError("points must be (N, 3)")
    if degree < 0:
        raise ParameterError("degree must be nonnegative")
    norms = np.linalg.norm(pts, axis=1)
    if norms.size and np.max(np.abs(norms - 1.0)) > 1e-9:
        raise InputError("harmonic basis needs points on the unit sphere")
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    n = len(pts)

    cos_m = [np.ones(n)]
    sin_m = [np.zeros(n)]
    for m in range(1, degree + 1):
        cos_m.append(x * cos_m[m - 1] - y * sin_m[m - 1])
        sin_m.append(x * sin_m[m - 1] + y * cos_m[m - 1])

    # leg[(l, m)] = P_l^m(z) / (1 - z^2)^(m/2), a polynomial in z
    leg = {(0, 0): np.ones(n)}
    for m in range(degree + 1):
        if m > 0:
            leg[(m, m)] = (2 * m - 1) * leg[(m - 1, m - 1)]
        if m + 1 <= degree:
            leg[(m + 1, m)] = (2 * m + 1) * z * leg[(m, m)]
        for l in range(m + 2, degree + 1):
            leg[(l, m)] = ((2 * l - 1) * z * leg[(l - 1, m)]
                           - (l + m - 1) * leg[(l - 2, m)]) / (l - m)

    cols = []
    for l in range(degree + 1):
        n0 = math.sqrt((2 * l + 1) / (4.0 * math.pi))
        cols.append(n0 * leg[(l, 0)])
        for m in range(1, l + 1):
            nm = n0 * math.sqrt(2.0 * math.factorial(l - m)
                                / math.factorial(l + m))
            cols.append(nm * leg[(l, m)] * cos_m[m])
            cols.append(nm * leg[(l, m)] * sin_m[m])
    return np.stack(cols, axis=1)


def _require_unit_sphere_mesh(mesh):
    if mesh.ambient != "R3":
        raise InputError("this family lives on a mesh of the unit two-sphere")


# ---------------------------------------------------------------------------
# width estimates
# ---------------------------------------------------------------------------


def _sampled_sup(mesh, columns, truncation, samples, seed_key):
    """Sup of zero-set length over seeded unit coefficient directions, a
    block of fields per kernel call."""
    dirs = unit_directions(samples, truncation,
                           np.random.SeedSequence(seed_key), antipodal=True)
    best = 0.0
    sub = columns[:, :truncation]
    block = max(1, _TILE_PAIRS // mesh.face_count)
    for start in range(0, samples, block):
        fields = np.array([sub @ d for d in dirs[start:start + block]])
        best = max(best, *_level_set_lengths(mesh, fields, 0.0))
    return best


def _check_lengths(lengths, limit):
    ls = [int(x) for x in lengths]
    if sorted(set(ls)) != ls:
        raise ParameterError("family sizes must be strictly increasing")
    if ls[0] < 2:
        raise ParameterError("family sizes start at 2; a 1-dimensional "
                             "family has only empty zero sets")
    if ls[-1] > limit:
        raise ParameterError(f"family size {ls[-1]} exceeds the available "
                             f"basis of {limit} functions")
    return ls


def _series(mesh, columns, lengths, seed):
    estimates = []
    running = 0.0
    for size in lengths:
        n = max(500, 100 * (size - 1))
        raw = _sampled_sup(mesh, columns, size, n, [seed, size])
        running = max(running, raw)
        estimates.append(WidthEstimate(p=size - 1, width=running, samples=n))
    return estimates


def harmonic_width_series(mesh, lengths=(4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49),
                          seed=0):
    """Width estimates for truncations of the harmonic basis on S^2.

    Level q of the series draws max(500, 100 q) coefficient directions where
    q is the family dimension minus one, each level from its own seed
    stream, and reports the running maximum (see the module docstring for
    why that is sound).
    """
    _require_unit_sphere_mesh(mesh)
    ls = _check_lengths(lengths, limit=10**9)
    degree = math.isqrt(ls[-1] - 1)  # smallest d with (d+1)^2 >= max length
    columns = real_harmonic_basis(mesh.vertices, degree)
    return _series(mesh, columns, ls, seed)


def eigenfunction_width_series(mesh, lengths, seed=0):
    """Width estimates from the first Laplace eigenfunctions of any closed
    mesh; the families are nested because eigenfunctions are appended in
    eigenvalue order."""
    ls = _check_lengths(lengths, limit=mesh.vertex_count // 10)
    _, vecs = laplace_eigs(mesh, ls[-1])
    return _series(mesh, vecs, ls, seed)


def scaling_fit(estimates):
    """Least-squares exponent of width against p on log-log axes.

    Needs at least ten estimates with positive p and width; fewer would make
    the fitted exponent an artifact of noise.
    """
    ps = np.array([e.p for e in estimates], dtype=np.float64)
    ws = np.array([e.width for e in estimates], dtype=np.float64)
    if len(ps) < 10:
        raise InsufficientDataError("need at least 10 width estimates to fit "
                                    "a scaling exponent")
    if np.any(ps <= 0.0) or np.any(ws <= 0.0):
        raise InputError("scaling fit needs positive p and width")
    slope, intercept = np.polyfit(np.log(ps), np.log(ws), 1)
    return ScalingFit(exponent=float(slope), prefactor=float(np.exp(intercept)))


# ---------------------------------------------------------------------------
# length budget and point cover
# ---------------------------------------------------------------------------


def polynomial_sup_length(mesh, degree, samples=200, seed=0):
    """Sampled sup of zero-set length over the full degree-d family on S^2.

    The zero set of a degree-d polynomial on the unit sphere can never be
    longer than d great circles, so the sup must stay under 2 pi d. The
    polyline extraction measures chords, which only undershoots.
    """
    _require_unit_sphere_mesh(mesh)
    if degree < 1:
        raise ParameterError("degree must be at least 1")
    columns = real_harmonic_basis(mesh.vertices, degree)
    size = (degree + 1) ** 2
    sup = _sampled_sup(mesh, columns, size, samples, [seed, degree])
    return FamilySupReport(degree=degree, sup_length=sup,
                           budget=2.0 * math.pi * degree, samples=samples)


def length_budget_check(mesh, max_degree=6, samples=200, seed=0, tol=0.02):
    """Check sup length <= 2 pi d (1 + tol) for every degree through
    max_degree. Returns the reports; raises GeometryError on a violation."""
    reports = []
    for d in range(1, max_degree + 1):
        rep = polynomial_sup_length(mesh, d, samples=samples, seed=seed)
        if rep.sup_length > rep.budget * (1.0 + tol):
            raise GeometryError(
                f"degree {d} zero set of length {rep.sup_length:.4f} exceeds "
                f"the budget {rep.budget:.4f} beyond tolerance {tol}")
        reports.append(rep)
    return reports


def point_cover_coefficients(heights):
    """Monic polynomial (np.polyval layout) vanishing at the given heights.

    Duplicate heights are separated by a deterministic nudge of 1e-9 times
    the spread, so the polynomial keeps distinct roots; the construction
    shows that level sets of a fixed height function, taken through
    polynomials of degree p, can pass through any p prescribed values.
    """
    h = np.asarray(heights, dtype=np.float64).copy()
    if h.ndim != 1 or len(h) < 1:
        raise ParameterError("heights must be a nonempty 1-d array")
    spread = max(float(h.max() - h.min()), 1e-6)
    order = np.argsort(h, kind="stable")
    hs = h[order]
    for i in range(1, len(hs)):
        if hs[i] - hs[i - 1] < 1e-9 * spread:
            hs[i] = hs[i - 1] + 1e-9 * spread
    h[order] = hs
    return np.poly(h)


def point_cover_check(mesh, p, trials=10, seed=0, axis=-1):
    """For seeded draws of p mesh vertices, build the family member whose
    zero set passes through all of them and verify that it does.

    The family is polynomials of degree p in one coordinate (default: the
    last). Returns the worst residual at the chosen points relative to the
    member's scale over the whole mesh; raises GeometryError if a residual
    exceeds 1e-6 of that scale. p is capped at 30 because monic coefficients
    grow combinatorially and the evaluation stops being trustworthy.
    """
    if not 1 <= p <= 30:
        raise ParameterError("need 1 <= p <= 30")
    if mesh.vertex_count <= p:
        raise ParameterError("mesh has too few vertices to draw from")
    heights = mesh.vertices[:, axis]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        pick = rng.choice(mesh.vertex_count, size=p, replace=False)
        coeffs = point_cover_coefficients(heights[pick])
        member = np.polyval(coeffs, heights)
        scale = float(np.max(np.abs(member)))
        if scale <= 0.0:
            raise GeometryError("cover member vanished identically")
        residual = float(np.max(np.abs(member[pick]))) / scale
        worst = max(worst, residual)
        if residual > 1e-6:
            raise GeometryError(
                f"cover member misses its prescribed points by {residual:.2e} "
                "of its scale")
    return worst
