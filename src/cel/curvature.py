"""Principal curvature estimation by quadric fits over two-ring neighborhoods.

For R^3 meshes the fit happens in the tangent frame of the accumulated vertex
normal. For meshes on the unit three-sphere each vertex neighborhood is first
carried into the tangent space of S^3 at that vertex along geodesics (the
inverse exponential map); the fit is then an ordinary quadric fit in that
chart, which preserves second fundamental forms at the base point, so no
curvature needs to be subtracted afterwards.

The least-squares design carries cubic columns alongside the quadric ones.
Curvature is read from the quadric part only; the cubic part soaks up the
odd-order truncation error that would otherwise bias curvatures on stencils
without point symmetry (roughly a 7x accuracy gain on grid tori).

Every fit in the package, here and in the localized refits of the bending
gradient (optimize.py), runs through one kernel, `_quadric_fit`, on a dense
stencil layout. A stencil row holds the chart coordinates of its base
vertex's two-ring in a (rows, m_max, 3) array, m_max being the largest
two-ring. Shorter two-rings are padded with the base vertex itself, and the
padded slots are set to exactly zero, so they add nothing to the normal
equations. Each vertex's fan of incident faces is kept as pairs of slots
in its two-ring row, so the frame normal (summed winding cross products)
and the barycentric area weight are read from the same coordinates; a
padded fan entry names one slot twice, a triangle with zero cross product
and zero area. Every row pays the width of the largest two-ring, which is
cheap on the near-regular meshes the generators make (valence 5 to 7).

Sign convention: curvatures are reported with respect to the face-winding
normal so that the unit round sphere with outward winding has k1 = k2 = +1.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._accum import stable_sum
from .errors import MeshQualityError


@dataclass
class CurvatureField:
    """Per-vertex principal curvatures k1 >= k2, unit normals, and
    barycentric dual-cell area weights (one third of each incident face)."""

    k1: np.ndarray
    k2: np.ndarray
    normal: np.ndarray
    weight: np.ndarray

    def mean(self):
        return 0.5 * (self.k1 + self.k2)

    def total_area(self):
        return stable_sum(self.weight)


def _two_ring(mesh):
    """One-ring plus two-ring neighbors of each vertex, as a CSR pattern
    with sorted rows and unit entries. Path counts are summed in int64: in
    a narrow type a count can wrap to zero and drop its neighbor."""
    n = mesh.vertex_count
    tail, head = mesh.faces.ravel(), mesh.faces[:, [1, 2, 0]].ravel()
    ones = np.ones(2 * len(tail), dtype=np.int64)
    adj = sp.csr_matrix((ones, (np.r_[tail, head], np.r_[head, tail])), shape=(n, n))
    two = adj + adj @ adj
    # every vertex of a face reaches itself in two steps, so the diagonal
    # is stored and setdiag rewrites it in place
    two.setdiag(0)
    two.eliminate_zeros()
    two.sort_indices()
    two.data[:] = 1
    return two


def _padded(indptr, values, fill):
    """Dense (rows, width) int32 table of CSR rows, padded with `fill`."""
    counts = np.diff(indptr)
    table = np.empty((len(counts), int(counts.max())), dtype=np.int32)
    table[...] = fill
    table[np.arange(table.shape[1]) < counts[:, None]] = values
    return table


def _stencils(mesh):
    """Dense per-vertex stencil tables.

    Returns the two-ring (V, m_max), padded with each vertex's own index (no
    vertex is in its own two-ring, so padding is recognisable); the two-ring
    sizes; and the fan (V, f_max, 2), which names the other two corners of
    each incident face, in winding order, by their slots in the two-ring
    row. Padded fan slots name slot 0 twice, a degenerate triangle.
    """
    two = _two_ring(mesh)
    indptr, indices = two.indptr, two.indices
    n = mesh.vertex_count
    counts = np.diff(indptr)
    flat = mesh.faces.ravel()
    order = np.argsort(flat, kind="stable")
    face, corner, owner = order // 3, order % 3, flat[order]
    # two-ring rows are sorted, so (row, neighbor) keys increase throughout
    keys = np.repeat(np.arange(n, dtype=np.int64), counts) * n + indices
    fptr = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=n))])

    def slots(k):
        """Two-ring slot of the corner k steps after each fan owner."""
        nbr = mesh.faces[face, (corner + k) % 3]
        return np.searchsorted(keys, owner * n + nbr) - indptr[owner]

    fan = np.stack([_padded(fptr, slots(k), 0) for k in (1, 2)], axis=2)
    return _padded(indptr, indices, np.arange(n)[:, None]), counts, fan


_NEXT, _PREV = [1, 2, 0], [2, 0, 1]


def _cross(u, w):
    """np.cross of (..., 3) arrays, the same arithmetic without its
    axis handling, which costs more than the product on small stencils."""
    return u[..., _NEXT] * w[..., _PREV] - u[..., _PREV] * w[..., _NEXT]


def _tangent_pair(normals):
    """Two unit tangents orthogonal to each row of `normals` (3d rows),
    chosen deterministically from the least-aligned coordinate axis."""
    n = normals
    axis = np.argmin(np.abs(n), axis=1)
    e = np.zeros_like(n)
    e[np.arange(len(n)), axis] = 1.0
    e1 = e - np.einsum("ij,ij->i", e, n)[:, None] * n
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = _cross(n, e1)
    return e1, e2


def _s3_tangent_basis(verts):
    """Per-vertex orthonormal basis of the tangent space p-perp in R^4,
    built by Gram-Schmidt over the three axes least aligned with p."""
    V = len(verts)
    order = np.argsort(np.abs(verts), axis=1, kind="stable")
    basis = np.zeros((V, 3, 4))
    for k in range(3):
        cand = np.zeros((V, 4))
        cand[np.arange(V), order[:, k]] = 1.0
        cand -= np.einsum("ij,ij->i", cand, verts)[:, None] * verts
        for prev in range(k):
            b = basis[:, prev, :]
            cand -= np.einsum("ij,ij->i", cand, b)[:, None] * b
        norms = np.linalg.norm(cand, axis=1)
        if np.any(norms < 1e-8):
            raise MeshQualityError("degenerate tangent basis on S3")
        basis[:, k, :] = cand / norms[:, None]
    # consistent handedness across vertices, otherwise winding normals
    # computed inside the charts flip sign from vertex to vertex
    frames = np.concatenate([verts[:, None, :], basis], axis=1)
    flip = np.linalg.det(frames) > 0.0
    basis[flip, 2, :] = -basis[flip, 2, :]
    return basis


def _s3_chart(base_pts, nbr_pts):
    """Inverse exponential map: coordinates of nbr relative to base, as a
    vector in the base tangent space (still in R^4). Broadcasts over the
    leading axes."""
    dots = np.clip(np.einsum("...d,...d->...", base_pts, nbr_pts), -1.0, 1.0)
    theta = np.arccos(dots)
    u = nbr_pts - dots[..., None] * base_pts
    un = np.linalg.norm(u, axis=-1)
    scale = np.where(un > 1e-14, theta / np.where(un > 1e-14, un, 1.0), 1.0)
    return u * scale[..., None]


def _chart(base, pts, basis):
    """Chart coordinates (R, S, 3) of the points pts (R, S, d) around the
    base points base (R, d), and their plain differences (R, S, d). In R^3
    the two are one array; on S^3 the chart is the inverse exponential map
    written in each row's tangent basis (R, 3, 4)."""
    diff = pts - base[:, None, :]
    if basis is None:
        return diff, diff
    return _s3_chart(base[:, None, :], pts) @ basis.transpose(0, 2, 1), diff


def _ring_coords(pts, rows, ring, basis):
    """Chart coordinates and differences of the two-ring of each row in
    `rows`, padded slots exactly zero. basis holds the rows' S^3 tangent
    bases, or is None in R^3."""
    nbr = ring[rows]
    local, diff = _chart(pts[rows], pts[nbr], basis)
    local[nbr == rows[:, None]] = 0.0
    return local, diff


def _fan_sums(local, diff, fan):
    """Unit frame normals and barycentric area weights of stencil rows.

    Each fan triangle is read from its two corners' two-ring slots: the
    winding cross product in chart coordinates gives the normal, the
    ambient differences give the flat area."""
    rows, width = fan.shape[:2]
    at = (np.arange(rows)[:, None], fan.reshape(rows, 2 * width))

    def corners(arr):
        pair = arr[at].reshape(rows, width, 2, -1)
        return pair[:, :, 0], pair[:, :, 1]

    u, w = corners(local)
    cross = _cross(u, w)
    if diff is not local:
        u, w = corners(diff)
    uu = np.einsum("...d,...d->...", u, u)
    vv = np.einsum("...d,...d->...", w, w)
    uv = np.einsum("...d,...d->...", u, w)
    area = 0.5 * np.sqrt(np.maximum(uu * vv - uv * uv, 0.0))
    acc = cross.sum(axis=1)
    norms = np.linalg.norm(acc, axis=1)
    if np.any(norms < 1e-300):
        raise MeshQualityError("normal accumulation vanished")
    return acc / norms[:, None], area.sum(axis=1) / 3.0


def _quadric_fit(local, frame_n, counts):
    """Least-squares quadric fit, with cubic columns, for each stencil row.

    local (R, m, 3) holds chart coordinates around each row's base point,
    exactly zero in padded slots; frame_n (R, 3) holds unit frame normals
    and counts (R,) the real stencil sizes. Returns the fitted slopes
    (a1, a2) along the tangent pair (e1, e2), the Monge-patch shape operator
    (s11, s12, s21, s22), and (e1, e2).
    """
    e1, e2 = _tangent_pair(frame_n)
    xyh = local @ np.stack([e1, e2, frame_n], axis=2)

    # per-row scale normalization keeps the normal equations conditioned
    # and makes the estimate exactly scale equivariant
    scale = np.sqrt(np.einsum("rmk,rmk->rm", xyh, xyh)).sum(axis=1) / counts
    if np.any(scale <= 0.0):
        raise MeshQualityError("coincident vertices in a fit neighborhood")
    if np.any(counts < 9):
        raise MeshQualityError("a fit neighborhood has too few points")
    xyh /= scale[:, None, None]
    x, y, h = xyh[..., 0], xyh[..., 1], xyh[..., 2]

    # quadric columns carry the curvature; the cubic columns only absorb the
    # odd truncation terms that would otherwise bias the quadric on
    # asymmetric stencils. h rides along as a tenth column, so one batched
    # product gives both sides of the normal equations.
    design = np.stack([x, y, 0.5 * x * x, x * y, 0.5 * y * y,
                       x * x * x, x * x * y, x * y * y, y * y * y, h], axis=2)
    normal = design[:, :, :9].transpose(0, 2, 1) @ design
    try:
        coef = np.linalg.solve(normal[:, :, :9], normal[:, :, 9:])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        bad = int(np.argmin(np.abs(np.linalg.det(normal[:, :, :9]))))
        raise MeshQualityError(f"rank-deficient fit neighborhood in stencil row {bad}") from exc

    a1, a2 = coef[:, 0], coef[:, 1]
    hxx = coef[:, 2] / scale
    hxy = coef[:, 3] / scale
    hyy = coef[:, 4] / scale

    wgrad = np.sqrt(1.0 + a1 * a1 + a2 * a2)
    l11 = hxx / wgrad
    l12 = hxy / wgrad
    l22 = hyy / wgrad
    g11 = 1.0 + a1 * a1
    g12 = a1 * a2
    g22 = 1.0 + a2 * a2
    detg = g11 * g22 - g12 * g12
    s11 = (g22 * l11 - g12 * l12) / detg
    s12 = (g22 * l12 - g12 * l22) / detg
    s21 = (g11 * l12 - g12 * l11) / detg
    s22 = (g11 * l22 - g12 * l12) / detg
    return (a1, a2), (s11, s12, s21, s22), (e1, e2)


def estimate_curvatures(mesh):
    """Estimate a CurvatureField for a closed mesh in R^3 or on S^3."""
    ring, counts, fan = _stencils(mesh)
    basis = _s3_tangent_basis(mesh.vertices) if mesh.ambient == "S3" else None
    local, diff = _ring_coords(mesh.vertices, np.arange(mesh.vertex_count), ring, basis)
    frame_n, weight = _fan_sums(local, diff, fan)
    (a1, a2), (s11, s12, s21, s22), (e1, e2) = _quadric_fit(local, frame_n, counts)

    # sign convention: eigenvalues of minus the Monge-patch shape operator,
    # so the outward-wound unit sphere reports +1; the discriminant
    # tr^2 - 4 det is expanded so that it does not cancel at umbilics
    tr = -(s11 + s22)
    disc = np.sqrt(np.maximum((s11 - s22) ** 2 + 4.0 * s12 * s21, 0.0))
    k1 = 0.5 * (tr + disc)
    k2 = 0.5 * (tr - disc)

    # refine the normal with the fitted gradient
    normal = frame_n - a1[:, None] * e1 - a2[:, None] * e2
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    if basis is not None:
        normal = np.einsum("vk,vkd->vd", normal, basis)
        normal /= np.linalg.norm(normal, axis=1)[:, None]

    return CurvatureField(k1=k1, k2=k2, normal=normal, weight=weight)
