"""Principal curvatures and bending energy from quadric fits over two-rings.

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

Every fit in the package runs through one kernel, `_quadric_fit`, on a dense
stencil layout, and only that kernel turns a fit into principal curvatures.
A stencil row holds the chart coordinates of its base vertex's two-ring in a
(rows, m_max, 3) array, m_max being the largest two-ring. Shorter two-rings
are padded with the base vertex itself, and the padded slots are set to
exactly zero, so they add nothing to the normal equations. Each vertex's fan
of incident faces is kept as pairs of slots in its two-ring row, so the
frame normal (summed winding cross products) is read from the same chart
coordinates; a padded fan entry names one slot twice, a triangle with zero
cross product. The stencil pass is chart, fan normal, fit; the area weights
are per face, a third of each face to its corners (`mesh._vertex_areas`,
the lumped mass). Every row pays the width of the largest two-ring, which
is cheap on the near-regular meshes the generators make (valence 5 to 7).

`_LocalEnergyModel` holds the stencils of one connectivity. Its `field` is
the full-mesh estimate, fitted in blocks of `_FIT_ROWS` vertices at the
global width m_max (batched products reduce in an order set by their inner
size, so a narrower block would change bits); `energy` sums the one density,
`_bending_density`, over that field, and `gradient` differentiates that
energy exactly. Stencils depend only on the faces, so a family whose members
share one face array (the tubes of a radius sweep, the conformal images of
one mesh) builds one model and passes each member's positions to it.

The gradient is reverse-mode differentiation of the same forward pass, in
blocks of `_GRAD_ROWS` stencil rows. Each kernel has its reverse next to
it: `_quadric_fit_grad` takes the derivative of the least-squares solution
with one more solve against the same normal matrix, `_fan_sums_grad` goes
back through the unit fan normal, and `_chart_grad` through the chart. Each
row's derivatives are then added to the vertices of its two-ring. The
weights' derivative is added once per face by `_vertex_areas_grad`, driven
by each vertex's density at unit weight. Where the forward pass takes a
square root of zero (a padded slot, a face of zero area) the reverse pass
takes the derivative as zero. On the three-sphere the result
is projected onto each vertex's tangent space, so radial gradient
components vanish and the descent needs no tangency constraint.

Sign convention: curvatures are reported with respect to the face-winding
normal so that the unit round sphere with outward winding has k1 = k2 = +1.
"""

from dataclasses import dataclass

import numpy as np

from ._accum import stable_sum
from .errors import MeshQualityError
from .mesh import _adjacency, _flat_area, _vertex_areas


@dataclass
class CurvatureField:
    """Per-vertex principal curvatures k1 >= k2, unit normals, and
    barycentric dual-cell area weights (one third of each incident face),
    equal to `lumped_mass(mesh).diagonal()` bit for bit."""

    k1: np.ndarray
    k2: np.ndarray
    normal: np.ndarray
    weight: np.ndarray

    def mean(self):
        return 0.5 * (self.k1 + self.k2)


def _two_ring(mesh):
    """One-ring plus two-ring neighbors of each vertex, as a CSR pattern
    with sorted rows and unit entries. Path counts are summed in int64: in
    a narrow type a count can wrap to zero and drop its neighbor."""
    adj = _adjacency(mesh.faces, mesh.vertex_count)
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
    if mesh.face_count == 0:
        raise MeshQualityError("mesh has no faces")
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
_FIT_ROWS = 2048    # vertices per block of the full-mesh estimate
# stencil rows per block of the gradient. A block's reverse pass keeps
# several (rows, m_max, 10) arrays alive; past 128 rows a block gains
# little speed, and 512-row blocks raised the peak memory of a short
# descent benchmark by 2 to 9 percent
_GRAD_ROWS = 128


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


def _tangent_bases(points):
    """Orthonormal bases (n, 3, 4) of the tangent spaces p-perp of unit
    points p (n, 4) of S^3: the right multiples q i, q j, q k of the unit
    quaternion q = p3 + p0 i + p1 j + p2 k, in coordinates (i, j, k, 1).
    Left multiplication by q is a rotation of R^4 taking the frame
    [1; i; j; k] of the pole (0, 0, 0, 1) to [p; basis], so det[p; basis]
    is that frame's -1 at every point, and the basis is linear, hence
    continuous, in p. This is the one frame of p-perp in the package: the
    curvature charts, the stereographic charts and the geodesic spheres all
    use it, so all share its handedness."""
    x, y, z, w = points.T
    return np.stack([w, z, -y, -x, -z, w, x, -y, y, -x, w, -z],
                    axis=1).reshape(len(points), 3, 4)


def _s3_log(base_pts, nbr_pts):
    """Inverse exponential map of S^3, log_p q = f u with d = p.q,
    u = q - d p and f = acos(d) / |u|, taken as 1 where |u| vanishes.
    Returns d, u, |u| and f; broadcasts over the leading axes."""
    dots = np.clip(np.einsum("...d,...d->...", base_pts, nbr_pts), -1.0, 1.0)
    theta = np.arccos(dots)
    u = nbr_pts - dots[..., None] * base_pts
    un = np.linalg.norm(u, axis=-1)
    scale = np.where(un > 1e-14, theta / np.where(un > 1e-14, un, 1.0), 1.0)
    return dots, u, un, scale


def _chart(base, pts, basis):
    """Chart coordinates (R, S, 3) of the points pts (R, S, d) around the
    base points base (R, d): their plain differences in R^3; on S^3 the
    inverse exponential map written in each row's tangent basis (R, 3, 4)."""
    if basis is None:
        return pts - base[:, None, :]
    _, u, _, scale = _s3_log(base[:, None, :], pts)
    return (u * scale[..., None]) @ basis.transpose(0, 2, 1)


def _chart_grad(base, pts, basis, g_local):
    """Pull derivatives along the chart coordinates (R, S, 3) of `_chart`
    back to base (R, d) and pts (R, S, d).

    On S^3 the tangent basis adds nothing: the density is invariant under
    rotating it, and log_p q is orthogonal to p, so the part of the basis'
    motion that leaves p-perp does not move the coordinates either."""
    if basis is None:
        return -g_local.sum(axis=1), g_local
    p = base[:, None, :]
    g_log = g_local @ basis
    # f'(d) = (d f - 1) / |u|^2 on the sphere, and g_log is orthogonal to p
    dots, u, un, f = _s3_log(p, pts)
    near = un > 1e-14
    along = np.where(near, (dots * f - 1.0) / np.where(near, un * un, 1.0), 0.0)
    along *= np.einsum("...d,...d->...", g_log, u)
    g_pts = along[..., None] * p + f[..., None] * g_log
    g_base = along[..., None] * pts - (f * dots)[..., None] * g_log
    return g_base.sum(axis=1), g_pts


def _corners(arr, fan):
    """The two corners (R, f, d) of each fan triangle, read from the rows
    of arr (R, m, d) at the triangles' two-ring slots."""
    rows, width = fan.shape[:2]
    pair = arr[np.arange(rows)[:, None], fan.reshape(rows, 2 * width)]
    pair = pair.reshape(rows, width, 2, -1)
    return pair[:, :, 0], pair[:, :, 1]


def _fan_sums(local, fan):
    """Unit frame normals (R, 3) of stencil rows, and their lengths before
    normalizing, the tape `_fan_sums_grad` reads: the sums of the winding
    cross products of each fan triangle, read in chart coordinates from its
    two corners' two-ring slots."""
    acc = _cross(*_corners(local, fan)).sum(axis=1)
    norms = np.linalg.norm(acc, axis=1)
    if np.any(norms < 1e-300):
        raise MeshQualityError("normal accumulation vanished")
    return acc / norms[:, None], norms


def _scatter(at, values, size):
    """Sums (size, d) of the rows of values (len(at), d) at the indices at,
    one bincount per column."""
    return np.stack([np.bincount(at, weights=values[:, k], minlength=size)
                     for k in range(values.shape[1])], axis=1)


def _slot_sums(values, fan, width):
    """Sums (R, width, d) over the fan corners (R, f, 2, d) of each
    two-ring slot the corners read."""
    rows = len(fan)
    flat = (np.arange(rows)[:, None, None] * width + fan).ravel()
    return _scatter(flat, values.reshape(len(flat), -1), rows * width).reshape(rows, width, -1)


def _fan_sums_grad(local, fan, frame_n, norms, g_n):
    """Pull the energy's derivatives along the frame normals g_n (R, 3)
    back through `_fan_sums` to local (R, m, 3)."""
    g_acc = g_n - np.einsum("rk,rk->r", g_n, frame_n)[:, None] * frame_n
    g_acc = (g_acc / norms[:, None])[:, None, :]
    u, w = _corners(local, fan)
    return _slot_sums(np.stack([_cross(w, g_acc), _cross(g_acc, u)], axis=2),
                      fan, local.shape[1])


def _vertex_areas_grad(vertices, faces, g_weight):
    """Pull the energy's derivatives g_weight (V,) along the vertex areas
    of `mesh._vertex_areas` back to the vertices (V, d). A face of zero
    area takes the derivative of its area as 0: sqrt has none at 0."""
    a = vertices[faces[:, 0]]
    u, w = vertices[faces[:, 1]] - a, vertices[faces[:, 2]] - a
    area = _flat_area(u, w)
    # d area = (|w|^2 u - (u.w) w) . du / (4 area), and the same with u, w
    # swapped; each vertex area is a third of its faces' areas
    uu, ww, uw = (np.einsum("fd,fd->f", p, q) for p, q in ((u, u), (w, w), (u, w)))
    rate = np.divide(g_weight[faces].sum(axis=1) / 12.0, area, out=np.zeros_like(area),
                     where=area > 0.0)[:, None]
    g_u = rate * (ww[:, None] * u - uw[:, None] * w)
    g_w = rate * (uu[:, None] * w - uw[:, None] * u)
    return _scatter(faces.T.ravel(), np.concatenate([-(g_u + g_w), g_u, g_w]), len(vertices))


def _quadric_fit(local, frame_n, counts):
    """Least-squares quadric fit, with cubic columns, for each stencil row.

    local (R, m, 3) holds chart coordinates around each row's base point,
    exactly zero in padded slots; frame_n (R, 3) holds unit frame normals
    and counts (R,) the real stencil sizes. Returns the fitted slopes
    (a1, a2) along the tangent pair (e1, e2), the principal curvatures
    (k1, k2) with k1 >= k2, (e1, e2), and the tape `_quadric_fit_grad`
    reads.
    """
    e1, e2 = _tangent_pair(frame_n)
    frame = np.stack([e1, e2, frame_n], axis=2)
    xyh = local @ frame

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

    # sign convention: eigenvalues of minus the Monge-patch shape operator,
    # so the outward-wound unit sphere reports +1; the discriminant
    # tr^2 - 4 det is expanded so that it does not cancel at umbilics
    tr = -(s11 + s22)
    disc = np.sqrt(np.maximum((s11 - s22) ** 2 + 4.0 * s12 * s21, 0.0))
    tape = (frame, xyh, scale, design, normal, coef)
    return (a1, a2), (0.5 * (tr + disc), 0.5 * (tr - disc)), (e1, e2), tape


def _quadric_fit_grad(local, counts, tape, g_tr):
    """Pull the energy's derivative g_tr (R,) along tr = k1 + k2 back
    through `_quadric_fit`: returns its derivatives along local (R, m, 3)
    and frame_n (R, 3).

    tr is the trace -(g22 hxx - 2 g12 hxy + g11 hyy) / (1 + a1^2 + a2^2)^(3/2)
    of the Monge-patch shape operator. The coefficients c solve the normal
    equations N c = D^T h, so with lam = N^-1 dE/dc the derivatives along
    the design D and the heights h are r lam^T - (D lam) c^T and D lam, r =
    h - D c being the residuals (Golub and Pereyra 1973). The frame enters
    only through its normal: rotating (e1, e2) about it rotates the fitted
    polynomial with its chart, which leaves tr unchanged."""
    frame, xyh, scale, design, normal, coef = tape
    a1, a2 = coef[:, 0], coef[:, 1]
    hxx, hxy, hyy = (coef[:, 2:5] / scale[:, None]).T
    q = 1.0 + a1 * a1 + a2 * a2
    q32 = q * np.sqrt(q)
    tr = -((1.0 + a2 * a2) * hxx - 2.0 * a1 * a2 * hxy + (1.0 + a1 * a1) * hyy) / q32
    g_coef = np.zeros_like(coef)
    g_coef[:, 0] = -g_tr * (2.0 * (a1 * hyy - a2 * hxy) / q32 + 3.0 * a1 * tr / q)
    g_coef[:, 1] = -g_tr * (2.0 * (a2 * hxx - a1 * hxy) / q32 + 3.0 * a2 * tr / q)
    g_coef[:, 2:5] = (g_tr / (q32 * scale))[:, None] * np.stack(
        [-(1.0 + a2 * a2), 2.0 * a1 * a2, -(1.0 + a1 * a1)], axis=1)
    # tr is linear in (hxx, hxy, hyy), each a coefficient over scale
    g_scale = -g_tr * tr / scale

    lam = np.linalg.solve(normal[:, :, :9], g_coef[:, :, None])
    fit = design[:, :, :9]
    d_lam = (fit @ lam)[:, :, 0]
    resid = design[:, :, 9] - (fit @ coef[:, :, None])[:, :, 0]
    g = resid[:, :, None] * lam[:, None, :, 0] - d_lam[:, :, None] * coef[:, None, :]
    x, y = xyh[..., 0], xyh[..., 1]
    g_x = (g[..., 0] + g[..., 2] * x + g[..., 3] * y
           + x * (3.0 * g[..., 5] * x + 2.0 * g[..., 6] * y) + g[..., 7] * y * y)
    g_y = (g[..., 1] + g[..., 3] * x + g[..., 4] * y
           + g[..., 6] * x * x + y * (2.0 * g[..., 7] * x + 3.0 * g[..., 8] * y))
    g_xyh = np.stack([g_x, g_y, d_lam], axis=2)

    # xyh is the frame product over scale, and scale the mean length of the
    # frame product's rows; a padded slot's row has length 0 and takes 0
    g_scale -= np.einsum("rmk,rmk->r", g_xyh, xyh) / scale
    lengths = np.sqrt(np.einsum("rmk,rmk->rm", xyh, xyh))
    unit = np.divide(xyh, lengths[..., None], out=np.zeros_like(xyh),
                     where=lengths[..., None] > 0.0)
    g_xyh = g_xyh / scale[:, None, None] + (g_scale / counts)[:, None, None] * unit
    g_local = g_xyh @ frame.transpose(0, 2, 1)
    # g_n less the normal components of the tangents' derivatives
    g_frame = local.transpose(0, 2, 1) @ g_xyh
    tilt = np.einsum("rkj,rk->rj", g_frame[:, :, :2], frame[:, :, 2])
    return g_local, g_frame[:, :, 2] - np.einsum("rkj,rj->rk", frame[:, :, :2], tilt)


def _bending_density(ambient, k1, k2, weight):
    """Bending energy per vertex: H^2 w in R^3 and (1 + H^2) w on S^3, with
    H the mean of the principal curvatures, as in CurvatureField.mean."""
    h2 = (0.5 * (k1 + k2)) ** 2
    return (1.0 + h2) * weight if ambient == "S3" else h2 * weight


def _field_energy(ambient, field):
    """Total bending energy of a CurvatureField."""
    return stable_sum(_bending_density(ambient, field.k1, field.k2, field.weight))


class _LocalEnergyModel:
    """Curvature field, bending energy and its gradient on one connectivity.

    The combinatorics (dense two-ring and fan tables) depend only on the
    faces and are built once; after that every method takes the vertex
    positions, in the mesh's vertex order.
    """

    def __init__(self, mesh):
        self.ambient, self.faces = mesh.ambient, mesh.faces
        self.ring, self.counts, self.fan = _stencils(mesh)

    def _forward(self, positions, rows):
        """Charts, fan sums and fits of the stencil rows `rows`, each as its
        kernel returns it: the one forward pass of `field` and `gradient`.
        The S^3 tangent bases are None in R^3, and padded slots are charted
        as exactly zero."""
        nbr = self.ring[rows]
        basis = _tangent_bases(positions[rows]) if self.ambient == "S3" else None
        local = _chart(positions[rows], positions[nbr], basis)
        local[nbr == rows[:, None]] = 0.0
        fan = _fan_sums(local, self.fan[rows])
        return (basis, local), fan, _quadric_fit(local, fan[0], self.counts[rows])

    def field(self, positions):
        """CurvatureField at the given positions."""
        n = len(positions)
        blocks = [self._field_rows(positions, np.arange(start, min(start + _FIT_ROWS, n)))
                  for start in range(0, n, _FIT_ROWS)]
        k1, k2, normal = map(np.concatenate, zip(*blocks))
        return CurvatureField(k1=k1, k2=k2, normal=normal,
                              weight=_vertex_areas(positions, self.faces))

    def _field_rows(self, positions, rows):
        """k1, k2 and unit normals of the stencil rows `rows`; the forward
        pass's tapes die with the call, not with the next block."""
        (basis, _), (frame_n, _), fit = self._forward(positions, rows)
        (a1, a2), (k1, k2), (e1, e2), _ = fit
        # refine the normal with the fitted gradient
        normal = frame_n - a1[:, None] * e1 - a2[:, None] * e2
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        if basis is not None:
            normal = np.einsum("vk,vkd->vd", normal, basis)
            normal /= np.linalg.norm(normal, axis=1)[:, None]
        return k1, k2, normal

    def energy(self, positions):
        """Total bending energy at the given positions."""
        return _field_energy(self.ambient, self.field(positions))

    def gradient(self, positions):
        """Exact gradient of the total energy, (V, dim).

        Each block of `_GRAD_ROWS` stencil rows runs the forward pass and
        then its reverse: the fit, the fan normals and the chart pulled back
        in turn, and the rows' derivatives added to the vertices of their
        two-rings. The vertex areas are pulled back once, face by face,
        after the last block. On S^3 each vertex's gradient is projected
        onto its tangent space, which makes it the derivative of the energy
        of the renormalized positions that the descent evaluates."""
        n, dim = positions.shape
        grad = np.zeros((n, dim))
        weight = _vertex_areas(positions, self.faces)
        g_weight = np.empty(n)
        for start in range(0, n, _GRAD_ROWS):
            rows = np.arange(start, min(start + _GRAD_ROWS, n))
            nbr = self.ring[rows]
            (basis, local), (frame_n, norms), fit = self._forward(positions, rows)
            _, (k1, k2), _, fit_tape = fit
            # the density is H^2 w (plus w on S^3) with H = (k1 + k2) / 2,
            # so its derivatives are H w along k1 + k2 and its value at
            # w = 1 along w
            g_local, g_n = _quadric_fit_grad(local, self.counts[rows], fit_tape,
                                             0.5 * (k1 + k2) * weight[rows])
            g_local += _fan_sums_grad(local, self.fan[rows], frame_n, norms, g_n)
            g_weight[rows] = _bending_density(self.ambient, k1, k2, 1.0)
            g_base, g_nbr = _chart_grad(positions[rows], positions[nbr], basis, g_local)
            # a padded slot is a constant zero of the chart: its design row
            # is zero and no fan entry reads it, so it adds exactly zero.
            # The block's vertices are counted compactly: a full-length
            # count per block would cost O(V^2 / _GRAD_ROWS) in all
            uniq, at = np.unique(np.concatenate([rows, nbr.ravel()]), return_inverse=True)
            grad[uniq] += _scatter(at, np.concatenate([g_base, g_nbr.reshape(-1, dim)]),
                                   len(uniq))
        grad += _vertex_areas_grad(positions, self.faces, g_weight)
        if self.ambient == "S3":
            grad -= np.einsum("vd,vd->v", grad, positions)[:, None] * positions
        return grad


def estimate_curvatures(mesh):
    """Estimate a CurvatureField for a closed mesh in R^3 or on S^3."""
    return _LocalEnergyModel(mesh).field(mesh.vertices)
