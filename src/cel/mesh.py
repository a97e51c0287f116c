"""Core geometric containers: triangle meshes, two-component polygonal links,
topology checks, and file I/O.

Meshes live either in R^3 (`ambient="R3"`, 3 coordinates per vertex) or on the
unit three-sphere (`ambient="S3"`, 4 coordinates, unit rows). Links are pairs
of closed polylines in R^3 or R^4; a segment runs from vertex i to vertex
i+1 with wraparound, so vertices are stored once.
"""

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from ._accum import stable_sum
from .errors import FormatError, InputError, MeshQualityError, ParameterError

AMBIENTS = ("R3", "S3")


def _diameter(points):
    """Diagonal of the axis-aligned bounding box of the points."""
    return float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))


def _flat_area(u, w):
    """Areas of the triangles spanned by the edge vectors u and w (..., d),
    from the Gram determinant, in any dimension d."""
    uu = np.einsum("...d,...d->...", u, u)
    ww = np.einsum("...d,...d->...", w, w)
    uw = np.einsum("...d,...d->...", u, w)
    return 0.5 * np.sqrt(np.maximum(uu * ww - uw * uw, 0.0))


def _vertex_areas(vertices, faces):
    """Barycentric vertex areas, a third of each incident face's flat area:
    the one area element of the curvature weights and the lumped mass."""
    a = vertices[faces[:, 0]]
    areas = _flat_area(vertices[faces[:, 1]] - a, vertices[faces[:, 2]] - a) / 3.0
    return np.bincount(faces.T.ravel(), np.tile(areas, 3), minlength=len(vertices))


def _adjacency(faces, n):
    """Sparse (n, n) int64 vertex adjacency; entry (a, b) counts the faces
    that have the edge a-b."""
    tail, head = faces.ravel(), faces[:, [1, 2, 0]].ravel()
    ones = np.ones(2 * len(tail), dtype=np.int64)
    return sp.csr_matrix((ones, (np.r_[tail, head], np.r_[head, tail])), shape=(n, n))


@dataclass
class TriMesh:
    """Closed triangle mesh.

    Attributes
    ----------
    vertices : (V, 3) or (V, 4) float array
    faces : (F, 3) int array, zero-based, consistently wound
    ambient : "R3" or "S3"
    recipe : optional (kind, params, resolution) tuple recorded by the shape
        generators; used to rebuild a half-resolution companion for
        discretization-error estimates. Meshes loaded from files or produced
        by mappings have recipe=None.
    """

    vertices: np.ndarray
    faces: np.ndarray
    ambient: str = "R3"
    recipe: tuple = None

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.faces = np.ascontiguousarray(self.faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] not in (3, 4):
            raise ParameterError("vertices must be (V, 3) or (V, 4)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ParameterError("faces must be (F, 3)")
        if self.ambient not in AMBIENTS:
            raise ParameterError(f"ambient must be one of {AMBIENTS}")
        if self.ambient == "S3" and self.vertices.shape[1] != 4:
            raise ParameterError("S3 meshes need 4 coordinates per vertex")
        if self.ambient == "R3" and self.vertices.shape[1] != 3:
            raise ParameterError("R3 meshes need 3 coordinates per vertex")
        if not np.isfinite(self.vertices).all():
            raise ParameterError("vertex coordinates must be finite")
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise ParameterError("face indices out of range")

    @property
    def vertex_count(self):
        return len(self.vertices)

    @property
    def face_count(self):
        return len(self.faces)

    def edges(self):
        """Unique undirected edges as sorted index pairs, in lexicographic
        order; each pair is keyed by one integer, a * V + b."""
        raw = np.sort(self.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        n = self.vertex_count
        return np.stack(np.divmod(np.unique(raw[:, 0] * n + raw[:, 1]), n), axis=1)

    def face_areas(self):
        """Flat triangle areas, valid in any ambient dimension."""
        a = self.vertices[self.faces[:, 0]]
        return _flat_area(self.vertices[self.faces[:, 1]] - a,
                          self.vertices[self.faces[:, 2]] - a)

    def area(self):
        return stable_sum(self.face_areas())

    def edge_lengths(self):
        e = self.edges()
        d = self.vertices[e[:, 0]] - self.vertices[e[:, 1]]
        return np.linalg.norm(d, axis=1)

    def bbox_diameter(self):
        return _diameter(self.vertices)

    def with_vertices(self, vertices):
        """Copy of the mesh with replaced vertex coordinates and no recipe."""
        return TriMesh(vertices, self.faces.copy(), ambient=self.ambient)

    def validate(self):
        """Full structural check. Raises MeshQualityError on failure."""
        if self.face_count == 0:
            raise MeshQualityError("mesh has no faces")
        # each directed edge keyed by one integer, a * V + b, as in edges()
        directed = self.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys = directed[:, 0] * self.vertex_count + directed[:, 1]
        if len(np.unique(keys)) != len(keys):
            raise MeshQualityError("face windings are not consistent")
        if np.any(self.face_areas() <= 0.0):
            raise MeshQualityError("mesh contains degenerate faces")
        if self.ambient == "S3":
            norms = np.linalg.norm(self.vertices, axis=1)
            if np.max(np.abs(norms - 1.0)) > 1e-12:
                raise MeshQualityError("S3 mesh has vertices off the unit sphere")
        euler_genus(self)    # checks closedness and connectivity
        return self


def euler_genus(mesh):
    """Genus of a closed connected mesh from its Euler characteristic.

    Raises MeshQualityError if the mesh is not closed, not connected, or the
    characteristic is odd (which a closed orientable surface cannot have).
    """
    adj = _adjacency(mesh.faces, mesh.vertex_count)
    # a face with a repeated corner puts its self-edge on the diagonal
    if np.any(adj.data != 2) or adj.diagonal().any():
        raise MeshQualityError("genus undefined: mesh is not closed")
    if connected_components(adj, directed=False, return_labels=False) != 1:
        raise MeshQualityError("genus undefined: mesh is not connected")
    chi = mesh.vertex_count - adj.nnz // 2 + mesh.face_count
    if chi % 2 != 0:
        raise MeshQualityError(f"odd Euler characteristic {chi}")
    genus = (2 - chi) // 2
    if genus < 0:
        raise MeshQualityError(f"negative genus from characteristic {chi}")
    return genus


_TILE_PAIRS = 1 << 16    # point pairs per tile of _pair_tiles
_BOX_ROWS = 64           # consecutive points per bounding box of _touch
_BOX_PAD = 2.0 ** -500   # box padding, far above the 2^-537 gap of a zero d2
_SPHERE_TOL = 1e-9       # largest | |x| - 1 | of a PolyLink on S^3


def _segments(g):
    """Midpoints and vectors of the segments i -> i+1 of a closed polyline."""
    nxt = np.roll(g, -1, axis=0)
    return 0.5 * (g + nxt), nxt - g


def _pair_tiles(p, q):
    """Row tiles (rows, diff, d2) of the differences p[i] - q[j] between the
    points p (n, d) and q (m, d), and their squared norms, about _TILE_PAIRS
    pairs each.

    `diff` is a list of d contiguous (rows, m) arrays, one per coordinate:
    diff[k] = p[rows, k, None] - q.T[k]. `d2` adds the squared coordinates
    in the order 0, 1, ..., d - 1, the order in which np.sum(..., axis=-1)
    reduces a short last axis. Entries therefore equal those of the full
    interleaved broadcast bit for bit, so exact reductions (min, and the
    exact parts of _accum._exact_parts) and per-row reductions do not
    depend on the tiling, and memory is one tile instead of n * m pairs."""
    qt = np.ascontiguousarray(q.T)
    step = max(1, _TILE_PAIRS // len(q))
    for start in range(0, len(p), step):
        rows = slice(start, start + step)
        diff = [p[rows, k, None] - qt[k] for k in range(p.shape[1])]
        d2 = diff[0] * diff[0]
        for dk in diff[1:]:
            d2 += dk * dk
        yield rows, diff, d2


def _min_gap(p, q):
    """Smallest distance between a point of p and a point of q."""
    return float(np.sqrt(min(float(d2.min()) for _, _, d2 in _pair_tiles(p, q))))


def _boxes(p):
    """Bounding boxes (lo, hi), padded by _BOX_PAD, of the runs of _BOX_ROWS
    consecutive rows of p."""
    starts = np.arange(0, len(p), _BOX_ROWS)
    return (np.minimum.reduceat(p, starts) - _BOX_PAD,
            np.maximum.reduceat(p, starts) + _BOX_PAD)


def _touch(p, q):
    """Whether a point of p and a point of q coincide: some pair's d2, as
    _pair_tiles computes it, is 0. This equals _min_gap(p, q) <= 0.0.

    d2 is 0 only when every fl(p_k - q_k)^2 underflows, which needs
    |p_k - q_k| < 2^-537 in every coordinate. Such a pair lies in two boxes
    of _boxes that overlap, because the padding exceeds that gap and
    rounding is monotone, so only overlapping runs are tiled. Far-apart
    point sets cost one box test per pair of runs instead of the n * m
    pairs of _min_gap."""
    plo, phi = _boxes(p)
    qlo, qhi = _boxes(q)
    near = np.all((plo[:, None] <= qhi) & (qlo <= phi[:, None]), axis=-1)
    for i in np.flatnonzero(near.any(axis=1)):
        rows = np.repeat(near[i], _BOX_ROWS)[:len(q)]
        run = p[i * _BOX_ROWS:(i + 1) * _BOX_ROWS]
        if any((d2 == 0.0).any() for _, _, d2 in _pair_tiles(run, q[rows])):
            return True
    return False


def _samples(g):
    """The sample points of a closed polyline: its vertices, then its
    segment midpoints."""
    return np.vstack([g, _segments(g)[0]])


@dataclass
class PolyLink:
    """Two disjoint closed polylines with a common ambient dimension.

    Construction raises InputError when a segment midpoint overflows to
    inf, and when the components share a sample point: a vertex or segment
    midpoint of one coincides with one of the other (their squared distance
    is 0 in floating point). The check asks for a shared point, not a
    distance: it compares points only inside overlapping bounding boxes of
    64 consecutive samples, so separated components cost one box test per
    pair of runs instead of one distance per pair of points. min_distance()
    is the full minimum.
    """

    gamma1: np.ndarray
    gamma2: np.ndarray

    def __post_init__(self):
        self.gamma1 = np.ascontiguousarray(self.gamma1, dtype=np.float64)
        self.gamma2 = np.ascontiguousarray(self.gamma2, dtype=np.float64)
        for g in (self.gamma1, self.gamma2):
            if g.ndim != 2 or g.shape[1] not in (3, 4):
                raise ParameterError("curves must be (n, 3) or (n, 4)")
            if len(g) < 3:
                raise ParameterError("closed polylines need at least 3 vertices")
            if not np.isfinite(g).all():
                raise ParameterError("curve coordinates must be finite")
        if self.gamma1.shape[1] != self.gamma2.shape[1]:
            raise ParameterError("curves must share an ambient dimension")
        # a midpoint that overflows is raised as an error below, not warned
        with np.errstate(over="ignore"):
            s1, s2 = _samples(self.gamma1), _samples(self.gamma2)
        if not (np.isfinite(s1).all() and np.isfinite(s2).all()):
            raise InputError("curve segment midpoints overflow")
        if _touch(s1, s2):
            raise InputError("link components touch")

    @property
    def dim(self):
        return self.gamma1.shape[1]

    def min_distance(self):
        """Smallest distance between sample points of the two components.

        Vertices and segment midpoints are compared; this is a sampling
        bound, not an exact curve distance, and is documented as such.
        """
        return _min_gap(_samples(self.gamma1), _samples(self.gamma2))

    def diameter(self):
        return _diameter(np.vstack([self.gamma1, self.gamma2]))

    def on_sphere(self):
        if self.dim != 4:
            return False
        norms = np.linalg.norm(np.vstack([self.gamma1, self.gamma2]), axis=1)
        return bool(np.max(np.abs(norms - 1.0)) <= _SPHERE_TOL)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_AMBIENT_TAG = "# ambient: "


def save_obj(mesh, path):
    """Write an ASCII OBJ file.

    S3 meshes get four-component vertex lines and an ambient header comment.
    Coordinates are printed with enough digits to round-trip exactly.
    """
    lines = [f"{_AMBIENT_TAG}{mesh.ambient}"]
    for v in mesh.vertices:
        coords = " ".join(format(c, ".17g") for c in v)
        lines.append(f"v {coords}")
    for f in mesh.faces:
        lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_text(path):
    """Contents of a UTF-8 text file; undecodable bytes are a FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not a UTF-8 text file: {exc}") from exc


def load_obj(path):
    """Read a mesh written by save_obj (or a plain v/f OBJ file) and check
    it with TriMesh.validate."""
    ambient = None
    verts, faces = [], []
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if line.startswith(_AMBIENT_TAG):
            tag = line[len(_AMBIENT_TAG):].strip()
            if tag not in AMBIENTS:
                raise FormatError(f"line {lineno}: unknown ambient tag {tag!r}")
            ambient = tag
            continue
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) not in (4, 5):
                raise FormatError(f"line {lineno}: vertex line must have "
                                  "3 or 4 coordinates")
            try:
                verts.append([float(x) for x in parts[1:]])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad vertex coordinate") from exc
        elif parts[0] == "f":
            if len(parts) != 4:
                raise FormatError(f"line {lineno}: only triangles are supported")
            try:
                idx = [int(x.split("/")[0]) - 1 for x in parts[1:]]
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad face index") from exc
            faces.append(idx)
    if not verts:
        raise FormatError("no vertices found")
    widths = {len(v) for v in verts}
    if len(widths) != 1:
        raise FormatError("mixed 3- and 4-component vertex lines")
    verts = np.array(verts, dtype=np.float64)
    if ambient is None:
        ambient = "S3" if verts.shape[1] == 4 else "R3"
    try:
        mesh = TriMesh(verts, np.array(faces, dtype=np.int64), ambient=ambient)
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc
    return mesh.validate()


def save_link(link, path):
    """Write a two-component link as JSON with gamma1/gamma2 vertex lists."""
    payload = {
        "gamma1": link.gamma1.tolist(),
        "gamma2": link.gamma2.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_link(path):
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "gamma1" not in payload or "gamma2" not in payload:
        raise FormatError("link file needs gamma1 and gamma2 arrays")
    try:
        return PolyLink(np.array(payload["gamma1"], dtype=np.float64),
                        np.array(payload["gamma2"], dtype=np.float64))
    except (TypeError, ValueError, ParameterError) as exc:
        raise FormatError(f"bad link arrays: {exc}") from exc
