"""Core geometric containers: triangle meshes, two-component polygonal links,
topology checks, and file I/O.

Meshes live either in R^3 (`ambient="R3"`, 3 coordinates per vertex) or on the
unit three-sphere (`ambient="S3"`, 4 coordinates, unit rows). Links are pairs
of closed polylines in R^3 or R^4; a segment runs from vertex i to vertex
i+1 with wraparound, so vertices are stored once.
"""

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import FormatError, InputError, MeshQualityError, ParameterError

AMBIENTS = ("R3", "S3")


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
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise ParameterError("face indices out of range")

    @property
    def vertex_count(self):
        return len(self.vertices)

    @property
    def face_count(self):
        return len(self.faces)

    def edges(self, return_counts=False):
        """Unique undirected edges as sorted index pairs, in lexicographic
        order; each pair is keyed by one integer, a * V + b."""
        raw = np.sort(self.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        n = self.vertex_count
        keys, counts = np.unique(raw[:, 0] * n + raw[:, 1], return_counts=True)
        edges = np.stack(np.divmod(keys, n), axis=1)
        return (edges, counts) if return_counts else edges

    def face_areas(self):
        """Flat triangle areas, valid in any ambient dimension."""
        a = self.vertices[self.faces[:, 0]]
        u = self.vertices[self.faces[:, 1]] - a
        v = self.vertices[self.faces[:, 2]] - a
        uu = np.einsum("ij,ij->i", u, u)
        vv = np.einsum("ij,ij->i", v, v)
        uv = np.einsum("ij,ij->i", u, v)
        g = uu * vv - uv * uv
        return 0.5 * np.sqrt(np.maximum(g, 0.0))

    def area(self):
        from ._accum import stable_sum

        return stable_sum(self.face_areas())

    def edge_lengths(self):
        e = self.edges()
        d = self.vertices[e[:, 0]] - self.vertices[e[:, 1]]
        return np.linalg.norm(d, axis=1)

    def bbox_diameter(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def with_vertices(self, vertices, keep_recipe=False):
        """Copy of the mesh with replaced vertex coordinates."""
        return TriMesh(vertices, self.faces.copy(), ambient=self.ambient,
                       recipe=self.recipe if keep_recipe else None)

    def validate(self):
        """Full structural check. Raises MeshQualityError on failure."""
        if self.face_count == 0:
            raise MeshQualityError("mesh has no faces")
        directed = self.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        uniq = np.unique(directed, axis=0)
        if len(uniq) != len(directed):
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
    edges, counts = mesh.edges(return_counts=True)
    if np.any(counts != 2):
        raise MeshQualityError("genus undefined: mesh is not closed")
    graph = sp.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                          shape=(mesh.vertex_count,) * 2)
    if connected_components(graph, directed=False, return_labels=False) != 1:
        raise MeshQualityError("genus undefined: mesh is not connected")
    chi = mesh.vertex_count - len(edges) + mesh.face_count
    if chi % 2 != 0:
        raise MeshQualityError(f"odd Euler characteristic {chi}")
    genus = (2 - chi) // 2
    if genus < 0:
        raise MeshQualityError(f"negative genus from characteristic {chi}")
    return genus


_TILE_PAIRS = 1 << 16    # point pairs per tile of PolyLink.min_distance


def _segments(g):
    """Midpoints and vectors of the segments i -> i+1 of a closed polyline."""
    nxt = np.roll(g, -1, axis=0)
    return 0.5 * (g + nxt), nxt - g


@dataclass
class PolyLink:
    """Two disjoint closed polylines with a common ambient dimension."""

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
        if self.gamma1.shape[1] != self.gamma2.shape[1]:
            raise ParameterError("curves must share an ambient dimension")
        if self.min_distance() <= 0.0:
            raise InputError("link components touch")

    @property
    def dim(self):
        return self.gamma1.shape[1]

    def segments(self, which):
        return _segments(self.gamma1 if which == 1 else self.gamma2)

    def min_distance(self):
        """Smallest distance between sample points of the two components.

        Vertices and segment midpoints are compared; this is a sampling
        bound, not an exact curve distance, and is documented as such.
        """
        p1 = np.vstack([self.gamma1, self.segments(1)[0]])
        p2 = np.vstack([self.gamma2, self.segments(2)[0]])
        # row tiles keep memory linear in the curve lengths; the minimum is
        # taken element by element, so tiling does not change the value
        step = max(1, _TILE_PAIRS // len(p2))
        d2 = min(float(np.sum((p1[i:i + step, None, :] - p2[None, :, :]) ** 2, axis=2).min())
                 for i in range(0, len(p1), step))
        return float(np.sqrt(d2))

    def diameter(self):
        pts = np.vstack([self.gamma1, self.gamma2])
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def on_sphere(self, tol=1e-9):
        if self.dim != 4:
            return False
        norms = np.linalg.norm(np.vstack([self.gamma1, self.gamma2]), axis=1)
        return bool(np.max(np.abs(norms - 1.0)) <= tol)


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


def load_obj(path):
    """Read a mesh written by save_obj (or a plain v/f OBJ file)."""
    ambient = None
    verts, faces = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
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
    faces = np.array(faces, dtype=np.int64)
    if faces.size and (faces.min() < 0 or faces.max() >= len(verts)):
        raise FormatError("face references a missing vertex")
    if ambient is None:
        ambient = "S3" if verts.shape[1] == 4 else "R3"
    if ambient == "S3" and verts.shape[1] != 4:
        raise FormatError("ambient tag S3 requires 4-component vertices")
    if ambient == "R3" and verts.shape[1] != 3:
        raise FormatError("ambient tag R3 requires 3-component vertices")
    return TriMesh(verts, faces, ambient=ambient)


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
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "gamma1" not in payload or "gamma2" not in payload:
        raise FormatError("link file needs gamma1 and gamma2 arrays")
    try:
        return PolyLink(np.array(payload["gamma1"], dtype=np.float64),
                        np.array(payload["gamma2"], dtype=np.float64))
    except (ValueError, ParameterError) as exc:
        raise FormatError(f"bad link arrays: {exc}") from exc
