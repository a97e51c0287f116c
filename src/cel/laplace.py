"""Discrete Laplace operator: cotangent stiffness, lumped mass, eigenvalues.

The cotangent weights are assembled from edge inner products, which works in
any ambient dimension; a torus sitting in R^4 gets its intrinsic flat
spectrum with no special casing. Eigenvalues come from shift-invert Lanczos
with a fixed starting vector, so repeated runs return identical output.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ParameterError, SolverError
from .mesh import _vertex_areas


def cotan_stiffness(mesh):
    """Sparse stiffness matrix: L_ii = sum of cotangent weights, positive
    semidefinite, kernel spanned by constants on a connected mesh."""
    verts, faces = mesh.vertices, mesh.faces
    # row c: the angle at corner k, opposite the edge (i, j)
    k = faces.T
    i, j = np.roll(k, -1, axis=0), np.roll(k, -2, axis=0)
    u = verts[i] - verts[k]
    v = verts[j] - verts[k]
    uu = np.einsum("cfd,cfd->cf", u, u)
    vv = np.einsum("cfd,cfd->cf", v, v)
    uv = np.einsum("cfd,cfd->cf", u, v)
    cross2 = np.maximum(uu * vv - uv * uv, 1e-300)
    half = 0.5 * (uv / np.sqrt(cross2))
    # per corner, entries (i, j), (j, i), (i, i), (j, j) of every face
    rows = np.stack([i, j, i, j], axis=1).ravel()
    cols = np.stack([j, i, i, j], axis=1).ravel()
    vals = np.stack([-half, -half, half, half], axis=1).ravel()
    n = mesh.vertex_count
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def lumped_mass(mesh):
    """Diagonal barycentric mass: one third of incident face area."""
    return sp.diags(_vertex_areas(mesh.vertices, mesh.faces))


def _eigsh(operator, mass, k, sigma, vectors):
    """k eigenvalues of operator phi = lambda mass phi nearest sigma, by
    shift-invert Lanczos from the all-ones start vector, with the
    eigenvectors when `vectors` is set."""
    try:
        return spla.eigsh(operator, k=k, M=mass, sigma=sigma, which="LM",
                          v0=np.ones(operator.shape[0]), return_eigenvectors=vectors)
    except spla.ArpackNoConvergence as exc:
        raise SolverError("eigenvalue iteration did not converge; "
                          "try lowering k or refining the mesh") from exc


def laplace_eigs(mesh, k):
    """Smallest k eigenpairs of L phi = lambda M phi, nondecreasing.

    k is capped at a tenth of the vertex count; Lanczos needs that much room
    and the top of a lumped-mass spectrum is meaningless anyway.
    """
    n = mesh.vertex_count
    if not 1 <= k <= n // 10:
        raise ParameterError(f"need 1 <= k <= V/10 = {n // 10}")
    vals, vecs = _eigsh(cotan_stiffness(mesh), lumped_mass(mesh), k, -1e-8, True)
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    # the constant mode lands at round-off scale; clamp it to an exact zero
    vals[np.abs(vals) < 1e-9] = 0.0
    return vals, vecs


def laplace_minmax(mesh, k):
    """First k Laplace eigenvalues, smallest first (lambda_0 = 0)."""
    vals, _ = laplace_eigs(mesh, k)
    return vals
