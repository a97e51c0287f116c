"""Second-variation spectra and Morse index counts for minimal surfaces in
the three-sphere.

The stability operator acts on normal perturbation amplitudes phi as
-Lap phi - (|A|^2 + 2) phi, where |A|^2 = k1^2 + k2^2 and the 2 is the
ambient Ricci term of the unit three-sphere. Its Dirichlet form is assembled
from the cotangent stiffness matrix minus a lumped potential, and the index
is the count of negative eigenvalues of the generalized problem against the
lumped mass.
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .curvature import estimate_curvatures
from .errors import NotMinimalError, ParameterError
from .laplace import _eigsh, cotan_stiffness


class IndexReport(NamedTuple):
    index: int               # eigenvalues below -0.1
    near_zero: int           # eigenvalues within 0.1 of zero
    eigenvalues: np.ndarray  # the computed window, ascending


# The two closed-form cases. Eigenvalues listed are every negative mode of
# the stability operator; for the equatorial two-sphere the potential is 2
# and only the constant mode (Laplace eigenvalue 0) goes negative, while the
# square flat torus has potential 4 and five modes (Laplace eigenvalues 0
# and the four of value 2) below it.
_ANALYTIC = {
    "great_sphere": {
        "index": 1,
        "nullity": 3,
        "negatives": np.array([-2.0]),
    },
    "clifford_torus": {
        "index": 5,
        "nullity": 4,
        "negatives": np.array([-4.0, -2.0, -2.0, -2.0, -2.0]),
    },
}


def jacobi_index_analytic(kind):
    """Closed-form index data for 'great_sphere' or 'clifford_torus'.

    Returns an IndexReport whose eigenvalue window holds exactly the
    negative modes; near_zero reports the nullity (the rigid motions of the
    surface inside the three-sphere).
    """
    if kind not in _ANALYTIC:
        known = sorted(_ANALYTIC)
        raise ParameterError(f"no closed form for {kind!r}; known: {known}")
    data = _ANALYTIC[kind]
    return IndexReport(index=data["index"], near_zero=data["nullity"],
                       eigenvalues=data["negatives"].copy())


_MEAN_TOL = 0.05      # rms mean curvature above which a surface is not minimal
_EIGENPAIRS = 16      # first eigenvalue window of the index solve


def _require_minimal_s3(mesh, field):
    if mesh.ambient != "S3":
        raise NotMinimalError("index counting needs a minimal surface in the "
                              "three-sphere; an R^3 mesh has no ambient "
                              "Ricci term to stabilize it")
    h = field.mean()
    rms = float(np.sqrt(np.sum(h * h * field.weight) / np.sum(field.weight)))
    if rms > _MEAN_TOL:
        raise NotMinimalError(f"rms mean curvature {rms:.4f} exceeds "
                              f"{_MEAN_TOL}; the surface is not minimal and "
                              "the index count would be meaningless")


def jacobi_index_numeric(mesh):
    """Morse index of a discretized minimal surface in the three-sphere.

    Solves the generalized eigenproblem (S - M_pot) phi = mu M phi by
    shift-invert at minus half the potential maximum. Because the stiffness
    part is positive semidefinite, every eigenvalue satisfies
    mu >= -max(potential); the window returned by the solver is widened (by
    retrying with more eigenpairs) until it provably covers that whole
    range, so no negative mode can hide outside it.

    Eigenvalues below -0.1 count toward the index; eigenvalues within 0.1 of
    zero are reported as near_zero and counted toward neither side. The
    margin is safe for the closed-form cases, whose spectra have gaps of
    size 2 around the thresholds.
    """
    field = estimate_curvatures(mesh)
    _require_minimal_s3(mesh, field)

    potential = field.k1 ** 2 + field.k2 ** 2 + 2.0
    pot_max = float(potential.max())
    # the curvature weights are the lumped mass, bit for bit
    mass = sp.diags(field.weight)
    operator = (cotan_stiffness(mesh) - sp.diags(field.weight * potential)).tocsc()
    sigma = -0.5 * pot_max

    n = mesh.vertex_count
    k = _EIGENPAIRS
    while True:
        if k > n // 10:
            raise ParameterError("eigenvalue window cannot be made wide "
                                 "enough at this resolution; refine the mesh")
        vals = np.sort(_eigsh(operator, mass, k, sigma, False))
        reach = float(np.max(np.abs(vals - sigma)))
        if reach >= 0.5 * pot_max + 0.1:
            break
        k *= 2

    index = int(np.sum(vals < -0.1))
    near_zero = int(np.sum(np.abs(vals) <= 0.1))
    return IndexReport(index=index, near_zero=near_zero, eigenvalues=vals)
