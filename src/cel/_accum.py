"""Small numeric helpers: compensated reductions and seeded direction draws."""

import math

import numpy as np


def stable_sum(values):
    """Exactly rounded sum of a float array.

    Uses math.fsum, so the result does not depend on evaluation order.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64).ravel()
    return math.fsum(arr.tolist())


def unit_directions(count, dim, seed, antipodal=False):
    """Draw `count` unit vectors in R^dim from a fixed-seed generator.

    With antipodal=True the sign is canonicalized (first nonzero entry
    positive) so v and -v are the same sample, matching a projective
    parameter space.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, dim))
    x /= np.linalg.norm(x, axis=1)[:, None]
    if antipodal:
        first = np.argmax(np.abs(x) > 1e-14, axis=1)
        signs = np.sign(x[np.arange(len(x)), first])
        signs[signs == 0] = 1.0
        x *= signs[:, None]
    return x
