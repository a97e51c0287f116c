"""Small numeric helpers: exact reductions and seeded direction draws."""

import math

import numpy as np

_EXACT_MIN = 1024       # below this many terms math.fsum on a list is faster


def _exact_parts(x):
    """A few floats whose exact sum is the exact sum of the 1-D float64
    array x, or None when x is not finite, max|x| >= 2^900 or the terms
    shrink toward the subnormals, where math.fsum(x.tolist()) must decide.

    Each pass is the error-free extraction of Rump, Ogita and Oishi
    (Accurate floating-point summation, part I, 2008): with sigma a power of
    two at least (n + 2) max|x|, q = (sigma + x) - sigma holds multiples of
    ulp(sigma) / 2 whose partial sums stay below sigma, so np.sum(q) is
    exact in any order, and x - q is exact. Passes repeat on the remainder
    until it is zero. math.fsum is correctly rounded, so math.fsum of the
    parts equals math.fsum(x.tolist()) bit for bit; an all-zero x keeps its
    sign through one signed zero, and q never holds -0.0.
    """
    if len(x) == 0:
        return []
    mu = float(np.abs(x).max())
    if not mu < 2.0 ** 900:
        return None
    if mu == 0.0:
        return [-0.0] if np.signbit(x).all() else [0.0]
    shift = math.ceil(math.log2(len(x) + 2))
    parts = []
    q = np.empty_like(x)
    while mu > 0.0:
        sigma = math.ldexp(1.0, math.frexp(mu)[1] + shift)
        if sigma < 2.0 ** -900:
            return None
        np.add(x, sigma, out=q)
        q -= sigma
        x = np.subtract(x, q, out=x if parts else None)   # caller's x stays
        parts.append(float(q.sum()))
        mu = float(np.abs(x, out=q).max())
    return parts


def _fsum_terms(x):
    """Terms for math.fsum with the exact sum of the 1-D float64 array x:
    its _exact_parts, or all of x where those decline."""
    parts = _exact_parts(x)
    return x.tolist() if parts is None else parts


def stable_sum(values):
    """Correctly rounded sum of a float array, equal to
    math.fsum(values.ravel().tolist()) bit for bit, so it does not depend
    on evaluation order. Arrays of _EXACT_MIN terms or more are first
    reduced to a few exact parts (_exact_parts)."""
    arr = np.ascontiguousarray(values, dtype=np.float64).ravel()
    return math.fsum(_fsum_terms(arr) if len(arr) >= _EXACT_MIN else arr.tolist())


def unit_directions(count, dim, seed):
    """Draw `count` unit vectors in R^dim from a fixed-seed generator.

    No sign is canonicalized: a projective family's member d and -d have
    the same zero set, cut at the same crossing fractions bit for bit, so a
    sampled sup does not see the sign.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, dim))
    x /= np.linalg.norm(x, axis=1)[:, None]
    return x
