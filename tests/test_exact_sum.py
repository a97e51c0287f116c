"""The exact-parts summation kernel against math.fsum on a plain list.

math.fsum is correctly rounded, so a kernel whose parts add up exactly to
the sum of the array must reproduce it bit for bit, sign of zero included.
Where the kernel declines (non-finite terms, terms near overflow, terms
down in the subnormals), stable_sum must return or raise exactly what
math.fsum does.
"""

import math
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from cel._accum import _EXACT_MIN, _exact_parts, stable_sum


def _bits(value):
    return float(value).hex()


def _draw(kind, n, span, seed):
    rng = np.random.default_rng(seed)
    def spread(size):
        scale = 2.0 ** rng.integers(-span, span + 1, size)
        return rng.standard_normal(size) * scale

    if kind == "spread":
        return spread(n)
    if kind == "mirrored":
        half = spread(n // 2)
        x = np.concatenate([half, -half, np.ldexp(1.0, -span) * np.ones(n % 2)])
        rng.shuffle(x)
        return x
    if kind == "negative_zero":
        return np.full(n, -0.0)
    if kind == "signed_zeros":
        return np.where(rng.random(n) < 0.5, -0.0, 0.0)
    if kind == "subnormal":
        return rng.standard_normal(n) * 2.0 ** -1060
    return rng.standard_normal(n) / rng.uniform(0.01, 1.0, n) ** 2


KINDS = ["spread", "mirrored", "negative_zero", "signed_zeros", "subnormal",
         "heavy_tail"]


@settings(deadline=None, max_examples=300)
@given(kind=st.sampled_from(KINDS),
       n=st.one_of(st.integers(0, 3), st.integers(0, 3 * _EXACT_MIN)),
       span=st.integers(0, 700),
       seed=st.integers(0, 2 ** 32 - 1))
def test_exact_parts_sum_to_the_fsum_of_the_list(kind, n, span, seed):
    x = _draw(kind, n, span, seed)
    expected = math.fsum(x.tolist())
    parts = _exact_parts(x)
    if kind == "subnormal" and n > 0 and x.any():
        assert parts is None
    else:
        assert parts is not None
        assert _bits(math.fsum(parts)) == _bits(expected)
    assert _bits(stable_sum(x)) == _bits(expected)


def test_exact_parts_leave_the_input_alone():
    x = _draw("spread", 5000, 300, 1)
    copy = x.copy()
    _exact_parts(x)
    assert x.tobytes() == copy.tobytes()


@pytest.mark.parametrize("x", [[], [-0.0], [0.0, -0.0], [3.5], [-2.0 ** -1074],
                               [1.0, -1.0], [-1.0, -0.0, 1.0]])
def test_empty_single_and_zero_arrays(x):
    arr = np.array(x, dtype=np.float64)
    parts = _exact_parts(arr)
    total = math.fsum(arr.tolist() if parts is None else parts)
    assert _bits(total) == _bits(math.fsum(x))
    assert _bits(stable_sum(arr)) == _bits(math.fsum(x))


@pytest.mark.parametrize("head", [
    [math.inf, 1.0], [math.nan, 1.0], [math.inf, -math.inf],
    [1e308, 1e308, -1e308], [2.0 ** 900, -2.0 ** 900]])
def test_non_finite_and_near_overflow_terms_fall_back_to_fsum(head):
    # padded past _EXACT_MIN so that stable_sum takes the kernel's path
    x = np.concatenate([head, np.ones(2 * _EXACT_MIN)])
    assert _exact_parts(x) is None
    try:
        expected = math.fsum(x.tolist())
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            stable_sum(x)
    else:
        assert _bits(stable_sum(x)) == _bits(expected)
