"""Each oracle accepts its reference and rejects a wrong value.

Run from the repository root with `python3 -m pytest perfbench -q`; these
tests need numpy and pytest but not cel.
"""

import math

import numpy as np
import pytest

import oracles as orc
from tracing import Tracer


def rejects(fn, *args, **kwargs):
    with pytest.raises(orc.CheckFailed):
        fn(*args, **kwargs)


def test_tube_closed_form_has_its_minimum_at_sqrt2():
    assert orc.tube_energy(math.sqrt(2.0)) == pytest.approx(orc.TWO_PI_SQ, rel=1e-15)
    grid = np.linspace(1.05, 3.0, 400)
    assert grid[np.argmin([orc.tube_energy(a) for a in grid])] == pytest.approx(
        math.sqrt(2.0), abs=grid[1] - grid[0])


def test_a_tube_energy_scaled_by_1_05_is_rejected():
    want = orc.tube_energy(1.7)
    orc.check_close(want * 1.02, want, 0.03, "tube")
    rejects(orc.check_close, want * 1.05, want, 0.03, "tube")
    orc.check_richardson(want * 1.02, want, 0.011, "tube")
    rejects(orc.check_richardson, want * 1.05, want, 0.011, "tube")
    rejects(orc.check_richardson, want, want, None, "tube")


def test_every_geodesic_sphere_has_energy_4pi():
    for rho in (0.1, math.pi / 6, math.pi / 3, math.pi / 2, 2.5):
        assert orc.geodesic_sphere_energy(rho) == pytest.approx(orc.FOUR_PI, rel=1e-14)


def test_floors_reject_values_below_them():
    orc.check_floor([orc.TWO_PI_SQ * 1.001], orc.TWO_PI_SQ, 0.0, "torus")
    orc.check_floor([orc.TWO_PI_SQ * 0.995], orc.TWO_PI_SQ, 0.01, "torus")
    rejects(orc.check_floor, [orc.TWO_PI_SQ * 0.995], orc.TWO_PI_SQ, 0.001, "torus")
    rejects(orc.check_floor, [30.0, orc.TWO_PI_SQ * 0.99], orc.TWO_PI_SQ, 0.0, "link")


def test_monotonicity_checks_reject_one_wrong_step():
    orc.check_nonincreasing([3.0, 2.0, 2.0, 1.0], "descent")
    rejects(orc.check_nonincreasing, [3.0, 2.0, 2.0 + 1e-12, 1.0], "descent")
    orc.check_nondecreasing([1.0, 1.0, 2.0], "series")
    rejects(orc.check_nondecreasing, [1.0, 2.0, 1.999], "series")


def test_great_circle_budget_rejects_a_sup_just_above_2pi_d():
    assert [orc.degree_for_size(n) for n in (2, 4, 5, 9, 10, 16, 17)] == [1, 1, 2, 2, 3, 3, 4]
    sizes = (4, 9, 16)
    orc.check_width_budget(sizes, [2 * math.pi, 4 * math.pi, 6 * math.pi], "w", tol=0.0)
    rejects(orc.check_width_budget, sizes,
            [2 * math.pi, 4 * math.pi * (1 + 1e-9), 6 * math.pi], "w", tol=0.0)
    rejects(orc.check_width_budget, (5,), [4 * math.pi * 1.021], "w", tol=0.02)


def test_exponent_and_index_checks():
    orc.check_exponent(0.47, "fit")
    rejects(orc.check_exponent, 0.66, "fit")
    rejects(orc.check_exponent, 0.34, "fit")
    orc.check_index((5, 4), orc.INDEX_CLIFFORD, "torus")
    rejects(orc.check_index, (9, 0), orc.INDEX_CLIFFORD, "torus")
    rejects(orc.check_index, (1, 2), orc.INDEX_GREAT_SPHERE, "sphere")


def _quadratic(points):
    w = np.arange(1.0, points.size + 1.0).reshape(points.shape)
    return float(np.sum(w * points ** 2))


def test_central_differences_catch_a_gradient_with_one_sign_flipped():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((5, 3))
    exact = 2.0 * np.arange(1.0, 16.0).reshape(5, 3) * pts
    probes = [(1, 0), (3, 2), (4, 1)]
    want = [orc.central_difference(_quadratic, pts, v, a, 1e-5) for v, a in probes]
    got = [exact[v, a] for v, a in probes]
    orc.check_gradient(got, want, "quadratic")
    got[1] = -got[1]
    rejects(orc.check_gradient, got, want, "quadratic")


def test_renormalized_differences_see_only_the_tangential_part():
    # the height x4 on S^3 has tangential gradient e4 - x4 x at x
    x = np.array([[0.5, 0.5, 0.5, 0.5]])
    grad = [orc.central_difference(lambda p: float(p[0, 3]), x, 0, a, 1e-6,
                                   renormalize=True) for a in range(4)]
    np.testing.assert_allclose(grad, np.array([0, 0, 0, 1.0]) - 0.5 * x[0], atol=1e-9)


def test_seeded_inputs_repeat_and_are_rotations():
    a = orc.random_rotation(np.random.default_rng([7, 1]), 4)
    b = orc.random_rotation(np.random.default_rng([7, 1]), 4)
    assert np.array_equal(a, b)
    np.testing.assert_allclose(a @ a.T, np.eye(4), atol=1e-14)
    assert np.linalg.det(a) == pytest.approx(1.0)


def test_triangle_area_of_the_octahedron():
    v = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                 dtype=float)
    f = np.array([[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
                  [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]])
    assert orc.triangle_area(v, f) == pytest.approx(8 * math.sqrt(3) / 2, rel=1e-15)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    outer = tracer.open("outer", "a")
    inner = tracer.open("inner", "b")
    tracer.close(inner)
    tracer.close(outer)
    inner_d = inner.end - inner.start
    outer_d = outer.end - outer.start
    assert tracer.self_time[("b", "inner")] == pytest.approx(inner_d)
    assert tracer.self_time[("a", "outer")] == pytest.approx(outer_d - inner_d)
    assert tracer._inclusive("a") == pytest.approx(outer_d)
