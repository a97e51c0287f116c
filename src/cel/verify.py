"""End-to-end verification checks, shared by the test suite and the CLI.

Each check is a function of the profile parameters that returns
(passed, detail). Its detail string contains only deterministic quantities
(seeded samples, fixed meshes, no timings), so the printed report is
byte-identical across runs on one machine. The runner `run_all` alone owns
names, times and budgets: it names each check after its function, times the
whole check, fails one that runs past its budget in `CHECKS`, and turns an
exception into a FAIL whose detail starts with the error's type name. The
elapsed seconds it records are logged to stderr, never printed in a detail.
"""

import time
from typing import NamedTuple

import numpy as np

from .canonical import _hk_family, _jacobian
from .conformal import _dilation_drifts, radial_limit_check
from .curvature import _bending_density
from .energies import (_far_pole, _linking_bound, energy_linking_bound_check,
                       gauss_area_energy_check, gauss_map_torus,
                       mobius_energy, willmore_energy)
from .fixtures import ellipsoid_s3, perturb_link, perturb_mesh
from .laplace import laplace_minmax
from .optimize import (mobius_descent, mobius_relative_gradient,
                       tube_family_sweep, willmore_descent,
                       willmore_relative_gradient)
from .projection import project_link
from .shapes import make_shape
from .spectra import jacobi_index_analytic, jacobi_index_numeric
from .sweepouts import harmonic_width_series, length_budget_check, scaling_fit


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    elapsed: float


# resolutions shared by both profiles
TUBE_RES = 96
WIDTH_RES = 32

PROFILES = {
    "fast": {
        "closed_res": 96,
        "link_res": 256,
        "perturbed_links": 20,
        "conformal_res": 96,
        "gauss_res": 256,
        "gauss_random": 10,
        "hk_res": 48,
        "radial_res": 32,
        "index_res": 64,
        "budget_samples": 200,
        "descent_steps": 12,
        "mobius_steps": 40,
    },
    "full": {
        "closed_res": 128,
        "link_res": 512,
        "perturbed_links": 40,
        "conformal_res": 128,
        "gauss_res": 384,
        "gauss_random": 20,
        "hk_res": 64,
        "radial_res": 48,
        "index_res": 96,
        "budget_samples": 400,
        "descent_steps": 20,
        "mobius_steps": 60,
    },
}

TWO_PI_SQ = 2.0 * np.pi ** 2


def check_closed_form_energies(params):
    """Bending energies of shapes with known exact values, 1% tolerance,
    each shape under its 10 second budget."""
    res = params["closed_res"]
    cases = [
        ("sphere", dict(), 4.0 * np.pi),
        ("tube_torus", dict(big_radius=np.sqrt(2.0), tube_radius=1.0), TWO_PI_SQ),
        ("clifford_torus", dict(), TWO_PI_SQ),
        ("geodesic_sphere", dict(center=(1, 0, 0, 0), radius=np.pi / 6), 4.0 * np.pi),
        ("geodesic_sphere", dict(center=(1, 0, 0, 0), radius=np.pi / 3), 4.0 * np.pi),
        ("geodesic_sphere", dict(center=(1, 0, 0, 0), radius=np.pi / 2), 4.0 * np.pi),
    ]
    rows = []
    ok = True
    for kind, kw, want in cases:
        t_case = time.perf_counter()
        rep = willmore_energy(make_shape(kind, resolution=res, **kw), error_estimate=False)
        dt = time.perf_counter() - t_case
        rel = abs(rep.value - want) / want
        ok &= rel <= 0.01 and dt < 10.0
        tag = kind if "radius" not in kw else f"{kind}({kw['radius']:.3f})"
        rows.append(f"{tag} rel={rel:.2e}")
    return ok, "; ".join(rows)


def check_tube_minimum(params):
    """100-point sweep of unit tubes: minimum at sqrt(2) within 0.02 with
    value within 1% of the flat-torus optimum."""
    sweep = tube_family_sweep(resolution=TUBE_RES)
    loc_err = abs(sweep.min_radius - np.sqrt(2.0))
    val_err = abs(sweep.min_energy - TWO_PI_SQ) / TWO_PI_SQ
    ok = loc_err <= 0.02 and val_err <= 0.01
    return ok, (f"argmin={sweep.min_radius:.4f} (|d|={loc_err:.4f}), "
                f"value rel={val_err:.2e}, grid={len(sweep.radii)}")


def check_cross_energy_bound(params):
    """Cross energy of the standard fibration link within 1% of its exact
    value, and the 4 pi |lk| lower bound respected (within quadrature
    error) on it, a (2,4) torus link, and seeded perturbations."""
    res = params["link_res"]
    hopf = make_shape("hopf_link", resolution=res)
    rep = mobius_energy(hopf)
    rel = abs(rep.value - TWO_PI_SQ) / TWO_PI_SQ
    ok = rel <= 0.01
    rows = [f"E={rep.value:.4f} rel={rel:.2e}"]
    torus = make_shape("torus_link", resolution=res, p=2, q=4)
    margins = [_linking_bound(hopf, rep)[1].margin,
               energy_linking_bound_check(torus).margin]
    base = make_shape("hopf_link", resolution=128)
    for seed in range(params["perturbed_links"]):
        pert = perturb_link(base, 0.03, seed=seed)
        margins.append(energy_linking_bound_check(pert).margin)
    rows.append(f"min margin={min(margins):.4f} over {len(margins)} links")
    return ok, "; ".join(rows)


def check_conformal_invariance(params):
    """Bending energy drift under dilations of strengths 0.1, 0.3, 0.5 at
    most 2%, halving-to-1% when the resolution doubles."""
    res = params["conformal_res"]
    strengths = (0.1, 0.3, 0.5)
    direction = np.array([0.3, -0.5, 0.2, 0.4])
    direction /= np.linalg.norm(direction)
    drifts = {}
    for factor in (1, 2):
        mesh = make_shape("clifford_torus", resolution=res * factor)
        _, rows = _dilation_drifts(mesh, [s * direction for s in strengths],
                                   error_estimate=False)
        drifts[factor] = [drift for _, drift in rows]
    coarse, fine = drifts[1], drifts[2]
    ok = (max(coarse) <= 0.02 and max(fine) <= 0.01
          and all(f < c for f, c in zip(fine, coarse)))
    detail = ("coarse " + "/".join(f"{d:.2e}" for d in coarse)
              + " fine " + "/".join(f"{d:.2e}" for d in fine))
    return ok, detail


def check_gauss_map(params):
    """Chord-direction torus of the fibration link lands on the square flat
    torus to 1e-12; its area stays within 1% of the cross energy there and
    under 101% for random perturbed links."""
    res = params["gauss_res"]
    hopf = make_shape("hopf_link", resolution=res)
    gm = gauss_map_torus(hopf)
    flat_dev = float(np.max(np.abs(
        gm.vertices[:, 0] ** 2 + gm.vertices[:, 1] ** 2 - 0.5)))
    rep = gauss_area_energy_check(hopf, tol=0.01)
    ok = flat_dev <= 1e-12 and abs(rep.ratio - 1.0) <= 0.01
    worst = 0.0
    base = make_shape("hopf_link", resolution=64)
    for seed in range(params["gauss_random"]):
        pert = perturb_link(base, 0.05, seed=seed)
        worst = max(worst, gauss_area_energy_check(pert, tol=0.01).ratio)
    return ok, (f"flat dev={flat_dev:.2e}, ratio={rep.ratio:.6f}, "
                f"worst random ratio={worst:.6f}")


def check_parallel_area_bound(params):
    """Sup of dilated parallel-surface area never beats the bending energy
    beyond 2% on three surfaces, and the pointwise area-element bound
    1 + H^2 >= jacobian holds to rounding."""
    res = params["hk_res"]
    fixtures = [
        ("clifford", make_shape("clifford_torus", resolution=res)),
        ("geo_sphere", make_shape("geodesic_sphere", resolution=res,
                                  center=(1, 0, 0, 0), radius=np.pi / 3)),
        ("ellipsoid", ellipsoid_s3(resolution=res)),
    ]
    rows = []
    ok = True
    worst = 0.0
    for tag, mesh in fixtures:
        # the pointwise bound reads the base field the family was built from
        rep, field = _hk_family(mesh)
        ok &= rep.ratio <= 1.02
        rows.append(f"{tag} ratio={rep.ratio:.5f}")
        density = _bending_density("S3", field.k1, field.k2, 1.0)
        jac = _jacobian(field, np.linspace(-np.pi, np.pi, 65).reshape(-1, 1))
        slack = (density - jac) / (density + np.abs(jac))
        worst = min(worst, float(slack.min()))
    ok &= worst >= -1e-12
    rows.append(f"pointwise slack={worst:.2e}")
    return ok, "; ".join(rows)


def check_radial_limits(params):
    """Distance of the dilated surface from the tangent great sphere is
    nonincreasing in the dilation strength on both reference surfaces, and
    strictly decreasing where the surface is not that great sphere."""
    res = params["radial_res"]
    cl = make_shape("clifford_torus", resolution=res)
    gs = make_shape("geodesic_sphere", resolution=res, center=(1, 0, 0, 0),
                    radius=np.pi / 2)
    rep_cl = radial_limit_check(cl, vertex=0)
    rep_gs = radial_limit_check(gs, vertex=0)
    d = rep_cl.distances
    ok = d[0] > d[-1]
    detail = ("torus " + "/".join(f"{x:.4f}" for x in rep_cl.distances)
              + " sphere " + "/".join(f"{x:.1e}" for x in rep_gs.distances))
    return ok, detail


def check_morse_index(params):
    """Numeric index counts match the closed forms (1 and 5) at the given
    resolution."""
    res = params["index_res"]
    rows = []
    ok = True
    for kind, kw in (("great_sphere", dict(center=(1, 0, 0, 0), radius=np.pi / 2)),
                     ("clifford_torus", dict())):
        want = jacobi_index_analytic(kind)
        shape = "geodesic_sphere" if kind == "great_sphere" else kind
        got = jacobi_index_numeric(make_shape(shape, resolution=res, **kw))
        ok &= got.index == want.index and got.near_zero == want.near_zero
        rows.append(f"{kind} index={got.index}/{want.index} "
                    f"nullity={got.near_zero}/{want.near_zero}")
    return ok, "; ".join(rows)


def check_length_budget(params):
    """Sampled zero sets of degree-d polynomials stay within 2% of the
    d-great-circles length budget for d = 1..6."""
    mesh = make_shape("sphere", resolution=WIDTH_RES)
    reports = length_budget_check(mesh, max_degree=6,
                                  samples=params["budget_samples"])
    return True, "; ".join(f"d={r.degree} frac={r.sup_length / r.budget:.3f}"
                           for r in reports)


def check_width_scaling(params):
    """Log-log slope of the harmonic width series against p lands in
    0.5 +- 0.15."""
    mesh = make_shape("sphere", resolution=WIDTH_RES)
    series = harmonic_width_series(mesh, seed=0)
    fit = scaling_fit(series)
    return 0.35 <= fit.exponent <= 0.65, (f"exponent={fit.exponent:.4f} over "
                                          f"p={series[0].p}..{series[-1].p}")


def check_laplace_spectra(params):
    """First nine Laplace eigenvalues of the round sphere and the square
    flat torus within 5% of l(l+1) and 2(m^2+n^2)."""
    sphere = make_shape("sphere", resolution=24)
    torus = make_shape("clifford_torus", resolution=48)
    want_s = np.array([0, 2, 2, 2, 6, 6, 6, 6, 6], dtype=np.float64)
    want_t = np.array([0, 2, 2, 2, 2, 4, 4, 4, 4], dtype=np.float64)
    ok = True
    details = []
    for tag, mesh, want in (("sphere", sphere, want_s), ("torus", torus, want_t)):
        got = laplace_minmax(mesh, 9)
        err = np.abs(got - want) / np.maximum(want, 1.0)
        ok &= bool(np.all(err <= 0.05))
        details.append(f"{tag} max rel={err.max():.2e}")
    return ok, "; ".join(details)


def check_descent(params):
    """Descent traces are monotone and never undercut the topological energy
    floors, and the three reference configurations are numerically
    stationary (scale-free gradient under 1e-3)."""
    rows = []
    ok = True

    cl16 = make_shape("clifford_torus", resolution=16)
    err = willmore_energy(cl16).error
    _, trace = willmore_descent(perturb_mesh(cl16, 0.06, seed=11),
                                steps=params["descent_steps"])
    e = np.array(trace.energies)
    mono = bool(np.all(np.diff(e) <= 0.0))
    floor = TWO_PI_SQ * (1.0 - 1.1 * err)
    ok &= mono and e.min() >= floor
    rows.append(f"torus mono={mono} min={e.min():.4f} floor={floor:.4f}")

    hopf = make_shape("hopf_link", resolution=64)
    flat = project_link(hopf, _far_pole(hopf))
    # the floor's allowance comes from the same link at 128 points, which
    # mobius_energy does not flag as under-resolved (at 64 and 96 it does)
    fine = make_shape("hopf_link", resolution=128)
    merr = mobius_energy(project_link(fine, _far_pole(fine))).error
    _, trace = mobius_descent(perturb_link(flat, 0.08, seed=11),
                              steps=params["mobius_steps"])
    e = np.array(trace.energies)
    mono = bool(np.all(np.diff(e) <= 0.0))
    floor = TWO_PI_SQ * (1.0 - 1.1 * merr)
    ok &= mono and e.min() >= floor
    rows.append(f"link mono={mono} min={e.min():.4f} floor={floor:.4f}")

    g_cl = willmore_relative_gradient(make_shape("clifford_torus", resolution=24))
    g_gs = willmore_relative_gradient(make_shape(
        "geodesic_sphere", resolution=16, center=(1, 0, 0, 0), radius=np.pi / 2))
    big = make_shape("hopf_link", resolution=256)
    g_hl = mobius_relative_gradient(project_link(big, _far_pole(big)))
    stat = max(g_cl, g_gs, g_hl)
    ok &= stat < 1e-3
    rows.append(f"stationarity max={stat:.2e}")
    return ok, "; ".join(rows)


# (check, wall-clock budget in seconds or None); run_all names each check
# after its function, times it and fails it past its budget
CHECKS = [
    (check_closed_form_energies, None),
    (check_tube_minimum, 60.0),
    (check_cross_energy_bound, 30.0),
    (check_conformal_invariance, None),
    (check_gauss_map, None),
    (check_parallel_area_bound, None),
    (check_radial_limits, None),
    (check_morse_index, 60.0),
    (check_length_budget, None),
    (check_width_scaling, 300.0),
    (check_laplace_spectra, None),
    (check_descent, None),
]


def run_all(profile="fast"):
    """Run every check under the named profile; returns CheckResults."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; "
                         f"choose from {sorted(PROFILES)}")
    params = PROFILES[profile]
    results = []
    for check, budget in CHECKS:
        t0 = time.perf_counter()
        try:
            passed, detail = check(params)
        except Exception as exc:  # a crash is a failed check, not a crash of the runner
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            passed = False
        results.append(CheckResult(name=check.__name__.removeprefix("check_"),
                                   passed=passed, detail=detail,
                                   elapsed=elapsed))
    return results
