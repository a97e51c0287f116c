"""The four benchmark workloads.

Each workload has a `setup(seed, scratch)` that builds its fixed inputs
from the seed (the meshes and links that are inputs, not products, of the
computation) and a `run(inputs, op)` that makes a fixed list of checked
operations. An operation is one call into a cel entry point plus its check
against a reference from `oracles`; `op(name, fn)` runs it and counts it.
cel is reached through module attributes at call time (`cel.willmore_energy`
and so on), so the traced run sees the calls the benchmark makes.
"""

import json
import math
import os
from types import SimpleNamespace

import numpy as np

import oracles as orc

HALF_PI = 0.5 * math.pi


def _cel():
    import cel
    import cel.cli
    import cel.optimize
    return cel


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


# ---------------------------------------------------------------------------
# surfaces: one large curvature fit per mesh over about a hundred meshes
# ---------------------------------------------------------------------------

TUBE_RES = 64          # resolution of every tube of revolution
TUBE_GRID = 8          # ring radii over [1.1, 3.0], shifted by a seeded offset
TUBE_TOL = 0.03        # discretization allowance of a res-64 tube (2.4% at a = 1.1)
CLOSED_RES = 20        # sphere, Clifford torus, geodesic spheres
DILATE_TOL = 0.02      # energy drift allowed under a dilation, as in verify-all
STRENGTHS = (0.1, 0.3, 0.5)
HK_STEPS = 3           # dilation strengths (and directions) of the family grid


def surfaces_setup(seed, scratch):
    cel = _cel()
    rng = _rng(seed, 0)
    step = (3.0 - 1.1) / (TUBE_GRID - 1)
    radii = 1.1 + step * (np.arange(TUBE_GRID) + rng.uniform(0.0, 0.5))
    tube_radii = rng.uniform(1.1, 3.0, size=2)
    closed = [
        ("sphere", cel.sphere(radius=float(rng.uniform(0.5, 2.0)),
                              resolution=CLOSED_RES), orc.FOUR_PI),
        ("clifford_torus", cel.clifford_torus(resolution=CLOSED_RES), orc.TWO_PI_SQ),
    ]
    for rho in (math.pi / 6, math.pi / 3, HALF_PI):
        closed.append((f"geodesic_sphere({rho:.4f})",
                       cel.geodesic_sphere(orc.random_unit(rng, 4), rho,
                                           resolution=CLOSED_RES),
                       orc.geodesic_sphere_energy(rho)))
    clifford48 = cel.clifford_torus(resolution=48)
    geo16 = cel.geodesic_sphere(orc.random_unit(rng, 4), math.pi / 3, resolution=16)
    return SimpleNamespace(
        radii=radii, step=step,
        tubes=[(float(a), cel.tube_torus(big_radius=float(a), tube_radius=1.0,
                                         resolution=TUBE_RES)) for a in tube_radii],
        closed=closed,
        dilated=[("clifford_torus", clifford48, orc.TWO_PI_SQ,
                  orc.random_unit(rng, 4)),
                 ("geodesic_sphere", geo16, orc.FOUR_PI, orc.random_unit(rng, 4))],
        hk=[("clifford_torus", closed[1][1], orc.TWO_PI_SQ),
            ("geodesic_sphere", geo16, orc.FOUR_PI)],
        index=[("great_sphere",
                cel.geodesic_sphere(orc.random_unit(rng, 4), HALF_PI, resolution=16),
                orc.INDEX_GREAT_SPHERE),
               ("clifford_torus", clifford48, orc.INDEX_CLIFFORD)],
    )


def surfaces_run(inp, op):
    cel = _cel()

    def sweep():
        rep = cel.tube_family_sweep(radii=inp.radii, resolution=TUBE_RES)
        for a, e in zip(rep.radii, rep.energies):
            orc.check_close(e, orc.tube_energy(a), TUBE_TOL, f"tube a={a:.4f}")
        orc.require(abs(rep.min_radius - math.sqrt(2.0)) <= inp.step,
                    f"sweep argmin {rep.min_radius:.4f} is more than one grid "
                    f"step from sqrt 2")

    op("tube_sweep", sweep)

    for a, mesh in inp.tubes:
        def tube(a=a, mesh=mesh):
            rep = cel.willmore_energy(mesh)
            orc.check_richardson(rep.value, orc.tube_energy(a), rep.error,
                                 f"tube a={a:.4f}")
        op("tube_richardson", tube)

    for tag, mesh, want in inp.closed:
        def closed(tag=tag, mesh=mesh, want=want):
            rep = cel.willmore_energy(mesh)
            orc.check_close(rep.value, want, 0.01, tag)
            orc.check_richardson(rep.value, want, rep.error, tag)
        op("closed_form", closed)

    for tag, mesh, want, direction in inp.dilated:
        for s in STRENGTHS:
            def dilated(tag=tag, mesh=mesh, want=want, v=s * direction):
                image = cel.dilate_mesh(mesh, v)
                value = cel.willmore_energy(image, error_estimate=False).value
                orc.check_close(value, want, DILATE_TOL, f"dilated {tag}")
            op("dilation", dilated)

    for tag, mesh, want in inp.hk:
        def family(tag=tag, mesh=mesh, want=want):
            rep = cel.hk_verify(mesh, vsteps=HK_STEPS)
            area = orc.triangle_area(mesh.vertices, mesh.faces)
            orc.require(rep.max_area >= area * (1.0 - 1e-9),
                        f"{tag}: family sup {rep.max_area:.6f} below the "
                        f"surface area {area:.6f}")
            orc.require(rep.max_area <= 1.02 * want,
                        f"{tag}: family sup {rep.max_area:.6f} above 1.02 x "
                        f"{want:.6f}")
        op("hk_verify", family)

    for tag, mesh, want in inp.index:
        def index(tag=tag, mesh=mesh, want=want):
            rep = cel.jacobi_index_numeric(mesh)
            orc.check_index((rep.index, rep.near_zero), want, tag)
        op("jacobi_index", index)


# ---------------------------------------------------------------------------
# widths: tens of thousands of level sets on one fixed mesh
# ---------------------------------------------------------------------------

WIDTH_RES = 16
HARMONIC_SIZES = (3, 4, 5, 6, 7, 8, 9, 10, 12, 16)
BUDGET_SAMPLES = 100
EIGEN_RES = 10
EIGEN_SIZES = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)


def _rotated_sphere(cel, resolution, rotation):
    base = cel.sphere(resolution=resolution)
    return cel.TriMesh(base.vertices @ rotation.T, base.faces, ambient="R3")


def widths_setup(seed, scratch):
    cel = _cel()
    rotation = orc.random_rotation(_rng(seed, 1), 3)
    return SimpleNamespace(sphere=_rotated_sphere(cel, WIDTH_RES, rotation),
                           coarse=_rotated_sphere(cel, EIGEN_RES, rotation))


def widths_run(inp, op):
    cel = _cel()

    def harmonic():
        series = cel.harmonic_width_series(inp.sphere, lengths=HARMONIC_SIZES)
        widths = [e.width for e in series]
        orc.check_width_budget(HARMONIC_SIZES, widths, "harmonic series")
        orc.check_nondecreasing(widths, "harmonic series")
        orc.check_exponent(cel.scaling_fit(series).exponent, "harmonic series")

    def budget():
        reports = cel.length_budget_check(inp.sphere, max_degree=6,
                                          samples=BUDGET_SAMPLES)
        orc.require([r.degree for r in reports] == list(range(1, 7)),
                    "length budget: degrees 1..6 not all reported")
        orc.check_width_budget([(d + 1) ** 2 for d in range(1, 7)],
                               [r.sup_length for r in reports], "length budget")

    def eigen():
        series = cel.eigenfunction_width_series(inp.coarse, lengths=EIGEN_SIZES)
        widths = [e.width for e in series]
        orc.check_width_budget(EIGEN_SIZES, widths, "eigenfunction series")
        orc.check_nondecreasing(widths, "eigenfunction series")

    op("harmonic_width_series", harmonic)
    op("length_budget_check", budget)
    op("eigenfunction_width_series", eigen)


# ---------------------------------------------------------------------------
# links: n^2 double sums and per-vertex gradient loops
# ---------------------------------------------------------------------------

HOPF_SIZES = (256, 512, 1024)
CLI_SIZE = 1024
PERTURBED_LINKS = 20       # 128-point Hopf links, amplitude 0.03
GAUSS_LINKS = 5            # 64-point Hopf links, amplitude 0.05
DILATION_DRIFT = 1e-5      # Moebius invariance; 2e-9..1.2e-7 measured
DESCENT_STEPS = 10
POLE = np.full(4, 0.5)     # projection pole off both Hopf circles


def links_setup(seed, scratch):
    cel = _cel()
    rng = _rng(seed, 2)
    hopf = {n: cel.hopf_link(resolution=n) for n in HOPF_SIZES}
    cli_input = os.path.join(scratch, f"hopf{CLI_SIZE}.json")
    cel.save_link(hopf[CLI_SIZE], cli_input)
    base128 = cel.hopf_link(resolution=128)
    base64 = cel.hopf_link(resolution=64)
    flat = cel.project_link(base64, POLE)
    seeds = _seeds(rng, PERTURBED_LINKS + GAUSS_LINKS + 2)
    torus, rot3 = cel.torus_link(2, 4, resolution=256), orc.random_rotation(rng, 3)
    return SimpleNamespace(
        hopf=hopf, cli_input=cli_input,
        cli_output=os.path.join(scratch, "link-energy.json"),
        torus=cel.PolyLink(torus.gamma1 @ rot3.T, torus.gamma2 @ rot3.T),
        perturbed=[cel.perturb_link(base128, 0.03, seed=s)
                   for s in seeds[:PERTURBED_LINKS]],
        hopf128=base128,
        gauss=[cel.perturb_link(base64, 0.05, seed=s)
               for s in seeds[PERTURBED_LINKS:PERTURBED_LINKS + GAUSS_LINKS]],
        dilation_link=cel.perturb_link(hopf[256], 0.03, seed=seeds[-2]),
        dilation_dir=orc.random_unit(rng, 4),
        flat=flat, perturbed_flat=cel.perturb_link(flat, 0.08, seed=seeds[-1]),
        flat256=cel.project_link(hopf[256], POLE),
        grad_vertices=[(int(rng.integers(2)), int(rng.integers(64)))
                       for _ in range(4)],
    )


def _linking(bound_report):
    return round(bound_report.bound / (4.0 * math.pi))


def links_run(inp, op):
    cel = _cel()

    for n in HOPF_SIZES:
        def hopf(link=inp.hopf[n]):
            orc.check_close(cel.mobius_energy(link).value, orc.TWO_PI_SQ, 0.01,
                            f"Hopf link, {len(link.gamma1)} points")
        op("hopf_energy", hopf)

    def cli():
        code = cel.cli.main(["link-energy", inp.cli_input, "-o", inp.cli_output])
        orc.require(code == 0, f"cel link-energy exited with {code}")
        with open(inp.cli_output, encoding="utf-8") as fh:
            out = json.load(fh)
        orc.check_close(out["energy"], orc.TWO_PI_SQ, 0.01, "link-energy")
        orc.require(abs(out["linking_number"]) == 1,
                    f"link-energy: linking number {out['linking_number']}")
        orc.check_close(out["lower_bound"], 4.0 * math.pi, 1e-12, "link-energy bound")
        orc.require(out["margin"] >= 0.0, f"link-energy: margin {out['margin']}")

    op("cli_link_energy", cli)

    def torus():
        rep = cel.energy_linking_bound_check(inp.torus)
        orc.require(_linking(rep) == 2, f"(2,4) torus link: |lk| = {_linking(rep)}")
        orc.check_floor([rep.energy], 8.0 * math.pi, 0.0, "(2,4) torus link")

    op("torus_link_bound", torus)

    for link in inp.perturbed:
        def perturbed(link=link):
            energy = cel.mobius_energy(link)
            rep = cel.energy_linking_bound_check(link)
            orc.require(_linking(rep) == 1, f"perturbed Hopf: |lk| = {_linking(rep)}")
            orc.check_floor([energy.value], orc.TWO_PI_SQ, energy.error,
                            "perturbed Hopf link (Freedman-He-Wang)")
            orc.check_floor([energy.value], rep.bound, 0.0, "perturbed Hopf, 4 pi |lk|")
        op("perturbed_bound", perturbed)

    def chord_torus():
        torus = cel.gauss_map_torus(inp.hopf128)
        v = torus.vertices
        flat = float(np.max(np.abs(v[:, 0] ** 2 + v[:, 1] ** 2 - 0.5)))
        orc.require(flat <= 1e-12, f"Hopf chord torus leaves x1^2+x2^2=1/2 by {flat:.2e}")
        ratio = (orc.triangle_area(v, torus.faces)
                 / cel.mobius_energy(inp.hopf128).value)
        orc.check_close(ratio, 1.0, 0.01, "Hopf chord torus area / energy")

    op("chord_torus", chord_torus)

    for link in inp.gauss:
        def chord_perturbed(link=link):
            torus = cel.gauss_map_torus(link)
            ratio = (orc.triangle_area(torus.vertices, torus.faces)
                     / cel.mobius_energy(link).value)
            orc.require(ratio <= 1.01, f"perturbed chord torus: area / energy "
                                       f"{ratio:.6f} above 1.01")
        op("chord_torus_perturbed", chord_perturbed)

    for s in STRENGTHS:
        def dilation(v=s * inp.dilation_dir):
            base = cel.mobius_energy(inp.dilation_link).value
            moved = cel.mobius_energy(cel.dilate_link(inp.dilation_link, v)).value
            drift = abs(moved - base) / base
            orc.require(drift <= DILATION_DRIFT,
                        f"cross energy drift {drift:.2e} under a dilation of "
                        f"strength {np.linalg.norm(v):.2f}")
        op("link_dilation", dilation)

    def descent():
        allowance = 1.1 * cel.mobius_energy(inp.flat).error
        _, trace = cel.mobius_descent(inp.perturbed_flat, steps=DESCENT_STEPS)
        orc.check_nonincreasing(trace.energies, "mobius descent")
        orc.check_floor(trace.energies, orc.TWO_PI_SQ, allowance, "mobius descent")

    op("mobius_descent", descent)

    def stationary():
        g = cel.mobius_relative_gradient(inp.flat256)
        orc.require(g < 1e-3, f"projected Hopf link not stationary: {g:.2e}")

    op("mobius_stationarity", stationary)

    def gradient():
        link = inp.perturbed_flat
        grads = cel.optimize.mobius_gradient(link)
        curves = (link.gamma1, link.gamma2)
        step = 1e-6 * link.diameter()
        got, want = [], []
        for comp, k in inp.grad_vertices:
            def energy(points, comp=comp):
                pair = (points, curves[1]) if comp == 0 else (curves[0], points)
                return cel.mobius_energy(cel.PolyLink(*pair)).value
            for axis in range(3):
                got.append(grads[comp][k, axis])
                want.append(orc.central_difference(energy, curves[comp], k, axis, step))
        orc.check_gradient(got, want, "mobius_gradient")

    op("mobius_gradient", gradient)


# ---------------------------------------------------------------------------
# bending_descent: thousands of small local refits, repeated full refits
# ---------------------------------------------------------------------------

PERTURBATION = 0.06     # vertex jitter, in mean edge lengths
CLIFFORD_DESCENTS = ((16, 2), (20, 1))   # (resolution, steps)
SPHERE_RES, SPHERE_STEPS = 8, 2


def bending_setup(seed, scratch):
    cel = _cel()
    rng = _rng(seed, 3)
    seeds = _seeds(rng, 4)
    descents = []
    for (res, steps), s in zip(CLIFFORD_DESCENTS, seeds):
        clean = cel.clifford_torus(resolution=res)
        descents.append((f"Clifford torus res {res}", clean,
                         cel.perturb_mesh(clean, PERTURBATION, seed=s), steps,
                         orc.TWO_PI_SQ))
    ball = cel.sphere(radius=float(rng.uniform(0.5, 2.0)), resolution=SPHERE_RES)
    descents.append((f"round sphere res {SPHERE_RES}", ball,
                     cel.perturb_mesh(ball, PERTURBATION, seed=seeds[2]),
                     SPHERE_STEPS, orc.FOUR_PI))
    probe = cel.perturb_mesh(cel.clifford_torus(resolution=10), PERTURBATION,
                             seed=seeds[3])
    return SimpleNamespace(
        descents=descents,
        stationary=[("Clifford torus", cel.clifford_torus(resolution=12)),
                    ("great sphere", cel.geodesic_sphere(orc.random_unit(rng, 4),
                                                         HALF_PI, resolution=10))],
        probe=probe,
        probe_vertices=[int(v) for v in rng.choice(probe.vertex_count, 3,
                                                   replace=False)],
    )


def bending_run(inp, op):
    cel = _cel()

    for tag, clean, start, steps, floor in inp.descents:
        def descent(tag=tag, clean=clean, start=start, steps=steps, floor=floor):
            error = cel.willmore_energy(clean).error
            allowance = 1.1 * error if error is not None else 0.0
            _, trace = cel.willmore_descent(start, steps=steps)
            orc.check_nonincreasing(trace.energies, tag)
            orc.check_floor(trace.energies, floor, allowance, tag)
        op("willmore_descent", descent)

    for tag, mesh in inp.stationary:
        def stationary(tag=tag, mesh=mesh):
            g = cel.willmore_relative_gradient(mesh)
            orc.require(g < 1e-3, f"{tag} not stationary: {g:.2e}")
        op("willmore_stationarity", stationary)

    def gradient():
        mesh = inp.probe
        grad = cel.optimize.willmore_gradient(mesh)
        step = 1e-5 * mesh.bbox_diameter()

        def energy(points):
            return cel.willmore_energy(mesh.with_vertices(points),
                                       error_estimate=False).value

        got, want = [], []
        for v in inp.probe_vertices:
            for axis in range(mesh.vertices.shape[1]):
                got.append(grad[v, axis])
                want.append(orc.central_difference(energy, mesh.vertices, v, axis,
                                                   step, renormalize=True))
        orc.check_gradient(got, want, "willmore_gradient")

    op("willmore_gradient", gradient)


WORKLOADS = {
    "surfaces": (surfaces_setup, surfaces_run),
    "widths": (widths_setup, widths_run),
    "links": (links_setup, links_run),
    "bending_descent": (bending_setup, bending_run),
}
