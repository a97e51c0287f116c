"""Command-line front end.

Every subcommand reads meshes from OBJ (with an ambient tag comment) and
links from the JSON layout written by save_link, and emits JSON or CSV on
stdout unless -o is given. Diagnostics and timings go to stderr so stdout
stays machine-readable and reproducible.
"""

import argparse
import json
import sys
import time

import numpy as np

from . import verify
from .canonical import hk_verify
from .conformal import _dilation_drifts
from .energies import _far_pole, _linking_bound, mobius_energy, willmore_energy
from .errors import FormatError, GeometryError, ParameterError
from .laplace import laplace_minmax
from .mesh import load_link, load_obj, save_link, save_obj
from .optimize import mobius_descent, tube_family_sweep, willmore_descent
from .projection import project_link
from .shapes import KNOWN_SHAPES, LINK_KINDS, make_shape
from .spectra import jacobi_index_analytic, jacobi_index_numeric
from .sweepouts import (_WIDTH_LENGTHS, eigenfunction_width_series,
                        harmonic_width_series, scaling_fit)


def _emit(text, output):
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _json(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def _parse_params(pairs):
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise FormatError(f"expected name=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        parts = raw.split(",")
        vals = []
        for p in parts:
            try:
                vals.append(float(p))
            except ValueError:
                raise FormatError(f"parameter {key}: {p!r} is not a number")
        params[key] = vals[0] if len(vals) == 1 else tuple(vals)
    return params


def cmd_generate(args):
    params = _parse_params(args.param)
    if "resolution" in params:
        raise ParameterError("set the resolution with --resolution, not --param")
    obj = make_shape(args.kind, resolution=args.resolution, **params)
    if args.kind in LINK_KINDS:
        save_link(obj, args.output)
    else:
        save_obj(obj, args.output)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def cmd_energy(args):
    mesh = load_obj(args.mesh)
    rep = willmore_energy(mesh)
    _emit(_json({"value": rep.value, "relative_error": rep.error,
                 "vertices": rep.resolution, "ambient": mesh.ambient}),
          args.output)
    return 0


def cmd_link_energy(args):
    link = load_link(args.link)
    rep = mobius_energy(link)
    lk, bound = _linking_bound(link, rep)
    _emit(_json({"energy": rep.value, "relative_error": rep.error,
                 "segments": rep.resolution, "linking_number": lk.value,
                 "lower_bound": bound.bound, "margin": bound.margin}),
          args.output)
    return 0


def cmd_conformal_test(args):
    mesh = load_obj(args.mesh)
    direction = np.asarray(args.direction, dtype=np.float64)
    norm = np.linalg.norm(direction)
    if not 0.0 < norm < np.inf:
        raise ParameterError("--direction must be a nonzero finite vector")
    direction /= norm
    base, moved = _dilation_drifts(mesh, [s * direction for s in args.strengths],
                                   error_estimate=True)
    rows = [{"strength": s, "energy": energy, "drift": drift}
            for s, (energy, drift) in zip(args.strengths, moved)]
    _emit(_json({"base_energy": base.value, "base_error": base.error,
                 "direction": list(direction), "rows": rows}), args.output)
    return 0


def cmd_hk_test(args):
    mesh = load_obj(args.mesh)
    rep = hk_verify(mesh, vmax=args.vmax, vsteps=args.vsteps,
                    tsteps=args.tsteps)
    _emit(_json({"max_area": rep.max_area, "energy": rep.energy,
                 "ratio": rep.ratio, "v_at_max": list(rep.v_at_max),
                 "t_at_max": rep.t_at_max}), args.output)
    return 0


def cmd_widths(args):
    mesh = load_obj(args.mesh)
    series_fn = {"harmonic": harmonic_width_series,
                 "eigen": eigenfunction_width_series}[args.family]
    lengths = tuple(args.lengths) if args.lengths else _WIDTH_LENGTHS
    series = series_fn(mesh, lengths=lengths, seed=args.seed)
    lines = ["p,width,width_over_sqrt_p"]
    for est in series:
        lines.append("%d,%.17g,%.17g"
                     % (est.p, est.width, est.width / np.sqrt(est.p)))
    if args.fit:
        fit = scaling_fit(series)
        lines.append("# exponent,%.17g" % fit.exponent)
        lines.append("# prefactor,%.17g" % fit.prefactor)
    _emit("\n".join(lines), args.output)
    return 0


def cmd_laplace(args):
    mesh = load_obj(args.mesh)
    vals = laplace_minmax(mesh, args.count)
    lines = ["index,eigenvalue"]
    lines += ["%d,%.17g" % (i, v) for i, v in enumerate(vals)]
    _emit("\n".join(lines), args.output)
    return 0


def cmd_index(args):
    if args.analytic:
        rep, source = jacobi_index_analytic(args.analytic), "analytic"
    else:
        rep, source = jacobi_index_numeric(load_obj(args.mesh)), "numeric"
    _emit(_json({"index": rep.index, "near_zero": rep.near_zero,
                 "eigenvalues": list(rep.eigenvalues), "source": source}),
          args.output)
    return 0


def cmd_optimize(args):
    if args.kind == "willmore":
        final, trace = willmore_descent(load_obj(args.input), steps=args.steps,
                                        move_scale=args.move_scale)
        if args.save:
            save_obj(final, args.save)
    else:
        obj = load_link(args.input)
        if obj.dim == 4:
            obj = project_link(obj, _far_pole(obj))
            print("projected the link to R^3 before descent", file=sys.stderr)
        final, trace = mobius_descent(obj, steps=args.steps,
                                      move_scale=args.move_scale)
        if args.save:
            save_link(final, args.save)
    if args.trace:
        lines = ["step,energy,gradient_norm"]
        lines += ["%d,%.17g,%.17g" % (i, e, g)
                  for i, (e, g) in enumerate(zip(trace.energies,
                                                 trace.gradient_norms))]
        _emit("\n".join(lines), args.trace)
    _emit(_json({"initial_energy": trace.energies[0],
                 "final_energy": trace.energies[-1],
                 "accepted_steps": len(trace.energies) - 1,
                 "status": trace.status}), args.output)
    return 0


def cmd_tube_sweep(args):
    sweep = tube_family_sweep(resolution=args.resolution)
    lines = ["radius,energy"]
    lines += ["%.17g,%.17g" % (r, e)
              for r, e in zip(sweep.radii, sweep.energies)]
    lines.append("# min_radius,%.17g" % sweep.min_radius)
    lines.append("# min_energy,%.17g" % sweep.min_energy)
    _emit("\n".join(lines), args.output)
    return 0


def cmd_verify_all(args):
    results = verify.run_all(args.profile)
    failed = 0
    for res in results:
        line = f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}"
        print(line)
        print(f"  {res.name}: {res.elapsed:.1f}s", file=sys.stderr)
        failed += 0 if res.passed else 1
    total = sum(r.elapsed for r in results)
    print(f"total: {total:.1f}s, {failed} of {len(results)} checks failed",
          file=sys.stderr)
    return 1 if failed else 0


def _add_output(p):
    p.add_argument("-o", "--output", default=None,
                   help="write here instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cel",
        description="Surface energies, linked curves, and sweepout widths "
                    "on the two- and three-sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a reference mesh or link")
    p.add_argument("kind", choices=sorted(KNOWN_SHAPES))
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="shape parameter, repeatable; commas make tuples")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("energy", help="bending energy of a mesh")
    p.add_argument("mesh")
    _add_output(p)
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("link-energy",
                       help="cross energy, linking number, and bound margin")
    p.add_argument("link")
    _add_output(p)
    p.set_defaults(fn=cmd_link_energy)

    p = sub.add_parser("conformal-test",
                       help="energy drift under conformal dilations")
    p.add_argument("mesh")
    p.add_argument("--strengths", type=float, nargs="+",
                   default=[0.1, 0.3, 0.5])
    p.add_argument("--direction", type=float, nargs=4,
                   default=[0.3, -0.5, 0.2, 0.4])
    _add_output(p)
    p.set_defaults(fn=cmd_conformal_test)

    p = sub.add_parser("hk-test",
                       help="family-area sup against the bending energy")
    p.add_argument("mesh")
    p.add_argument("--vmax", type=float, default=0.5)
    p.add_argument("--vsteps", type=int, default=5)
    p.add_argument("--tsteps", type=int, default=33)
    _add_output(p)
    p.set_defaults(fn=cmd_hk_test)

    p = sub.add_parser("widths", help="sweepout width series on a sphere mesh")
    p.add_argument("mesh")
    p.add_argument("--family", choices=("harmonic", "eigen"),
                   default="harmonic")
    p.add_argument("--lengths", type=int, nargs="+", default=None,
                   help="family sizes; widths use p = size - 1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fit", action="store_true",
                   help="append the log-log scaling fit as comment rows")
    _add_output(p)
    p.set_defaults(fn=cmd_widths)

    p = sub.add_parser("laplace", help="low Laplace eigenvalues of a mesh")
    p.add_argument("mesh")
    p.add_argument("-k", "--count", type=int, default=9)
    _add_output(p)
    p.set_defaults(fn=cmd_laplace)

    p = sub.add_parser("index", help="second-variation index of a minimal "
                                     "surface in the three-sphere")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("mesh", nargs="?", default=None)
    source.add_argument("--analytic", default=None,
                        choices=("great_sphere", "clifford_torus"),
                        help="closed-form count instead of a mesh")
    _add_output(p)
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("optimize", help="gradient descent on an energy")
    p.add_argument("input", help=".obj mesh (willmore) or .json link (mobius)")
    p.add_argument("--kind", choices=("willmore", "mobius"),
                   default="willmore")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--move-scale", type=float, default=0.02)
    p.add_argument("--save", default=None, help="write the final geometry here")
    p.add_argument("--trace", default=None, help="write step,energy CSV here")
    _add_output(p)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("tube-sweep",
                       help="bending energy across the unit-tube family")
    p.add_argument("--resolution", type=int, default=96)
    _add_output(p)
    p.set_defaults(fn=cmd_tube_sweep)

    p = sub.add_parser("verify-all", help="run the acceptance checks")
    p.add_argument("--profile", choices=sorted(verify.PROFILES),
                   default="fast")
    p.set_defaults(fn=cmd_verify_all)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        t0 = time.perf_counter()
        code = args.fn(args)
        print(f"done in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
        return code
    except (GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
