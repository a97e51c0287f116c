"""Layer spans and counters for the traced benchmark run.

The tracer wraps cel's layer functions from outside the package: every
module attribute, class attribute or module-level dispatch table that holds
one of the functions is rebound to a wrapper, so calls between cel modules
(for example `cel.energies.make_shape` or `cel.optimize._two_ring`) open a
span too. Spans stay in memory and are written out as JSON lines when the
round ends. A layer's self time is its spans' duration minus the part of
that interval its child spans cover; calls are single-threaded, so child
spans never overlap and the covered part is the sum of their durations.
"""

import contextlib
import json
import math
import sys
import time
import warnings

# layer -> functions timed, as (module, attribute path)
LAYERS = {
    "shapes": [("cel.shapes", n) for n in (
        "make_shape", "sphere", "ellipsoid", "tube_torus", "clifford_torus",
        "geodesic_sphere", "hopf_link", "torus_link", "coaxial_circles")],
    "topology": [("cel.mesh", "TriMesh.edges"), ("cel.curvature", "_two_ring")],
    "curvature": [("cel.curvature", "estimate_curvatures")],
    "energies.surface": [("cel.energies", "willmore_energy")],
    "energies.link": [("cel.energies", n) for n in (
        "mobius_energy", "linking_number", "energy_linking_bound_check")],
    "energies.gauss": [("cel.energies", "gauss_map_torus")],
    "conformal": [("cel.conformal", n) for n in (
        "dilate_mesh", "dilate_link", "apply_dilation")],
    "canonical": [("cel.canonical", n) for n in (
        "hk_verify", "canonical_family_curve")],
    "laplace": [("cel.laplace", n) for n in ("cotan_stiffness", "laplace_eigs")],
    "spectra": [("cel.spectra", "jacobi_index_numeric")],
    "sweepouts.level_set": [("cel.sweepouts", "level_set_length")],
    "sweepouts.basis": [("cel.sweepouts", "real_harmonic_basis")],
    "sweepouts.series": [("cel.sweepouts", n) for n in (
        "harmonic_width_series", "eigenfunction_width_series",
        "length_budget_check")],
    "optimize.gradient": [("cel.optimize", n) for n in (
        "willmore_gradient", "_LocalEnergyModel.gradient", "mobius_gradient")],
    "optimize.descent": [("cel.optimize", n) for n in (
        "willmore_descent", "mobius_descent")],
    "optimize.line_search": [("cel.optimize", "_armijo")],
    "cli": [("cel.cli", "main")],
}

# per-layer metrics reported by a traced run: name -> unit
METRICS = {
    "shapes.self_s": "s", "shapes.meshes": "count",
    "topology.self_s": "s", "topology.builds": "count",
    "topology.builds_per_connectivity": "ratio",
    "curvature.self_s": "s", "curvature.fits": "count",
    "curvature.vertices_fitted": "count",
    "energies.willmore_s": "s", "energies.richardson_rebuilds": "count",
    "energies.link_s": "s", "energies.link_calls": "count",
    "energies.gauss_torus_s": "s", "energies.resolution_warnings": "count",
    "conformal.self_s": "s", "conformal.points_mapped": "count",
    "canonical.self_s": "s", "canonical.family_members": "count",
    "laplace.self_s": "s", "laplace.eigsh_calls": "count",
    "spectra.self_s": "s", "spectra.window_retries": "count",
    "sweepouts.level_set_s": "s", "sweepouts.level_sets": "count",
    "sweepouts.faces_scanned": "count", "sweepouts.basis_s": "s",
    "sweepouts.series_s": "s", "sweepouts.width_coverage_min": "ratio",
    "optimize.gradient_s": "s", "optimize.gradients": "count",
    "optimize.line_search_s": "s", "optimize.line_search_evals": "count",
    "optimize.armijo_halvings": "count", "optimize.accepted_steps": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",    # wall_s of the traced run, taken like the untraced one
}


class _Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "child_time")

    def __init__(self, name, layer, start, parent):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.child_time = 0.0


class Tracer:
    """In-memory spans and counters for one workload process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.faces_seen = set()
        self.coverage = []
        self.self_time = {}

    # -- spans and counts ----------------------------------------------------

    def open(self, name, layer):
        parent = self.stack[-1] if self.stack else None
        span = _Span(name, layer, time.perf_counter(), parent)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        duration = span.end - span.start
        key = (span.layer, span.name)
        self.self_time[key] = self.self_time.get(key, 0.0) + duration - span.child_time
        if span.parent is not None:
            span.parent.child_time += duration

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def current_layer(self):
        return self.stack[-1].layer if self.stack else None

    @contextlib.contextmanager
    def span(self, name, layer="bench"):
        span = self.open(name, layer)
        try:
            yield span
        finally:
            self.close(span)

    # -- metrics -------------------------------------------------------------

    def _self(self, layer):
        return sum(t for (lay, _), t in self.self_time.items() if lay == layer)

    def _inclusive(self, layer):
        """Duration of spans of `layer` not nested in another of its spans."""
        total = 0.0
        for s in self.spans:
            if s.layer != layer:
                continue
            p = s.parent
            while p is not None and p.layer != layer:
                p = p.parent
            if p is None:
                total += s.end - s.start
        return total

    def metrics(self):
        c = self.counts.get
        builds = c("topology.builds", 0)
        index_solves = c("spectra.index_solves", 0)
        m = {
            "shapes.self_s": self._self("shapes"),
            "shapes.meshes": c("shapes.meshes", 0),
            "topology.self_s": self._self("topology"),
            "topology.builds": builds,
            "topology.builds_per_connectivity":
                builds / len(self.faces_seen) if self.faces_seen else 0.0,
            "curvature.self_s": self._self("curvature"),
            "curvature.fits": c("curvature.fits", 0),
            "curvature.vertices_fitted": c("curvature.vertices_fitted", 0),
            "energies.willmore_s": self._self("energies.surface"),
            "energies.richardson_rebuilds": c("energies.richardson_rebuilds", 0),
            "energies.link_s": self._self("energies.link"),
            "energies.link_calls": c("energies.link_calls", 0),
            "energies.gauss_torus_s": self._self("energies.gauss"),
            "energies.resolution_warnings": c("energies.resolution_warnings", 0),
            "conformal.self_s": self._self("conformal"),
            "conformal.points_mapped": c("conformal.points_mapped", 0),
            "canonical.self_s": self._self("canonical"),
            "canonical.family_members": c("canonical.family_members", 0),
            "laplace.self_s": self._self("laplace"),
            "laplace.eigsh_calls": c("eigsh.laplace", 0),
            "spectra.self_s": self._self("spectra"),
            "spectra.window_retries": c("eigsh.spectra", 0) - index_solves,
            "sweepouts.level_set_s": self._self("sweepouts.level_set"),
            "sweepouts.level_sets": c("sweepouts.level_sets", 0),
            "sweepouts.faces_scanned": c("sweepouts.faces_scanned", 0),
            "sweepouts.basis_s": self._self("sweepouts.basis"),
            "sweepouts.series_s": self._self("sweepouts.series"),
            "sweepouts.width_coverage_min":
                min(self.coverage) if self.coverage else 0.0,
            "optimize.gradient_s": self._inclusive("optimize.gradient"),
            "optimize.gradients": c("optimize.gradients", 0),
            "optimize.line_search_s": self._inclusive("optimize.line_search"),
            "optimize.line_search_evals": c("optimize.line_search_evals", 0),
            "optimize.armijo_halvings": c("optimize.armijo_halvings", 0),
            "optimize.accepted_steps": c("optimize.accepted_steps", 0),
            "cli.self_s": self._self("cli"),
        }
        return m

    def write(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer,
                    "start": s.start, "end": s.end,
                    "parent": index[id(s.parent)] if s.parent is not None else None,
                }) + "\n")


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------


def _recorder(tracer, name, layer):
    """Counter update for one wrapped function, run after each call with
    (args, kwargs, result); None when the function only carries a span."""
    import numpy as np
    from cel.mesh import TriMesh

    count = tracer.count
    if layer == "shapes":
        def rec(args, kwargs, result):
            outer = tracer.current_layer()
            if isinstance(result, TriMesh) and outer != "shapes":
                count("shapes.meshes")
                if outer == "energies.surface":
                    count("energies.richardson_rebuilds")
    elif layer == "topology":
        def rec(args, kwargs, result):
            if tracer.current_layer() != "topology":
                count("topology.builds")
                faces = args[0].faces
                tracer.faces_seen.add((faces.shape, hash(faces.tobytes())))
    elif layer == "curvature":
        def rec(args, kwargs, result):
            count("curvature.fits")
            count("curvature.vertices_fitted", args[0].vertex_count)
    elif name in ("mobius_energy", "linking_number"):
        def rec(args, kwargs, result):
            count("energies.link_calls")
    elif name == "apply_dilation":
        def rec(args, kwargs, result):
            pts = np.asarray(args[1] if len(args) > 1 else kwargs["points"])
            count("conformal.points_mapped", 1 if pts.ndim == 1 else len(pts))
    elif name == "canonical_family_curve":
        def rec(args, kwargs, result):
            count("canonical.family_members", len(result.t_grid))
    elif name == "jacobi_index_numeric":
        def rec(args, kwargs, result):
            count("spectra.index_solves")
    elif name == "level_set_length":
        def rec(args, kwargs, result):
            count("sweepouts.level_sets")
            count("sweepouts.faces_scanned", args[0].face_count)
    elif name == "harmonic_width_series":
        def rec(args, kwargs, result):
            # full-degree families: size (d+1)^2, p = (d+1)^2 - 1, width 2 pi d
            for est in result:
                d = math.isqrt(est.p + 1) - 1
                if d >= 1 and (d + 1) ** 2 == est.p + 1:
                    tracer.coverage.append(est.width / (2.0 * math.pi * d))
    elif name == "length_budget_check":
        def rec(args, kwargs, result):
            tracer.coverage.extend(r.sup_length / r.budget for r in result)
    elif layer == "optimize.gradient" and name != "willmore_gradient":
        def rec(args, kwargs, result):
            count("optimize.gradients")
    else:
        rec = None
    return rec


def _wrap(tracer, fn, name, layer):
    if name == "_armijo":
        return _wrap_armijo(tracer, fn)
    rec = _recorder(tracer, name, layer)

    def wrapper(*args, **kwargs):
        span = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if rec is not None:
            rec(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _wrap_armijo(tracer, fn):
    """The line search takes its energy as a callable; count its calls."""
    def wrapper(evaluate, *args, **kwargs):
        evals = [0]

        def counted(x):
            evals[0] += 1
            return evaluate(x)

        span = tracer.open("_armijo", "optimize.line_search")
        try:
            result = fn(counted, *args, **kwargs)
        finally:
            tracer.close(span)
        accepted = bool(result[2])
        tracer.count("optimize.line_search_evals", evals[0])
        tracer.count("optimize.armijo_halvings",
                     evals[0] - 1 if accepted else evals[0])
        tracer.count("optimize.accepted_steps", int(accepted))
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _rebind(original, replacement):
    """Point every cel binding of `original` at `replacement`: module
    globals, and module-level dicts such as the shape registries."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "cel" or modname.startswith("cel.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = replacement


def install(tracer):
    """Wrap every function in LAYERS, plus the eigensolver and the
    resolution warnings as counters attributed to the calling layer."""
    import importlib

    import scipy.sparse.linalg as spla

    from cel.errors import ResolutionWarning

    importlib.import_module("cel.cli")
    for layer, targets in LAYERS.items():
        for modname, path in targets:
            module = importlib.import_module(modname)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                fn = vars(cls)[meth]
                setattr(cls, meth, _wrap(tracer, fn, path, layer))
            else:
                fn = getattr(module, path)
                _rebind(fn, _wrap(tracer, fn, path, layer))

    eigsh = spla.eigsh

    def counted_eigsh(*args, **kwargs):
        tracer.count(f"eigsh.{tracer.current_layer()}")
        return eigsh(*args, **kwargs)

    spla.eigsh = counted_eigsh

    show = warnings.showwarning

    def counted_show(message, category, *args, **kwargs):
        if issubclass(category, ResolutionWarning):
            tracer.count("energies.resolution_warnings")
        return show(message, category, *args, **kwargs)

    warnings.simplefilter("always", ResolutionWarning)
    warnings.showwarning = counted_show
