"""Import and public-API hygiene of the library sources, read with `ast`,
and the modules that `import cel` loads."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import cel

SRC = pathlib.Path(cel.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.stem}.{name} (line {line})"
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == []


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _referenced(tree):
    """Every name, attribute and imported name the module mentions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def _called(tree):
    """Names of the functions and methods the module calls."""
    return {getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(tree) if isinstance(node, ast.Call)}


# each job has one implementation: a name and the only modules that use it,
# and whether merely mentioning the name counts or only calling it
ONE_HOME = [
    ("eigsh", {"laplace"}, _referenced),             # laplace._eigsh
    ("_pair_tiles", {"mesh", "energies"}, _referenced),
    ("csr_matrix", {"mesh", "laplace"}, _called),    # adjacency, stiffness
    ("fsum", {"_accum", "energies"}, _called),       # exact sums, link tiles
]


@pytest.mark.parametrize("name, homes, uses", ONE_HOME, ids=[j[0] for j in ONE_HOME])
def test_each_job_has_one_home(name, homes, uses):
    users = {p.stem for p in MODULES if name in uses(_tree(p))}
    assert users <= homes


def test_curvature_imports_nothing_from_scipy():
    modules = set()
    for node in ast.walk(_tree(SRC / "curvature.py")):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    assert not {m for m in modules if m.split(".")[0] == "scipy"}


def test_public_names_change_only_on_purpose():
    assert sorted(cel.__all__) == [
        "ConformalDilation", "CurvatureField", "DegenerateInputError",
        "FormatError", "GeometryError", "InputError", "InsufficientDataError",
        "InversionR4", "KNOWN_SHAPES", "LINK_KINDS", "MESH_KINDS",
        "MeshQualityError", "NearPoleError", "NotMinimalError",
        "ParameterError", "PolyLink", "ResolutionError", "ResolutionWarning",
        "SolverError", "TriMesh", "apply_dilation", "apply_inversion",
        "canonical_family_curve", "clifford_torus", "coaxial_circles",
        "cotan_stiffness", "dilate_link", "dilate_mesh",
        "eigenfunction_width_series", "ellipsoid", "ellipsoid_s3",
        "energy_linking_bound_check", "estimate_curvatures", "euler_genus",
        "g_family", "gauss_area_energy_check", "gauss_map_torus",
        "genus2_surface", "geodesic_sphere", "harmonic_width_series",
        "hk_verify", "hopf_link", "jacobi_index_analytic",
        "jacobi_index_numeric", "laplace_eigs", "laplace_minmax",
        "length_budget_check", "level_set_length", "lift_mesh",
        "linking_number", "load_link", "load_obj", "lumped_mass",
        "make_shape", "mobius_descent", "mobius_energy",
        "mobius_relative_gradient", "parallel_area_curve", "perturb_link",
        "perturb_mesh", "polynomial_sup_length", "project_link",
        "project_mesh", "radial_limit_check", "real_harmonic_basis",
        "run_all", "save_link", "save_obj", "scaling_fit", "sphere",
        "stereographic", "stereographic_inverse", "sublevel_boundary",
        "torus_link", "tube_family_sweep", "tube_torus", "willmore_descent",
        "willmore_energy", "willmore_relative_gradient",
    ]


ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").rglob("*.py"))

# public names whose only callers are tests, each kept for a reason
NO_CALLER_YET = {
    "sublevel_boundary": "the loop-level oracle of tests/test_level_sets.py",
    "project_mesh": "the R^3 chart of an S3 mesh, for the circle-angle "
                    "energy (ROADMAP item 6)",
    "g_family": "the Agol-Marques-Neves two-curve torus family "
                "(ROADMAP item 4)",
    "genus2_surface": "the package's one genus-two surface, a reference shape",
}


def _mentioned(tree):
    """_referenced plus every string constant: the benchmark tracer binds
    the functions it wraps by name."""
    return _referenced(tree) | {node.value for node in ast.walk(tree)
                                if isinstance(node, ast.Constant)
                                and isinstance(node.value, str)}


def test_every_public_name_has_a_caller():
    sources = MODULES + DEMOS + sorted((ROOT / "perfbench").rglob("*.py"))
    mentioned = set().union(*(_mentioned(_tree(p)) for p in sources))
    assert set(NO_CALLER_YET) <= set(cel.__all__)
    assert sorted(set(cel.__all__) - mentioned - set(NO_CALLER_YET)) == []


def _private_cel_imports(path):
    """The `_`-prefixed modules and names a file imports from cel."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cel":
            parts = node.module.split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            parts = [part for alias in node.names if alias.name.split(".")[0] == "cel"
                     for part in alias.name.split(".")]
        else:
            continue
        found += [f"{part} (line {node.lineno})" for part in parts if part.startswith("_")]
    return found


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demos_import_nothing_private_from_cel(path):
    assert _private_cel_imports(path) == []


def test_import_cel_loads_no_scipy_spatial():
    # scipy.spatial costs 0.13 to 0.16 s of import time, and nothing in cel
    # needs it; a fresh interpreter shows what `import cel` alone loads
    code = ("import sys, cel; print(sorted(m for m in sys.modules "
            "if m == 'scipy.spatial' or m.startswith('scipy.spatial.')))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
