"""Acceptance criteria, one test per criterion.

The whole verification suite runs twice through the installed command line,
in subprocesses, exactly as a user would run it, with every RuntimeWarning
(a NaN, an overflow, a division by zero) and every UserWarning (such as a
ResolutionWarning) turned into an error. Criteria 1
through 12 read the first run's per-check verdicts; criterion 13 compares
the two runs byte for byte and holds both under the wall-clock budget. Each
test prints one pass/fail line to the live terminal.
"""

import re
import subprocess
import sys
import time

import pytest

LINE = re.compile(r"^\[(PASS|FAIL)\] ([a-z_]+): (.*)$")
BUDGET_SECONDS = 900.0


@pytest.fixture(scope="session")
def verify_runs():
    runs = []
    for _ in range(2):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-W", "error::UserWarning", "-m", "cel.cli",
             "verify-all", "--profile", "fast"],
            capture_output=True, text=True, timeout=2 * BUDGET_SECONDS)
        runs.append((proc.stdout, proc.returncode, time.monotonic() - t0))
    parsed = {}
    for line in runs[0][0].splitlines():
        m = LINE.match(line)
        if m:
            parsed[m.group(2)] = (m.group(1) == "PASS", m.group(3))
    return {"runs": runs, "parsed": parsed}


def criterion(capsys, verify_runs, number, label, check_name):
    passed, detail = verify_runs["parsed"].get(
        check_name, (False, "check never reported"))
    with capsys.disabled():
        print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {number} "
              f"({label}): {detail}")
    assert passed, f"criterion {number} ({label}): {detail}"


def test_criterion_01_closed_form_energies(capsys, verify_runs):
    # sphere 4pi, square torus and sqrt(2) tube 2 pi^2, distance spheres
    # 4pi, all within 1 percent at resolution 96, each under 10 seconds
    criterion(capsys, verify_runs, 1, "closed-form bending energies",
              "closed_form_energies")


def test_criterion_02_tube_minimum(capsys, verify_runs):
    # 100-point radius sweep: minimum within 0.02 of sqrt(2), value within
    # 1 percent of the optimum, under 60 seconds
    criterion(capsys, verify_runs, 2, "tube family minimum", "tube_minimum")


def test_criterion_03_cross_energy_bound(capsys, verify_runs):
    # fibration link energy within 1 percent of 2 pi^2; the 4 pi |lk|
    # bound holds on it, a (2,4) torus link, and 20 seeded perturbations,
    # all under 30 seconds
    criterion(capsys, verify_runs, 3, "cross energy and linking bound",
              "cross_energy_bound")


def test_criterion_04_conformal_invariance(capsys, verify_runs):
    # dilation drift at strengths 0.1/0.3/0.5 at most 2 percent, at most
    # 1 percent at doubled resolution, and shrinking at every strength
    criterion(capsys, verify_runs, 4, "conformal invariance",
              "conformal_invariance")


def test_criterion_05_gauss_map(capsys, verify_runs):
    # chord directions of the fibration link fill x1^2 + x2^2 = 1/2 to
    # 1e-12; area/energy within 1 percent there and at most 1.01 for
    # perturbed links
    criterion(capsys, verify_runs, 5, "chord-direction torus", "gauss_map")


def test_criterion_06_parallel_area_bound(capsys, verify_runs):
    # family-area sup at most 1.02 times the energy on three surfaces,
    # plus the pointwise area-element bound at rounding accuracy
    criterion(capsys, verify_runs, 6, "family-area comparison",
              "parallel_area_bound")


def test_criterion_07_radial_limits(capsys, verify_runs):
    # blow-up distance to the tangent great sphere decays on the square
    # torus and stays at the floor on the great sphere
    criterion(capsys, verify_runs, 7, "radial blow-up limits",
              "radial_limits")


def test_criterion_08_morse_index(capsys, verify_runs):
    # numeric index/nullity equal 1/3 and 5/4 at resolution 64 within 60
    # seconds
    criterion(capsys, verify_runs, 8, "second-variation counts",
              "morse_index")


def test_criterion_09_length_budget(capsys, verify_runs):
    # sampled zero-set lengths of degree-d polynomials stay within 2
    # percent of 2 pi d for d = 1..6
    criterion(capsys, verify_runs, 9, "sweepout length budget",
              "length_budget")


def test_criterion_10_width_scaling(capsys, verify_runs):
    # log-log slope of the width series lands in 0.5 +- 0.15, under 5
    # minutes
    criterion(capsys, verify_runs, 10, "width scaling exponent",
              "width_scaling")


def test_criterion_11_laplace_spectra(capsys, verify_runs):
    # first nine eigenvalues of the round sphere and the flat square torus
    # within 5 percent of their closed forms
    criterion(capsys, verify_runs, 11, "Laplace spectra", "laplace_spectra")


def test_criterion_12_descent(capsys, verify_runs):
    # monotone traces, energy floors from the reported discretization
    # error, and stationarity of three reference configurations below 1e-3
    criterion(capsys, verify_runs, 12, "descent and stationarity", "descent")


def test_criterion_13_determinism_and_budget(capsys, verify_runs):
    (out1, code1, dt1), (out2, code2, dt2) = verify_runs["runs"]
    same = out1 == out2
    in_budget = dt1 < BUDGET_SECONDS and dt2 < BUDGET_SECONDS
    ok = same and in_budget and code1 == 0 and code2 == 0
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion 13 "
              f"(byte-identical reruns in budget): identical={same}, "
              f"times {dt1:.0f}s/{dt2:.0f}s, exits {code1}/{code2}")
    assert same, "verify-all stdout differs between runs"
    assert in_budget, f"runs took {dt1:.0f}s and {dt2:.0f}s"
    assert code1 == 0 and code2 == 0
