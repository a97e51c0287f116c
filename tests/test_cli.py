"""The command line, run in process through main()."""

import json

import numpy as np
import pytest

import cel.cli
import cel.energies
from cel.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_generate_and_energy(tmp_path, capsys):
    mesh = str(tmp_path / "s.obj")
    assert main(["generate", "sphere", "--resolution", "12", "-o", mesh]) == 0
    capsys.readouterr()
    code, out = run(capsys, "energy", mesh)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(4.0 * np.pi, rel=2e-2)
    assert payload["ambient"] == "R3"


def test_generate_takes_parameters(tmp_path, capsys):
    mesh = str(tmp_path / "t.obj")
    code = main(["generate", "tube_torus", "--resolution", "12",
                 "--param", "big_radius=1.8", "--param", "tube_radius=0.9",
                 "-o", mesh])
    assert code == 0
    capsys.readouterr()
    code, out = run(capsys, "energy", mesh)
    assert json.loads(out)["value"] > 4.0 * np.pi


def test_link_energy(tmp_path, capsys):
    link = str(tmp_path / "l.json")
    main(["generate", "hopf_link", "--resolution", "96", "-o", link])
    capsys.readouterr()
    code, out = run(capsys, "link-energy", link)
    assert code == 0
    payload = json.loads(out)
    assert payload["linking_number"] == 1
    assert payload["energy"] == pytest.approx(2.0 * np.pi ** 2, rel=1e-2)
    assert payload["margin"] > 0


def test_link_energy_runs_each_kernel_once(tmp_path, capsys, monkeypatch):
    link = str(tmp_path / "l.json")
    main(["generate", "hopf_link", "--resolution", "96", "-o", link])
    capsys.readouterr()
    calls = {"mobius_energy": 0, "linking_number": 0}
    for name in calls:
        original = getattr(cel.energies, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in (cel.cli, cel.energies):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    code, _ = run(capsys, "link-energy", link)
    assert code == 0
    assert calls == {"mobius_energy": 1, "linking_number": 1}


def test_unlinked_pair_has_zero_bound(tmp_path, capsys):
    link = str(tmp_path / "c.json")
    main(["generate", "coaxial_circles", "--resolution", "64",
          "--param", "separation=8", "-o", link])
    capsys.readouterr()
    _, out = run(capsys, "link-energy", link)
    payload = json.loads(out)
    assert payload["linking_number"] == 0
    assert payload["lower_bound"] == 0.0


def test_laplace_csv(tmp_path, capsys):
    mesh = str(tmp_path / "ct.obj")
    main(["generate", "clifford_torus", "--resolution", "16", "-o", mesh])
    capsys.readouterr()
    code, out = run(capsys, "laplace", mesh, "-k", "5")
    lines = out.strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 6
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals[0] == pytest.approx(0.0, abs=1e-9)
    assert vals[1] == pytest.approx(2.0, abs=1e-6)


def test_index_numeric_matches_analytic(tmp_path, capsys):
    mesh = str(tmp_path / "gs.obj")
    main(["generate", "geodesic_sphere", "--resolution", "16",
          "--param", "center=1,0,0,0", "--param", "radius=1.5707963267948966",
          "-o", mesh])
    capsys.readouterr()
    _, out = run(capsys, "index", mesh)
    numeric = json.loads(out)
    _, out = run(capsys, "index", "--analytic", "great_sphere")
    analytic = json.loads(out)
    assert numeric["index"] == analytic["index"] == 1
    assert numeric["near_zero"] == analytic["near_zero"] == 3


def test_widths_csv_is_deterministic(tmp_path, capsys):
    mesh = str(tmp_path / "s.obj")
    main(["generate", "sphere", "--resolution", "8", "-o", mesh])
    capsys.readouterr()
    _, out1 = run(capsys, "widths", mesh, "--lengths", "2", "4", "--seed", "3")
    _, out2 = run(capsys, "widths", mesh, "--lengths", "2", "4", "--seed", "3")
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "p,width,width_over_sqrt_p"
    assert len(lines) == 3


def test_optimize_writes_monotone_trace(tmp_path, capsys):
    mesh = str(tmp_path / "t.obj")
    trace = str(tmp_path / "trace.csv")
    out_mesh = str(tmp_path / "opt.obj")
    main(["generate", "tube_torus", "--resolution", "10", "-o", mesh])
    capsys.readouterr()
    code, out = run(capsys, "optimize", mesh, "--steps", "2",
                    "--trace", trace, "--save", out_mesh)
    assert code == 0
    payload = json.loads(out)
    assert payload["final_energy"] <= payload["initial_energy"]
    rows = open(trace).read().strip().splitlines()
    assert rows[0] == "step,energy,gradient_norm"
    energies = [float(r.split(",")[1]) for r in rows[1:]]
    assert energies == sorted(energies, reverse=True)


def test_hk_subcommand(tmp_path, capsys):
    mesh = str(tmp_path / "ct.obj")
    main(["generate", "clifford_torus", "--resolution", "16", "-o", mesh])
    capsys.readouterr()
    code, out = run(capsys, "hk-test", mesh, "--vsteps", "3", "--tsteps", "17")
    assert code == 0
    assert json.loads(out)["ratio"] <= 1.03


def test_conformal_subcommand(tmp_path, capsys):
    mesh = str(tmp_path / "ct.obj")
    main(["generate", "clifford_torus", "--resolution", "16", "-o", mesh])
    capsys.readouterr()
    code, out = run(capsys, "conformal-test", mesh, "--strengths", "0.2")
    payload = json.loads(out)
    assert payload["rows"][0]["drift"] < 0.05


def test_missing_file_exits_2(capsys):
    assert main(["energy", "/nonexistent/mesh.obj"]) == 2


def test_bad_param_exits_2(tmp_path, capsys):
    out = str(tmp_path / "x.obj")
    assert main(["generate", "sphere", "--param", "radius=abc",
                 "-o", out]) == 2


def test_non_finite_link_exits_2(tmp_path, capsys):
    link = str(tmp_path / "link.json")
    main(["generate", "hopf_link", "--resolution", "32", "-o", link])
    with open(link) as fh:
        payload = json.load(fh)
    payload["gamma1"][3][1] = float("nan")
    with open(link, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert main(["link-energy", link]) == 2
    assert "error: bad link arrays: curve coordinates must be finite" in capsys.readouterr().err


def test_non_finite_mesh_exits_2(tmp_path, capsys):
    mesh = str(tmp_path / "s.obj")
    main(["generate", "sphere", "--resolution", "8", "-o", mesh])
    with open(mesh) as fh:
        lines = fh.read().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("v "))
    lines[first] = "v inf 0 0"
    with open(mesh, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["energy", mesh]) == 2
    assert "error: vertex coordinates must be finite" in capsys.readouterr().err


def test_link_energy_on_a_mesh_exits_2(tmp_path, capsys):
    mesh = str(tmp_path / "s.obj")
    main(["generate", "sphere", "--resolution", "8", "-o", mesh])
    capsys.readouterr()
    assert main(["link-energy", mesh]) == 2
    assert "error: not valid JSON" in capsys.readouterr().err


def test_optimize_willmore_on_a_link_exits_2(tmp_path, capsys):
    link = str(tmp_path / "l.json")
    main(["generate", "hopf_link", "--resolution", "32", "-o", link])
    capsys.readouterr()
    assert main(["optimize", link, "--steps", "1"]) == 2
    assert "error: no vertices found" in capsys.readouterr().err


def test_optimize_mobius_on_a_mesh_exits_2(tmp_path, capsys):
    mesh = str(tmp_path / "s.obj")
    main(["generate", "sphere", "--resolution", "8", "-o", mesh])
    capsys.readouterr()
    assert main(["optimize", mesh, "--kind", "mobius", "--steps", "1"]) == 2
    assert "error: not valid JSON" in capsys.readouterr().err


def test_unknown_shape_parameter_exits_2(tmp_path, capsys):
    out = str(tmp_path / "x.obj")
    assert main(["generate", "sphere", "--param", "bogus=1", "-o", out]) == 2
    assert "error: sphere takes no parameter(s) ['bogus']" in capsys.readouterr().err


def test_resolution_as_a_parameter_exits_2(tmp_path, capsys):
    out = str(tmp_path / "x.obj")
    assert main(["generate", "sphere", "--param", "resolution=9", "-o", out]) == 2
    assert "--resolution" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["--vsteps", "--tsteps"])
def test_hk_on_an_empty_grid_exits_2(tmp_path, capsys, grid):
    mesh = str(tmp_path / "ct.obj")
    main(["generate", "clifford_torus", "--resolution", "8", "-o", mesh])
    capsys.readouterr()
    assert main(["hk-test", mesh, grid, "0"]) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--direction", "0", "0", "0", "0"],
                                   ["--direction", "nan", "0", "0", "0"],
                                   ["--strengths", "nan"]])
def test_conformal_on_a_bad_dilation_exits_2(tmp_path, capsys, extra):
    mesh = str(tmp_path / "ct.obj")
    main(["generate", "clifford_torus", "--resolution", "8", "-o", mesh])
    capsys.readouterr()
    assert main(["conformal-test", mesh, *extra]) == 2
    assert "error: " in capsys.readouterr().err
