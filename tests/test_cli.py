"""The command line, run in process through main()."""

import json

import numpy as np
import pytest

import cel.cli
import cel.energies
from cel.cli import main
from cel.fixtures import perturb_link


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


@pytest.mark.parametrize("both", [False, True], ids=["neither", "both"])
def test_index_takes_a_mesh_or_analytic_not_both(tmp_path, capsys, both):
    mesh = str(tmp_path / "ct.obj")
    main(["generate", "clifford_torus", "--resolution", "16", "-o", mesh])
    capsys.readouterr()
    argv = ["index", mesh, "--analytic", "great_sphere"] if both else ["index"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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


def test_widths_fit_rows_are_the_scaling_fit(tmp_path, capsys):
    mesh = str(tmp_path / "s.obj")
    main(["generate", "sphere", "--resolution", "8", "-o", mesh])
    capsys.readouterr()
    # the fit needs ten estimates
    lengths = tuple(range(2, 12))
    code, out = run(capsys, "widths", mesh, "--lengths", *map(str, lengths),
                    "--seed", "3", "--fit")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 10 + 2
    fit = cel.scaling_fit(cel.harmonic_width_series(cel.load_obj(mesh),
                                                    lengths=lengths, seed=3))
    assert lines[-2] == "# exponent,%.17g" % fit.exponent
    assert lines[-1] == "# prefactor,%.17g" % fit.prefactor


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


def test_optimize_mobius_counts_only_descent_steps(tmp_path, capsys):
    # 52 steps pass the resample at step 50, which is not a step of its own
    hopf = cel.hopf_link(32)
    flat = cel.project_link(hopf, cel.energies._far_pole(hopf))
    link, trace = str(tmp_path / "l.json"), str(tmp_path / "trace.csv")
    cel.save_link(perturb_link(flat, 0.08, seed=9), link)
    code, out = run(capsys, "optimize", link, "--kind", "mobius",
                    "--steps", "52", "--trace", trace)
    assert code == 0
    payload = json.loads(out)
    assert payload["accepted_steps"] == 52 and payload["status"] == "max_steps"
    assert len(open(trace).read().strip().splitlines()) == 1 + 52


def test_optimize_mobius_projects_an_s3_link_and_saves_it(tmp_path, capsys):
    link, saved = str(tmp_path / "l.json"), str(tmp_path / "out.json")
    cel.save_link(perturb_link(cel.hopf_link(32), 0.05, seed=9), link)
    assert main(["optimize", link, "--kind", "mobius", "--steps", "3",
                 "--save", saved]) == 0
    captured = capsys.readouterr()
    assert "projected the link to R^3 before descent" in captured.err
    payload = json.loads(captured.out)
    assert payload["accepted_steps"] == 3
    final = cel.load_link(saved)
    assert final.dim == 3
    energy = cel.energies._cross_energy_sum(final.gamma1, final.gamma2)
    assert energy == payload["final_energy"] < payload["initial_energy"]


def test_tube_sweep_csv_finds_sqrt2(capsys):
    code, out = run(capsys, "tube-sweep", "--resolution", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "radius,energy" and len(lines) == 1 + 100 + 2
    rows = [tuple(map(float, r.split(","))) for r in lines[1:101]]
    tag, min_radius = lines[101].split(",")
    assert tag == "# min_radius"
    assert float(min_radius) == min(rows, key=lambda r: r[1])[0]
    assert abs(float(min_radius) - np.sqrt(2.0)) < 0.02


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


@pytest.mark.parametrize("command, name", [("energy", "m.obj"),
                                           ("link-energy", "l.json")])
def test_undecodable_file_exits_2(tmp_path, capsys, command, name):
    path = tmp_path / name
    path.write_bytes(bytes(range(128, 256)) * 4)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: not a UTF-8 text file")


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


def test_optimize_with_a_zero_move_scale_exits_2(tmp_path, capsys):
    mesh = str(tmp_path / "t.obj")
    main(["generate", "tube_torus", "--resolution", "10", "-o", mesh])
    capsys.readouterr()
    assert main(["optimize", mesh, "--steps", "1", "--move-scale", "0"]) == 2
    assert "error: move_scale must be positive and finite" in capsys.readouterr().err


def test_unknown_shape_parameter_exits_2(tmp_path, capsys):
    out = str(tmp_path / "x.obj")
    assert main(["generate", "sphere", "--param", "bogus=1", "-o", out]) == 2
    assert "error: sphere takes no parameter(s) ['bogus']" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["geodesic_sphere"], "error: geodesic_sphere: missing a required argument: 'center'"),
    (["geodesic_sphere", "--param", "center=1,0,0,0"],
     "error: geodesic_sphere: missing a required argument: 'radius'"),
    (["sphere", "--param", "radius=1,2"], "error: sphere: parameter(s) ['radius'] take one number"),
    (["torus_link", "--param", "p=2,4"], "error: torus_link: parameter(s) ['p'] take one number"),
    (["torus_link", "--param", "p=2.5"], "error: torus_link needs integer p and q"),
    (["geodesic_sphere", "--param", "center=nan,0,0,0", "--param", "radius=1"],
     "error: center must be a unit vector in R^4"),
], ids=["no_center", "no_radius", "radius_list", "p_list", "p_fraction",
        "nan_center"])
def test_bad_shape_call_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "x.obj"
    assert main(["generate", *argv, "--resolution", "8", "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_link_with_a_non_numeric_entry_exits_2(tmp_path, capsys):
    link = tmp_path / "l.json"
    link.write_text(json.dumps({"gamma1": [{"a": 1}], "gamma2": [[0, 0, 0]]}))
    assert main(["link-energy", str(link)]) == 2
    assert capsys.readouterr().err.startswith("error: bad link arrays: ")


def test_link_whose_components_share_a_vertex_exits_2(tmp_path, capsys):
    link = tmp_path / "l.json"
    square = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
    other = [[1, 1, 0], [2, 1, 1], [2, 2, 2], [1, 2, 1]]    # shares (1, 1, 0)
    link.write_text(json.dumps({"gamma1": square, "gamma2": other}))
    assert main(["link-energy", str(link)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "link components touch" in err


def test_link_whose_midpoints_overflow_exits_2(tmp_path, capsys):
    link = tmp_path / "l.json"
    t = 2.0 * np.pi * np.arange(16) / 16
    circle = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    high = circle + [0.0, 0.0, 1e308]
    link.write_text(json.dumps({"gamma1": high.tolist(),
                                "gamma2": (high + [3.0, 0.0, 0.0]).tolist()}))
    assert main(["link-energy", str(link)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "midpoints overflow" in err


def test_link_whose_squared_distances_overflow_exits_2(tmp_path, capsys):
    link = tmp_path / "l.json"
    t = 2.0 * np.pi * np.arange(16) / 16
    circle = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    link.write_text(json.dumps({"gamma1": (1e200 * circle).tolist(),
                                "gamma2": (circle + [0.0, 0.0, 1.0]).tolist()}))
    assert main(["link-energy", str(link)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "squared sample distances" in err


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


def _drop_face(verts, faces):
    return verts, faces[1:]


def _rewind_face(verts, faces):
    a, b, c = faces[5].split()[1:]
    return verts, faces[:5] + [f"f {a} {c} {b}"] + faces[6:]


def _second_sphere(verts, faces):
    shifted = [" ".join(["v"] + [repr(float(x) + 3.0) for x in line.split()[1:]])
               for line in verts]
    offset = [" ".join(["f"] + [str(int(i) + len(verts)) for i in line.split()[1:]])
              for line in faces]
    return verts + shifted, faces + offset


def _unreferenced_vertex(verts, faces):
    return verts + ["v 5 5 5"], faces


@pytest.mark.parametrize("command", ["energy", "laplace"])
@pytest.mark.parametrize("corrupt, message", [
    (_drop_face, "not closed"),
    (_rewind_face, "face windings are not consistent"),
    (_second_sphere, "not connected"),
    (_unreferenced_vertex, "not connected"),
])
def test_broken_mesh_file_exits_2(tmp_path, capsys, corrupt, message, command):
    mesh = str(tmp_path / "s.obj")
    main(["generate", "sphere", "--resolution", "8", "-o", mesh])
    with open(mesh) as fh:
        lines = fh.read().splitlines()
    verts, faces = corrupt([ln for ln in lines if ln.startswith("v ")],
                           [ln for ln in lines if ln.startswith("f ")])
    with open(mesh, "w") as fh:
        fh.write("\n".join(verts + faces) + "\n")
    capsys.readouterr()
    assert main([command, mesh]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
