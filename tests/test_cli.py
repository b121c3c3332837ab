import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import BAD_SPECS
from menger_surf import InputError, SurfaceOracle, analysis, cli, energy
from menger_surf.integrand import MEANS
from menger_surf.surface import READERS, save_obj, shapes


HIT_TOL = ("hit_tolerance must be a finite number in (0, 0.19634954084936207), "
           "got ")


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = cli.run(argv + ["--output", str(out)])
    return code, out


def validate(subcommand, document):
    ref = resources.files("menger_surf") / "schema" / f"{subcommand}.json"
    schema = json.loads(ref.read_text())
    jsonschema.validate(document, schema)


@pytest.fixture(scope="module")
def ico_obj(tmp_path_factory):
    path = tmp_path_factory.mktemp("meshes") / "ico1.obj"
    mesh = shapes.icosphere(1)
    save_obj(path, mesh.vertices, mesh.faces)
    return str(path)


QUICK = {
    "integrand": ["integrand", "--tetra", "0,0,0,1,0,0,0,1,0,0,0,1",
                  "--integrand", '{"kind":"menger"}'],
    "energy": ["energy", "--analytic", "sphere", "--radius", "1",
               "--integrand", '{"kind":"circumsphere"}', "--p", "4",
               "--samples", "2000", "--seed", "7"],
    "local-energy": ["local-energy", "--analytic", "sphere", "--radius", "1",
                     "--center", "0,0,1", "--patch-radius", "1.0",
                     "--p", "8", "--samples", "1500", "--seed", "1"],
    "scaling": ["scaling", "--p", "8", "--radii", "0.5,1", "--samples", "2000",
                "--seed", "1"],
    "diverge": ["diverge", "--alpha", "3", "--p", "3", "--eps", "0.05",
                "--nmax", "2", "--samples", "4000", "--seed", "3"],
    "density": ["density", "--analytic", "sphere", "--radius", "1",
                "--point", "0,0,1", "--patch-radius", "0.4", "--depth", "5",
                "--seed", "0"],
    "beta": ["beta", "--analytic", "sphere", "--radius", "1",
             "--point", "0,0,1", "--patch-radius", "0.3",
             "--patch-samples", "500", "--grid-level", "0", "--seed", "0"],
    "oscillation": ["oscillation", "--analytic", "sphere", "--radius", "1",
                    "--point", "0,0,1", "--scales", "0.1,0.2,0.4",
                    "--pairs", "100", "--seed", "0"],
    "goodtetra": ["goodtetra", "--analytic", "sphere", "--radius", "1",
                  "--point", "0,0,1", "--rays", "1024", "--proj-rays", "100",
                  "--seed", "0"],
}

# mesh-reading runs without their --mesh flag
MESH_RUNS = {
    "energy": ["energy", "--p", "8", "--samples", "2000"],
    "minimize": ["minimize", "--mode", "energy", "--cap", "100",
                 "--iters", "3", "--p", "9"],
}
# files that fail to parse, and the line and message of the failure
BAD_MESHES = {
    "bad.obj": ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n", "4: bad face index 'x'"),
    "bad.off": ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n",
                "6: face index 7 out of range"),
}


# each flag value below its floor, and the message that refuses it
BELOW_FLOOR = {
    ("energy", "--threads", "0"):
        "--threads must be at least 1, got 0",
    ("energy", "--threads", "-3"):
        "--threads must be at least 1, got -3",
    ("goodtetra", "--rays", "0"):
        "ray_count must be an integer in [4, inf), got 0",
    ("goodtetra", "--rays", "3"):
        "ray_count must be an integer in [4, inf), got 3",
    ("goodtetra", "--proj-rays", "0"):
        "--proj-rays must be at least 1, got 0",
    ("oscillation", "--pairs", "0"):
        "pairs_per_scale must be an integer in [1, inf), got 0",
    ("oscillation", "--pairs", "-4"):
        "pairs_per_scale must be an integer in [1, inf), got -4",
    ("beta", "--patch-samples", "0"):
        "n_patch must be an integer in [1, inf), got 0",
    ("beta", "--patch-samples", "-5"):
        "n_patch must be an integer in [1, inf), got -5",
    ("beta", "--grid-level", "-1"):
        "grid_level must be an integer in [0, 6], got -1",
    ("density", "--depth", "-1"):
        "depth must be an integer in [0, 10], got -1",
    ("energy", "--samples", "500"):
        "n must be an integer in [1000, inf), got 500",
    ("scaling", "--samples", "999"):
        "n must be an integer in [1000, inf), got 999",
    ("diverge", "--samples", "0"):
        "samples must be an integer in [1, inf), got 0",
    ("diverge", "--samples", "-5"):
        "samples must be an integer in [1, inf), got -5",
    ("minimize", "--iters", "0"):
        "--iters must be at least 1, got 0",
    ("minimize", "--iters", "-5"):
        "--iters must be at least 1, got -5",
    ("diverge", "--nmax", "0"):
        "n_max must be an integer in [2, 8], got 0",
    ("diverge", "--nmax", "1"):
        "n_max must be an integer in [2, 8], got 1",
    ("minimize", "--p", "8"):
        "p must be a finite number in (8, inf), got 8.0",
    ("minimize-area", "--p", "5"):
        "p must be a finite number in (8, inf), got 5.0",
    ("minimize", "--mesh", "TRIANGLE"):
        "mesh: the discrete energy needs at least 4 vertices, got 3",
}


class TestDocuments:
    @pytest.mark.parametrize("name", sorted(QUICK))
    def test_schema_validation(self, tmp_path, name):
        code, out = run_to_file(tmp_path, f"{name}.json", QUICK[name])
        assert code == 0
        doc = json.loads(out.read_text())
        validate(name, doc)
        assert doc["seed"] == int(dict(zip(QUICK[name], QUICK[name][1:]))
                                  .get("--seed", 0))

    def test_flat_oscillation_document_is_json(self, tmp_path):
        """A flat patch has oscillation 0 at every scale: the document omits
        the fit, whose log constant would be -inf, and stays strict JSON."""
        mesh = shapes.flat_patch(1.0, 8)
        path = tmp_path / "flat.obj"
        save_obj(path, mesh.vertices, mesh.faces)
        code, out = run_to_file(tmp_path, "flat.json", [
            "oscillation", "--mesh", str(path), "--point", "0,0,0",
            "--scales", "0.1,0.2,0.4", "--pairs", "50", "--seed", "1"])
        assert code == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(out.read_text(), parse_constant=refuse)
        validate("oscillation", doc)
        assert [osc for _, osc in doc["results"]["profile"]] == [0.0] * 3
        assert "fit" not in doc["results"]

    def test_oscillation_fits_its_positive_scales(self, tmp_path):
        """A patch flat near the point and bent further out has oscillation 0
        at the smallest scale: the fit leaves that scale out, and the
        document omits it while fewer than 3 positive scales remain."""
        mesh = shapes.graph_mesh(lambda x, y: np.maximum(x - 0.15, 0.0)**2,
                                 1.0, 32)
        path = tmp_path / "bend.obj"
        save_obj(path, mesh.vertices, mesh.faces)
        argv = ["oscillation", "--mesh", str(path), "--point", "0,0,0",
                "--pairs", "50", "--seed", "1"]
        for scales, fitted in (("0.1,0.2,0.4", False),
                               ("0.1,0.2,0.4,0.6", True)):
            code, out = run_to_file(tmp_path, "bend.json",
                                    argv + ["--scales", scales])
            assert code == 0
            doc = json.loads(out.read_text())
            validate("oscillation", doc)
            profile = doc["results"]["profile"]
            assert profile[0][1] == 0.0
            assert ("fit" in doc["results"]) == fitted
            if fitted:
                fit = analysis.holder_exponent_fit(profile[1:])
                assert doc["results"]["fit"] == dataclasses.asdict(fit)

    def test_non_finite_result_exits_1(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setitem(cli._RUNNERS, "energy", lambda a, seed, threads:
                            ({"value": float("-inf")}, ([], [])))
        code, out = run_to_file(tmp_path, "inf.json", QUICK["energy"])
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("menger-surf: ") and "Traceback" not in err
        # json.dumps refused the value, not the runner's call
        assert "not JSON compliant" in err

    def test_minimize_document(self, tmp_path, ico_obj):
        audit = tmp_path / "audit.csv"
        mesh_out = tmp_path / "final.obj"
        argv = ["minimize", "--mesh", ico_obj, "--mode", "energy",
                "--cap", "100.0", "--iters", "40", "--p", "9",
                "--seed", "2", "--audit-out", str(audit),
                "--mesh-out", str(mesh_out)]
        code, out = run_to_file(tmp_path, "minimize.json", argv)
        assert code == 0
        doc = json.loads(out.read_text())
        validate("minimize", doc)
        lines = audit.read_text().splitlines()
        assert lines[0] == "iteration,objective,constraint_value,accepted"
        assert len(lines) == 42  # header + initial row + 40 iterations
        assert mesh_out.exists()

    def test_minimize_area_mode(self, tmp_path, ico_obj):
        from menger_surf import minimize
        from menger_surf.surface import load_mesh
        mesh = load_mesh(ico_obj)
        cap = 3.0 * minimize.discrete_energy(
            mesh, minimize.DiscreteEnergyConfig(p=9.0))
        argv = ["minimize", "--mesh", ico_obj, "--mode", "area",
                "--cap", format(cap, ".17g"), "--iters", "30", "--p", "9",
                "--seed", "4"]
        code, out = run_to_file(tmp_path, "minarea.json", argv)
        assert code == 0
        doc = json.loads(out.read_text())
        validate("minimize", doc)
        assert doc["results"]["constraint_value"] <= cap * (1 + 1e-9)

    def test_seed_vertex_paths(self, tmp_path, ico_obj):
        argv = ["beta", "--mesh", ico_obj, "--seed-vertex", "0",
                "--patch-radius", "0.6", "--patch-samples", "400",
                "--grid-level", "0", "--seed", "1"]
        code, out = run_to_file(tmp_path, "betamesh.json", argv)
        assert code == 0
        validate("beta", json.loads(out.read_text()))
        assert cli.run(["beta", "--mesh", ico_obj, "--seed-vertex", "999",
                        "--patch-radius", "0.5"]) == 2
        assert cli.run(["beta", "--analytic", "sphere", "--radius", "1",
                        "--seed-vertex", "0", "--patch-radius", "0.5"]) == 2

    def test_sphere_energy_value(self, tmp_path):
        code, out = run_to_file(tmp_path, "e.json", QUICK["energy"])
        doc = json.loads(out.read_text())
        assert abs(doc["results"]["value"] - 24936.73) < 0.1
        assert doc["results"]["std_error"] < 1e-6


class TestCsv:
    def test_audit_is_the_csv_document(self, tmp_path, ico_obj):
        audit = tmp_path / "audit.csv"
        argv = ["minimize", "--mesh", ico_obj, "--mode", "energy", "--cap",
                "100", "--iters", "20", "--p", "9", "--seed", "2"]
        code, out = run_to_file(tmp_path, "doc.csv", argv + [
            "--format", "csv", "--audit-out", str(audit)])
        assert code == 0
        assert audit.read_bytes() == out.read_bytes()

    def test_scaling_csv(self, tmp_path):
        code, out = run_to_file(tmp_path, "s.csv",
                                QUICK["scaling"] + ["--format", "csv"])
        assert code == 0
        raw = out.read_bytes().decode()
        lines = raw.split("\n")
        assert lines[0] == "radius,value,std_error,normalized"
        assert len(lines) == 4  # header + 2 rows + trailing newline
        assert "\r" not in raw
        val = float(lines[1].split(",")[1])
        assert val > 0

    def test_float_format_17_digits(self, tmp_path):
        code, out = run_to_file(tmp_path, "i.csv",
                                QUICK["integrand"] + ["--format", "csv"])
        value = out.read_text().splitlines()[1]
        # round-trips exactly at 17 significant digits
        assert format(float(value), ".17g") == value


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(QUICK))
    def test_thread_count_invariance(self, tmp_path, name):
        outs = []
        for t in (1, 4, 8):
            code, out = run_to_file(tmp_path, f"{name}-{t}.json",
                                    QUICK[name] + ["--threads", str(t)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        argv = ["energy", "--analytic", "sphere", "--radius", "1",
                "--integrand", '{"kind":"menger"}', "--p", "8",
                "--samples", "1500"]
        monkeypatch.setenv("MENGER_SEED", "42")
        _, out1 = run_to_file(tmp_path, "env1.json", argv)
        assert json.loads(out1.read_text())["seed"] == 42
        # an explicit flag wins over the environment
        _, out2 = run_to_file(tmp_path, "env2.json", argv + ["--seed", "3"])
        assert json.loads(out2.read_text())["seed"] == 3


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert cli.run(["energy", "--frobnicate"]) == 2

    def test_missing_surface(self, capsys):
        assert cli.run(["energy", "--p", "8", "--samples", "2000"]) == 2

    def test_both_surfaces(self, capsys, ico_obj):
        assert cli.run(["energy", "--mesh", ico_obj, "--analytic", "sphere",
                        "--radius", "1", "--p", "8",
                        "--samples", "2000"]) == 2

    def test_unregistered_file(self, capsys):
        assert cli.run(["energy", "--mesh", "/nonexistent/x.obj", "--p", "8",
                        "--samples", "2000"]) == 1

    def test_infeasible_parameters(self, capsys):
        # a run that fails on valid input: local-energy with a ball that
        # misses the surface, so its patch is empty
        assert cli.run(["local-energy", "--analytic", "sphere", "--radius",
                        "1", "--center", "0,0,1.001", "--patch-radius", "1e-5",
                        "--p", "8", "--samples", "2000", "--seed", "0"]) == 1

    def test_bad_integrand_json(self, capsys):
        assert cli.run(["energy", "--analytic", "sphere", "--radius", "1",
                        "--integrand", '{"kind":"nope"}', "--p", "8",
                        "--samples", "2000"]) == 2

    @pytest.mark.parametrize("spec", BAD_SPECS)
    def test_bad_integrand_spec_is_a_usage_error(self, capsys, spec):
        code = cli.run(QUICK["integrand"] + ["--integrand", spec])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert err.startswith("menger-surf: bad integrand spec: ")

    @pytest.mark.parametrize("code,argv", [
        (2, ["energy", "--analytic", "sphere", "--radius", "1e200"]),
        (2, ["energy", "--analytic", "saddle", "--extent", "1e200"]),
        (2, ["energy", "--analytic", "capsule", "--length", "1e300",
             "--radius", "1e300"]),
        (2, ["energy", "--analytic", "torus", "--major-radius", "1e200",
             "--minor-radius", "1e199"]),
        (2, ["energy", "--analytic", "torus", "--major-radius", "1",
             "--minor-radius", "2"]),
        (1, ["energy", "--analytic", "sphere", "--radius", "1e100"]),
        (1, ["scaling", "--radii", "1e200"]),
        (1, ["density", "--analytic", "sphere", "--radius", "1", "--point",
             "0,0,1", "--patch-radius", "1e200", "--depth", "3"]),
    ], ids=["sphere", "saddle", "capsule", "torus-area", "torus-order",
            "energy-overflow", "scaling-overflow", "density-overflow"])
    def test_huge_or_impossible_surface(self, capsys, tmp_path, code, argv):
        if argv[0] != "density":
            argv = argv + ["--p", "8", "--samples", "2000"]
        got, out = run_to_file(tmp_path, "doc.json", argv + ["--seed", "0"])
        err = capsys.readouterr().err
        assert got == code and not out.exists()
        assert err.startswith("menger-surf: ") and "Traceback" not in err

    @pytest.mark.parametrize("var", ["MENGER_SEED", "MENGER_THREADS"])
    def test_non_integer_environment(self, capsys, monkeypatch, var):
        monkeypatch.setenv(var, "abc")
        assert cli.run(["energy", "--analytic", "sphere", "--radius", "1",
                        "--p", "8", "--samples", "2000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("menger-surf: ") and var in err

    @pytest.mark.parametrize("argv,says", [
        (["energy", "--analytic", "sphere", "--radius", "1", "--p", "nan",
          "--samples", "2000"], "p must be a finite number in [1, inf), got nan"),
        (["energy", "--analytic", "sphere", "--radius", "inf", "--p", "8",
          "--samples", "2000"], "--analytic sphere: radius must be a finite "
                                "number in (0, inf), got inf"),
        (["local-energy", "--analytic", "sphere", "--radius", "1", "--center",
          "0,0,1", "--patch-radius", "nan", "--p", "8", "--samples", "2000"],
         "radius must be a finite number in (0, inf), got nan"),
        (["density", "--analytic", "sphere", "--radius", "1", "--point",
          "0,0,1", "--patch-radius", "1e-162"],
         "radius 1e-162 is too small: its square is 0"),
        (["beta", "--analytic", "sphere", "--radius", "1", "--point", "0,0,1",
          "--patch-radius", "1e-162"], "r 1e-162 is too small: its square is 0"),
        (["local-energy", "--analytic", "sphere", "--radius", "1", "--center",
          "0,0,1", "--patch-radius", "1e-162", "--p", "8", "--samples", "400"],
         "radius 1e-162 is too small: its square is 0"),
        (["oscillation", "--analytic", "sphere", "--radius", "1", "--point",
          "0,0,1", "--scales", "1e-162,1e-100,1e-50"],
         "scales 1e-162 is too small: its square is 0"),
        (["oscillation", "--analytic", "sphere", "--radius", "1", "--point",
          "0,0,1", "--scales", "0.1,0.1,0.1"],
         "scales must not repeat, got [0.1, 0.1, 0.1]"),
        (["scaling", "--p", "8", "--radii", "", "--samples", "2000"],
         "radii must be a non-empty list"),
        (["minimize", "--mesh", "MESH", "--mode", "energy", "--cap", "nan",
          "--iters", "3", "--p", "9"],
         "area_cap must be a finite number in (0, inf), got nan"),
        (["minimize", "--mesh", "MESH", "--mode", "area", "--cap", "nan",
          "--iters", "3", "--p", "9"],
         "energy_cap must be a finite number in [0, inf), got nan"),
        (QUICK["diverge"] + ["--eps", "2"],
         "eps must be a finite number in (0, 1), got 2.0"),
        (QUICK["diverge"] + ["--eps", "1"],
         "eps must be a finite number in (0, 1), got 1.0"),
        (QUICK["diverge"] + ["--alpha", "0.5"],
         "alpha must be a finite number in (1, inf), got 0.5"),
        (QUICK["diverge"] + ["--alpha", "1"],
         "alpha must be a finite number in (1, inf), got 1.0"),
        (QUICK["goodtetra"] + ["--hit-tol", "0.2"], f"{HIT_TOL}0.2"),
        (QUICK["goodtetra"] + ["--hit-tol", "5"], f"{HIT_TOL}5.0"),
        (QUICK["goodtetra"] + ["--hit-tol", "1e200"], f"{HIT_TOL}1e+200"),
    ], ids=["p-nan", "radius-inf", "patch-radius-nan", "patch-radius-1e-162",
            "beta-patch-radius-1e-162", "local-energy-patch-radius-1e-162",
            "scales-1e-162", "scales-repeated", "radii-empty", "energy-cap-nan", "area-cap-nan", "eps-2", "eps-1",
            "alpha-0.5", "alpha-1", "hit-tol-0.2", "hit-tol-5", "hit-tol-1e200"])
    def test_non_finite_or_empty_input(self, capsys, ico_obj, argv, says):
        argv = [ico_obj if a == "MESH" else a for a in argv]
        assert cli.run(argv + ["--seed", "0"]) == 2
        assert capsys.readouterr().err == f"menger-surf: {says}\n"

    @pytest.mark.parametrize("name,flag,value", list(BELOW_FLOOR))
    def test_integer_flag_below_floor(self, capsys, tmp_path, ico_obj, name,
                                      flag, value):
        says = BELOW_FLOOR[name, flag, value]
        mode = "area" if name == "minimize-area" else "energy"
        base = QUICK.get(name) or [
            "minimize", "--mesh", ico_obj, "--mode", mode, "--cap", "100",
            "--iters", "3", "--p", "9", "--seed", "0"]
        if value == "TRIANGLE":  # a mesh of 3 vertices has no quadruple
            value = str(tmp_path / "triangle.obj")
            save_obj(value, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]])
        argv = base + [flag, value]  # the last occurrence wins
        code, out = run_to_file(tmp_path, "bad.json", argv)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"menger-surf: {says}\n"

    @pytest.mark.parametrize("flag,cap", [("grid_level", 6), ("depth", 10),
                                          ("nmax", 8), ("threads", 256)])
    def test_integer_flag_caps(self, flag, cap):
        # the library owns the first three caps, this module the thread cap;
        # a run above a cap would exhaust memory or start thousands of threads
        sphere = SurfaceOracle.sphere(1.0)
        check, says = {
            "grid_level": (lambda v: analysis.beta_number(
                sphere, [0, 0, 1], 0.3, 20, v), "grid_level must be an "
                "integer in [0, 6], got {}"),
            "depth": (lambda v: analysis.density_quotient(
                sphere, [0, 0, 1], 0.01, v), "depth must be an integer in "
                "[0, 10], got {}"),
            "nmax": (lambda v: energy.divergence_study(
                3.0, 3.0, "geometric", 0.05, v, 1, 0), "n_max must be an "
                "integer in [2, 8], got {}"),
            "threads": (lambda v: cli._check_ranges(
                argparse.Namespace(threads=v)), "--threads must be at most "
                "256, got {}"),
        }[flag]
        check(cap)
        for value in (cap + 1, 10**6):
            with pytest.raises(InputError) as info:
                check(value)
            assert str(info.value) == says.format(value)

    def test_negative_thread_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("MENGER_THREADS", "-3")
        assert cli.run(QUICK["energy"]) == 2
        assert "MENGER_THREADS" in capsys.readouterr().err

    def test_degenerate_mesh_error_comes_alone(self, tmp_path):
        # a real process, so that a warning would reach stderr as users see it
        path = tmp_path / "deg.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "menger_surf.cli", "energy", "--mesh",
             str(path), "--p", "8", "--samples", "2000"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "UserWarning" not in proc.stderr
        assert proc.stderr == (f"menger-surf: {path}:1: empty mesh after "
                               "removing degenerate faces\n")

    @pytest.mark.parametrize("name", sorted(BAD_MESHES))
    @pytest.mark.parametrize("subcommand", sorted(MESH_RUNS))
    def test_malformed_mesh_file_is_a_usage_error(self, capsys, tmp_path,
                                                  name, subcommand):
        text, says = BAD_MESHES[name]
        path = tmp_path / name
        path.write_text(text)
        argv = MESH_RUNS[subcommand] + ["--mesh", str(path)]
        code, out = run_to_file(tmp_path, "doc.json", argv)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"menger-surf: {path}:{says}\n"

    @pytest.mark.parametrize("subcommand", sorted(MESH_RUNS))
    def test_missing_mesh_file_is_a_runtime_error(self, capsys, tmp_path,
                                                  subcommand):
        argv = MESH_RUNS[subcommand] + ["--mesh", str(tmp_path / "none.obj")]
        code, out = run_to_file(tmp_path, "doc.json", argv)
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err.startswith("menger-surf: ")

    @pytest.mark.parametrize("subcommand", sorted(MESH_RUNS))
    def test_unknown_mesh_extension_is_a_usage_error(self, capsys, tmp_path,
                                                     ico_obj, subcommand):
        # as --mesh-format ply would be: the file itself is a good OBJ
        path = tmp_path / "noisy.ply"
        path.write_text(Path(ico_obj).read_text())
        argv = MESH_RUNS[subcommand] + ["--mesh", str(path)]
        code, out = run_to_file(tmp_path, "doc.json", argv)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == \
            "menger-surf: unknown mesh format 'ply'\n"

    @pytest.mark.parametrize("point,distance", [("5,0,0", "4"), ("0,0,0", "1")])
    @pytest.mark.parametrize("name", ["beta", "density", "goodtetra",
                                      "oscillation"])
    def test_point_off_the_surface_is_a_usage_error(self, capsys, tmp_path,
                                                    name, point, distance):
        # the unit sphere's centre used to fail with "center has no normal"
        argv = QUICK[name] + ["--point", point]  # the last occurrence wins
        code, out = run_to_file(tmp_path, "doc.json", argv)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == \
            f"menger-surf: --point lies {distance} off the surface\n"

    @pytest.mark.parametrize("name", ["beta", "density", "goodtetra",
                                      "oscillation"])
    def test_point_and_seed_vertex_conflict(self, capsys, tmp_path, name):
        # --point used to win silently
        code, out = run_to_file(tmp_path, "doc.json",
                                QUICK[name] + ["--seed-vertex", "3"])
        assert code == 2 and not out.exists()
        assert ("argument --seed-vertex: not allowed with argument --point"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("extra,says", [
        (["--analytic", "sphere", "--radius", "1", "--length", "3"],
         "--analytic sphere takes no --length"),
        (["--analytic", "sphere", "--radius", "1", "--mesh-format", "obj"],
         "--analytic sphere takes no --mesh-format"),
        (["--analytic", "torus", "--major-radius", "2", "--minor-radius", "1",
          "--radius", "1"], "--analytic torus takes no --radius"),
        (["--analytic", "capsule", "--length", "2", "--radius", "1",
          "--extent", "1"], "--analytic capsule takes no --extent"),
        (["--mesh", "MESH", "--radius", "1"], "--mesh takes no --radius"),
        (["--mesh", "MESH", "--mesh-format", "obj", "--major-radius", "2"],
         "--mesh takes no --major-radius"),
    ], ids=["sphere-length", "sphere-format", "torus-radius", "capsule-extent",
            "mesh-radius", "mesh-major-radius"])
    def test_surface_flag_of_another_source(self, capsys, tmp_path, ico_obj,
                                            extra, says):
        # each flag used to be ignored
        argv = ["energy", "--p", "8", "--samples", "2000", "--seed", "0"]
        argv += [ico_obj if a == "MESH" else a for a in extra]
        code, out = run_to_file(tmp_path, "doc.json", argv)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"menger-surf: {says}\n"

    def test_flag_choices_come_from_their_tables(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(cli._RUNNERS)
        choices = {}
        for name, parser in sub.choices.items():
            for action in parser._actions:
                choices.setdefault(action.dest, {})[name] = action.choices
        assert choices["mesh_format"] == dict.fromkeys(
            ["energy", "local-energy", "density", "beta", "oscillation",
             "goodtetra", "minimize"], tuple(READERS))
        assert tuple(READERS) == ("obj", "off")
        assert choices["mean"] == {"diverge": tuple(MEANS)}


def _ints(most):
    """Integer flag values up to most, with some below 1 and some not ints."""
    return st.one_of(st.integers(-2, most).map(str),
                     st.sampled_from(["", "x", "1.5", "1e3"]))


_REALS = st.sampled_from(["-1", "0", "1e-9", "0.01", "0.5", "1", "9", "1e200",
                          "inf", "nan", "x"])
_THREADS = _ints(2)
GOOD_SPECS = ['{"kind":"menger"}', '{"kind":"leger","mean":"min","alpha":3}',
              '{"kind":"scaled","s":0.5}']

# each subcommand at a small size (the last occurrence of a flag wins), and
# the flags the fuzz may override
FUZZ = {
    "energy": (QUICK["energy"], {"--samples": _ints(2000), "--p": _REALS,
                                 "--radius": _REALS, "--threads": _THREADS,
                                 "--integrand": st.sampled_from(
                                     GOOD_SPECS + BAD_SPECS)}),
    "scaling": (QUICK["scaling"], {"--samples": _ints(2000), "--p": _REALS,
                                   "--threads": _THREADS}),
    "local-energy": (QUICK["local-energy"], {
        "--samples": _ints(2000), "--patch-radius": _REALS,
        "--threads": _THREADS}),
    "diverge": (QUICK["diverge"] + ["--samples", "2000"], {
        "--samples": _ints(2000), "--nmax": _ints(2), "--eps": _REALS,
        "--threads": _THREADS}),
    "beta": (QUICK["beta"], {"--patch-samples": _ints(500),
                             "--grid-level": _ints(1)}),
    "density": (QUICK["density"] + ["--depth", "3"], {
        "--depth": _ints(3), "--patch-radius": _REALS}),
    "oscillation": (QUICK["oscillation"], {"--pairs": _ints(100),
                                           "--threads": _THREADS}),
    "goodtetra": (QUICK["goodtetra"] + ["--rays", "64", "--proj-rays", "64"], {
        "--rays": _ints(64), "--proj-rays": _ints(64), "--hit-tol": _REALS,
        "--threads": _THREADS}),
    "minimize": (["minimize", "--mesh", "MESH", "--mode", "energy", "--cap",
                  "100", "--iters", "3", "--p", "9", "--seed", "0"], {
        "--iters": _ints(5), "--p": _REALS, "--cap": _REALS,
        "--mode": st.sampled_from(["energy", "area", "x"])}),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(FUZZ)))
def test_fuzzed_flags_exit_cleanly(ico_obj, data, name):
    base, flags = FUZZ[name]
    argv = [ico_obj if a == "MESH" else a for a in base]
    chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    for flag in chosen:
        argv += [flag, data.draw(flags[flag], label=flag)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
