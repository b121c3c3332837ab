import argparse
import json
from importlib import resources

import jsonschema
import pytest

from menger_surf import cli
from menger_surf.surface import save_obj, shapes


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


class TestDocuments:
    @pytest.mark.parametrize("name", sorted(QUICK))
    def test_schema_validation(self, tmp_path, name):
        code, out = run_to_file(tmp_path, f"{name}.json", QUICK[name])
        assert code == 0
        doc = json.loads(out.read_text())
        validate(name, doc)
        assert doc["seed"] == int(dict(zip(QUICK[name], QUICK[name][1:]))
                                  .get("--seed", 0))

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
    @pytest.mark.parametrize("name", ["energy", "scaling", "diverge",
                                      "local-energy"])
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
        # supercritical exponent required for the stopping radius inside
        # density? use local-energy with a hopeless patch instead
        assert cli.run(["local-energy", "--analytic", "sphere", "--radius",
                        "1", "--center", "0,0,1", "--patch-radius", "1e-5",
                        "--p", "8", "--samples", "2000", "--seed", "0"]) == 1

    def test_bad_integrand_json(self, capsys):
        assert cli.run(["energy", "--analytic", "sphere", "--radius", "1",
                        "--integrand", '{"kind":"nope"}', "--p", "8",
                        "--samples", "2000"]) == 2

    @pytest.mark.parametrize("var", ["MENGER_SEED", "MENGER_THREADS"])
    def test_non_integer_environment(self, capsys, monkeypatch, var):
        monkeypatch.setenv(var, "abc")
        assert cli.run(["energy", "--analytic", "sphere", "--radius", "1",
                        "--p", "8", "--samples", "2000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("menger-surf: ") and var in err

    @pytest.mark.parametrize("argv", [
        ["energy", "--analytic", "sphere", "--radius", "1", "--p", "nan",
         "--samples", "2000"],
        ["energy", "--analytic", "sphere", "--radius", "inf", "--p", "8",
         "--samples", "2000"],
        ["local-energy", "--analytic", "sphere", "--radius", "1", "--center",
         "0,0,1", "--patch-radius", "nan", "--p", "8", "--samples", "2000"],
        ["scaling", "--p", "8", "--radii", "", "--samples", "2000"],
        ["minimize", "--mesh", "MESH", "--mode", "energy", "--cap", "nan",
         "--iters", "3", "--p", "9"],
        ["minimize", "--mesh", "MESH", "--mode", "area", "--cap", "nan",
         "--iters", "3", "--p", "9"],
    ], ids=["p-nan", "radius-inf", "patch-radius-nan", "radii-empty",
            "energy-cap-nan", "area-cap-nan"])
    def test_non_finite_or_empty_input(self, capsys, ico_obj, argv):
        argv = [ico_obj if a == "MESH" else a for a in argv]
        assert cli.run(argv + ["--seed", "0"]) == 2
        assert capsys.readouterr().err.startswith("menger-surf: ")

    @pytest.mark.parametrize("name,flag,value", [
        ("energy", "--threads", "0"),
        ("energy", "--threads", "-3"),
        ("goodtetra", "--rays", "0"),
        ("goodtetra", "--rays", "3"),
        ("goodtetra", "--proj-rays", "0"),
        ("oscillation", "--pairs", "0"),
        ("oscillation", "--pairs", "-4"),
        ("beta", "--patch-samples", "0"),
        ("beta", "--patch-samples", "-5"),
        ("beta", "--grid-level", "-1"),
        ("density", "--depth", "-1"),
        ("diverge", "--samples", "0"),
        ("diverge", "--samples", "-5"),
        ("minimize", "--iters", "0"),
        ("minimize", "--iters", "-5"),
        ("diverge", "--nmax", "0"),
        ("minimize", "--p", "8"),
        ("minimize-area", "--p", "5"),
        ("minimize", "--mesh", "TRIANGLE"),
    ])
    def test_integer_flag_below_floor(self, capsys, tmp_path, ico_obj, name,
                                      flag, value):
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
        err = capsys.readouterr().err
        says = "must exceed 8" if flag == "--p" else "at least"
        assert err.startswith("menger-surf: ") and says in err

    @pytest.mark.parametrize("flag,cap", [("grid_level", 6), ("depth", 10),
                                          ("nmax", 8)])
    def test_integer_flag_caps(self, flag, cap):
        # through the validator alone: a run above a cap would exhaust memory
        cli._check_int_ranges(argparse.Namespace(**{flag: cap}))
        for value in (cap + 1, 10**6):
            with pytest.raises(cli.UsageError, match="at most"):
                cli._check_int_ranges(argparse.Namespace(**{flag: value}))

    def test_negative_thread_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("MENGER_THREADS", "-3")
        assert cli.run(QUICK["energy"]) == 2
        assert "MENGER_THREADS" in capsys.readouterr().err
