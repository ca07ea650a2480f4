"""End-to-end command line runs: exit codes, artifacts, determinism."""

import csv
import json

import numpy as np
import pytest

from revfront.cli import run

PI = float(np.pi)

PS = ["--x", "sin(t)", "--z", "cos(t)+log(tan(t/2))",
      "--a", "cos(t)", "--b", "-sin(t)"]
PS_GRID = f"0.2:{PI - 0.2}:161"

CIRCLE = ["--x", "2+cos(t)", "--z", "sin(t)", "--a", "cos(t)", "--b", "sin(t)"]
CIRCLE_GRID = "0:6.2831853:65"


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    head = rows[0]
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    return {name: data[:, i] for i, name in enumerate(head)}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# the three canonical invocations


def test_construct_gauss_pseudo_sphere(tmp_path):
    base = str(tmp_path / "ps")
    code = run(["construct", "gauss", "--alpha", "-1", "--beta", "cot(t)",
                "--t0", "1.5707963", "--grid", "0.2:2.94:400", "--out", base])
    assert code == 0
    cols = read_csv(base + ".csv")
    assert np.max(np.abs(cols["x"] - np.sin(cols["t"]))) <= 1e-6
    J = -cols["beta"] * cols["x"]
    K = -cols["a"] * cols["ell"]
    mask = np.abs(J) > 1e-3
    assert np.max(np.abs(K[mask] / J[mask] + 1.0)) <= 1e-6
    payload = read_json(base + ".json")
    assert payload["report"]["method"] == "gauss_rk4"
    assert payload["legendre"]["passed"] is True
    with open(base + ".obj") as fh:
        kinds = [line.split(" ", 1)[0] for line in fh]
    assert kinds.count("v") == 400 * 129   # seam ring duplicated
    assert kinds.count("f") == 2 * 399 * 128


def test_construct_mean_catenoid(tmp_path):
    base = str(tmp_path / "cat")
    code = run(["construct", "mean", "--alpha", "0", "--beta", "t",
                "--c1", "0.2", "--c2", "0.3", "--t0", "0",
                "--grid", "-1:1:201", "--out", base])
    assert code == 0
    cols = read_csv(base + ".csv")
    want = np.sqrt(0.3 ** 2 + (0.2 - cols["t"] ** 2 / 2.0) ** 2)
    assert np.max(np.abs(cols["x"] - want)) <= 1e-9


def test_classify_mean_example(capsys):
    code = run(["classify", "--t0", "3.14159265", "--alpha", "t",
                "--beta", "sin(t)", "--family", "mean"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"] == "mean"
    assert payload["record"]["label"] == "cusp_5_2"


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize("argv", [
    ["curve", "from-curvature", "--ell", "1", "--beta", "1",
     "--grid", "1:0:100", "--out", "x"],          # reversed range
    ["curve", "from-curvature", "--ell", "1", "--beta", "1",
     "--grid", "0:1:8", "--out", "x"],            # too few nodes
    ["curve", "from-curvature", "--ell", "1", "--beta", "1",
     "--grid", "abc", "--out", "x"],              # malformed grid
    ["curve", "from-curvature", "--ell", "1+", "--beta", "1",
     "--grid", "0:1:33", "--out", "x"],           # expression syntax error
    ["curve", "from-curvature", "--ell", "1", "--grid", "0:1:33",
     "--out", "x"],                               # missing --beta
    ["revolve", "--x", "t", "--ell", "1", "--beta", "1",
     "--grid", "0:1:33", "--out", "x"],           # conflicting sources
    ["revolve", "--grid", "0:1:33", "--out", "x"],   # no source at all
    ["bogus"],                                    # unknown subcommand
    ["revolve", "--config", "/no/such/file.cfg"],
    ["classify", "--t0", "1.0"],                  # family auto needs a grid
    ["revolve", "--ell", "1", "--beta", "1", "--grid", "0:1:33",
     "--theta", "4", "--out", "x"],               # too few angles
    ["construct", "j-phi", "--J", "-t", "--phi", "sin(t",
     "--grid", "0:0.9:33", "--out", "x"],        # construct expression flag
])
def test_parse_errors_exit_one(argv, capsys):
    assert run(argv) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_bad_tolerance_exits_one(tol, capsys):
    code = run(["classify", "--family", "auto", "--t0", str(PI / 2), *PS,
                "--grid", PS_GRID, "--tol", tol])
    assert code == 1
    assert "--tol" in capsys.readouterr().err


def test_zero_tolerance_accepted(capsys):
    assert run(["classify", "--family", "auto", "--t0", str(PI / 2), *PS,
                "--grid", PS_GRID, "--tol", "0"]) == 0


def test_numerical_error_writes_diagnostic(tmp_path):
    base = str(tmp_path / "bad")
    code = run(["curve", "from-curvature", "--ell", "1/t", "--beta", "1",
                "--grid", "-1:1:101", "--out", base])
    assert code == 2
    diag = read_json(base + ".json")
    assert "error" in diag and "message" in diag
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("ell", ["1/t", "t^(-1)"])
def test_pole_of_a_negative_power_exits_two(ell, tmp_path):
    # t^(-1) has the pole test of 1/t: the grid's node at t = 0 is a pole
    base = str(tmp_path / "pole")
    code = run(["curve", "from-curvature", "--ell", ell, "--beta", "1",
                "--grid", "-1:1:20", "--out", base])
    assert code == 2
    diag = read_json(base + ".json")
    assert diag["error"] == "ConstructionError"
    assert "division by (near-)zero" in diag["message"]


@pytest.mark.parametrize("argv", [
    ["revolve", "--ell", "1", "--beta", "1", "--grid", "0:1:33"],
    ["construct", "j-phi", "--J", "-t", "--phi", "1", "--x0", "1",
     "--grid", "-0.9:0.9:33"],
    ["construct", "h-phi", "--H", "0.5", "--phi", "0", "--grid", "0:1:33"],
])
@pytest.mark.parametrize("order", ["9", "-3", "x"])
def test_jet_order_checked_at_parse_time(argv, order, tmp_path, capsys):
    # --order takes 0..jets.ORDER_CAP on every command, as --theta its range
    assert run([*argv, "--order", order, "--out", str(tmp_path / "o")]) == 1
    assert "--order" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_numerical_error_stdout(capsys):
    code = run(["invariants", "--ell", "1/t", "--beta", "1",
                "--grid", "-1:1:101"])
    assert code == 2
    diag = json.loads(capsys.readouterr().out)
    assert "error" in diag


@pytest.mark.parametrize("alpha, match", [("t^1e7", "exceeds 1024"),
                                          ("t^1e400", "not finite")])
def test_unbounded_exponent_exits_two(alpha, match, capsys):
    # before the bound, t^1e7 ran ten million jet products and t^1e400
    # escaped as a raw OverflowError
    code = run(["classify", "--family", "mean", "--alpha", alpha,
                "--beta", "t", "--t0", "0"])
    assert code == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "ExponentError"
    assert match in diag["message"]


def test_inconsistent_orders_exit_one(capsys):
    # ord(a) > ord(beta) is contradictory input, not a numerical failure
    code = run(["classify", "--family", "gauss", "--t0", "0",
                "--a", "t^2", "--beta", "t"])
    assert code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("revfront: error: orders (2, 1) violate")


def test_unwritable_out_exits_one(tmp_path, capsys):
    base = str(tmp_path / "missing" / "ps")
    code = run(["revolve", *PS, "--grid", PS_GRID, "--theta", "8",
                "--out", base])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("revfront: error: ") and "Traceback" not in err
    assert "missing" in err
    # the exit-2 handler's own diagnostic cannot be written either
    code = run(["curve", "from-curvature", "--ell", "1/t", "--beta", "1",
                "--grid", "-1:1:101", "--out", base])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("revfront: error: ") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as ei:
        run(["--help"])
    assert ei.value.code in (0, None)


# ---------------------------------------------------------------------------
# config files and determinism


def test_config_file_matches_flags(tmp_path):
    cfg = tmp_path / "mean.cfg"
    cfg.write_text("# catenoid profile\n"
                   "alpha = 0\n"
                   "beta = t\n"
                   "c1 = 0.2\n"
                   "c2 = 0.3\n"
                   "grid = -1:1:201\n")
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert run(["construct", "mean", "--config", str(cfg), "--out", a]) == 0
    assert run(["construct", "mean", "--alpha", "0", "--beta", "t",
                "--c1", "0.2", "--c2", "0.3", "--grid", "-1:1:201",
                "--out", b]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.obj").read_bytes() == (tmp_path / "b.obj").read_bytes()


def test_flag_after_config_overrides(tmp_path):
    cfg = tmp_path / "mean.cfg"
    cfg.write_text("alpha = 0\nbeta = t\nc1 = 0.2\nc2 = 0.3\n"
                   "grid = -1:1:201\n")
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert run(["construct", "mean", "--config", str(cfg),
                "--c2", "0.35", "--out", a]) == 0
    assert run(["construct", "mean", "--alpha", "0", "--beta", "t",
                "--c1", "0.2", "--c2", "0.35", "--grid", "-1:1:201",
                "--out", b]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_rerun_is_byte_identical(tmp_path):
    base = str(tmp_path / "rev")
    argv = ["revolve", "--axis", "z", *PS, "--grid", PS_GRID,
            "--theta", "32", "--out", base]
    assert run(argv) == 0
    first = {ext: (tmp_path / f"rev{ext}").read_bytes()
             for ext in (".csv", ".obj", ".json")}
    assert run(argv) == 0
    for ext, blob in first.items():
        assert (tmp_path / f"rev{ext}").read_bytes() == blob


def test_json_keys_sorted(tmp_path):
    base = str(tmp_path / "rev")
    assert run(["revolve", *CIRCLE, "--grid", CIRCLE_GRID,
                "--theta", "16", "--out", base]) == 0
    payload = read_json(base + ".json")
    assert list(payload.keys()) == sorted(payload.keys())


# ---------------------------------------------------------------------------
# remaining subcommands


def test_revolve_artifacts(tmp_path):
    base = str(tmp_path / "torus")
    code = run(["revolve", "--axis", "z", *CIRCLE, "--grid", CIRCLE_GRID,
                "--theta", "16", "--out", base])
    assert code == 0
    payload = read_json(base + ".json")
    assert payload["integrability"]["max_residual"] <= 1e-8
    assert payload["front"]["is_front"] is True
    with open(base + ".obj") as fh:
        kinds = [line.split(" ", 1)[0] for line in fh]
    assert kinds.count("v") == 65 * 17
    assert kinds.count("f") == 2 * 64 * 16


def test_invariants_stdout(capsys):
    code = run(["invariants", *CIRCLE, "--grid", CIRCLE_GRID])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    recs = payload["records"]
    assert len(recs) == 65
    assert set(recs[0]) == {"node", "J", "K", "H", "status"}
    assert all(r["status"] == "regular" for r in recs)


def test_classify_auto_agreement(capsys):
    code = run(["classify", "--family", "auto", "--t0", str(PI / 2),
                *PS, "--grid", PS_GRID])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["agree"] is True
    assert payload["derivative"]["label"] == "cusp_3_2"
    assert payload["curvature"]["label"] == "cusp_3_2"


def test_classify_gauss_family(capsys):
    code = run(["classify", "--family", "gauss", "--t0", "0",
                "--a", "t", "--beta", "t"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["orders"] == [1, 1]
    assert payload["record"]["label"] == "cusp_3_2"


def test_evolute_flags_axis_nodes(tmp_path):
    base = str(tmp_path / "evo")
    code = run(["evolute", *PS, "--grid", PS_GRID, "--theta", "16",
                "--out", base])
    assert code == 0
    payload = read_json(base + ".json")
    assert payload["axis_flagged_nodes"] == [80]
    cols = read_csv(base + ".csv")
    # first evolute of this profile is the catenary x = cosh(z)
    assert np.max(np.abs(cols["x"] - np.cosh(cols["z"]))) <= 1e-9


def test_parallel_commutes(tmp_path):
    base = str(tmp_path / "par")
    code = run(["parallel", "--lambda", "0.5", "--axis", "z", *PS,
                "--grid", PS_GRID, "--theta", "16", "--out", base])
    assert code == 0
    payload = read_json(base + ".json")
    assert payload["commutation"]["passed"] is True


def test_check_passes_on_legendre_pair(capsys):
    code = run(["check", *PS, "--grid", PS_GRID])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["integrability_z"]["max_residual"] <= 1e-8
    assert payload["integrability_x"]["max_residual"] <= 1e-8


def test_check_fails_on_broken_normal(capsys):
    # flipping the sign of b breaks the contact condition
    bad = ["--x", "sin(t)", "--z", "cos(t)+log(tan(t/2))",
           "--a", "cos(t)", "--b", "sin(t)"]
    code = run(["check", *bad, "--grid", PS_GRID])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False


def test_construct_j_phi_and_h_phi(tmp_path):
    semi = str(tmp_path / "semi")
    code = run(["construct", "j-phi", "--J", "-t", "--phi", "1.5707963267948966",
                "--x0", "1.0", "--t0", "0", "--grid", "-0.9:0.9:101",
                "--out", semi])
    assert code == 0
    cols = read_csv(semi + ".csv")
    assert np.max(np.abs(cols["x"] - np.sqrt(1.0 - cols["t"] ** 2))) <= 1e-9

    cyl = str(tmp_path / "cyl")
    code = run(["construct", "h-phi", "--H", "0.5", "--phi", "0",
                "--grid", "0:1:33", "--out", cyl])
    assert code == 0
