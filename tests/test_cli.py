"""End-to-end command line runs: exit codes, artifacts, determinism."""

import argparse
import csv
import json

import numpy as np
import pytest

from revfront.cli import build_parser, run

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


@pytest.mark.parametrize("ell", ["\u0663*t", "\uff54", "t\u00b72"])
def test_non_ascii_expression_exits_one(ell, tmp_path, capsys):
    # the grammar is ASCII: an Arabic-Indic three, a fullwidth t and a
    # middle dot are no digit, name or operator
    argv = ["curve", "from-curvature", "--ell", ell, "--beta", "1",
            "--grid", "0:1:33", "--out", str(tmp_path / "x")]
    assert run(argv) == 1
    assert "unexpected character" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_bad_tolerance_exits_one(tol, capsys):
    code = run(["classify", "--family", "auto", "--t0", str(PI / 2), *PS,
                "--grid", PS_GRID, "--tol", tol])
    assert code == 1
    assert "--tol" in capsys.readouterr().err


# each family of float flags, on a command line that runs without them
FLOAT_FLAGS = {
    "profile": (["revolve", "--ell", "1", "--beta", "1", "--grid", "0:1:33"],
                ["--theta0", "--x0", "--z0"]),
    "curve": (["curve", "from-curvature", "--ell", "1", "--beta", "1",
               "--grid", "0:1:33"], ["--theta0", "--x0", "--z0"]),
    "classify": (["classify", "--family", "auto", "--t0", str(PI / 2), *PS,
                  "--grid", PS_GRID], ["--t0"]),
    "construct": (["construct", "gauss", "--alpha", "-1", "--beta", "cot(t)",
                   "--t0", "1.5707963", "--grid", "0.2:2.94:64"],
                  ["--t0", "--x0", "--sin0", "--cos-sign", "--z0"]),
    "construct-jk": (["construct", "gauss-jk", "--J", "1", "--K", "1",
                      "--x0", "1", "--grid", "0:1:33"],
                     ["--x0", "--t0", "--sin0", "--cos-sign", "--z0"]),
    "construct-mean": (["construct", "mean", "--alpha", "1", "--beta", "1",
                        "--c1", "1", "--c2", "0", "--grid", "0:1:33"],
                       ["--c1", "--c2", "--t0", "--z0"]),
    "construct-phi": (["construct", "j-phi", "--J", "1", "--phi", "t",
                       "--grid", "0:1:33"], ["--x0", "--t0", "--z0"]),
    "construct-h": (["construct", "h-phi", "--H", "1", "--phi", "t",
                     "--grid", "0:1:33"], ["--ca", "--t0", "--z0"]),
    "parallel": (["parallel", "--lambda", "0.4", *PS, "--grid", PS_GRID],
                 ["--lambda"]),
}


@pytest.mark.parametrize("family,flag,value", [
    (family, flag, value) for family, (_, flags) in FLOAT_FLAGS.items()
    for flag in flags for value in ("nan", "inf", "-inf")])
def test_non_finite_float_flag_exits_one(family, flag, value, tmp_path,
                                         capsys):
    argv = FLOAT_FLAGS[family][0]
    out = [] if family == "classify" else ["--out", str(tmp_path / "x")]
    assert run([*argv, *out, flag, value]) == 1
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("family,flag,value", [
    ("construct", "--cos-sign", "7"), ("construct", "--cos-sign", "0.5"),
    ("construct", "--cos-sign", "0"), ("construct-jk", "--cos-sign", "3"),
    ("construct", "--sin0", "2"), ("construct", "--sin0", "-1.5"),
    ("construct-jk", "--sin0", "1.5")])
def test_out_of_range_float_flag_exits_one(family, flag, value, tmp_path,
                                           capsys):
    # --cos-sign is 1 or -1, --sin0 is within [-1, 1]
    argv = FLOAT_FLAGS[family][0]
    assert run([*argv, "--out", str(tmp_path / "x"), flag, value]) == 1
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("family", ["construct", "construct-jk"])
@pytest.mark.parametrize("flag,value", [("--sin0", "-1"), ("--sin0", "1"),
                                        ("--cos-sign", "-1")])
def test_unit_bounds_accepted(family, flag, value):
    argv = FLOAT_FLAGS[family][0]
    ns = build_parser().parse_args([*argv, "--out", "x", f"{flag}={value}"])
    got = getattr(ns, flag[2:].replace("-", "_"))
    assert type(got) is float and got == float(value)


def test_every_float_flag_refuses_non_finite_values():
    # 43 float flags (27 add_argument calls; the three of the profile
    # source serve six commands, --cos-sign two) and --tol on five commands
    def actions(parser):
        for action in parser._actions:
            yield action
            if isinstance(action.choices, dict):        # subcommands
                for sub in action.choices.values():
                    yield from actions(sub)

    floats = 0
    for action in actions(build_parser()):
        try:
            value = action.type("0.5")
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            continue
        if isinstance(value, float):
            floats += 1
            for bad in ("nan", "inf", "-inf"):
                with pytest.raises(argparse.ArgumentTypeError):
                    action.type(bad)
    assert floats == 48


@pytest.mark.parametrize("grid", ["-inf:1:100", "0:inf:100", "-inf:inf:100",
                                  "-1e308:1e308:100"])
def test_non_finite_grid_exits_one(grid, tmp_path, capsys):
    # the last span overflows to inf though both bounds are finite
    assert run(["revolve", "--ell", "1", "--beta", "1", "--grid", grid,
                "--out", str(tmp_path / "x")]) == 1
    assert "--grid" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["construct", "gauss", "--alpha", "-1", "--beta", "cot(t)",
     "--t0", "1.5707963", "--grid", "0.2:2.94:64"],
    ["parallel", "--lambda", "0.4", *PS, "--grid", PS_GRID],
    ["curve", "from-curvature", "--ell", "1", "--beta", "1",
     "--grid", "0:1:33"],
])
def test_tolerance_refused_where_unread(argv, tmp_path, capsys):
    # these commands make no zero test, so --tol is an unknown flag there
    assert run([*argv, "--tol", "1", "--out", str(tmp_path / "x")]) == 1
    assert "--tol" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
    ["--t0", "1", *CIRCLE, "--grid", "0:3:41"],
    ["--family", "revolution", "--t0", "1", "--ell", "1", "--beta", "1",
     "--grid", "0:3:41"],
    ["--family", "gauss", "--t0", "0", "--a", "t", "--beta", "t"],
])
@pytest.mark.parametrize("order", ["9", "-3", "x"])
def test_jet_order_checked_at_parse_time(argv, order, tmp_path, capsys):
    # --order takes 0..jets.ORDER_CAP, as --theta its range
    assert run(["classify", *argv, "--order", order,
                "--out", str(tmp_path / "o")]) == 1
    assert "--order" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# --order sets the order of the jets classify labels; no other command
# writes a jet coefficient, so none takes the flag, and each builds at the
# default order
SMALL_CIRCLE = [*CIRCLE, "--grid", "0:3:41"]
WITHOUT_ORDER = {
    "curve": ["curve", "from-curvature", "--ell", "1", "--beta", "1",
              "--grid", "0:3:41"],
    "revolve": ["revolve", *SMALL_CIRCLE],
    "invariants": ["invariants", *SMALL_CIRCLE],
    "construct-gauss": ["construct", "gauss", "--alpha", "-1", "--beta",
                        "cot(t)", "--t0", "0.5", "--grid", "0.3:0.9:40"],
    "construct-gauss-jk": ["construct", "gauss-jk", "--J", "-cos(t)", "--K",
                           "cos(t)", "--x0", "1", "--grid", "0.3:0.9:40"],
    "construct-mean": ["construct", "mean", "--alpha", "0", "--beta", "t",
                       "--c1", "0.2", "--c2", "0.3", "--grid", "-1:1:41"],
    "construct-j-phi": ["construct", "j-phi", "--J", "-t", "--phi", "1",
                        "--x0", "1", "--grid", "-0.9:0.9:33"],
    "construct-h-phi": ["construct", "h-phi", "--H", "0.5", "--phi", "0",
                        "--grid", "0:1:33"],
    "evolute": ["evolute", *SMALL_CIRCLE],
    "parallel": ["parallel", "--lambda", "0.1", *SMALL_CIRCLE],
    "check": ["check", *SMALL_CIRCLE],
}


@pytest.mark.parametrize("argv", WITHOUT_ORDER.values(), ids=WITHOUT_ORDER)
def test_order_is_an_option_of_classify_only(argv, tmp_path, capsys):
    base = str(tmp_path / "o")
    assert run([*argv, "--order", "5", "--out", base]) == 1
    assert "--order" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert run([*argv, "--out", base]) == 0


@pytest.mark.parametrize("family", ["auto", "revolution"])
def test_classify_from_expressions_runs_at_every_order(family, capsys):
    # the profile is built at order 5 and its jets cut to --order; at
    # --order 0 the command exited 1, as ell and beta read first
    # derivatives, though the revolution family reads no curvature pair
    argv = ["--family", family, "--t0", repr(PI / 2), *PS, "--grid", PS_GRID]
    code, payload = _classify([*argv, "--order", "0"], capsys)
    assert code == 0
    records = ([payload["record"]] if family == "revolution"
               else [payload["derivative"], payload["curvature"]])
    assert {r["label"] for r in records} == {"unresolved"}
    for order in range(1, 6):
        assert _classify([*argv, "--order", str(order)], capsys)[0] == 0


def test_classify_reads_the_curvature_pair_at_the_order_asked_for(capsys):
    # the README's pseudo-sphere at --order 2: the pair came from order-2
    # expressions, one order short, and the curvature criterion said "jet
    # order too low"; it is now the order-5 pair cut to order 2
    code, payload = _classify(["--t0", repr(PI / 2), *PS, "--grid", PS_GRID,
                               "--order", "2"], capsys)
    assert code == 0
    assert payload["curvature"]["label"] == "cusp_3_2"
    assert payload["derivative"]["label"] == "unresolved"


ORDER0_PAIR = ["--ell", "1", "--beta", "1", "--x0", "1",
               "--grid", "0:3.141592653589793:41", "--order", "0"]


def test_classify_of_order_zero_jets_is_unresolved(capsys):
    # x and z of order 0 give the derivative criterion no first
    # derivative; the curvature pair of order 0 gives it no beta'
    code, payload = _classify(["--t0", "1", *ORDER0_PAIR], capsys)
    assert code == 0
    for key in ("derivative", "curvature"):
        assert payload[key]["label"] == "unresolved"
        assert "jet order too low" in payload[key]["criterion_values"]["note"]


@pytest.mark.parametrize("argv", [
    ["check", *SMALL_CIRCLE, "--order", "0"],
    ["check", *ORDER0_PAIR],
], ids=["check", "check-ell-beta"])
def test_order_zero_without_derivatives_exits_one(argv, tmp_path, capsys):
    # check reads first derivatives of its profile, from --x/--z/--a/--b
    # or through the curvature round trip; it builds at the default order
    # and refuses --order 0 as it refuses any --order
    assert run([*argv, "--out", str(tmp_path / "o")]) == 1
    assert "--order" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_rk4_overflow_exits_two(tmp_path):
    base = str(tmp_path / "overflow")
    # x grows like exp(30 t) and leaves the doubles at t = 23.7
    code = run(["construct", "gauss", "--alpha", "-1", "--beta", "30",
                "--t0", "0", "--x0", "1", "--sin0", "0.1",
                "--grid", "0:30:1001", "--out", base])
    assert code == 2
    diag = read_json(base + ".json")
    assert diag["error"] == "ConstructionError"
    assert "RK4 sweep overflows" in diag["message"]


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


def _classify(argv, capsys):
    code = run(["classify", "--t0", "0", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_classify_constant_families_read_the_order(capsys):
    # before, both families read order-5 jets whatever --order said
    code, payload = _classify(["--family", "mean", "--alpha", "1+t",
                               "--beta", "t^2", "--order", "1"], capsys)
    assert code == 0
    assert payload["record"]["criterion_values"]["alpha_jet"] == [1.0, 1.0]
    assert payload["record"]["label"] == "unresolved"
    assert "jet_orders" not in payload
    # at order 1, t^2 reads as "order at least 2": no cusp_4_3 from it
    gauss = ["--family", "gauss", "--a", "t^2", "--beta", "t^2"]
    for order, label in (("1", "unresolved"), ("2", "cusp_4_3")):
        code, payload = _classify([*gauss, "--order", order], capsys)
        assert code == 0
        assert payload["orders"] == [2, 2]
        assert payload["record"]["label"] == label


@pytest.mark.parametrize("argv, label, orders", [
    (["--family", "mean", "--alpha", "(exp(t)-1)/t", "--beta", "t^2"],
     "cusp_5_3", [4, 5]),
    (["--family", "mean", "--alpha", "1+t/2+t^2/6", "--beta", "t^2"],
     "cusp_5_3", None),
    (["--family", "gauss", "--a", "(1-cos(t))/t", "--beta", "t"],
     "cusp_3_2", [4, 5]),
])
def test_classify_constant_families_at_removable_singularity(argv, label,
                                                             orders, capsys):
    # before, (exp(t)-1)/t at t0 = 0 exited 2 on its division by zero; its
    # Laurent jet's division strips t from both sides, so it leaves an
    # order-4 Taylor jet (order 3 when only the divisor's t was stripped)
    code, payload = _classify(argv, capsys)
    assert code == 0
    assert payload["record"]["label"] == label
    assert payload.get("jet_orders") == orders


@pytest.mark.parametrize("argv", [
    ["--family", "mean", "--alpha", "1/t", "--beta", "t^2"],
    ["--family", "gauss", "--a", "t", "--beta", "1/t"],
])
def test_classify_constant_families_refuse_a_pole(argv, capsys):
    code, payload = _classify(argv, capsys)
    assert code == 2
    assert payload["error"] == "DomainError"


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
