"""Golden bytes of the command line artifacts.

One small run per command and variant: revolve about both axes for a
curvature-pair profile and an (x, z, a, b) profile, invariants about both
axes, check, parallel about both axes, evolute, construct gauss, and
classify in each of its four families; evolute also through a pole of
the sphere, construct gauss also at a pole of alpha (Frobenius) and
failing on alpha*beta.  Each run writes
BASE.csv, BASE.obj and BASE.json as the command does; the sha256 of
every file written, and the exit code, are compared with the values
recorded before the revolution invariants were reduced to one (n_t, 1)
form (the classify runs: before the sampled-data profile and its 1e-4
tolerance were deleted; the two extra gauss runs: before alpha*beta was
taken from beta's lattice values; the RK4 and Frobenius gauss runs:
after the RK4 sweep became a scan blocked by grid interval, which moves
their CSV, OBJ and RK4 JSON bytes at rounding level; every OBJ, and the
revolve and parallel-z JSON: after cos theta and sin theta came from the
angle grid's symmetry sector, see SECTOR below).  Any byte change
in an artifact fails here; a deliberate change must update the hash and
say why.
"""

import hashlib

import pytest

from revfront.cli import run

# a curvature pair and the pseudo-sphere, whose cuspidal edge at t = pi/2
# falls between two grid nodes
ELL_BETA = ["--ell", "1+0.3*sin(t)", "--beta", "1.2+0.2*cos(t)",
            "--theta0", "0.3", "--x0", "1.5", "--z0", "0.2",
            "--grid", "0:2:40"]
XZAB = ["--x", "sin(t)", "--z", "cos(t)+log(tan(t/2))",
        "--a", "cos(t)", "--b", "-sin(t)", "--grid", "0.3:2.8:48"]
THETA = ["--theta", "16"]

RUNS = {
    "revolve-z-ell": ["revolve", "--axis", "z", *ELL_BETA, *THETA],
    "revolve-x-ell": ["revolve", "--axis", "x", *ELL_BETA, *THETA],
    "revolve-z-xzab": ["revolve", "--axis", "z", *XZAB, *THETA],
    "revolve-x-xzab": ["revolve", "--axis", "x", *XZAB, *THETA],
    "invariants-z-ell": ["invariants", "--axis", "z", *ELL_BETA],
    "invariants-x-ell": ["invariants", "--axis", "x", *ELL_BETA],
    "invariants-z-xzab": ["invariants", "--axis", "z", *XZAB],
    "invariants-x-xzab": ["invariants", "--axis", "x", *XZAB],
    "check-ell": ["check", *ELL_BETA, *THETA],
    "check-xzab": ["check", *XZAB, *THETA],
    "parallel-z": ["parallel", "--lambda", "0.4", "--axis", "z",
                   *ELL_BETA, *THETA],
    "parallel-x": ["parallel", "--lambda", "0.4", "--axis", "x",
                   *ELL_BETA, *THETA],
    "evolute": ["evolute", *XZAB, *THETA],
    # the unit sphere through its pole at t = 0, node 20: a = sin t
    # vanishes there, and the axis locus z - x b / a reads 1 - 1 = 0, the
    # quotient taken at the zero of a (revolution._quotient_at_zero)
    "evolute-pole": ["evolute", "--x", "sin(t)", "--z", "cos(t)",
                     "--a", "sin(t)", "--b", "cos(t)",
                     "--grid", "-0.5:0.5:41", *THETA],
    "construct-gauss": ["construct", "gauss", "--alpha", "-1",
                        "--beta", "cot(t)", "--t0", "1.5707963",
                        "--grid", "0.2:2.94:64", *THETA],
    # a pole of alpha at t0: the Frobenius series seeds the sweep
    "construct-gauss-frobenius": ["construct", "gauss", "--alpha", "-2/t^2",
                                  "--beta", "1", "--t0", "0", "--x0", "1",
                                  "--grid", "0:0.45:64", *THETA],
    # alpha's pole at t = 0.3 lies in the left sweep, away from t0
    "construct-gauss-alpha-beta-pole": ["construct", "gauss", "--alpha",
                                        "1/(t-0.3)", "--beta", "1", "--t0",
                                        "0.6", "--x0", "1", "--grid",
                                        "0:1:21", "--theta", "8"],
    "classify-auto": ["classify", "--family", "auto", "--t0", "1.5707963",
                      *XZAB],
    "classify-revolution": ["classify", "--family", "revolution",
                            "--t0", "1.5707963", *XZAB],
    "classify-mean": ["classify", "--t0", "3.14159265", "--alpha", "t",
                      "--beta", "sin(t)", "--family", "mean"],
    "classify-gauss": ["classify", "--family", "gauss", "--t0", "0",
                       "--a", "t", "--beta", "t"],
}

# the commands whose zero tests read --tol; the others refuse the flag
TOL_COMMANDS = ("revolve", "invariants", "classify", "evolute", "check")

# SECTOR: a revolute reads cos theta_j and sin theta_j from the first
# sector of its angle grid, mirrored exactly onto the circle.  Mirrored
# vertices now print equal magnitudes, r cos(pi/2) prints 0 instead of
# about 6e-17 r, and r sqrt(1/2) is one number at pi/4, so the vertex text
# of every OBJ moves at the last digit.  The JSON of the revolve runs
# moves only in its frame residuals (unit_n, unit_s, n_dot_s, ...) and
# that of parallel-z only in its commutation residuals (x_u, x_uv), by an
# ulp or two; every CSV and every other JSON keeps its bytes.

# run -> (exit code, {extension: sha256 of BASE.extension})
GOLDEN = {
    "classify-auto": (0, {
        "json": "771ebfd6767e0a170861d7783e51bd3e151eea00d63c6c739c7fbb2a91c24af8",
    }),
    "classify-gauss": (0, {
        "json": "5d5ead69e148be64b62c21dad58a5d00c0a743fcad0197dbf8d531df8de2fbc1",
    }),
    "classify-mean": (0, {
        "json": "d0c28cadd7d16f695b8f9bcc5d91d6bd7848ac883da25a216256855ad1fb61b3",
    }),
    "classify-revolution": (0, {
        "json": "150640d77d595de2a396355c12f9b708d93ff668c19c1baf96bf4573efd71a15",
    }),
    "check-ell": (0, {
        "json": "cd22468ff2c3d80742ecdd4926a4abe1c67db48c888d95ea1296f4415cd71e05",
    }),
    "check-xzab": (0, {
        "json": "9c50861b20d954ca84660abc04751123d9ae91b191b7e88a50c679d002c0cae0",
    }),
    # z holds z0 at t0 = 1.5707963 itself, not at its nearest fine node
    # (z moves by up to 1.7e-10), and the report has no anchor_offset.
    # The touch at pi/2 is expanded once: nodes 19 to 44 read its Taylor
    # shift (a moves by up to 1e-13, ell by 1.6e-12).  The report's flips
    # are the located touch, 1.570796326794897, no longer the lattice
    # parabola's vertex 1.5707963264729081; the CSV and OBJ keep their bytes
    # (the OBJ moved later: SECTOR)
    "construct-gauss": (0, {
        "csv": "bacf1bce0493caf19633f5dda0320bf89309a5777c118ba5e41c812d4b9cbf35",
        "obj": "4180846420f84ae32638fd6fc8401a326fe8c46a88deaa984a210a084ded1299",
        "json": "d6b8fbc64bee692bd881110343a9abb8b68a914f3322c76b41a2e34224dc9e4c",
    }),
    # indicial root 2, series radius 0.2025
    "construct-gauss-frobenius": (0, {   # obj: SECTOR
        "csv": "dd0cd36733ffaecbaa0fa8a76e85af332348443e7ec8648cb8ac8683c184a462",
        "obj": "0db8781d2f3687bbeba11e932d7c9e79ba649a514a00e97ed2c91fd005e1cd3f",
        "json": "40e6ef6f136df4fc503784cca5bfb658fd9f8bc9dd2a05474202f8f2b9b99538",
    }),
    # the error names the text (alpha)*(beta): "source": "(1/(t-0.3))*(1)"
    "construct-gauss-alpha-beta-pole": (2, {
        "json": "127aa288e2e7c2136ed686a14b08fccfc83fbbfebd073481f2502da6f91033d1",
    }),
    "evolute": (0, {   # obj: SECTOR
        "csv": "c8cb7019dbf4ec30acabbfdc0f89a78d3dc6daa8f07dc140e1917b4f75158228",
        "obj": "194afd287f571ca21abeeff9bcec89da4c68d290a1f00ec62a84a7332623a4de",
        "json": "29995b1de17d71e2cc3c9a237ab19c9145281cd5a68744bbf9e1c62d41fcde1a",
    }),
    # one _quotient_at_zero call, at node 20; no node flagged
    "evolute-pole": (0, {
        "csv": "7cc25412eed9e4f01e22eba4415db30feaaa9b70688d0e7479baba85734834f1",
        "obj": "e5e8ab42fc25d3333e6a84c23547577e94fa79992d2710a298089f0df98dc513",
        "json": "a6cb92d8b17d7884dcb32cae036e2839d192caf3f6ec466062f39362e8349ce7",
    }),
    "invariants-x-ell": (0, {
        "json": "887c57372326b71c26fe0172e484e098fc6f3f0598e5072c9f3406c572d4026a",
    }),
    "invariants-x-xzab": (0, {
        "json": "336c7cf7a96b17385817298bf6989bdac24e4ecf3f36152d5ba6c432f10694b6",
    }),
    "invariants-z-ell": (0, {
        "json": "7fda7ad6c8bab4543974282e569d5df3e6303e0546c8e2427edc3d48a8cbbbbf",
    }),
    "invariants-z-xzab": (0, {
        "json": "db7924af03bf523762f80f518687abc5564f197275abcee1bca82a17512555b7",
    }),
    "parallel-x": (0, {   # obj: SECTOR
        "csv": "e0a0acf24590fce5bd50a365630a9051e2111d5c24a14b4c48cd70d59fc1e58a",
        "obj": "d731b34e7db9bba5ea352134c2a322ba2749dbc8bb6476660a274ba978feff00",
        "json": "a17259f008196740dcee71d6c5e57e2fd22178d1f22ba657c004bb42b2cf971f",
    }),
    "parallel-z": (0, {   # obj, json: SECTOR
        "csv": "e0a0acf24590fce5bd50a365630a9051e2111d5c24a14b4c48cd70d59fc1e58a",
        "obj": "f74e61c4441c39469143be9279081f76508a4b651bff88185238d9d926d3d794",
        "json": "048eb24d40b03c03a6f47e9a7bb0936034b8a87ff6e78bc6cea40df93a3d52ef",
    }),
    "revolve-x-ell": (0, {   # obj, json: SECTOR
        "csv": "f19810152a5ebde678ea979311f10471e16d6f2477eb4bec37ae7aa96fd38af6",
        "obj": "2e4a91f8d53956654f3e1471b2d9c135ababdc369286f4bd39ef52bcd6e7506c",
        "json": "5706035cbd45d469f99fc26842ef52594c10213ebb5bef82de470f557c53781c",
    }),
    "revolve-x-xzab": (0, {   # obj, json: SECTOR
        "csv": "9d653d0e43fde02903cf6a5ca7b2a53d76452214bbdba012be49807d01cd50de",
        "obj": "daf4dc7848a7edc48555d2a2387b7b69f362f0876b53ba92159daba1b0b553c4",
        "json": "4f741aabe04eba3e1a7c2e0835650dcdfb762d414a6bf913e218b91442d0da09",
    }),
    "revolve-z-ell": (0, {   # obj, json: SECTOR
        "csv": "f19810152a5ebde678ea979311f10471e16d6f2477eb4bec37ae7aa96fd38af6",
        "obj": "21f475d31508895656b0fbdca4c02683b1304b48190d8c0cd1648c91391b5704",
        "json": "ea50162a98fa6bacba1254bf4fb136920eb985cbc55836f3d6ff29490052dc65",
    }),
    "revolve-z-xzab": (0, {   # obj, json: SECTOR
        "csv": "9d653d0e43fde02903cf6a5ca7b2a53d76452214bbdba012be49807d01cd50de",
        "obj": "b4ae95c4151f034e552e3780b49cbfefffd54fa99c32611f601094ec59ae737a",
        "json": "4600d2e810b5d49c2b587d5e13ef02b41f917febbc5b314781933aa30e2c6689",
    }),
}


def artifacts(name, directory, extra=()):
    """Exit code of the run and the sha256 of each file it wrote."""
    base = str(directory / name)
    code = run([*RUNS[name], *extra, "--out", base])
    hashes = {}
    for ext in ("csv", "obj", "json"):
        try:
            with open(f"{base}.{ext}", "rb") as fh:
                hashes[ext] = hashlib.sha256(fh.read()).hexdigest()
        except FileNotFoundError:
            pass
    return code, hashes


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_artifact_bytes(name, tmp_path):
    assert artifacts(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(name for name in RUNS
                                  if RUNS[name][0] in TOL_COMMANDS))
def test_default_tolerance_is_1e_8(name, tmp_path):
    """Every command that takes --tol has the one default tolerance."""
    assert artifacts(name, tmp_path, ["--tol", "1e-8"]) == GOLDEN[name]
