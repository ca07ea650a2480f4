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
angle grid's symmetry sector, see SECTOR below; the --ell/--beta runs:
after reconstruct_from_curvature integrated node jets, see NODE_RULE
below; the RK4 and Frobenius gauss runs again: after the gauss ratio
stepped between its nodes on their jets, see NODE_SWEEP below).  Any
byte change in an artifact fails here; a deliberate change must update
the hash and say why.
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

# NODE_RULE: reconstruct_from_curvature integrates its node jets with the
# two-point Hermite rule instead of the 16-step lattice.  The --ell/--beta
# profile (ELL_BETA) moved from 3.7e-12 to 6.7e-16 of a scipy quad
# reference, so every number of its CSV and OBJ moves by at most 3.7e-12
# (revolve, 3.8e-12 for parallel), the invariants records by at most
# 4.3e-12 (J), and the revolve-z and parallel JSON only in frame and
# commutation residuals of 1e-16; revolve-x's JSON and check-ell keep
# their bytes.

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
    # parabola's vertex 1.5707963264729081.  NODE_SWEEP: the sweep steps
    # from node to node on the system's jets, and z integrates them: z
    # moved by up to 1.1e-9, x by 1.7e-12; max |x - sin t| 1.7e-12
    # before, 7.8e-16 after, and |z - (log tan(t/2) + cos t)|, anchored
    # at t0, 1.1e-9 before, 8.9e-16 after; the report gains
    # quadrature_estimate
    "construct-gauss": (0, {
        "csv": "0eaaca05b6eda41a3f952729ac2861fe249abb2fbe856faa555211a56523667c",
        "obj": "1cab7e4adaaacd5680628e9fc1b99b87b08eb036ddc3c3eb6197daf4b7684350",
        "json": "e93cdb7d77c4067046ffa3efe7dd4690ef269911cdf860c3dbce6dbdaff68228",
    }),
    # indicial root 2, series radius 0.2025.  NODE_SWEEP: ell moved by up
    # to 4.0e-12, z by 2.7e-13; max |x - t^2| 2.5e-14 before, 1.1e-16
    # after, |z - int sqrt(1 - 4t^2)| 2.7e-13 before, 1.1e-16 after
    "construct-gauss-frobenius": (0, {
        "csv": "fc9ac6358aa66d0b67dc01ec644be4531e0d48d8e23e3dc86b2d6279d3844247",
        "obj": "6a846078086fffe2efb07442f800068be757d207d5b015f38e0c8891594cf881",
        "json": "5e46d90cded9b1d4ec8c5e18dcd538ae201ec36ff9ca1d5641d7e7d9fe95fcc1",
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
    "invariants-x-ell": (0, {   # NODE_RULE
        "json": "0583d2c5fa1b50f45807425c8ca300f7810fd9392ffd9d9fd38f42ac6d356191",
    }),
    "invariants-x-xzab": (0, {
        "json": "336c7cf7a96b17385817298bf6989bdac24e4ecf3f36152d5ba6c432f10694b6",
    }),
    "invariants-z-ell": (0, {   # NODE_RULE
        "json": "08fdca74e6c2841c8f6dc5b95d3ca6a918ed4fa35960fdeed73d0acff1da8745",
    }),
    "invariants-z-xzab": (0, {
        "json": "db7924af03bf523762f80f518687abc5564f197275abcee1bca82a17512555b7",
    }),
    "parallel-x": (0, {   # obj: SECTOR; csv, obj, json: NODE_RULE
        "csv": "07be7508bca5a31e2f2061e639fe5a5f3342c4fb7fc60af1d7bcc9a6fadefd2d",
        "obj": "dbd36510cb4fa64e2653c2b7020d2854db10bd5135eb9f2dc7599c2d1bbaac40",
        "json": "8164e2cc9386172daca6c0b296634495ac9fe2bc5049893eed289df8dfd1bd06",
    }),
    "parallel-z": (0, {   # obj, json: SECTOR; csv, obj, json: NODE_RULE
        "csv": "07be7508bca5a31e2f2061e639fe5a5f3342c4fb7fc60af1d7bcc9a6fadefd2d",
        "obj": "190c338599af6af9e459360a3170da9bd0732d7d27b2df38a32c0dc5cac8ff34",
        "json": "ea5474253a75e435f8d1ee304d35a9ed55a9423a655ec18571d199f232125ee4",
    }),
    "revolve-x-ell": (0, {   # obj, json: SECTOR; csv, obj: NODE_RULE
        "csv": "1cf806def3234904f5955148b4cb9ea3113a336ac11326928fa75db3cd311ebc",
        "obj": "3534a3ccd3333bb6c1ab718c63e023e69a217118b55aea9ebca9c08a25bb3531",
        "json": "5706035cbd45d469f99fc26842ef52594c10213ebb5bef82de470f557c53781c",
    }),
    "revolve-x-xzab": (0, {   # obj, json: SECTOR
        "csv": "9d653d0e43fde02903cf6a5ca7b2a53d76452214bbdba012be49807d01cd50de",
        "obj": "daf4dc7848a7edc48555d2a2387b7b69f362f0876b53ba92159daba1b0b553c4",
        "json": "4f741aabe04eba3e1a7c2e0835650dcdfb762d414a6bf913e218b91442d0da09",
    }),
    "revolve-z-ell": (0, {   # obj, json: SECTOR; csv, obj, json: NODE_RULE
        "csv": "1cf806def3234904f5955148b4cb9ea3113a336ac11326928fa75db3cd311ebc",
        "obj": "8dcdf78c7153770cdaccf10d9b68238c0d5bd81c2db46fd5aba21b8d87c1a888",
        "json": "216c2cef04aaed141ef4bf9d47e24f8b549f59e1fd3594404af744e3ef2d6a04",
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
