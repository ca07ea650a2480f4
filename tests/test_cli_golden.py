"""Golden bytes of the command line artifacts.

One small run per command and variant: revolve about both axes for a
curvature-pair profile and an (x, z, a, b) profile, invariants about both
axes, check, parallel about both axes, evolute, construct gauss, and
classify in each of its four families.  Each run writes BASE.csv, BASE.obj
and BASE.json as the command does; the sha256 of every file written, and
the exit code, are compared with the values recorded before the
revolution invariants were reduced to one (n_t, 1) form (the classify
runs: before the sampled-data profile and its 1e-4 tolerance were
deleted).  Any byte change in an artifact fails here; a deliberate change
must update the hash and say why.
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
    "construct-gauss": ["construct", "gauss", "--alpha", "-1",
                        "--beta", "cot(t)", "--t0", "1.5707963",
                        "--grid", "0.2:2.94:64", *THETA],
    "classify-auto": ["classify", "--family", "auto", "--t0", "1.5707963",
                      *XZAB],
    "classify-revolution": ["classify", "--family", "revolution",
                            "--t0", "1.5707963", *XZAB],
    "classify-mean": ["classify", "--t0", "3.14159265", "--alpha", "t",
                      "--beta", "sin(t)", "--family", "mean"],
    "classify-gauss": ["classify", "--family", "gauss", "--t0", "0",
                       "--a", "t", "--beta", "t"],
}

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
    "construct-gauss": (0, {
        "csv": "fc96362f5b8fa30cbbed1a4d67958330e359daea0c993f8b05f57c6d2ac039cc",
        "obj": "c30878371749d324148b76eba72889f1d7a96d50a77ad923a2cf1c3f2263a6c3",
        "json": "fde3f5927f15905fd575b58ffe4cff6396146d56cac7e4e6eed0c8afd313b3eb",
    }),
    "evolute": (0, {
        "csv": "c8cb7019dbf4ec30acabbfdc0f89a78d3dc6daa8f07dc140e1917b4f75158228",
        "obj": "19cb5693a844644ffbf6113028dbc351ff1370b46614f9f42742a45df15558f4",
        "json": "29995b1de17d71e2cc3c9a237ab19c9145281cd5a68744bbf9e1c62d41fcde1a",
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
    "parallel-x": (0, {
        "csv": "e0a0acf24590fce5bd50a365630a9051e2111d5c24a14b4c48cd70d59fc1e58a",
        "obj": "042c7bb188297c7d97ef452232320bc5436e2d8a6e1fc570e9e1e6bb546d68c0",
        "json": "a17259f008196740dcee71d6c5e57e2fd22178d1f22ba657c004bb42b2cf971f",
    }),
    "parallel-z": (0, {
        "csv": "e0a0acf24590fce5bd50a365630a9051e2111d5c24a14b4c48cd70d59fc1e58a",
        "obj": "23fcd00adcf80aae5325eff3febeccf90b91f8d3ef55adf76761bdc90f4afb29",
        "json": "ea5474253a75e435f8d1ee304d35a9ed55a9423a655ec18571d199f232125ee4",
    }),
    "revolve-x-ell": (0, {
        "csv": "f19810152a5ebde678ea979311f10471e16d6f2477eb4bec37ae7aa96fd38af6",
        "obj": "b72c5bb50a8ca2ef1a5c319f77ad849be12479590954ada7f651153464cf6803",
        "json": "e332c53911317484a2091d58fce871cbebdfe3876693100c382f89c79ca4d832",
    }),
    "revolve-x-xzab": (0, {
        "csv": "9d653d0e43fde02903cf6a5ca7b2a53d76452214bbdba012be49807d01cd50de",
        "obj": "6a1cd475b0fc7f93e6c56c2554932d11d47ec2beba67fb4d641a21d1d559843b",
        "json": "a70b9f47a8d551a82e15acd88c207cf7a272e7aaf40297688b1eddceaa9a1fcd",
    }),
    "revolve-z-ell": (0, {
        "csv": "f19810152a5ebde678ea979311f10471e16d6f2477eb4bec37ae7aa96fd38af6",
        "obj": "0b10e41402d0b00af001af77d95b91856863b258e69845eb92b093e0bdc0b740",
        "json": "534751d1e4ee58b6f323ae0ffeeadd3722d110d41d65538886a87bfcb65e139f",
    }),
    "revolve-z-xzab": (0, {
        "csv": "9d653d0e43fde02903cf6a5ca7b2a53d76452214bbdba012be49807d01cd50de",
        "obj": "ec3b7f642108a81a12f316bcf5d3810f5ea0678e74abad5a4206b34e2c998642",
        "json": "fdc099ab1c89f4f74e818c2d76d090565f5602f8296af5474701e86ad2feba85",
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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_default_tolerance_is_1e_8(name, tmp_path):
    """Every command has the one default zero-test tolerance."""
    assert artifacts(name, tmp_path, ["--tol", "1e-8"]) == GOLDEN[name]
