"""Golden digests: the SHA-256 of the bytes of every CLI document on a fixed
table of runs, as JSON and as CSV.

A change that alters a document's bits on purpose updates its digests here
and names the document in CHANGES.md.  The digests depend on numpy's and the
BLAS's arithmetic, so ``HOST`` records the build they were taken on, and a
mismatch names both builds.  The temporary directory of the test's mesh files
is replaced by ``TOKEN`` before hashing (it shows in ``command`` and in
``minimize``'s config).
"""

import hashlib

import numpy as np
import pytest

from menger_surf import cli
from menger_surf.surface import save_obj, save_off, shapes

TOKEN = "<tmp>"
TETRA = ["--tetra", "0,0,0,1,0,0,0.2,0.9,0,0.3,0.1,0.8"]
SPHERE = ["--analytic", "sphere", "--radius", "1"]
TORUS = ["--analytic", "torus", "--major-radius", "2", "--minor-radius", "0.6"]
MENGER8 = ["--integrand", '{"kind":"menger"}', "--p", "8", "--samples", "2000"]

# each run's name and argv; <tmp>/ico.obj and <tmp>/ico.off are icosphere(1)
RUNS = {
    "integrand-menger": ["integrand", *TETRA],
    "integrand-circumsphere": ["integrand", *TETRA,
                               "--integrand", '{"kind":"circumsphere"}'],
    "integrand-leger": ["integrand", *TETRA, "--integrand",
                        '{"kind":"leger","mean":"geometric","alpha":2}'],
    "integrand-scaled": ["integrand", *TETRA,
                         "--integrand", '{"kind":"scaled","s":0.5}'],
    "energy-sphere": ["energy", *SPHERE, *MENGER8, "--seed", "1"],
    "energy-torus": ["energy", *TORUS, *MENGER8, "--seed", "7"],
    "energy-saddle": ["energy", "--analytic", "saddle", "--extent", "1",
                      "--integrand", '{"kind":"circumsphere"}', "--p", "4",
                      "--samples", "2000", "--seed", "7"],
    "energy-capsule": ["energy", "--analytic", "capsule", "--length", "2",
                       "--radius", "0.5", *MENGER8, "--seed", "7"],
    "energy-obj": ["energy", "--mesh", "<tmp>/ico.obj", *MENGER8, "--seed", "7"],
    "energy-off": ["energy", "--mesh", "<tmp>/ico.off", "--mesh-format", "off",
                   *MENGER8, "--seed", "7"],
    "local-energy": ["local-energy", *SPHERE, "--center", "0,0,1",
                     "--patch-radius", "1.0", "--p", "8", "--samples", "1500",
                     "--seed", "1"],
    "scaling": ["scaling", "--p", "8", "--radii", "0.5,1", "--samples", "2000",
                "--seed", "1"],
    "diverge": ["diverge", "--alpha", "3", "--p", "3", "--eps", "0.05",
                "--nmax", "2", "--samples", "4000", "--seed", "3"],
    "density": ["density", *SPHERE, "--point", "0,0,1", "--patch-radius", "0.4",
                "--depth", "5", "--seed", "0"],
    "beta": ["beta", *TORUS, "--patch-radius", "0.3", "--patch-samples", "500",
             "--grid-level", "0", "--seed", "2"],
    "oscillation": ["oscillation", *SPHERE, "--point", "0,0,1",
                    "--scales", "0.1,0.2,0.4", "--pairs", "100", "--seed", "0"],
    "goodtetra-sphere": ["goodtetra", *SPHERE, "--point", "0,0,1",
                         "--rays", "1024", "--proj-rays", "100", "--seed", "0"],
    "goodtetra-torus": ["goodtetra", *TORUS, "--rays", "1024",
                        "--proj-rays", "100", "--seed", "5"],
    "goodtetra-obj": ["goodtetra", "--mesh", "<tmp>/ico.obj",
                      "--seed-vertex", "3", "--rays", "1024",
                      "--proj-rays", "100", "--seed", "0"],
    "minimize-energy": ["minimize", "--mesh", "<tmp>/ico.obj", "--mode", "energy",
                        "--cap", "100", "--iters", "3", "--p", "9", "--seed", "4"],
    "minimize-area": ["minimize", "--mesh", "<tmp>/ico.off", "--mode", "area",
                      "--cap", "1e-3", "--iters", "3", "--p", "9", "--seed", "4"],
}

# the numpy version and BLAS build the digests were taken on
HOST = {"numpy": "2.4.6",
        "blas": "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
                "Haswell MAX_THREADS=64"}

# each run's digests, of its JSON and of its CSV document
DIGESTS = {
    "integrand-menger": (
        "56334e80ca3afe07d255c99fc49a124e6aac07e85e30a10e766e179b314b5590",
        "47e4d326dca5fda49ad71106f2b56ab120f35d05ec184e90e1e47b3d8dc261a4"),
    "integrand-circumsphere": (
        "b126a2b173177520eaf34141dd866de86d04df8966d2a803a5ce4d206203e295",
        "81eba8d07e34c06dca7f38659c7e9d5e0fa7a209aeeaed8cb0523ed6c21bcb97"),
    "integrand-leger": (
        "2fe2148d19b9075262260e793ec0032ac00e1ba13be36306baae7f94f7fa9e21",
        "844a014b5b216418c4b5e4746c73f4d00dea393e8886e3fc4f99048bf65a058d"),
    "integrand-scaled": (
        "c9018ce985ebd39c2ffaf26524b9520ef490ac62a38180314b85f830d22158ff",
        "2cd7cd9d4d07476b6dc1a77d89722c6ab03330ba51cf813ce1f783ad8a5065a0"),
    "energy-sphere": (
        "e68f3c1224d4f1507b2b0cf213fdb25367060768e81326dcf85a2590b203dc5d",
        "eb843239341f840c2f030878f851d6fdd3f225c35c98673a2d8ff9e40d071665"),
    "energy-torus": (
        "6712824c1a4e351e4b595f5c806af3d54b62b59e04afcb9f22e0f8a3e970aca3",
        "7900863ea28b7549b65c9c61f604cf787246b6eeee920f8bd240045b7c13f3d3"),
    "energy-saddle": (
        "f2d4228aa34338091473c1d73f4056b4f0677f3aaf9a8166e4be45995022d49a",
        "d973f2f5610c0f31e0733ea333213e49390384b1daabf27798c4c1b7c330886d"),
    "energy-capsule": (
        "cdfd800ddb32e657bb346fe39b1bf9c5ba22f6f91d8cdf543df2b4acfae20bd9",
        "414bd3920c558fde09503d4e6f8b762b37a649186697964a3485a58bfd7ab30b"),
    "energy-obj": (
        "8537e6c2c1f53fa4169fc38ab1acced790717f6783675d7b7a90afd5da289b79",
        "7086abc7aad36ca6a48fbecb6891fa06b6125292a86efc0032dd8e1952871817"),
    "energy-off": (
        "063d7120eb2e3837d2dedc14b23901d8ee0791eea21bdd5d7722212b398a381e",
        "7086abc7aad36ca6a48fbecb6891fa06b6125292a86efc0032dd8e1952871817"),
    "local-energy": (
        "59095710a87ee3cf61fbbba39909fa8e4702337fe4eade4c4d02581dae06d7cf",
        "9e4aa1f04a672d9a1e25a4502be6b035da476fb52c51a9a49599a265fcc3c6c6"),
    "scaling": (
        "ecf79d648692f54754976e2044916e4b2f7cbb734f128396a7a49cf5ec86ee77",
        "9853d74c0472d8f948a410d206fe482113476e2f86180962904df69a93f1af02"),
    "diverge": (
        "ad35b540fe692969deeef335806f860c1e50f44e5adb55ff44017e38956a7a21",
        "83ac8345e25dd12be771944a8777f642aa88ea53a021a64cdfef348944e76e15"),
    "density": (
        "28adb951a29d1bfa06ee31e79a95a7640456cf1adda29d1eeaa86ce25558115c",
        "c99d7b268769a8f707c54546f47b253b4344cae0034e6ff2cb9f58b752cc91dd"),
    "beta": (
        "0c84ba57265cb7948c9c24c01bde21a999efba1498dc5dec504e932cfd9c51f9",
        "993ff5bad49429b10c830e1148c298ebf0166b1a27600accc44cccd18df5a7b7"),
    "oscillation": (
        "e9eafa58a1717d014c8c89568181761b2fe644b53bf833f28c3c722fb19f8e96",
        "3e292d04eb9e8333f2ee4f3946646b51eaf720b5452dfd8f1745b291bcf659d9"),
    "goodtetra-sphere": (
        "4715a0b2730fe3572c37aea0ca29a0226b85759872f346f14c0781c677e575cf",
        "1b29be79b03a41a8602af0ca45827d321f989cd30428c1ed5b887a93b7de85e0"),
    "goodtetra-torus": (
        "cbebe0ecced617d08eac0b4f5f1289843730da3bacb8607a3ae1ad921e666e45",
        "d6d328f221fc9b24856054ae8bf5c6e1b6cc9ceb8bd9635a59d992d29a16674a"),
    "goodtetra-obj": (
        "ee302b6de753bd8df90c1dba7cf4254501bb907b6e0c3d75bfa1bd22adf659cf",
        "795e7f9041beb5d7c1a4b9adafc74745b4e6536169decd971c6cf33a28d022dd"),
    "minimize-energy": (
        "7f71f16e310c8af7df451e3359628acb7d0c8f946c8edbe9de22e8fc872e68fd",
        "d57a9f004017fcbd17e4d0ff925801fb16db53411ee8f336f8f79400c990f8b2"),
    "minimize-area": (
        "0b95ed6512b43fed0400e22bcd2d5388360f817a679170e5b69e5572471e1d0b",
        "abf1339f71c277c6b3cbc6105efba801f242713de43dd5c0c42e20a6af12039e"),
}


def host():
    """This process's numpy version and BLAS build string."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": blas.get("openblas configuration",
                             f"{blas.get('name')} {blas.get('version')}")}


def document(tmp, name, fmt):
    """The bytes of one run's document, with tmp replaced by TOKEN."""
    out = tmp / f"{name}.{fmt}"
    argv = [a.replace(TOKEN, str(tmp)) for a in RUNS[name]]
    assert cli.run(argv + ["--format", fmt, "--threads", "1",
                           "--output", str(out)]) == 0
    return out.read_bytes().replace(str(tmp).encode(), TOKEN.encode())


@pytest.fixture(scope="module")
def mesh_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    ico = shapes.icosphere(1)
    save_obj(tmp / "ico.obj", ico.vertices, ico.faces)
    save_off(tmp / "ico.off", ico.vertices, ico.faces)
    return tmp


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", list(RUNS))
def test_document_digest(mesh_dir, name, fmt):
    got = hashlib.sha256(document(mesh_dir, name, fmt)).hexdigest()
    want = DIGESTS[name][("json", "csv").index(fmt)]
    here = host()
    assert got == want, (
        f"{name}.{fmt}: digest {got}, recorded {want}; "
        + ("same numpy and BLAS build" if here == HOST else
           f"recorded on numpy {HOST['numpy']} with {HOST['blas']!r}, "
           f"this host has numpy {here['numpy']} with {here['blas']!r}"))
