"""Golden digests: the SHA-256 of the bytes of every CLI document on a fixed
table of runs, as JSON and as CSV, and of every operation result of the
benchmark workloads (``perfbench/workloads.py``) at seeds 1-3.

A change that alters a document's bits on purpose updates its digests here
and names the document in CHANGES.md.  The digests depend on numpy's and the
BLAS's arithmetic, so ``HOST`` records the build they were taken on, and a
mismatch names both builds.  The temporary directory of the test's mesh files
is replaced by ``TOKEN`` before hashing (it shows in ``command`` and in
``minimize``'s config).  A workload result is hashed as the sorted JSON of
``plain(result)``, after its operation's own check has passed.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from conftest import load_perfbench
from menger_surf import cli
from menger_surf.surface import TriMesh, save_obj, save_off, shapes

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
        "c910aaf126001f994dde918858f04c58a5de89539bde9791682499bfe6de1dd9",
        "e7f4fadf9c07e711f7bc66783099f371f457a855acc9fcb3e95f183915b85c6a"),
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


# each workload's operation digests at each seed (``workload_digests``)
WORKLOAD_DIGESTS = {
    "mc-energy": {
        1: {
            "sphere/menger":
                "b75819a649921f77f60171d337294c06d4c11f59c9b7451bf09f0ed173833496",
            "sphere/circumsphere":
                "dd0ac242678bbee65fde1a52b21e619a5500984384df34704a115e6ba3c8d4de",
            "torus/menger":
                "d019e0d9ffd0bc5ee0449455176c4e63b73572afdbad1cf980ce9dc7cb8adb6b",
            "torus/circumsphere":
                "f7eff25e8f193ae8d81e8a70960b5030f211f903f55c967da24e3f87b9dad0b5",
            "icosphere4/menger":
                "7a1aac67a28c2370ad43e68a4542c2c1e0380fe430569d5bbfc5cda20a863233",
            "icosphere4/circumsphere":
                "002351b0f9138973cee6318b39c1f2edbf5909e53f83f386c6a1d67785bf6439",
        },
        2: {
            "sphere/menger":
                "1622393413d9ab8e8370d544b9651f80817f7b02d2fdbcb6dc52249bcd833c51",
            "sphere/circumsphere":
                "b63d505f5cb41c6afd62709b59979de13ec81ca21a1df98d5a341c323a41b0b6",
            "torus/menger":
                "7999621a81396b7c2ef8f76c4e7866d357d529f144fbad879bb8e7fe2a826aff",
            "torus/circumsphere":
                "005b3c28683cfbce2c85b71dab825f82e866d191a170c97e4f50e5cabaad7134",
            "icosphere4/menger":
                "146225981918ea8a84df32323d02c832cf288adc498b24e2365dea01ba7b3f75",
            "icosphere4/circumsphere":
                "132de7ea4f42175169b5b9bd138d982396c6786f094887b9ba56ef66a1955106",
        },
        3: {
            "sphere/menger":
                "3856d54e900834abaca1cb0f6e15e6ecba6813ca97a0b5de5dc95b3d84343b8b",
            "sphere/circumsphere":
                "6b698e4c9e5b010b17846cb70aabdecde3190bc6df6e1799b4acf54844e450c3",
            "torus/menger":
                "711226b260b7b8d6b611dd9d75f3f3de1b73e2e7d3754a5d3c1cf8b30cbe47ae",
            "torus/circumsphere":
                "372c30f47283bf10274ac7ab9ebd29069b3baf4f6c8c2d2d5a7d110ea233f1e9",
            "icosphere4/menger":
                "684a8bc52c056971d9485b9ecc2033d1cdbfabed6d66ddeaf34dbaca9767037a",
            "icosphere4/circumsphere":
                "bcc4e0770d8f773bf7a30783dc667827157e7db5608f4827fea823b22b370a8c",
        },
    },
    "goodtetra": {
        1: {
            "kink/central_hit_a":
                "2704081b8dbaa6456d0855795058094d4999ae2de06309a092d07db4c288ebf2",
            "kink/central_hit_b":
                "5d55e7bdb2078ad80f977b46acae02ca76ed632f4f9f03c7977d011748cc01ae",
            "kink/wide_pair":
                "2b9173d43fbb786e256ac5308577f0ff56a6384c2a60902dafa490004dd9d580",
            "kink/antipodal_3a":
                "1e939680d5469d86086240520e86e3f4d272439335c9e123bd9df779af5deae1",
            "kink/antipodal_3b":
                "f1ae19e9de0ebf06253957571a7f3805eb5912a0cc45f3959fca98193c91a7cb",
            "icosphere4/v89":
                "88a7dcd670e021b0fb2f9425514a121031ba939fa19a45a8fa03c592137ed093",
            "icosphere4/v369":
                "50fff6a56b9e2f00adefc3194c0b11d5dd49de0b86d6c29cfdeab09fa2724269",
            "torus":
                "cf193bbd8733d79ac88dfd77281fbf6bb9b3cdb86e84768a46dd58511c36386e",
            "capsule":
                "e1e6757a9ed06dad714bbe708768077f00877880eb03d3722a190731374fc4ce",
        },
        2: {
            "kink/central_hit_a":
                "2704081b8dbaa6456d0855795058094d4999ae2de06309a092d07db4c288ebf2",
            "kink/central_hit_b":
                "5d55e7bdb2078ad80f977b46acae02ca76ed632f4f9f03c7977d011748cc01ae",
            "kink/wide_pair":
                "2b9173d43fbb786e256ac5308577f0ff56a6384c2a60902dafa490004dd9d580",
            "kink/antipodal_3a":
                "1e939680d5469d86086240520e86e3f4d272439335c9e123bd9df779af5deae1",
            "kink/antipodal_3b":
                "f1ae19e9de0ebf06253957571a7f3805eb5912a0cc45f3959fca98193c91a7cb",
            "icosphere4/v2086":
                "655dbdbd9e4afefa935ae6275b3c5869985b40b2416e0b33a3e1066de34c06f4",
            "icosphere4/v1059":
                "9b0a10cf90d04cc83abf6e5bb6e31355f1d8c23549644f9af99e906973837253",
            "torus":
                "033320070e34b1dbfb02009a58fb66bba82e8625eb30286e9689c78654798270",
            "capsule":
                "e1e6757a9ed06dad714bbe708768077f00877880eb03d3722a190731374fc4ce",
        },
        3: {
            "kink/central_hit_a":
                "2704081b8dbaa6456d0855795058094d4999ae2de06309a092d07db4c288ebf2",
            "kink/central_hit_b":
                "5d55e7bdb2078ad80f977b46acae02ca76ed632f4f9f03c7977d011748cc01ae",
            "kink/wide_pair":
                "2b9173d43fbb786e256ac5308577f0ff56a6384c2a60902dafa490004dd9d580",
            "kink/antipodal_3a":
                "1e939680d5469d86086240520e86e3f4d272439335c9e123bd9df779af5deae1",
            "kink/antipodal_3b":
                "f1ae19e9de0ebf06253957571a7f3805eb5912a0cc45f3959fca98193c91a7cb",
            "icosphere4/v464":
                "a335731a9c11a43f56ca91bf18446688b87a292a0421c67f34fc9e6091778725",
            "icosphere4/v2052":
                "5aabe19f04ff41d257cd38e306f8c4f1cf67bbabe799fa43719b9f5b02068a4a",
            "torus":
                "26c326e8702c54e53a8f19085315e5c587508e9943b8432e645f59e85f2b8b58",
            "capsule":
                "e1e6757a9ed06dad714bbe708768077f00877880eb03d3722a190731374fc4ce",
        },
    },
    "anneal": {
        1: {
            "noisy-icosphere/energy-at-area":
                "43e9cbe5ce0975a3907408add8bbe571583507f36b87e60a0f0767c611dba3fa",
            "ellipsoid/area-at-energy":
                "02250360feefcb6310ab044f3508b50502399c5a9cc7c0daa565d413c9b4e694",
        },
        2: {
            "noisy-icosphere/energy-at-area":
                "f4d0b5d1d636875ebf87f2346276a6e9ac186dbc189e2ed599fd0e089703b999",
            "ellipsoid/area-at-energy":
                "af53b8ff04122ed26e7c039a0310c3e8caf69036b8bc0903314193cd699cec90",
        },
        3: {
            "noisy-icosphere/energy-at-area":
                "a4298dc4b908b8a27651ed46c7fb6908af836fbf6ea1884ff8be77508dca6e3b",
            "ellipsoid/area-at-energy":
                "87388bb0ddebebebe650c86da1f9b72a96253d093d934c1d5d4b01a88f2563e1",
        },
    },
    "patch-diagnostics": {
        1: {
            "sphere/local_energy":
                "472d1cdc585a7fa2363a9d1eff17c8c13953cf542bf3fd8dd21970fad3dc2c37",
            "sphere/density":
                "f6798e0104ea0d3ed4785e4ca11140c071af35fcd85ebfb488c9c59f00414430",
            "sphere/beta":
                "d707fee4cb84e8365365c5e41c26ea5e4edf4dc6a562059735ac169343322ad9",
            "sphere/oscillation":
                "29fbc4b0c460beeced76a5cd747d690f5f8091f625daf34a3d32b6e809f4a33f",
            "torus/local_energy":
                "b85dced3cfe35c41fd328df3b3c0932ba223dbc1f35a10def91a97d91ccfe340",
            "torus/beta":
                "301fba3ca428cce1ae863505236dd11a643cda3cc6adcb777a8c9b100710cd4c",
            "torus/oscillation":
                "f09cfa4705303d17e8c02936050da63372fbc18720585043f744e0b03594aa00",
        },
        2: {
            "sphere/local_energy":
                "f8a9ee6e2d2dcfc0e630c42817d94b0425a744d29dbaab5beacca1a568c8feea",
            "sphere/density":
                "f6798e0104ea0d3ed4785e4ca11140c071af35fcd85ebfb488c9c59f00414430",
            "sphere/beta":
                "c964eaf46b54476c63512b540ed37a1824067e29aa5d8a4309b40fe190af6041",
            "sphere/oscillation":
                "9028df4aa1d5737c66d18f57876512f3366b4753ce16ab3835bfa8e03f96af6c",
            "torus/local_energy":
                "7df6f78e1fc2c61b108f91dc1588325503a7776c483ccfc0ed0aa56604739f2e",
            "torus/beta":
                "38c077d29688225280d488acfffe685b5e060e8ad37f97f1339674ae15d7b834",
            "torus/oscillation":
                "968ad1f15ea8e3ead3c019160982b0c7e6cbd671caf05bf197b289e939e2b606",
        },
        3: {
            "sphere/local_energy":
                "030d4588292d3be69192452b2163d85e4af2c71779a960d0b1be52642d81558c",
            "sphere/density":
                "f6798e0104ea0d3ed4785e4ca11140c071af35fcd85ebfb488c9c59f00414430",
            "sphere/beta":
                "d399e72ee51976a5b0e2ecfcf649f3446e22cd1557bba499d3919a6ff3c01443",
            "sphere/oscillation":
                "5b2adf792b5eeefc957cdce3b8bf12860fa088d6e36014eb292210654509ae8b",
            "torus/local_energy":
                "74c6f76312fc716c94ad4a83d30d0eba0e972d0f2735c8d1587ac8f86e120880",
            "torus/beta":
                "02eb27b81d2935a49eab5327f6ee55804b2df5cb4b9bd10fa37d0f13ad0b94c7",
            "torus/oscillation":
                "893352d77d47166b4ea869567e4c678d2728923540cf0875cf42fb21dbff97d9",
        },
    },
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


def plain(value):
    """value as JSON data: a dataclass as its fields, a TriMesh as its
    vertices and faces, an array as its dtype, shape and bytes in hex."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, TriMesh):
        return {"vertices": plain(value.vertices), "faces": plain(value.faces)}
    if isinstance(value, np.ndarray):
        return {"dtype": value.dtype.str, "shape": list(value.shape),
                "hex": value.tobytes().hex()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


@pytest.fixture(scope="module")
def workloads():
    return load_perfbench("workloads")


def workload_digests(workloads, name, seed, tmp):
    """Each operation's name and result digest, for one round of the named
    workload with its inputs drawn at seed, as ``perfbench/run.py`` draws
    them; every result must pass its operation's check."""
    wl = workloads.WORKLOADS[name]
    env = wl.setup(wl.inputs(np.random.default_rng(seed), tmp),
                   lambda span, fn, *args: fn(*args))
    got = {}
    for op in wl.ops(env, 1):
        out = op.call()
        assert op.check(out) is None, (name, seed, op.name, op.check(out))
        text = json.dumps(plain(out), sort_keys=True)
        got[op.name] = hashlib.sha256(text.encode()).hexdigest()
    return got


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", list(WORKLOAD_DIGESTS))
def test_workload_digest(workloads, tmp_path, name, seed):
    got = workload_digests(workloads, name, seed, tmp_path)
    want = WORKLOAD_DIGESTS[name][seed]
    here = host()
    assert got == want, (
        f"{name} at seed {seed}: "
        + ("same numpy and BLAS build" if here == HOST else
           f"recorded on numpy {HOST['numpy']} with {HOST['blas']!r}, "
           f"this host has numpy {here['numpy']} with {here['blas']!r}"))
