"""Every byte difam writes, pinned by sha256.

The command chains write family files and `.cert`s: the two chains of the
benchmark's `cli-chain` workload, a zero-sum difference matrix, and simple
lifts of the Paley SDF over GF(9) and GF(11), which take both branches of
the zero-sum subset search.  Damaged copies of a difference matrix and of
a relative family pin the failure lists of their certificates.  Four
families are pinned as `render_family` writes them.  The digests were taken
while subgroups and difference matrices still held element tuples, so they
pin that the move to code arrays changed no output.
"""

import contextlib
import hashlib
import io
import json

from difam.catalog import thm62_z5, thm62_z7
from difam.cli import run
from difam.families import zero_sum_dm
from difam.groups import AbelianGroup
from difam.io import render_family
from test_difference_oracle import _spread27

CHAIN = [
    ["catalog", "emit", "thm62-z7", "--out", "z7.json"],
    ["verify", "df", "z7.json"],
    ["develop", "z7.json", "--out", "z7-design.json"],
    ["verify", "design", "z7-design.json"],
    ["anomaly", "z7-design.json", "--p", "7"],
    ["catalog", "emit", "sigma-prime", "--out", "sp.json"],
    ["verify", "sdf", "sp.json"],
    ["lift", "sp.json", "--strategy", "simple", "--signed", "--field", "5,2,2,1,1",
     "--out", "sp-lift.json"],
    ["verify", "df", "sp-lift.json"],
    ["develop", "sp-lift.json", "--out", "sp-design.json"],
    ["verify", "design", "sp-design.json"],
    ["build", "zero-sum-dm", "--orders", "3,3", "--k", "3", "--out", "dm.json"],
    ["verify", "dm", "dm.json"],
    ["build", "paley", "--q", "7", "--out", "p7.json"],
    ["lift", "p7.json", "--strategy", "simple", "--field", "3,2", "--out", "p7-lift.json"],
    ["verify", "df", "p7-lift.json"],
    ["lift", "p7.json", "--strategy", "simple", "--field", "11,1", "--out", "p7-11.json"],
    ["verify", "df", "p7-11.json"],
    ["verify", "dm", "bad-dm.json"],
    ["verify", "df", "bad-z7.json"],
]

FILES = {
    "bad-dm.json": "d74c1cd079250f5a730ab9add14e35da31fc279be6313bfc8be4df6150aa062f",
    "bad-dm.json.cert": "1c618aafc3aed2ebb8d36b10fd06e118d51410e2e628536e7fc27fb286e39d1c",
    "bad-z7.json": "7ca54eb4ceeaae086cbbc757f1eef4090e6ca435576304fb19dfe52214b0e049",
    "bad-z7.json.cert": "73347e71f8eaf55e5ef512d063960eae07abd34b0914f3062fa5a26da0a2c67f",
    "dm.json": "e6b1dd0900d0c5617b88e1c29a336e4601cf53e166ec0a10677aa0b6ec25bd4e",
    "dm.json.cert": "feecb2bf350724da01ca2959ce5fcc38df86e046a0c555db83a29211eaac86c0",
    "p7-11.json": "278cc3ce74a7d1b2c4d5ccb77577e9209331c3da262dc1e58ac97c6b1dc15bbf",
    "p7-11.json.cert": "4ca65c19e244d61263a8e3a91509948ad8a0e61b554e3d20f88fe4b7d1d1c83b",
    "p7-lift.json": "82ce8d822515b39727db9565d05ddee392f01d2b64a145f241a8153dbf19086a",
    "p7-lift.json.cert": "4ca65c19e244d61263a8e3a91509948ad8a0e61b554e3d20f88fe4b7d1d1c83b",
    "p7.json": "3fb45c9e895fc60e9f6ab4f4189c94b5a0cde0df1bb6c9e2e4263efff26015ba",
    "sp-design.json": "a2b4966323bee7d6a16ff5beacee3db249d4ef8fb71296920e48b43d1a21f295",
    "sp-design.json.cert": "5634a1e138271c4c355072379673d4cc0d9cdb9fad9462c18d46392d79d794af",
    "sp-lift.json": "4791cea01ff4f1f9d96cd3a3d0d50e557c5d03750cc72f8dd09f4b4ca85da984",
    "sp-lift.json.cert": "93100e429c63df06da827b525d941dfd8ca3a921ccefff95d58088e13cdf9bd3",
    "sp.json": "478c839c25153920fa6c6d3c7b8e1028b75217b05dcfe213cb29fd2e41bf4e4e",
    "sp.json.cert": "57ee21e54852c8d461c8691a570001dd2ed2b0cb054b392f88748e0f3a759f70",
    "z7-design.json": "752bc2f171e8bf4cac44ba84184845d5811f6f9af38319f0b8f0850bce684e36",
    "z7-design.json.cert": "50101bec553d2b7c05a127b0e7e7aaf0dbce28d13a23696ff7d4113bba14a3f0",
    "z7.json": "26d1f574db1b0d79a5f567c7039e39b205de40d0a64b4afb31a6e3f8af2ffa0d",
    "z7.json.cert": "851a40e7ec366b9c63c971195c2b4aa5d2f0af85e1ded02170b2bf501f3020be",
}

RENDERED = {
    "zero-sum-dm-3x3": "e6b1dd0900d0c5617b88e1c29a336e4601cf53e166ec0a10677aa0b6ec25bd4e",
    "zero-sum-dm-10": "5898620cc9e85c37ea11d3ce8ad84ccadaddb6c969c726ed81a90acbbb53b81d",
    "spread27": "cd70976a66a3dd946cee0d67da9637e6e6c9418d4e6644accbbf563b9d0444f3",
    "thm62-z5": "829ad218d1980be4726c37310a623236f7b0e4429778ac585ef4d432b9de9c82",
    "thm62-z7": "26d1f574db1b0d79a5f567c7039e39b205de40d0a64b4afb31a6e3f8af2ffa0d",
}


def _damage(directory) -> None:
    """bad-dm.json: one entry of dm.json moved; bad-z7.json: one point of z7.json."""
    doc = json.loads((directory / "dm.json").read_text())
    doc["blocks"][0][0] = [1, 0]
    (directory / "bad-dm.json").write_text(json.dumps(doc, indent=1))
    doc = json.loads((directory / "z7.json").read_text())
    doc["blocks"][0][1]["f"][0] = (doc["blocks"][0][1]["f"][0] + 1) % 7
    (directory / "bad-z7.json").write_text(json.dumps(doc, indent=1))


def chain_digests(directory) -> dict:
    """Run CHAIN in `directory`; the sha256 of every file it holds after."""
    for argv in CHAIN:
        if argv[2:3] == ["bad-dm.json"]:
            _damage(directory)
        with contextlib.redirect_stdout(io.StringIO()):
            run([str(directory / a) if a.endswith(".json") else a for a in argv])
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def rendered_digests() -> dict:
    families = {
        "zero-sum-dm-3x3": zero_sum_dm(AbelianGroup((3, 3)), 3),
        "zero-sum-dm-10": zero_sum_dm(AbelianGroup((10,)), 3),
        "spread27": _spread27(),
        "thm62-z5": thm62_z5(),
        "thm62-z7": thm62_z7(),
    }
    return {name: hashlib.sha256(render_family(f).encode()).hexdigest()
            for name, f in families.items()}


def test_command_chains_write_the_pinned_bytes(tmp_path):
    assert chain_digests(tmp_path) == FILES


def test_families_render_to_the_pinned_bytes():
    assert rendered_digests() == RENDERED
