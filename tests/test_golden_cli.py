"""SHA-256 pins of canonical CLI stdout on small inputs.

Each digest fixes the exact bytes one command writes, so any rewrite of the
constructions beneath the CLI (Koszul builder, elimination, operator rows,
tensor expansion) must reproduce its output byte for byte.
"""

import hashlib
import json

import pytest

from mfcat import serialize
from mfcat.cli import main
from mfcat.factorization import MFMorphism
from mfcat.series import Series

POTENTIALS = {
    "A3": ("x", "x^4"),
    "D4": ("x,y", "x^2*y + y^3"),
    "quad": ("x,y", "x^2 + y^2"),
    "D4-GF7": ("x,y;prime(7)", "x^2*y + y^3"),
    "quadric3": ("x,y,z", "x^2 + y^2 + z^2"),
    "fermat3": ("x,y,z", "x^3 + y^3 + z^3"),
    "W12": ("x,y", "x^4 + y^5 + x^2*y^3"),
    "quartic4": ("x,y,z,w", "x^4 + y^4 + z^4 + w^4"),
}

# (case id, potential, command before the potential flags, trailing arguments)
INLINE_CASES = [
    (f"{name}-{label}", name, command, extra)
    for name in ("A3", "D4")
    for label, command, extra in (
        ("stabilize", "stabilize", []),
        ("koszul", "stabilize", ["--koszul"]),
        ("diagonal", "diagonal", []),
        ("hh", "hh", []),
        ("minimal-model", "minimal-model", ["--max-arity", "4"]),
    )
] + [
    # Koszul bytes on three and four generators
    (f"{name}-{label}", name, command, extra)
    for name in ("fermat3", "quartic4")
    for label, command, extra in (
        ("stabilize", "stabilize", []),
        ("koszul", "stabilize", ["--koszul"]),
        ("diagonal", "diagonal", []),
    )
] + [
    ("D4-GF7-minimal-model", "D4-GF7", "minimal-model", ["--max-arity", "4"]),
    ("quadric3-minimal-model", "quadric3", "minimal-model", ["--max-arity", "3"]),
    ("fermat3-minimal-model", "fermat3", "minimal-model", ["--max-arity", "4"]),
    # W12 is not quasi-homogeneous; D4 at arity 7 visits the fewest of all tuples
    ("W12-minimal-model-6", "W12", "minimal-model", ["--max-arity", "6"]),
    ("D4-minimal-model-7", "D4", "minimal-model", ["--max-arity", "7"]),
]

GOLDEN = {
    "A3-stabilize": "69642eec36e7c791570bbeb2bf1713a9849c0a1f55a2be99e843b9bb13af214f",
    "A3-koszul": "d1f0ea917daff752d5918be5c89c676a87d636027c486961ca7f3ea3b23fad81",
    "A3-diagonal": "71739f8892788f76b5bce5f6e9e384be38e8618255a872128200d24e8006e60a",
    "A3-hh": "a4941c28e380840343834213d5dc199c91fc9564102d81203da721d51b8a80ba",
    "A3-minimal-model": "4bbc7f76493f34680f1b8d68fd681a9731d342eb1b79088d9429f611bf34a0fa",
    "D4-stabilize": "10f8f845c4f0d813457779b7e845b85fcecbed33275a47bfbfe0eb87a94e5800",
    "D4-koszul": "c625c2f9d613e2f078b7885e6e1d71db6dd78ba578699a60504ffc7b309090fa",
    "D4-diagonal": "97d6c3b6bbd567c85ddf10d4aa1ac2e58e8bb94513d17f244a40b9e66cc9e20c",
    "D4-hh": "b9ba64cc957410f9290bb0aa0c6c645fe7a5a5c01bd9cc83a02b857b15b3cd3e",
    "D4-minimal-model": "968737dff2d937bd58ba9d66d75763c20160810e98098149d4a78f321469b551",
    "fermat3-stabilize": "149a4ab05a897de379fd47674484b1bfd6a5ffe0923e3f6d7b737dc14998b58b",
    "fermat3-koszul": "3fda68475e0cf0ce857fb8cf7eec3e926ade9a2dd61abe27173880b190d7b087",
    "fermat3-diagonal": "e469a554583ea0e93ecdad6a89bbdadc6927eb906b37f05596e8a944f766deb1",
    "quartic4-stabilize": "3981f1b95713a5fb2c41f05f8cd4408bcc106fabca3f80d02ed6c869126f7dd2",
    "quartic4-koszul": "88c6e745af9036390dc40b458a6b7a2fe3cd7eaa9cefa8e73fcaa69f295abf68",
    "quartic4-diagonal": "fa2fd37ded0dae4f516bd1e6042c4e2dede2fab872171e14884454303d120fa1",
    "D4-GF7-minimal-model": "74f27b05448f2a57459f4ba396ba7abefafd33d401277f5fe0b4e47d82b2aa7c",
    "quadric3-minimal-model": "1d023a7ffe2d010df5e031daa712730462b11e39b7f4a50c8858a2f5123844cf",
    "fermat3-minimal-model": "c5f3efd57c523c10559e2a1d409b6f1a2f7fc350d5f67a9b7e4e1fdb8c7e1a91",
    "W12-minimal-model-6": "eeca78a19b056f9eba44c3da8ed7247f88851d43329eefb404b9b9820074caa8",
    "D4-minimal-model-7": "17d9a38e8322ad87362c3ba77c7e8710ab0f9b000ee1f051826246df67f85a59",
    "A3-endomorphisms": "285017a02c649a094aff252898b469c13c73fd856908ed26720a057f365e68f7",
    "D4-endomorphisms": "801f4766252f6f6857307261681917297dd59ba82b993eee2c7ca362b3026669",
    "quad-transform": "6b36949a32a776b1be1c18df898304ece625b24a5fe9cc9de030df33ec5f4171",
    "A3-mod-k": "15c085e1bf755589751b6831c1892c9493df2c51257f96c98d0e59909604bc8a",
    "D4-mod-k": "8840f0a288f4fb96f03d3ab353511781008bfbe212bdc67769bc4fb6d8c98d17",
    "D4-quasi-iso-identity": "e62eb14f953e41a206bd967c268904b7469746fa1ea26af4ebec1e6b9600bc08",
    "D4-quasi-iso-x": "d3d73ce6e0178f3d48c0a9c7490f951bdf1991926cf70100625ed38e33f45c4d",
    "corpus-quick-verbose": "e017002478526878eda7ee773a4b86cb4ac0399af7a8e46cdad643d331fed205",
    "corpus-quick-A2-json": "0e005e250cc1e723b116aab50b7f881f6b82616335739e64f10c410066f0a81c",
}

# the acceptance battery beside the full `corpus-run --json` pinned in CI:
# the table path with every detail line, and one filtered entry
CORPUS_CASES = [
    ("corpus-quick-verbose", ["--quick", "--verbose"]),
    ("corpus-quick-A2-json", ["--quick", "--filter", "A2", "--json"]),
]


def stdout_of(capsys, *argv, code=0):
    got = main(list(argv))
    out = capsys.readouterr().out
    assert got == code
    return out


def potential_flags(name):
    ring, text = POTENTIALS[name]
    return ["--inline", text, "--ring", ring]


def saved(tmp_path, capsys, command, name):
    path = tmp_path / f"{name}-{command}.json"
    path.write_text(stdout_of(capsys, command, *potential_flags(name)))
    return str(path)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case, name, command, extra", INLINE_CASES, ids=[c[0] for c in INLINE_CASES])
def test_inline_commands(capsys, case, name, command, extra):
    assert digest(stdout_of(capsys, command, *potential_flags(name), *extra)) == GOLDEN[case]


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_endomorphisms(tmp_path, capsys, name):
    path = saved(tmp_path, capsys, "stabilize", name)
    out = stdout_of(capsys, "cohomology", path, "--endomorphisms")
    assert digest(out) == GOLDEN[f"{name}-endomorphisms"]


def test_transform(tmp_path, capsys):
    source = saved(tmp_path, capsys, "stabilize", "quad")
    kernel = saved(tmp_path, capsys, "diagonal", "quad")
    assert digest(stdout_of(capsys, "transform", source, kernel)) == GOLDEN["quad-transform"]


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_mod_k_cohomology(tmp_path, capsys, name):
    path = saved(tmp_path, capsys, "stabilize", name)
    assert digest(stdout_of(capsys, "cohomology", path)) == GOLDEN[f"{name}-mod-k"]


@pytest.mark.parametrize(
    "case, code",
    [("D4-quasi-iso-identity", 0), ("D4-quasi-iso-x", 4)],
    ids=["D4-quasi-iso-identity", "D4-quasi-iso-x"],
)
def test_quasi_iso(tmp_path, capsys, case, code):
    k = serialize.mf_from_obj(json.loads(stdout_of(capsys, "stabilize", *potential_flags("D4"))))
    if case.endswith("identity"):
        f = MFMorphism.identity(k)
    else:
        f = MFMorphism.scalar(k, Series.variable(k.ctx, 0))
    path = tmp_path / f"{case}.json"
    path.write_text(serialize.dumps_canonical(serialize.morphism_to_obj(f)))
    assert digest(stdout_of(capsys, "quasi-iso", str(path), code=code)) == GOLDEN[case]


@pytest.mark.parametrize("case, extra", CORPUS_CASES, ids=[c[0] for c in CORPUS_CASES])
def test_corpus_run(capsys, case, extra):
    assert digest(stdout_of(capsys, "corpus-run", *extra)) == GOLDEN[case]
