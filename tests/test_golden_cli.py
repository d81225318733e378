"""SHA-256 pins of canonical CLI stdout on small inputs.

Each digest fixes the exact bytes one command writes, so any rewrite of the
constructions beneath the CLI (Koszul builder, elimination, operator rows,
tensor expansion) must reproduce its output byte for byte.
"""

import hashlib

import pytest

from mfcat.cli import main

POTENTIALS = {
    "A3": ("x", "x^4"),
    "D4": ("x,y", "x^2*y + y^3"),
    "quad": ("x,y", "x^2 + y^2"),
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
    "A3-endomorphisms": "285017a02c649a094aff252898b469c13c73fd856908ed26720a057f365e68f7",
    "D4-endomorphisms": "801f4766252f6f6857307261681917297dd59ba82b993eee2c7ca362b3026669",
    "quad-transform": "6d285ba2f69a9093c9c37413600e5d5dadd112f3e140756eae0e5a93fb154dc8",
    "quad-transform-trunc2": "07014e9eb06e3ed96eb802b1df05bc67739ba6aec25ea62e855ed88e775f72ae",
    "quad-transform-dims": "6b36949a32a776b1be1c18df898304ece625b24a5fe9cc9de030df33ec5f4171",
}


def stdout_of(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
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


@pytest.mark.parametrize(
    "case, extra",
    [
        ("quad-transform", []),
        ("quad-transform-trunc2", ["--truncation", "2"]),
        ("quad-transform-dims", ["--dims-only"]),
    ],
)
def test_transform(tmp_path, capsys, case, extra):
    source = saved(tmp_path, capsys, "stabilize", "quad")
    kernel = saved(tmp_path, capsys, "diagonal", "quad")
    assert digest(stdout_of(capsys, "transform", source, kernel, *extra)) == GOLDEN[case]
