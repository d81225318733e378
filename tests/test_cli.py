import json

import pytest

from mfcat import serialize
from mfcat.cli import main
from mfcat.corpus import elliptic_factorization
from mfcat.fields import QQ
from mfcat.series import RingCtx, Series
from mfcat.stabilize import stabilize_residue_field


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_mf(tmp_path, mf, name="mf.json"):
    path = tmp_path / name
    path.write_text(serialize.dumps_canonical(serialize.mf_to_obj(mf)))
    return str(path)


def test_verify_ok_and_fail(tmp_path, capsys):
    path = write_mf(tmp_path, elliptic_factorization())
    code, out, _ = run(capsys, "verify", path)
    assert code == 0 and json.loads(out)["verified"] is True

    obj = serialize.mf_to_obj(elliptic_factorization())
    obj["psi"][0][0] = [[[0, 0, 0], "1"]]  # corrupt one entry
    bad = tmp_path / "bad.json"
    bad.write_text(serialize.dumps_canonical(obj))
    code, out, _ = run(capsys, "verify", str(bad))
    report = json.loads(out)
    assert code == 4 and report["verified"] is False
    assert "failure" in report and report["failure"]["row"] == 0


def test_verify_parse_error(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2 and "parse error" in err


def test_stabilize_inline(capsys):
    code, out, _ = run(capsys, "stabilize", "--inline", "x^2", "--ring", "x")
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == 1
    assert obj["phi"] == [[[[[1], "1"]]]] and obj["psi"] == [[[[[1], "1"]]]]


def test_stabilize_koszul_flag(capsys):
    code, out, _ = run(capsys, "stabilize", "--inline", "x^2*y + y^3", "--ring", "x,y", "--koszul")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["generators"]) == 2


def test_stabilize_precondition_exit(capsys):
    code, _, err = run(capsys, "stabilize", "--inline", "x", "--ring", "x")
    assert code == 3 and "precondition" in err


def test_diagonal(capsys):
    code, out, _ = run(capsys, "diagonal", "--inline", "x^2", "--ring", "x")
    obj = json.loads(out)
    assert code == 0 and obj["ring"]["variables"] == ["x", "x'"]


def test_hh(capsys):
    code, out, _ = run(capsys, "hh", "--inline", "x^3", "--ring", "x")
    assert code == 0
    assert json.loads(out) == {
        "hh_even": 2,
        "hh_odd": 0,
        "milnor": 2,
        "tyurina": 2,
        "hh_homology_parity": 1,
        "hp": 2,
    }


def test_hh_stabilization_exit(capsys, monkeypatch):
    monkeypatch.setenv("MFCAT_NMAX", "8")
    code, _, err = run(capsys, "hh", "--inline", "x^2*y", "--ring", "x,y")
    assert code == 5 and "stabilization" in err


@pytest.mark.parametrize(
    "ring, env",
    [
        ("x;prime(4)", None),
        ("x;prime(x)", None),
        ("x;trunc=abc", None),
        ("x", "abc"),
    ],
    ids=["composite-prime", "non-integer-prime", "non-integer-trunc", "non-integer-nmax"],
)
def test_malformed_input_exit(capsys, monkeypatch, ring, env):
    if env is not None:
        monkeypatch.setenv("MFCAT_NMAX", env)
    code, _, err = run(capsys, "hh", "--inline", "x^3", "--ring", ring)
    assert code == 2 and "parse error" in err


def test_minimal_model(capsys):
    code, out, _ = run(
        capsys, "minimal-model", "--inline", "x^2 + x^3", "--ring", "x", "--max-arity", "3"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["basis"] == ["1", "D1"]
    cubic = [p for p in obj["products"] if p["arity"] == 3 and p["args"] == [1, 1, 1]]
    assert len(cubic) == 1
    value = [QQ.of(v) for v in cubic[0]["value"]]
    assert abs(value[0]) == 1 and value[1] == 0


def test_quasi_iso(tmp_path, capsys):
    ctx = RingCtx(("x",), QQ, None)
    k = stabilize_residue_field(Series.variable(ctx, 0) ** 3)
    from mfcat.factorization import MFMorphism

    good = tmp_path / "id.json"
    good.write_text(serialize.dumps_canonical(serialize.morphism_to_obj(MFMorphism.identity(k))))
    code, out, _ = run(capsys, "quasi-iso", str(good))
    assert code == 0 and json.loads(out)["quasi_iso"] is True

    zero = tmp_path / "zero.json"
    zero.write_text(serialize.dumps_canonical(serialize.morphism_to_obj(MFMorphism.zero(k, k))))
    code, out, _ = run(capsys, "quasi-iso", str(zero))
    assert code == 4 and json.loads(out)["quasi_iso"] is False


def test_cohomology(tmp_path, capsys):
    ctx = RingCtx(("x",), QQ, None)
    k = stabilize_residue_field(Series.variable(ctx, 0) ** 3)
    path = write_mf(tmp_path, k)
    code, out, _ = run(capsys, "cohomology", path)
    assert code == 0 and json.loads(out) == {"mode": "mod-k", "even": 1, "odd": 1}
    code, out, _ = run(capsys, "cohomology", path, "--endomorphisms")
    assert code == 0 and json.loads(out) == {
        "mode": "endomorphisms-over-ring",
        "even": 1,
        "odd": 1,
    }


def test_transform(tmp_path, capsys):
    from mfcat.stabilize import stabilized_diagonal

    ctx = RingCtx(("x",), QQ, None)
    w = Series.variable(ctx, 0) ** 2
    x_path = write_mf(tmp_path, stabilize_residue_field(w), "x.json")
    t_path = write_mf(tmp_path, stabilized_diagonal(w), "t.json")
    code, out, _ = run(capsys, "transform", x_path, t_path, "--dims-only")
    assert code == 0 and json.loads(out) == {"even": 1, "odd": 1}
    code, out, _ = run(capsys, "transform", x_path, t_path, "--truncation", "3")
    obj = json.loads(out)
    assert code == 0 and obj["up_to_quasi_isomorphism"] is True
    assert obj["ring"]["variables"] == ["x'"]


def test_corpus_run_filtered(capsys):
    code, out, _ = run(capsys, "corpus-run", "--filter", "A2", "--quick")
    assert code == 0
    assert "13/13 criteria passed" in out


def test_corpus_run_json(capsys):
    code, out, _ = run(capsys, "corpus-run", "--filter", "quad-2var", "--quick", "--json")
    assert code == 0
    results = json.loads(out)
    assert len(results) == 13 and all(r["passed"] for r in results)


def test_byte_determinism_across_runs(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "stabilize", "--inline", "x^2*y + y^3", "--ring", "x,y")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_table_flag(capsys):
    code, out, _ = run(capsys, "corpus-run", "--filter", "A1", "--quick", "--table")
    assert code == 0 and "criteria passed" in out


def test_potential_file_input(tmp_path, capsys):
    from mfcat.series import RingCtx, Series

    ctx = RingCtx(("x",), QQ, None)
    w = Series.variable(ctx, 0) ** 3
    path = tmp_path / "w.json"
    path.write_text(serialize.dumps_canonical(serialize.potential_to_obj(w)))
    code, out, _ = run(capsys, "hh", "--potential", str(path))
    assert code == 0 and json.loads(out)["milnor"] == 2
