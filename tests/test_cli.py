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


@pytest.mark.parametrize("text", ["x", "0"], ids=["unit-witness", "zero"])
def test_stabilize_koszul_precondition_exit(capsys, text):
    code, out, err = run(capsys, "stabilize", "--koszul", "--inline", text, "--ring", "x,y")
    assert code == 3 and out == ""
    assert "potential must be nonzero and lie in m^2" in err


def test_diagonal(capsys):
    code, out, _ = run(capsys, "diagonal", "--inline", "x^2", "--ring", "x")
    obj = json.loads(out)
    assert code == 0 and obj["ring"]["variables"] == ["x", "x'"]


def test_hh(capsys):
    # A2, and E7 with a non-integral coefficient
    for text, ring, dims, parity in (("x^3", "x", 2, 1), ("x^3 + 1/2*x*y^3", "x,y", 7, 0)):
        code, out, _ = run(capsys, "hh", "--inline", text, "--ring", ring)
        assert code == 0
        assert json.loads(out) == {
            "hh_even": dims,
            "hh_odd": 0,
            "milnor": dims,
            "tyurina": dims,
            "hh_homology_parity": parity,
            "hp": dims,
        }


def test_hh_stabilization_exit(capsys, monkeypatch):
    monkeypatch.setenv("MFCAT_NMAX", "8")
    code, _, err = run(capsys, "hh", "--inline", "x^2*y", "--ring", "x,y")
    assert code == 5 and "stabilization" in err


@pytest.mark.parametrize("text, ring", [("x^7", "x;prime(7)"), ("x^7+y^2", "x,y;prime(7)")])
def test_hh_vanishing_partial_is_a_precondition(capsys, text, ring):
    # dw/dx = 7x^6 = 0 in characteristic 7: the Jacobian ideal is not m-primary
    code, out, err = run(capsys, "hh", "--inline", text, "--ring", ring)
    assert code == 3 and out == ""
    assert "dw/dx vanishes identically in characteristic 7" in err


@pytest.mark.parametrize(
    "ring, env, term, ring_obj",
    [
        ("x;prime(4)", None, None, None),
        ("x;prime(x)", None, None, None),
        ("x;trunc=abc", None, None, None),
        ("x;trunc=32", None, None, None),
        ("x;prime(7", None, None, None),
        ("x;prime(7);prime(5)", None, None, None),
        ("x;rational;prime(7)", None, None, None),
        ("x;prime:7", None, None, None),
        (";prime(7)", None, None, None),
        (";rational", None, None, None),
        ("x y", None, None, None),
        ("x,,y", None, None, None),
        ("x;;prime(7)", None, None, None),
        ("x", "abc", None, None),
        ("x", "0", None, None),
        ("x", "-3", None, None),
        (None, None, [[2.5], "1"], None),
        (None, None, [[2.0], "1"], None),
        (None, None, [[True], "1"], None),
        (None, None, [[1], True], None),
        (None, None, None, {"truncation": True}),
        (None, None, None, {"truncation": 2.5}),
        (None, None, None, {"truncation": 4.0}),
        (None, None, None, {"truncation": 0}),
        (None, None, None, {"truncation": 2}),
        (None, None, None, {"field": 5}),
        (None, None, None, {"field": None}),
        (None, None, None, {"variables": "x"}),
        (None, None, None, {"variables": [1]}),
    ],
    ids=[
        "composite-prime",
        "non-integer-prime",
        "non-integer-trunc",
        "inline-truncation",
        "unclosed-prime",
        "two-fields",
        "rational-and-prime",
        "colon-prime",
        "field-without-variables",
        "rational-without-variables",
        "space-in-variable",
        "empty-variable",
        "empty-component",
        "non-integer-nmax",
        "zero-nmax",
        "negative-nmax",
        "fractional-exponent",
        "float-exponent",
        "boolean-exponent",
        "boolean-coefficient",
        "boolean-truncation",
        "fractional-truncation",
        "float-truncation",
        "zero-truncation",
        "integer-truncation",
        "integer-field",
        "null-field",
        "string-variables",
        "integer-variable",
    ],
)
def test_malformed_input_exit(tmp_path, capsys, monkeypatch, ring, env, term, ring_obj):
    if env is not None:
        monkeypatch.setenv("MFCAT_NMAX", env)
    if ring is not None:
        argv = ["hh", "--inline", "x^3", "--ring", ring]
    else:
        # K of x^4 (phi = x, psi = x^3) with the one term of phi or a key of
        # the ring object replaced; a truncation of 2 would drop x^3 and x^4
        x = Series.variable(RingCtx(("x",), QQ), 0)
        obj = serialize.mf_to_obj(stabilize_residue_field(x ** 4))
        if term is not None:
            obj["phi"][0][0] = [term]
        if ring_obj is not None:
            obj["ring"].update(ring_obj)
        path = tmp_path / "mf.json"
        path.write_text(serialize.dumps_canonical(obj))
        argv = ["verify", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and "parse error" in err and out == ""


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
    ctx = RingCtx(("x",), QQ)
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
    ctx = RingCtx(("x",), QQ)
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


@pytest.mark.parametrize(
    "command, text, ring, dims",
    [("stabilize", "x^40", "x", (1, 1)), ("diagonal", "x^2+y^2+z^2", "x,y,z", (1, 0))],
    ids=["endK-x40", "endDiag-quadric3"],
)
def test_endomorphisms_end_at_the_serre_stop(tmp_path, capsys, monkeypatch, command, text, ring, dims):
    # the zero-run scan exits 5 on x^40 at the default cap, and scans the
    # quadric's diagonal to strand 24 (about 1 GiB) to confirm strand 0
    monkeypatch.delenv("MFCAT_NMAX", raising=False)
    code, out, _ = run(capsys, command, "--inline", text, "--ring", ring)
    assert code == 0
    path = tmp_path / "mf.json"
    path.write_text(out)
    code, out, _ = run(capsys, "cohomology", str(path), "--endomorphisms")
    assert code == 0
    assert json.loads(out) == {"mode": "endomorphisms-over-ring", "even": dims[0], "odd": dims[1]}


def test_hh_ends_at_the_jacobian_top_degree(capsys, monkeypatch):
    monkeypatch.delenv("MFCAT_NMAX", raising=False)
    code, out, _ = run(capsys, "hh", "--inline", "x^40", "--ring", "x")
    assert code == 0 and (json.loads(out)["hh_even"], json.loads(out)["hh_odd"]) == (39, 0)


@pytest.mark.parametrize("text, ring, mu", [("x^8+y^8+z^8", "x,y,z", 343), ("x^4+y^4+z^4+w^4", "x,y,z,w", 81)])
def test_hh_of_large_jacobian_algebras(capsys, monkeypatch, text, ring, mu):
    monkeypatch.delenv("MFCAT_NMAX", raising=False)
    code, out, _ = run(capsys, "hh", "--inline", text, "--ring", ring)
    report = json.loads(out)
    assert code == 0 and (report["hh_even"], report["hh_odd"]) == (mu, 0)
    assert report["milnor"] == report["tyurina"] == mu


@pytest.mark.parametrize("text, ring", [("x^2*y", "x,y"), ("x^2*y+y^3", "x,y;prime(3)")])
def test_hh_non_isolated_exits_at_the_default_cap(capsys, monkeypatch, text, ring):
    # x^2*y is singular along a line; over GF(3) the partials 2xy and x^2 are not m-primary
    monkeypatch.delenv("MFCAT_NMAX", raising=False)
    code, out, err = run(capsys, "hh", "--inline", text, "--ring", ring)
    assert code == 5 and out == "" and "stabiliz" in err


@pytest.mark.parametrize(
    "ring, text, graded, dims",
    [("x,y", "1/2*x^2*y + 1/3*y^3", True, (2, 2)), ("x", "x^12 + 1/2*x^13", False, (1, 1))],
    ids=["strand-route", "two-cap-route"],
)
def test_endomorphisms_with_non_integral_coefficients(tmp_path, capsys, ring, text, graded, dims):
    from mfcat.complexes import detect_grading, hom_complex

    code, out, _ = run(capsys, "stabilize", "--inline", text, "--ring", ring)
    assert code == 0
    k = serialize.mf_from_obj(json.loads(out))
    assert (detect_grading(hom_complex(k, k)) is not None) == graded
    path = tmp_path / "k.json"
    path.write_text(out)
    code, out, _ = run(capsys, "cohomology", str(path), "--endomorphisms")
    obj = json.loads(out)
    assert code == 0 and (obj["even"], obj["odd"]) == dims


def test_transform(tmp_path, capsys):
    from mfcat.stabilize import stabilized_diagonal

    ctx = RingCtx(("x",), QQ)
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

    ctx = RingCtx(("x",), QQ)
    w = Series.variable(ctx, 0) ** 3
    path = tmp_path / "w.json"
    path.write_text(serialize.dumps_canonical(serialize.potential_to_obj(w)))
    code, out, _ = run(capsys, "hh", "--potential", str(path))
    assert code == 0 and json.loads(out)["milnor"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "FILE"],
        ["cohomology", "FILE"],
        ["cohomology", "FILE", "--endomorphisms"],
        ["transform", "FILE", "FILE"],
        ["quasi-iso", "FILE"],
        ["hh", "--potential", "FILE"],
    ],
    ids=["verify", "cohomology", "endomorphisms", "transform", "quasi-iso", "potential"],
)
def test_non_object_json_exit(tmp_path, capsys, argv):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 2 and "expected a JSON object" in err and out == ""


@pytest.mark.parametrize(
    "argv", [["verify"], ["cohomology", "--endomorphisms"]], ids=["verify", "endomorphisms"]
)
@pytest.mark.parametrize(
    "fields, message",
    [({"rank": 0, "phi": [], "psi": []}, "rank 0"), ({"phi": 5, "psi": 5}, "bad matrix object")],
    ids=["rank-0", "non-list-matrix"],
)
def test_malformed_factorization_exit(tmp_path, capsys, argv, fields, message):
    obj = serialize.mf_to_obj(elliptic_factorization())
    obj.update(fields)
    path = tmp_path / "mf.json"
    path.write_text(serialize.dumps_canonical(obj))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and message in err and out == ""


def test_cohomology_and_transform_check_factorization(tmp_path, capsys):
    ctx = RingCtx(("x",), QQ)
    x = Series.variable(ctx, 0)
    # phi = x, psi = x^2 multiply to x^3, not w = 1
    obj = serialize.mf_to_obj(stabilize_residue_field(x ** 3))
    obj["potential"] = [[[0], "1"]]
    bad = tmp_path / "bad.json"
    bad.write_text(serialize.dumps_canonical(obj))
    good = write_mf(tmp_path, stabilize_residue_field(x ** 2), "good.json")
    for argv in (
        ["cohomology", str(bad), "--endomorphisms"],
        ["cohomology", str(bad)],
        ["transform", str(bad), good],
        ["transform", good, str(bad)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == "", argv
        assert "bad.json: phi*psi is not w*id at entry (0, 0)" in err
