import argparse
import contextlib
import copy
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcat import serialize
from mfcat.cli import COMMANDS, build_parser, main
from mfcat.corpus import elliptic_factorization
from mfcat.factorization import MatrixFactorization, MFMorphism, RMatrix
from mfcat.fields import QQ
from mfcat.series import RingCtx, Series
from mfcat.stabilize import stabilize_residue_field, stabilized_diagonal


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


@pytest.mark.parametrize(
    "command, text",
    [(["stabilize", "--koszul"], "x"), (["stabilize", "--koszul"], "0"), (["diagonal"], "0")],
    ids=["unit-witness", "zero", "diagonal"],
)
def test_stabilize_koszul_precondition_exit(capsys, command, text):
    code, out, err = run(capsys, *command, "--inline", text, "--ring", "x,y")
    assert code == 3 and out == ""
    assert "potential must be nonzero and lie in m^2" in err


def test_diagonal(capsys):
    code, out, _ = run(capsys, "diagonal", "--inline", "x^2", "--ring", "x")
    obj = json.loads(out)
    assert code == 0 and obj["ring"]["variables"] == ["x", "x'"]


def test_hh(capsys):
    # A2, E7 with a non-integral coefficient, and W12, which is not
    # quasi-homogeneous, so its Tyurina number is below its Milnor number
    for text, ring, mu, tau, parity in (
        ("x^3", "x", 2, 2, 1),
        ("x^3 + 1/2*x*y^3", "x,y", 7, 7, 0),
        ("x^4+y^5+x^2*y^3", "x,y", 12, 11, 0),
        ("x^4+y^5+x^2*y^3", "x,y;prime(7)", 12, 11, 0),
    ):
        code, out, _ = run(capsys, "hh", "--inline", text, "--ring", ring)
        assert code == 0
        assert json.loads(out) == {
            "hh_even": mu,
            "hh_odd": 0,
            "milnor": mu,
            "tyurina": tau,
            "hh_homology_parity": parity,
            "hp": mu,
        }


def test_hh_stabilization_exit(capsys, monkeypatch):
    monkeypatch.setenv("MFCAT_NMAX", "8")
    code, _, err = run(capsys, "hh", "--inline", "x^2*y", "--ring", "x,y")
    assert code == 5 and "stabilization" in err


def test_out_of_memory_exits_5(tmp_path, capsys, monkeypatch):
    def exhausted(x, y):
        raise MemoryError

    monkeypatch.setattr("mfcat.cli.hom_cohomology", exhausted)
    w = Series.variable(RingCtx(("x",), QQ), 0) ** 3
    path = write_mf(tmp_path, stabilize_residue_field(w))
    code, out, err = run(capsys, "cohomology", path, "--endomorphisms")
    assert code == 5 and out == ""
    assert err.startswith("out of memory") and "Traceback" not in err


def test_out_of_memory_names_the_two_cap_level(tmp_path, capsys, monkeypatch):
    # End(K) of x^2+y^30 is ungraded, so its first two-cap level is 2n + 2 = 122
    # for n = 2(29 + 1), and End(K) of rank 8 has 8 * C(2 + 122, 2) vectors there
    def exhausted(ctx, columns, top):
        raise MemoryError

    monkeypatch.setattr("mfcat.complexes._level_profile", exhausted)
    w = serialize.parse_potential_text(RingCtx(("x", "y"), QQ), "x^2+y^30")
    path = write_mf(tmp_path, stabilize_residue_field(w))
    code, out, err = run(capsys, "cohomology", path, "--endomorphisms")
    assert code == 5 and out == ""
    assert err == (
        "out of memory before the computation finished: "
        "two-cap level 122 needs 61,008 basis vectors per parity\n"
    )


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
        (None, None, None, {"variables": []}),
        (None, None, None, {"variables": ["x", "x"]}),
        (None, None, None, {"rank": True}),
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
        "empty-variables",
        "duplicate-variables",
        "boolean-rank",
    ],
)
def test_malformed_input_exit(tmp_path, capsys, monkeypatch, ring, env, term, ring_obj):
    if env is not None:
        monkeypatch.setenv("MFCAT_NMAX", env)
    if ring is not None:
        argv = ["hh", "--inline", "x^3", "--ring", ring]
    else:
        # K of x^4 (phi = x, psi = x^3) with the one term of phi, a key of
        # the ring object or the declared rank replaced; a truncation of 2
        # would drop x^3 and x^4
        x = Series.variable(RingCtx(("x",), QQ), 0)
        obj = serialize.mf_to_obj(stabilize_residue_field(x ** 4))
        if term is not None:
            obj["phi"][0][0] = [term]
        for key, value in (ring_obj or {}).items():
            (obj if key == "rank" else obj["ring"])[key] = value
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


def test_minimal_model_stops_after_the_last_kept_arity(capsys):
    # x^3 keeps no tuple above arity 2, so the walk ends after arity 4 and a
    # huge --max-arity gives the bytes of --max-arity 4; before the proven
    # stop this command never ended
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "mfcat.cli", "minimal-model", "--inline", "x^3", "--ring", "x"]
    huge = subprocess.run(
        argv + ["--max-arity", "100000000000000000000"], capture_output=True, env=env, timeout=30
    )
    code, out, _ = run(capsys, *argv[3:], "--max-arity", "4")
    assert huge.returncode == code == 0 and huge.stdout.decode() == out


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


def test_quasi_iso_checks_both_ends(tmp_path, capsys):
    # (1, x) over x^3 is no factorization: phi psi = x, not x^3
    ctx = RingCtx(("x",), QQ)
    x = Series.variable(ctx, 0)
    bad = MatrixFactorization(ctx, x ** 3, RMatrix.identity(ctx, 1), RMatrix(ctx, [[x]]))
    good = MatrixFactorization(ctx, x ** 3, RMatrix(ctx, [[x]]), RMatrix(ctx, [[x ** 2]]))
    one = RMatrix.identity(ctx, 1)
    for source, target, end in ((bad, bad, "source"), (good, bad, "target")):
        path = tmp_path / f"{end}.json"
        f = MFMorphism(source, target, "even", one, one)
        path.write_text(serialize.dumps_canonical(serialize.morphism_to_obj(f)))
        code, out, err = run(capsys, "quasi-iso", str(path))
        assert code == 4 and out == "", end
        assert f"{end}.json {end}: phi*psi is not w*id at entry (0, 0)" in err


@pytest.mark.parametrize("shape", [(2, 1), (1, 2)])
def test_quasi_iso_rejects_a_misshapen_morphism(tmp_path, capsys, shape):
    # the identity of K of x^3 (rank 1) with `a` made 2x1 or 1x2: one exit
    # code for both, not the verdict of whichever product meets it first
    ctx = RingCtx(("x",), QQ)
    k = stabilize_residue_field(Series.variable(ctx, 0) ** 3)
    obj = serialize.morphism_to_obj(MFMorphism.identity(k))
    rows, cols = shape
    obj["a"] = [[obj["a"][0][0]] * cols for _ in range(rows)]
    path = tmp_path / "f.json"
    path.write_text(serialize.dumps_canonical(obj))
    code, out, err = run(capsys, "quasi-iso", str(path))
    assert code == 3 and out == ""
    assert f"morphism matrix a is {rows}x{cols}" in err


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


@pytest.mark.parametrize(
    "command, extra",
    [("hh", ()), ("stabilize", ()), ("stabilize", ("--koszul",)), ("diagonal", ()),
     ("minimal-model", ("--max-arity", "3"))],
)
def test_inline_with_a_leading_minus(capsys, command, extra):
    # argparse reads a value that starts with '-' as an option; both spellings
    # must give the same bytes
    spaced = run(capsys, command, "--inline", "-x^3+y^4", "--ring", "x,y", *extra)
    joined = run(capsys, command, "--inline=-x^3+y^4", "--ring", "x,y", *extra)
    assert spaced[0] == 0 and spaced == joined


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
    code, out, _ = run(capsys, "transform", x_path, t_path)
    assert code == 0 and json.loads(out) == {"even": 1, "odd": 1}
    for gone in (["--dims-only"], ["--truncation", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(["transform", x_path, t_path, *gone])
        assert exc.value.code == 2


def test_parser_is_built_once(capsys, monkeypatch):
    assert build_parser() is build_parser()
    argv = ["hh", "--inline", "x^2", "--ring", "x"]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    assert main(argv) == 0
    assert built == []


def _parse_outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [["--help"], *([name, "--help"] for name in COMMANDS),
     [], ["bogus"], ["hh", "--bogus"], ["transform", "a.json"]],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_cli_surface_is_the_all_commands_parsers(argv):
    # main builds only the parser of the command it is given; what it prints
    # and its exit code are those of the parser of all nine commands
    code, out, err = _parse_outcome(main, argv)
    assert (code, out, err) == _parse_outcome(build_parser().parse_args, argv)
    if "--help" in argv:
        assert code == 0 and out.startswith("usage: mfcat ") and err == ""
    else:
        assert code == 2 and out == "" and "mfcat" in err


def test_cli_import_path():
    # only corpus-run loads the corpus, and nothing loads dataclasses or
    # inspect; every module the benchmark's tracer rebinds from sys.modules
    # is loaded by the import itself
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "perfbench"))
    import layertrace

    sys.path.pop(0)
    traced = {*layertrace.SPANS, layertrace.SPAN_ALL_PUBLIC}
    traced.update(module for module, _, _ in layertrace.COUNTED.values())
    code = "import sys; sys.path.insert(0, sys.argv[1]); from mfcat import cli; print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(root / "src")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(proc.stdout.split())
    assert not loaded & {"mfcat.corpus", "dataclasses", "inspect"}
    assert traced <= loaded, sorted(traced - loaded)


def test_transform_of_k_by_its_diagonal_at_the_default_cap(tmp_path, capsys, monkeypatch):
    # the scan of X (x) T0 ended by the run of empty strands and exited 5 here;
    # as Hom(dual(T0), K) it ends at the Serre stop
    monkeypatch.delenv("MFCAT_NMAX", raising=False)
    paths = []
    for command in ("stabilize", "diagonal"):
        code, out, _ = run(capsys, command, "--inline", "x^32", "--ring", "x")
        assert code == 0
        paths.append(tmp_path / f"{command}.json")
        paths[-1].write_text(out)
    code, out, _ = run(capsys, "transform", *map(str, paths))
    assert code == 0 and json.loads(out) == {"even": 1, "odd": 1}


def test_transform_kernel_output_potential_with_constant_term(tmp_path, capsys):
    from mfcat.factorization import trivial_mf

    ctx = RingCtx(("x", "x'"), QQ)
    x, y = Series.variable(ctx, 0), Series.variable(ctx, 1)
    src = RingCtx(("x",), QQ)
    k_path = write_mf(tmp_path, stabilize_residue_field(Series.variable(src, 0) ** 3))
    t_path = write_mf(tmp_path, trivial_mf(ctx, y ** 3 - x ** 3 + Series.one(ctx)), "t.json")
    code, out, err = run(capsys, "transform", k_path, t_path)
    assert code == 3 and out == ""
    assert "kernel output potential w'(y) has constant term 1" in err


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


def test_cohomology_of_a_reduction_that_is_not_a_complex(tmp_path, capsys):
    # (1, 1 + x) factors w = 1 + x, which is not in m, so d^2 = 1 mod m
    ctx = RingCtx(("x",), QQ)
    one, x = Series.one(ctx), Series.variable(ctx, 0)
    mf = MatrixFactorization(ctx, one + x, RMatrix(ctx, [[one]]), RMatrix(ctx, [[one + x]]))
    path = write_mf(tmp_path, mf)
    code, out, err = run(capsys, "cohomology", path)
    assert code == 4 and out == ""
    assert "reduction is not a complex" in err


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


# -- fuzzing main -------------------------------------------------------------

_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.floats(allow_nan=False)
    | st.sampled_from(["1", "-2", "1/2", "1/0", "x", "", "rational", "prime:7", "prime:4"])
)
_JSON_KEYS = st.sampled_from(["ring", "potential", "rank", "phi", "psi", "source", "target", "parity", "a", "b"])
_JSON_VALUES = st.recursive(
    _JSON_LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_KEYS, inner, max_size=2), max_leaves=6
)


@st.composite
def _inline_case(draw):
    """argv and MFCAT_NMAX for a potential command on a short expression:
    all three valid, or one of them malformed."""
    names = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3, unique=True))
    bad = draw(st.sampled_from([None, None, None, "ring", "expr", "nmax"]))
    if bad == "ring":
        spec = draw(st.sampled_from([";prime(4)", ";prime(0)", ";bogus", ";"]).map(",".join(names).__add__)
                    | st.text("xyz,;() 17", max_size=8))
    else:
        spec = ",".join(names) + draw(st.sampled_from(["", ";rational", ";prime(7)", ";prime(2)", ";prime(3)"]))
    coefficients = ["", "", "2*", "-", "1/2*"] + (["0*", "3/0*", "q*", "(", "^"] if bad == "expr" else [])
    power = st.tuples(st.sampled_from(names), st.integers(1, 4)).map("{0[0]}^{0[1]}".format)
    term = st.tuples(st.sampled_from(coefficients), st.lists(power, min_size=1, max_size=3).map("*".join))
    expr = st.lists(term.map("".join), min_size=1, max_size=3).map(" + ".join)
    if bad == "expr":
        expr |= st.text("xyz0123456789^*+-()/ ", max_size=12)
    command = draw(
        st.sampled_from([["stabilize"], ["stabilize", "--koszul"], ["diagonal"], ["hh"]])
        | st.integers(1, 4).map(lambda a: ["minimal-model", "--max-arity", str(a)])
    )
    nmax = draw(st.sampled_from(["0", "-1", "abc", "1.5"] if bad == "nmax" else ["1", "6", "12"]))
    return [*command, "--inline", draw(expr), "--ring", spec], nmax, {}


@functools.cache
def _fuzz_seeds():
    """Valid factorization objects, a transform's (source, kernel) pair and
    morphism objects of small potentials, to mutate."""
    ctx = RingCtx(("x", "y"), QQ)
    x, y = Series.variable(ctx, 0), Series.variable(ctx, 1)
    k = stabilize_residue_field(x ** 2 * y + y ** 3)
    w1 = Series.variable(RingCtx(("x",), QQ), 0) ** 3
    pair = [serialize.mf_to_obj(stabilize_residue_field(w1)), serialize.mf_to_obj(stabilized_diagonal(w1))]
    morphisms = [
        serialize.morphism_to_obj(MFMorphism.identity(k)),
        serialize.morphism_to_obj(MFMorphism.zero(k, k)),
    ]
    return [serialize.mf_to_obj(k), *pair], pair, morphisms


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


@st.composite
def _mutated(draw, obj):
    """A deep copy of the JSON object `obj` with up to three nodes replaced,
    deleted, duplicated or moved by one."""
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        path = draw(st.sampled_from(list(_paths(obj))))
        if not path:
            continue
        *head, key = path
        parent = functools.reduce(lambda node, k: node[k], head, obj)
        action = draw(st.sampled_from(["replace", "delete", "duplicate", "nudge"]))
        if action == "delete":
            del parent[key]
        elif action == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif action == "nudge" and type(parent[key]) is int:
            parent[key] += draw(st.sampled_from([-1, 1]))
        else:
            parent[key] = draw(_JSON_VALUES)
    return obj


@st.composite
def _json_case(draw):
    """argv, MFCAT_NMAX and files for a command reading mutated JSON files."""
    factorizations, pair, morphisms = _fuzz_seeds()
    command = draw(st.sampled_from(["verify", "cohomology", "endomorphisms", "transform", "quasi-iso"]))
    if command == "quasi-iso":
        files = {"f.json": draw(st.sampled_from(morphisms).flatmap(_mutated))}
    elif command == "transform":
        files = {"x.json": draw(_mutated(pair[0])), "t.json": draw(_mutated(pair[1]))}
    else:
        files = {"f.json": draw(st.sampled_from(factorizations).flatmap(_mutated))}
    argv = {"endomorphisms": ["cohomology", "f.json", "--endomorphisms"]}.get(command, [command, *files])
    nmax = draw(st.sampled_from(["0", "-1", "abc", "1", "3", "6"]))
    return argv, nmax, files


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_inline_case() | _json_case())
def test_main_maps_every_input_to_an_exit_code(case):
    """Whatever the expression, ring spec, MFCAT_NMAX or JSON file, `main`
    ends with a documented exit code and lets no exception escape."""
    argv, nmax, files = case
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"MFCAT_NMAX": nmax}):
        for name, obj in files.items():
            Path(tmp, name).write_text(json.dumps(obj))
        argv = [str(Path(tmp, a)) if a in files else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
    assert code in (0, 2, 3, 4, 5), argv
