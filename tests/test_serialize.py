import pytest

from mfcat import serialize
from mfcat.errors import InputParseError
from mfcat.factorization import MFMorphism
from mfcat.fields import QQ, PrimeField
from mfcat.series import RingCtx, Series
from mfcat.stabilize import KoszulData, decompose_potential, stabilize_residue_field


def test_ring_round_trip():
    for ctx in (
        RingCtx(("x",), QQ),
        RingCtx(("u", "v"), PrimeField(13)),
    ):
        assert serialize.ring_from_obj(serialize.ring_to_obj(ctx)) == ctx


def test_series_round_trip_and_order():
    ctx = RingCtx(("x", "y"), QQ)
    w = serialize.parse_potential_text(ctx, "y^2 - 1/2*x*y + x^2 + 3")
    obj = serialize.series_to_obj(w)
    assert obj[0] == [[0, 0], "3"]  # constant first, graded-lex after
    assert serialize.series_from_obj(ctx, obj) == w


def test_mf_round_trip():
    ctx = RingCtx(("x",), QQ)
    mf = stabilize_residue_field(Series.variable(ctx, 0) ** 3)
    obj = serialize.mf_to_obj(mf)
    back = serialize.mf_from_obj(obj)
    assert back == mf
    obj["rank"] = 5
    with pytest.raises(InputParseError):
        serialize.mf_from_obj(obj)


def test_morphism_round_trip():
    ctx = RingCtx(("x",), QQ)
    mf = stabilize_residue_field(Series.variable(ctx, 0) ** 3)
    f = MFMorphism.identity(mf)
    back = serialize.morphism_from_obj(serialize.morphism_to_obj(f))
    assert back.parity == "even" and back.a == f.a and back.source == mf


def test_koszul_serialization():
    ctx = RingCtx(("x", "y"), QQ)
    kd = decompose_potential(serialize.parse_potential_text(ctx, "x^2*y + y^3"))
    obj = serialize.koszul_to_obj(kd)
    assert len(obj["generators"]) == 2 and len(obj["witnesses"]) == 2


def test_koszul_round_trip():
    # the `stabilize --koszul` object: no command reads it back, so it is
    # read here with the ring and series readers it is written with
    ctx = RingCtx(("x", "y"), QQ)
    kd = decompose_potential(serialize.parse_potential_text(ctx, "x^2*y + y^3"))
    obj = serialize.koszul_to_obj(kd)
    assert sorted(obj) == ["generators", "ring", "witnesses"]
    ring = serialize.ring_from_obj(obj["ring"])
    back = KoszulData(
        ring,
        [serialize.series_from_obj(ring, g) for g in obj["generators"]],
        [serialize.series_from_obj(ring, w) for w in obj["witnesses"]],
    )
    assert back.ctx == kd.ctx
    assert back.generators == kd.generators and back.witnesses == kd.witnesses
    assert back.potential == kd.potential


def test_byte_determinism():
    ctx = RingCtx(("x",), QQ)
    mf = stabilize_residue_field(Series.variable(ctx, 0) ** 2)
    a = serialize.dumps_canonical(serialize.mf_to_obj(mf))
    b = serialize.dumps_canonical(serialize.mf_to_obj(mf))
    assert a == b
    assert a.endswith("\n")


def test_golden_bytes():
    ctx = RingCtx(("x",), QQ)
    mf = stabilize_residue_field(Series.variable(ctx, 0) ** 2)
    assert serialize.dumps_canonical(serialize.mf_to_obj(mf)) == (
        '{\n'
        '  "ring": {\n'
        '    "variables": [\n'
        '      "x"\n'
        '    ],\n'
        '    "field": "rational",\n'
        '    "truncation": null\n'
        '  },\n'
        '  "potential": [\n'
        '    [\n'
        '      [\n'
        '        2\n'
        '      ],\n'
        '      "1"\n'
        '    ]\n'
        '  ],\n'
        '  "rank": 1,\n'
        '  "phi": [\n'
        '    [\n'
        '      [\n'
        '        [\n'
        '          [\n'
        '            1\n'
        '          ],\n'
        '          "1"\n'
        '        ]\n'
        '      ]\n'
        '    ]\n'
        '  ],\n'
        '  "psi": [\n'
        '    [\n'
        '      [\n'
        '        [\n'
        '          [\n'
        '            1\n'
        '          ],\n'
        '          "1"\n'
        '        ]\n'
        '      ]\n'
        '    ]\n'
        '  ]\n'
        '}\n'
    )


def test_ring_spec_parser():
    ctx = serialize.parse_ring_spec("x,y;rational")
    assert ctx.names == ("x", "y") and ctx.field == QQ
    ctx2 = serialize.parse_ring_spec("x")
    assert ctx2 == RingCtx(("x",), QQ)
    with pytest.raises(InputParseError):
        serialize.parse_ring_spec("x,y;rational;trunc=32")
    assert serialize.parse_ring_spec(" x , y' ; prime(7) ").names == ("x", "y'")
    ctx3 = serialize.parse_ring_spec("u,v;prime(7)")
    assert ctx3.field.characteristic == 7
    # a field component is exactly "rational" or "prime(<p>)", at most once;
    # a bad variable list (RingCtx's PreconditionError) is a parse error too
    # no part is empty, and every variable is a name the expression tokenizer reads
    for spec in ("x;unknownfield", "x;prime(7", "x;prime:7", "x;prime(7);prime(5)",
                 "x;rational;rational", "x,x;prime(7)", ";prime(7)", ";rational", "x y",
                 "x,,y", "x;;prime(7)", "x;", "x,y,", "2x", "x-y"):
        with pytest.raises(InputParseError):
            serialize.parse_ring_spec(spec)


def test_potential_parser():
    ctx = RingCtx(("x", "y"), QQ)
    x, y = Series.variable(ctx, 0), Series.variable(ctx, 1)
    assert serialize.parse_potential_text(ctx, "x^2*y + y^3") == x ** 2 * y + y ** 3
    assert serialize.parse_potential_text(ctx, "-x + (x + y)^2") == -x + (x + y) ** 2
    assert serialize.parse_potential_text(ctx, "3/2*x") == x.scale(QQ.of("3/2"))
    for bad in ("x +", "z", "x ^ y", "2x"):
        with pytest.raises(InputParseError):
            serialize.parse_potential_text(ctx, bad)


def test_ainf_serialization():
    from mfcat.ainfinity import transfer_minimal_model

    ctx = RingCtx(("x",), QQ)
    w = serialize.parse_potential_text(ctx, "x^3")
    model = transfer_minimal_model(w, 3)
    obj = serialize.ainf_to_obj(model)
    assert obj["basis"] == ["1", "D1"]
    arities = {p["arity"] for p in obj["products"]}
    assert 2 in arities and 3 in arities
    for p in obj["products"]:
        assert len(p["value"]) == 2


def test_ainf_round_trip():
    from mfcat.ainfinity import transfer_minimal_model

    ctx = RingCtx(("x", "y"), QQ)
    w = serialize.parse_potential_text(ctx, "x^2*y + y^3")
    model = transfer_minimal_model(w, 3)
    back = serialize.ainf_from_obj(serialize.ainf_to_obj(model), QQ)
    assert back.labels == model.labels
    assert back.parities == model.parities
    assert back.products == model.products
    assert back.stasheff_holds(3)
