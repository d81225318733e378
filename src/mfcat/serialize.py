"""Canonical JSON codecs and the tiny inline expression/ring-spec parsers.

Output is deterministic: fixed key order, exact coefficient strings,
canonical graded-lex term order, two-space indent, trailing newline.
"""

from __future__ import annotations

import json
import re

from .errors import InputParseError, PreconditionError
from .factorization import MatrixFactorization, MFMorphism, RMatrix
from .fields import field_from_name
from .series import RingCtx, Series, monomial_sort_key
from .stabilize import KoszulData


def ring_to_obj(ctx: RingCtx) -> dict:
    return {
        "variables": list(ctx.names),
        "field": ctx.field.name,
        # the ring is always the polynomial ring; the null key keeps existing files valid
        "truncation": None,
    }


def ring_from_obj(obj) -> RingCtx:
    try:
        names, field, trunc = obj["variables"], obj["field"], obj.get("truncation")
    except (KeyError, TypeError) as exc:
        raise InputParseError(f"bad ring object: {exc}") from exc
    if trunc is not None:
        raise InputParseError(f"bad ring truncation {trunc!r}: need null")
    if type(names) is not list or any(type(v) is not str for v in names):
        raise InputParseError(f"bad ring variables {names!r}: need a list of strings")
    if type(field) is not str:
        raise InputParseError(f"bad ring field {field!r}: need a string")
    try:
        return RingCtx(tuple(names), field_from_name(field))
    except PreconditionError as exc:
        raise InputParseError(str(exc)) from exc


def series_to_obj(s: Series) -> list:
    field = s.ctx.field
    return [
        [list(exp), field.to_str(s.terms[exp])]
        for exp in sorted(s.terms, key=monomial_sort_key)
    ]


def series_from_obj(ctx: RingCtx, obj) -> Series:
    terms = {}
    try:
        for exp, coeff in obj:
            if len(exp) != ctx.n_vars or any(type(e) is not int or e < 0 for e in exp):
                raise InputParseError(f"bad exponent vector {exp}: need non-negative integers")
            if tuple(exp) in terms:
                raise InputParseError(f"repeated exponent vector {exp}")
            terms[tuple(exp)] = ctx.field.of(coeff)
    except (TypeError, ValueError) as exc:
        raise InputParseError(f"bad series object: {exc}") from exc
    return Series(ctx, terms)


def matrix_to_obj(m: RMatrix) -> list:
    return [[series_to_obj(e) for e in row] for row in m.entries]


def matrix_from_obj(ctx: RingCtx, obj) -> RMatrix:
    try:
        return RMatrix(ctx, [[series_from_obj(ctx, e) for e in row] for row in obj])
    except TypeError as exc:
        raise InputParseError(f"bad matrix object: {exc}") from exc


def _expect_object(obj, what):
    if not isinstance(obj, dict):
        raise InputParseError(f"{what}: expected a JSON object, got {type(obj).__name__}")


def mf_to_obj(mf: MatrixFactorization) -> dict:
    return {
        "ring": ring_to_obj(mf.ctx),
        "potential": series_to_obj(mf.potential),
        "rank": mf.rank,
        "phi": matrix_to_obj(mf.phi),
        "psi": matrix_to_obj(mf.psi),
    }


def mf_from_obj(obj) -> MatrixFactorization:
    _expect_object(obj, "factorization")
    try:
        ctx = ring_from_obj(obj["ring"])
        potential = series_from_obj(ctx, obj["potential"])
        phi = matrix_from_obj(ctx, obj["phi"])
        psi = matrix_from_obj(ctx, obj["psi"])
    except KeyError as exc:
        raise InputParseError(f"factorization object missing key {exc}") from exc
    mf = MatrixFactorization(ctx, potential, phi, psi)
    if "rank" in obj and (type(obj["rank"]) is not int or obj["rank"] != mf.rank):
        raise InputParseError(f"declared rank {obj['rank']!r} is not the integer {mf.rank}")
    if mf.rank == 0:
        raise InputParseError("factorization has rank 0")
    return mf


def morphism_to_obj(f: MFMorphism) -> dict:
    return {
        "source": mf_to_obj(f.source),
        "target": mf_to_obj(f.target),
        "parity": f.parity,
        "a": matrix_to_obj(f.a),
        "b": matrix_to_obj(f.b),
    }


def morphism_from_obj(obj) -> MFMorphism:
    _expect_object(obj, "morphism")
    try:
        source = mf_from_obj(obj["source"])
        target = mf_from_obj(obj["target"])
        a = matrix_from_obj(source.ctx, obj["a"])
        b = matrix_from_obj(source.ctx, obj["b"])
        return MFMorphism(source, target, obj["parity"], a, b)
    except KeyError as exc:
        raise InputParseError(f"morphism object missing key {exc}") from exc


def koszul_to_obj(kd: KoszulData) -> dict:
    return {
        "ring": ring_to_obj(kd.ctx),
        "generators": [series_to_obj(g) for g in kd.generators],
        "witnesses": [series_to_obj(w) for w in kd.witnesses],
    }


def ainf_to_obj(model) -> dict:
    field = model.field
    products = []
    for k in sorted(model.products):
        for args in sorted(model.products[k]):
            vec = model.products[k][args]
            value = [
                field.to_str(vec.get(i, field.zero)) for i in range(model.dimension)
            ]
            products.append({"arity": k, "args": list(args), "value": value})
    return {"basis": list(model.labels), "products": products}


def ainf_from_obj(obj, field):
    """Rebuild a minimal model; the coefficient field travels separately
    since the wire format carries only basis labels and product tables."""
    from .ainfinity import AInfStructure

    try:
        labels = []
        for text in obj["basis"]:
            if text == "1":
                labels.append(())
            else:
                labels.append(tuple(int(part[1:]) - 1 for part in text.split("*")))
        parities = [len(s) % 2 for s in labels]
        products: dict = {}
        max_arity = 2
        for entry in obj["products"]:
            k = entry["arity"]
            max_arity = max(max_arity, k)
            vec = {
                i: field.of(v)
                for i, v in enumerate(entry["value"])
                if field.of(v) != field.zero
            }
            if vec:
                products.setdefault(k, {})[tuple(entry["args"])] = vec
    except (KeyError, ValueError, IndexError) as exc:
        raise InputParseError(f"bad minimal-model object: {exc}") from exc
    return AInfStructure(labels, parities, field, max_arity, products)


def potential_to_obj(w: Series) -> dict:
    return {"ring": ring_to_obj(w.ctx), "series": series_to_obj(w)}


def potential_from_obj(obj) -> Series:
    _expect_object(obj, "potential")
    try:
        ctx = ring_from_obj(obj["ring"])
        return series_from_obj(ctx, obj["series"])
    except KeyError as exc:
        raise InputParseError(f"potential object missing key {exc}") from exc


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, separators=(",", ": ")) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputParseError(f"invalid JSON: {exc}") from exc


# -- inline parsers ------------------------------------------------------------


_PRIME_SPEC = re.compile(r"prime\((.*)\)")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9']*")


def parse_ring_spec(spec: str) -> RingCtx:
    """Parse "x,y;rational" or "x,y;prime(7)": comma-separated variable names,
    each an identifier as the expression tokenizer reads it, then optionally
    one field component. No part may be empty."""
    if not spec.strip():
        raise InputParseError("empty ring spec")
    head, *fields = (p.strip() for p in spec.split(";"))
    names = tuple(v.strip() for v in head.split(","))
    for part in names + tuple(fields):
        if not part:
            raise InputParseError(f"ring spec {spec!r} has an empty component")
    for name in names:
        if not _NAME.fullmatch(name):
            raise InputParseError(f"ring spec {spec!r}: {name!r} is not a variable name")
    if len(fields) > 1:
        raise InputParseError(f"ring spec {spec!r} has more than one field component")
    field = fields[0] if fields else "rational"
    prime = _PRIME_SPEC.fullmatch(field)
    if prime:
        field = f"prime:{prime.group(1)}"
    elif field != "rational":
        raise InputParseError(f"unknown ring spec component {field!r}")
    try:
        return RingCtx(names, field_from_name(field))
    except PreconditionError as exc:
        raise InputParseError(str(exc)) from exc


_TOKEN = re.compile(rf"\s*(\d+/\d+|\d+|{_NAME.pattern}|\^|\*|\+|\-|\(|\))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise InputParseError(f"cannot tokenize {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _ExprParser:
    def __init__(self, ctx: RingCtx, tokens):
        self.ctx = ctx
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> Series:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> Series:
        node = self.factor()
        while self.peek() == "*":
            self.take()
            node = node * self.factor()
        return node

    def factor(self) -> Series:
        node = self.atom()
        while self.peek() == "^":
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise InputParseError("exponent must be a nonnegative integer")
            node = node ** int(tok)
        return node

    def atom(self) -> Series:
        tok = self.take()
        if tok is None:
            raise InputParseError("unexpected end of expression")
        if tok == "-":
            return -self.factor()
        if tok == "(":
            node = self.expr()
            if self.take() != ")":
                raise InputParseError("unbalanced parentheses")
            return node
        if re.fullmatch(r"\d+/\d+|\d+", tok):
            return Series.constant(self.ctx, self.ctx.field.of(tok))
        if tok in self.ctx.names:
            return Series.variable(self.ctx, self.ctx.names.index(tok))
        raise InputParseError(f"unknown symbol {tok!r}")


def parse_potential_text(ctx: RingCtx, text: str) -> Series:
    parser = _ExprParser(ctx, _tokenize(text))
    result = parser.expr()
    if parser.peek() is not None:
        raise InputParseError(f"trailing input at {parser.peek()!r}")
    return result
