"""Command-line interface.

A command pays only for itself: `main` builds the parser of the command it
is given, and that of all nine only for `--help`, no arguments or an
unknown command (`build_parser`); `corpus-run` alone imports the corpus.
The engine modules are imported here, not lazily: the benchmark's layer
tracer rebinds their functions from `sys.modules` once this module loads.

Exit codes: 0 ok, 2 parse error, 3 precondition violation, 4 verification
failure, 5 stabilization cap exceeded or out of memory. MFCAT_NMAX
overrides the cap.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import serialize
from .ainfinity import transfer_minimal_model
from .complexes import cohomology_mod_k, hom_cohomology, is_quasi_iso
from .errors import (
    ContextMismatchError,
    InputParseError,
    MfcatError,
    PreconditionError,
    StabilizationError,
    VerificationError,
)
from .factorization import verify_mf_report
from .hochschild import hh_report
from .stabilize import decompose_potential, stabilize_residue_field, stabilized_diagonal
from .transform import transform_mod_k_dims

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4
EXIT_STABILIZATION = 5


def _emit(obj):
    sys.stdout.write(serialize.dumps_canonical(obj))


def _load_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return serialize.loads(fh.read())
    except OSError as exc:
        raise InputParseError(f"cannot read {path}: {exc}") from exc


def _checked_mf(mf, where):
    """`mf`, with d^2 = w checked as `verify` does (exit 4 if not, naming `where`)."""
    ok, offending = verify_mf_report(mf)
    if not ok:
        product, row, col = offending
        raise VerificationError(f"{where}: {product} is not w*id at entry ({row}, {col})")
    return mf


def _load_checked_mf(path):
    """A factorization file, checked by `_checked_mf`."""
    return _checked_mf(serialize.mf_from_obj(_load_json_file(path)), path)


def _load_potential(args):
    if getattr(args, "potential", None):
        return serialize.potential_from_obj(_load_json_file(args.potential))
    if getattr(args, "inline", None):
        if not getattr(args, "ring", None):
            raise InputParseError("--inline requires --ring")
        ctx = serialize.parse_ring_spec(args.ring)
        return serialize.parse_potential_text(ctx, args.inline)
    raise InputParseError("supply --potential FILE or --inline EXPR with --ring SPEC")


def cmd_verify(args):
    mf = serialize.mf_from_obj(_load_json_file(args.file))
    ok, offending = verify_mf_report(mf)
    report = {
        "potential": serialize.series_to_obj(mf.potential),
        "rank": mf.rank,
        "verified": ok,
    }
    if offending:
        report["failure"] = {"product": offending[0], "row": offending[1], "col": offending[2]}
    _emit(report)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_stabilize(args):
    w = _load_potential(args)
    if args.koszul:
        _emit(serialize.koszul_to_obj(decompose_potential(w)))
        return EXIT_OK
    _emit(serialize.mf_to_obj(stabilize_residue_field(w)))
    return EXIT_OK


def cmd_diagonal(args):
    w = _load_potential(args)
    _emit(serialize.mf_to_obj(stabilized_diagonal(w)))
    return EXIT_OK


def cmd_hh(args):
    w = _load_potential(args)
    _emit(hh_report(w))
    return EXIT_OK


def cmd_minimal_model(args):
    w = _load_potential(args)
    model = transfer_minimal_model(w, args.max_arity)
    _emit(serialize.ainf_to_obj(model))
    return EXIT_OK


def cmd_quasi_iso(args):
    f = serialize.morphism_from_obj(_load_json_file(args.file))
    for end, mf in (("source", f.source), ("target", f.target)):
        _checked_mf(mf, f"{args.file} {end}")
    result = is_quasi_iso(f)
    _emit({"quasi_iso": result})
    return EXIT_OK if result else EXIT_VERIFICATION


def cmd_cohomology(args):
    mf = _load_checked_mf(args.file)
    if args.endomorphisms:
        even, odd = hom_cohomology(mf, mf)
        _emit({"mode": "endomorphisms-over-ring", "even": even, "odd": odd})
    else:
        even, odd = cohomology_mod_k(mf)
        _emit({"mode": "mod-k", "even": even, "odd": odd})
    return EXIT_OK


def cmd_transform(args):
    x = _load_checked_mf(args.source)
    t = _load_checked_mf(args.kernel)
    even, odd = transform_mod_k_dims(x, t)
    _emit({"even": even, "odd": odd})
    return EXIT_OK


def cmd_corpus_run(args):
    from .corpus import run_acceptance  # only this command loads the corpus

    results = run_acceptance(filter_text=args.filter, seed=args.seed, quick=args.quick)
    if args.json:
        _emit(
            [
                {
                    "criterion": r.index,
                    "title": r.title,
                    "passed": r.passed,
                    "details": r.details,
                }
                for r in results
            ]
        )
    else:
        width = max(len(r.title) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            sys.stdout.write(f"criterion {r.index:2d}  {r.title:<{width}}  {status}\n")
            if not r.passed or args.verbose:
                for line in r.details:
                    sys.stdout.write(f"    - {line}\n")
        passed = sum(1 for r in results if r.passed)
        sys.stdout.write(f"{passed}/{len(results)} criteria passed\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFICATION


def _potential_args(p):
    p.add_argument("--potential", help="JSON file with {ring, series}")
    p.add_argument("--inline", help='inline expression, e.g. "x^2*y + y^3"')
    p.add_argument("--ring", help='ring spec "x,y;rational" or "x,y;prime(7)"')


def _file_args(p):
    p.add_argument("file")


def _stabilize_args(p):
    _potential_args(p)
    p.add_argument("--koszul", action="store_true", help="emit generator/witness data instead")


def _minimal_model_args(p):
    _potential_args(p)
    p.add_argument("--max-arity", type=int, default=4)


def _cohomology_args(p):
    p.add_argument("file")
    p.add_argument(
        "--endomorphisms",
        action="store_true",
        help="dims of the endomorphism complex over the ring instead of mod k",
    )


def _transform_args(p):
    p.add_argument("source")
    p.add_argument("kernel")


def _corpus_run_args(p):
    p.add_argument("--filter", help="restrict corpus entries by substring")
    p.add_argument("--seed", type=int, default=20240801)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--table", action="store_true", help="plain table output (default)")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--quick", action="store_true", help="fewer randomized soundness trials")


# command -> (help line, handler, the function that adds its arguments)
COMMANDS = {
    "verify": ("check d^2 = w for a factorization file", cmd_verify, _file_args),
    "stabilize": ("stabilized residue field of a potential", cmd_stabilize, _stabilize_args),
    "diagonal": ("stabilized diagonal over the doubled ring", cmd_diagonal, _potential_args),
    "hh": ("Hochschild invariants and Milnor/Tyurina numbers", cmd_hh, _potential_args),
    "minimal-model": ("transferred A-infinity products", cmd_minimal_model, _minimal_model_args),
    "quasi-iso": ("test a morphism file for quasi-isomorphism", cmd_quasi_iso, _file_args),
    "cohomology": (
        "cohomology dimensions for a factorization file", cmd_cohomology, _cohomology_args
    ),
    "transform": (
        "cohomology dims of a factorization's integral transform by a kernel",
        cmd_transform,
        _transform_args,
    ),
    "corpus-run": (
        "run the acceptance battery on the bundled corpus", cmd_corpus_run, _corpus_run_args
    ),
}


@functools.cache
def build_parser(only=None):
    """The parser of every command, or of command `only` alone; each is built
    on its first call and shared after it.

    A one-command parser names all nine in its usage line, as the full one
    does, so every message it prints reads the same. The full parser keeps
    argparse's own metavar, which is what names a missing or unknown command.
    """
    parser = argparse.ArgumentParser(
        prog="mfcat",
        description="Exact matrix-factorization computations for hypersurface singularities",
    )
    metavar = None if only is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_line, fn, add_args) in COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_line)
            add_args(p)
            p.set_defaults(fn=fn)
    return parser


def _attach_inline_values(argv):
    """argv with `--inline EXPR` written `--inline=EXPR` when EXPR starts with a
    single '-': argparse reads such a value as an option, so `--inline -x^3+y^4`
    would exit 2 with "expected one argument"."""
    out = []
    for arg in argv:
        if out and out[-1] == "--inline" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = "--inline=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _attach_inline_values(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0]) if argv and argv[0] in COMMANDS else build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except (PreconditionError, ContextMismatchError) as exc:
        sys.stderr.write(f"precondition violated: {exc}\n")
        return EXIT_PRECONDITION
    except VerificationError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return EXIT_VERIFICATION
    except StabilizationError as exc:
        sys.stderr.write(f"stabilization cap exceeded: {exc}\n")
        return EXIT_STABILIZATION
    except MfcatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VERIFICATION
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"out of memory before the computation finished{detail}\n")
        return EXIT_STABILIZATION


if __name__ == "__main__":
    sys.exit(main())
