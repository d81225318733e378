"""Acceptance battery: one test per criterion, exact (tolerance-zero) checks.

Each test prints its criterion's pass/fail line; `mfcat corpus-run` replays
the same battery from the command line.
"""

import random

import pytest

from mfcat.corpus import CRITERIA, build_corpus, criterion_1


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.index:2d} [{status}] {result.title}")
    for line in result.details:
        print(f"    {line}")
    assert result.passed, f"criterion {result.index} failed: {result.details}"


def test_criterion_01_factorization_soundness(corpus):
    _report(criterion_1(corpus, random.Random(20240801)))


@pytest.mark.parametrize(
    "fn", [c for c in CRITERIA if c is not criterion_1], ids=lambda f: f.__name__
)
def test_criteria(fn, corpus):
    _report(fn(corpus, random.Random(20240801)))


def test_entries_share_their_objects(monkeypatch):
    # each entry builds K and the diagonal once for the whole battery; the
    # only other K is criterion 12's own x^3. Every module that can build
    # one is counted, so a criterion cannot build its own out of sight.
    import mfcat.corpus as corpus_module
    import mfcat.hochschild as hochschild_module
    import mfcat.stabilize as stabilize_module

    calls = {"stabilize_residue_field": 0, "stabilized_diagonal": 0}
    for name in calls:
        def counted(w, name=name, build=getattr(stabilize_module, name)):
            calls[name] += 1
            return build(w)

        for module in (corpus_module, hochschild_module, stabilize_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    results = corpus_module.run_acceptance(quick=True)
    assert all(r.passed for r in results)
    isolated = sum(e.isolated for e in build_corpus())
    assert calls["stabilize_residue_field"] <= isolated + 1
    assert calls["stabilized_diagonal"] == isolated


def test_injected_wrong_value_is_reported(corpus):
    from mfcat.corpus import Known, criterion_5

    # criterion 5 on the D4-plane entry alone, with its Milnor number made wrong
    (e,) = [e for e in corpus if e.name == "D4-plane"]
    known = dict(e.known, milnor=Known(5, "derived-oracle", "monomial-reduction"))
    broken = type(e)(e.name, e.ring_names, e.text, e.isolated, known)
    result = criterion_5([broken], random.Random(0))
    assert not result.passed
    assert any("D4-plane" in line for line in result.details)
