"""Mutation rows: each breaks one engine on purpose and names the acceptance
criteria that must catch it. A row whose mutation no criterion notices shows
a gap in the battery."""

import pytest

from mfcat import complexes
from mfcat.cli import main
from mfcat.corpus import run_acceptance

_strand_dims = complexes._strand_dims


def _one_strand_early(ctx, columns, u_even, u_odd, delta, cap, stop=None):
    """The scan ends one strand before its stop."""
    return _strand_dims(ctx, columns, u_even, u_odd, delta, cap, None if stop is None else stop - 1)


def _last_class_dropped(*args):
    """The scan loses its last strand that carries cohomology."""
    strands = list(_strand_dims(*args))
    nonzero = [k for k, (_, even, odd) in enumerate(strands) if even or odd]
    if nonzero:
        del strands[nonzero[-1]]
    return iter(strands)


_ROWS = [
    pytest.param(_one_strand_early, {3, 5, 10}, id="strand-scan-ends-early"),
    pytest.param(_last_class_dropped, {3, 5, 10}, id="strand-scan-drops-last-class"),
]


@pytest.mark.parametrize("mutant, caught_by", _ROWS)
def test_battery_catches_the_mutation(monkeypatch, mutant, caught_by):
    monkeypatch.setattr(complexes, "_strand_dims", mutant)
    failed = {r.index for r in run_acceptance(quick=True) if not r.passed}
    assert failed == caught_by


def test_battery_reports_every_criterion_under_a_mutation(monkeypatch, capsys):
    # criterion 5 raises a VerificationError under this mutation; the table
    # still lists all 13 criteria, and that one fails naming the error
    monkeypatch.setattr(complexes, "_strand_dims", _one_strand_early)
    assert main(["corpus-run", "--quick"]) == 4
    out = capsys.readouterr().out
    assert sum(line.startswith("criterion ") for line in out.splitlines()) == 13
    assert "raised VerificationError: Koszul route gave (0, 0)" in out
    assert out.endswith("10/13 criteria passed\n")
