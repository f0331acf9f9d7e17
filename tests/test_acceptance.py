"""Acceptance battery: every shipped criterion at its full corpus size.

Runs each criterion through the same runner the ``suite`` CLI command uses
and prints one pass/fail line per criterion (visible with ``pytest -s`` or
in the failure output).  Budgets: the whole battery completes in well under
a minute; the heaviest members are the exhaustive minor/dilution equivalence
sweep and the width-oracle corpora.
"""

import random

import pytest

from hgdilute.acceptance import CRITERIA, DEFAULT_SEED


@pytest.mark.parametrize(
    "ident,name,fn", CRITERIA, ids=[f"{i:02d}-{n}" for i, n, _ in CRITERIA]
)
def test_acceptance_criterion(ident, name, fn):
    rng = random.Random(DEFAULT_SEED + ident)
    passed, detail = fn(rng, quick=False)
    line = f"ACCEPTANCE {ident:>2} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line
