"""Every cell of the attack x scheme matrix equals the closure's prediction.

``tests/attacks/grid.py`` runs the cells; ``tests/spec/knowledge.py``
predicts them.  The closure's own laws are checked here too: whatever
key of a pair leaks, it opens nothing of another pair and yields no key
above it.
"""

import re

import pytest

from repro.baselines import SCHEMES
from tests.attacks.grid import CAPTURE, OTHER, ROWS, cell, predicted
from tests.spec.knowledge import RULES, closure, key, opens


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("attack", list(ROWS), ids=lambda a: re.sub(r"[^a-z0-9.]+", "-", a.lower()).strip("-"))
def test_cell_equals_the_prediction(attack, scheme):
    assert cell(attack, scheme) == predicted(attack, scheme)


def test_every_scheme_has_one_rule_row():
    assert list(RULES) == list(SCHEMES)


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_no_key_opens_another_pair_or_yields_the_key_above_it(scheme):
    rules = RULES[scheme]
    for depth in range(len(rules.chain or ()) + 1):
        for d in CAPTURE:
            known = closure(rules, {key(rules, d, depth)}, CAPTURE + OTHER)
            assert all(opens(rules, known, o) for o in OTHER) == (rules.chain is None)
            assert depth == 0 or key(rules, d, depth - 1) not in known
