"""The security matrix: the attacks of Sections 2.2, 6, 7.1 and 7.4 against
every scheme in :data:`repro.baselines.SCHEMES`.

Each cell is one attack of :mod:`repro.attacks` run on the simulated
network (``tests/attacks/grid.py``), and must equal what the knowledge
closure of ``tests/spec/knowledge.py`` predicts from the scheme's rule
row -- the one check ``tests/attacks/test_grid.py`` makes in tier-1.
"""

from repro.baselines import SCHEMES
from repro.bench import render_table
from tests.attacks.grid import ROWS, cell, predicted


def run_matrix():
    return [(attack, scheme, cell(attack, scheme)) for attack in ROWS for scheme in SCHEMES]


def test_security_matrix(benchmark, report_writer):
    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    table = render_table(["attack", "scheme", "outcome"], rows)
    report_writer(
        "security_matrix",
        "Security matrix: every cell equals the knowledge closure's prediction\n" + table,
    )
    assert rows == [(attack, scheme, predicted(attack, scheme)) for attack, scheme, _ in rows]
