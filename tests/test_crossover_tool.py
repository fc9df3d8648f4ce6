"""``make crossovers`` runs: ``tools/crossover.py`` at two widths and one
window a side exits 0 and prints its four tables in their layout.

It lives outside ``src/``, so it runs as the command it is.  The figures
are not checked: they are the host's.
"""

import re
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "crossover.py"


def test_two_widths_one_repeat_print_all_four_tables():
    run = subprocess.run(
        [sys.executable, str(_TOOL), "--blocks", "2,16", "--lanes", "2,12",
         "--sizes", "64", "--repeat", "1", "--window-ms", "1"],
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert run.returncode == 0, run.stderr
    rows = [line for line in run.stdout.splitlines() if line.startswith("|")]
    assert rows[0] == "| blocks | 2 | 16 |"
    assert re.fullmatch(r"\| lane / scalar \| [\d.]+ \| [\d.]+ \|", rows[2])
    assert rows[3] == "| stage | body | kernel | n=2 | n=12 |"
    stages = [tuple(row.split(" | ")[:3]) for row in rows[5:11]]
    assert stages == [
        (f"| {stage}", "64 B", kernel)
        for stage in ("keyed-MD5", "CBC encrypt", "CBC decrypt")
        for kernel in ("scalar", "lane")
    ]
    # Two widths a row, and the faster kernel of each pair in bold.
    bold = [[cell.startswith("**") for cell in row.split(" | ")[3:]] for row in rows[5:11]]
    assert all(len(cells) == 2 for cells in bold)
    for scalar, lane in zip(bold[::2], bold[1::2]):
        assert all(s or l for s, l in zip(scalar, lane))
    lines = run.stdout.splitlines()
    assert sum(line.startswith("crossover: ") for line in lines) == 1
    assert sum(": crossover n = " in line for line in lines) == 3
    # The pass table: a timing row and a per-block row at each of its
    # fixed widths.
    assert rows[11] == "| width | 1 | 8 | 64 | 183 | 1024 | 11712 |"
    assert re.fullmatch(r"\| us per pass( \| [\d,.]+){6} \|", rows[13])
    assert re.fullmatch(r"\| ns per block-round( \| [\d,.]+){6} \|", rows[14])
    # The form table: a row a form at its fixed widths, the faster of
    # each pair in bold, and its crossover beside the constant.
    assert rows[15] == "| form | 65 | 256 | 512 | 768 | 1024 | 1536 | 2048 | 11712 |"
    forms = [row.split(" | ") for row in rows[17:19]]
    assert [cells[0] for cells in forms] == ["| gather", "| network"]
    for gather, network in zip(forms[0][1:], forms[1][1:]):
        assert gather.startswith("**") or network.startswith("**")
        assert re.fullmatch(r"(\*\*)?[\d,]+(\*\*)?( \|)?", gather)
    (note,) = [line for line in lines if line.startswith("IP + FP crossover: ")]
    assert re.fullmatch(
        r"IP \+ FP crossover: (\d+|None) blocks \(_NETWORK_MIN_BLOCKS = \d+\)", note
    )
    assert len(rows) == 19
