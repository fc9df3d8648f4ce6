"""Negative control for tests/test_policy_structure.py: process fan-out.

Checked as if it lived at ``src/repro/netsim/parallel.py`` (the same
source fails under any ``src/`` logical path, ``repro.load`` included).
"""

# stands in for module repro.netsim.parallel
import multiprocessing  # banned here
import os
from concurrent.futures import ProcessPoolExecutor  # banned here
from multiprocessing import Pool  # banned here


def fan_out(work, items):
    pid = os.fork()  # banned: forks live FBS soft state
    if pid == 0:
        os._exit(0)
    with Pool() as pool:
        return pool.map(work, items)
