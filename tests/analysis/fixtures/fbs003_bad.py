"""Violating fixture for FBS003: global and unseeded randomness.

Linted as if it lived at ``src/repro/core/jitter.py``.
"""

# fbslint: module=repro.core.jitter
import random

import numpy as np


def jitter():
    rng = random.Random()  # unseeded: nondeterministic
    return random.random() + rng.random()  # global generator


def lane_noise():
    noise = np.random.random(64)  # global numpy legacy generator
    rng = np.random.default_rng()  # unseeded
    return noise, rng


def _lane_seed():
    # The helper's own site is excused inline ...
    return np.random.rand()  # fbslint: disable=FBS003


def reseed():
    return _lane_seed()  # ... its caller in the deterministic core is not


class Shuffled:
    ORDER = random.sample(range(8), 8)  # global generator, in a class body


@np.vectorize(otypes=[float], doc=str(random.random()))  # in a decorator
def pick(lane, key=lambda x: random.random()):  # in a lambda body
    return key(lane)
