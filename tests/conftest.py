"""Every test runs under the blocking-call audit hook
(``tests/shim/loopguard.py``): a blocking call made while an event loop
runs, in a task or a callback, fails it.  Installed here, before any
test module imports ``repro``.

``--hypothesis-profile=nightly`` (the nightly CI job, over
``tests/property``) raises hypothesis's default ``max_examples`` tenfold;
the soft-state machine and the codec properties scale with it."""

from hypothesis import settings

from tests.shim import loopguard

loopguard.install()

settings.register_profile("nightly", max_examples=10 * settings.default.max_examples)
