"""Every test runs under the blocking-call audit hook
(``tests/shim/loopguard.py``): a blocking call made while an event loop
runs, in a task or a callback, fails it.  Installed here, before any
test module imports ``repro``."""

from tests.shim import loopguard

loopguard.install()
