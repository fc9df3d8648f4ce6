"""Interprocedural (phase-2) tests: multi-module projects on disk.

Each test lays out a miniature ``src/repro`` tree in ``tmp_path`` and
runs :func:`lint_paths` over it, exercising the whole-program passes:
taint through call chains and containers, and the impurity-wrapper
loophole.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_paths

KDF_SOURCE = (
    "def derive(kdf, sfl):\n"
    "    return kdf.flow_key(sfl)\n"
)


def make_project(tmp_path, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return lint_paths([tmp_path / "src"], root=tmp_path)


class TestTaintV2:
    def test_taint_through_two_hops_and_container(self, tmp_path):
        result = make_project(tmp_path, {
            "src/repro/core/kdf.py": KDF_SOURCE,
            "src/repro/core/helper.py": (
                "from repro.core.kdf import derive\n"
                "\n"
                "def stash(kdf, sfl):\n"
                "    keys = []\n"
                "    keys.append(derive(kdf, sfl))\n"
                "    return keys\n"
            ),
            "src/repro/core/app.py": (
                "from repro.core.helper import stash\n"
                "\n"
                "def audit(kdf, sfl):\n"
                "    ks = stash(kdf, sfl)\n"
                "    print(ks)\n"
            ),
        })
        taint = [f for f in result.findings if f.rule_id == "FBS001"]
        assert len(taint) == 1, [f.render() for f in result.findings]
        finding = taint[0]
        assert finding.path == "src/repro/core/app.py"
        # The witness spans the whole chain: source, two returns, sink.
        assert len(finding.flow) >= 3
        assert "flow_key" in finding.flow[0]
        assert "interprocedural flow" in finding.message

    def test_taint_through_attribute_store(self, tmp_path):
        result = make_project(tmp_path, {
            "src/repro/core/holder.py": (
                "class Holder:\n"
                "    def __init__(self, kdf):\n"
                "        self._key = kdf.flow_key(1)\n"
                "\n"
                "    def debug(self):\n"
                "        print(self._key)\n"
            ),
        })
        taint = [f for f in result.findings if f.rule_id == "FBS001"]
        assert len(taint) == 1, [f.render() for f in result.findings]
        assert "stored into self._key" in " ".join(taint[0].flow)

    def test_purely_local_flow_stays_with_v1(self, tmp_path):
        # (The id predates the single engine.)  A same-function
        # source-to-sink flow is the zero-hop case of the one taint
        # pass: reported exactly once, with its one-step witness.
        result = make_project(tmp_path, {
            "src/repro/core/leak.py": (
                "def leak(kdf):\n"
                "    key = kdf.flow_key(1)\n"
                "    print(key)\n"
            ),
        })
        taint = [f for f in result.findings if f.rule_id == "FBS001"]
        assert len(taint) == 1, [f.render() for f in result.findings]
        assert "interprocedural" not in taint[0].message
        assert taint[0].flow == ("flow_key() at src/repro/core/leak.py:2",)


class TestImpurityV2:
    def test_wall_clock_wrapper_loophole_closed(self, tmp_path):
        # A pure-looking wrapper around time.time() is as banned in the
        # deterministic core as the call itself.
        result = make_project(tmp_path, {
            "src/repro/helpers.py": (
                "import time\n"
                "\n"
                "def now():\n"
                "    return time.time()\n"
            ),
            "src/repro/core/session.py": (
                "from repro.helpers import now\n"
                "\n"
                "def stamp():\n"
                "    return now()\n"
            ),
        })
        wrapped = [
            f for f in result.findings
            if f.rule_id == "FBS002" and f.path == "src/repro/core/session.py"
        ]
        assert len(wrapped) == 1, [f.render() for f in result.findings]
        assert "transitively reaches the wall clock" in wrapped[0].message

    def test_unseeded_random_wrapper_loophole_closed(self, tmp_path):
        result = make_project(tmp_path, {
            "src/repro/helpers.py": (
                "import random\n"
                "\n"
                "def jitter():\n"
                "    return random.random()\n"
            ),
            "src/repro/core/session.py": (
                "from repro.helpers import jitter\n"
                "\n"
                "def delay():\n"
                "    return jitter()\n"
            ),
        })
        wrapped = [
            f for f in result.findings
            if f.rule_id == "FBS003" and f.path == "src/repro/core/session.py"
        ]
        assert len(wrapped) == 1, [f.render() for f in result.findings]

    @pytest.mark.parametrize(
        "draw", ["np.random.rand()", "np.random.default_rng()", "np.random.RandomState()"]
    )
    def test_numpy_random_wrapper_loophole_closed(self, tmp_path, draw):
        # Same shape as the stdlib case above; the helper's own site is
        # excused inline, which must not excuse its caller in the core.
        result = make_project(tmp_path, {
            "src/repro/helpers.py": (
                "import numpy as np\n"
                "\n"
                "def jitter():\n"
                f"    return {draw}  # fbslint: disable=FBS003\n"
            ),
            "src/repro/core/session.py": (
                "from repro.helpers import jitter\n"
                "\n"
                "def delay():\n"
                "    return jitter()\n"
            ),
        })
        assert result.suppressed == 1
        assert [(f.rule_id, f.path, f.line) for f in result.findings] == [
            ("FBS003", "src/repro/core/session.py", 4)
        ]
        assert "transitively reaches unseeded randomness" in result.findings[0].message
        assert f"numpy.random.{draw[len('np.random.'):]}" in result.findings[0].message

    def test_bench_callers_stay_exempt(self, tmp_path):
        result = make_project(tmp_path, {
            "src/repro/helpers.py": (
                "import time\n"
                "\n"
                "def now():\n"
                "    return time.time()\n"
            ),
            "src/repro/bench/timing.py": (
                "from repro.helpers import now\n"
                "\n"
                "def elapsed(start):\n"
                "    return now() - start\n"
            ),
        })
        assert not any(
            f.rule_id == "FBS002" and f.path == "src/repro/bench/timing.py"
            for f in result.findings
        )


#: What can hold a key between its derivation and ``print(held)``.
_CONTAINERS = {
    "list": "held = [key]\n",
    "tuple": "held = (0, key)\n",
    "dict value": "held = {'k': key}\n",
    "set": "held = {key}\n",
    "comprehension": "held = [k for k in [key]]\n",
    "set comprehension": "held = {k for k in (key,)}\n",
    "subscript": "held = [key][0]\n",
    "loop target": "for held in [key]:\n    pass\n",
    "sorted()": "held = sorted([key])\n",
    "list()": "held = list({key})\n",
    "append": "held = []\nheld.append(key)\n",
}


class TestContainers:
    """The label language has no container layer: a container holds
    what its elements hold, and only a constructor's type stops there."""

    @pytest.mark.parametrize("shape", sorted(_CONTAINERS))
    def test_key_in_a_container_reaches_the_sink(self, tmp_path, shape):
        body = "key = kdf.flow_key(1)\n" + _CONTAINERS[shape] + "print(held)\n"
        result = make_project(tmp_path, {
            "src/repro/core/leak.py": "def leak(kdf):\n"
            + "".join(f"    {line}\n" for line in body.splitlines()),
        })
        taint = [f for f in result.findings if f.rule_id == "FBS001"]
        assert len(taint) == 1, [f.render() for f in result.findings]
        assert taint[0].flow == ("flow_key() at src/repro/core/leak.py:2",)

    @pytest.mark.parametrize(
        "stored, resolves", [("Printer()", True), ("[Printer()]", False)]
    )
    def test_a_list_of_instances_is_not_an_instance(self, tmp_path, stored, resolves):
        # ``self.printer.show(key)`` leaks through ``Printer.show`` only
        # if ``self.printer`` is typed ``Printer`` for call resolution;
        # a list holding one has no ``show``.
        result = make_project(tmp_path, {
            "src/repro/core/holder.py": (
                "class Printer:\n"
                "    def show(self, value):\n"
                "        print(value)\n"
                "\n"
                "class Holder:\n"
                "    def __init__(self, kdf):\n"
                f"        self.printer = {stored}\n"
                "        self.key = kdf.flow_key(1)\n"
                "\n"
                "    def run(self):\n"
                "        self.printer.show(self.key)\n"
            ),
        })
        taint = [f for f in result.findings if f.rule_id == "FBS001"]
        assert len(taint) == (1 if resolves else 0), [f.render() for f in taint]
