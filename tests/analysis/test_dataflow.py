"""Interprocedural (phase-2) tests: multi-module projects on disk.

Each test lays out a miniature ``src/repro`` tree in ``tmp_path`` and
runs :func:`lint_paths` over it, exercising the whole-program passes:
taint through call chains and containers, exception-flow accounting
into helpers, and the impurity-wrapper loophole.
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


class TestExceptionFlowV2:
    DATAPATH = (
        "from repro.core.checks import verify_mac\n"
        "\n"
        "def receive(dgram):\n"
        "    return verify_mac(dgram)\n"
    )

    def test_unguarded_raise_in_helper_is_found(self, tmp_path):
        result = make_project(tmp_path, {
            "src/repro/core/protocol.py": self.DATAPATH,
            "src/repro/core/checks.py": (
                "from repro.core.errors import MacMismatchError\n"
                "\n"
                "def verify_mac(dgram):\n"
                "    if not dgram:\n"
                "        raise MacMismatchError('bad mac')\n"
                "    return dgram\n"
            ),
        })
        acct = [f for f in result.findings if f.rule_id == "FBS006"]
        assert len(acct) == 1, [f.render() for f in result.findings]
        finding = acct[0]
        assert finding.path == "src/repro/core/checks.py"
        assert "receive datapath" in finding.message
        assert any("receive()" in step for step in finding.flow)

    def test_guarded_call_site_is_clean(self, tmp_path):
        result = make_project(tmp_path, {
            "src/repro/core/protocol.py": (
                "from repro.core.checks import verify_mac\n"
                "\n"
                "def receive(dgram, metrics):\n"
                "    try:\n"
                "        return verify_mac(dgram)\n"
                "    except MacMismatchError:\n"
                "        metrics.rejected += 1\n"
                "        raise\n"
            ),
            "src/repro/core/checks.py": (
                "from repro.core.errors import MacMismatchError\n"
                "\n"
                "def verify_mac(dgram):\n"
                "    if not dgram:\n"
                "        raise MacMismatchError('bad mac')\n"
                "    return dgram\n"
            ),
        })
        acct = [f for f in result.findings if f.rule_id == "FBS006"]
        assert acct == [], [f.render() for f in acct]

    def test_bumped_raise_in_helper_is_clean(self, tmp_path):
        result = make_project(tmp_path, {
            "src/repro/core/protocol.py": self.DATAPATH,
            "src/repro/core/checks.py": (
                "from repro.core.errors import MacMismatchError\n"
                "\n"
                "def verify_mac(dgram, metrics=None):\n"
                "    if not dgram:\n"
                "        metrics.datagrams_rejected += 1\n"
                "        raise MacMismatchError('bad mac')\n"
                "    return dgram\n"
            ),
        })
        acct = [f for f in result.findings if f.rule_id == "FBS006"]
        assert acct == [], [f.render() for f in acct]


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


class TestReportOrderV2:
    def test_set_returned_across_modules(self, tmp_path):
        result = make_project(tmp_path, {
            "src/repro/obs/collect.py": (
                "def failing(results):\n"
                "    return {name for name, ok in results if not ok}\n"
            ),
            "src/repro/obs/render.py": (
                "from repro.obs.collect import failing\n"
                "\n"
                "def lines(results):\n"
                "    return [name for name in failing(results)]\n"
            ),
        })
        order = [f for f in result.findings if f.rule_id == "FBS011"]
        assert len(order) == 1, [f.render() for f in result.findings]
        assert order[0].path == "src/repro/obs/render.py"
        assert "sorted(" in order[0].message

    def test_witness_steps_carry_locations(self, tmp_path):
        # FBS011 is the same label propagation as FBS001, so its witness
        # has the same shape: every step names a path (and line).
        result = make_project(tmp_path, {
            "src/repro/obs/collect.py": (
                "class Collector:\n"
                "    def __init__(self, results):\n"
                "        self.bad = {name for name, ok in results if not ok}\n"
                "\n"
                "    def failing(self):\n"
                "        return self.bad\n"
                "\n"
                "    def lines(self):\n"
                "        return render(self.failing())\n"
                "\n"
                "def render(names):\n"
                "    return [name for name in names]\n"
            ),
        })
        (finding,) = [f for f in result.findings if f.rule_id == "FBS011"]
        here = "src/repro/obs/collect.py"
        assert finding.flow == (
            f"set comprehension at {here}:3",
            f"stored into self.bad at {here}:3",
            f"returned from Collector.failing() ({here})",
            f"returned to {here}:9",
            f"passed to render() as 'names' from {here}:9",
        )
        assert " -> ".join(finding.flow) in finding.message

    def test_sorted_across_modules_is_clean(self, tmp_path):
        result = make_project(tmp_path, {
            "src/repro/obs/collect.py": (
                "def failing(results):\n"
                "    return {name for name, ok in results if not ok}\n"
            ),
            "src/repro/obs/render.py": (
                "from repro.obs.collect import failing\n"
                "\n"
                "def lines(results):\n"
                "    return [name for name in sorted(failing(results))]\n"
            ),
        })
        order = [f for f in result.findings if f.rule_id == "FBS011"]
        assert order == [], [f.render() for f in order]
