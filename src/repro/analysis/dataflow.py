"""Phase 2 of the whole-program analyzer: interprocedural fixpoints.

Two graph algorithms, each written once, run over the
:class:`~repro.analysis.callgraph.Project` built in phase 1.  Neither
touches an AST -- they consume only the summaries, and they are the
only detectors of their rules: a flow that starts and ends in one
function is the zero-hop case of the same algorithm that follows it
through calls.

* **Label propagation** (:meth:`_Passes._propagate`): key material
  (``src`` labels) carried through assignments, calls, returns,
  containers and ``self.attr`` stores until nothing changes, every step
  recorded, so a finding carries the full source-to-sink witness path
  (knowledge-flow style).  It is the taint rule (FBS001: ndarray views
  and containers included).
* **Transitive reach** (:meth:`_Passes._closure`): a function that calls
  something that reaches a primitive reaches it too.  Impurity
  (FBS002/FBS003): reading the wall clock or unseeded randomness is
  banned where it stands, and calling an impure function from the
  deterministic core is as banned as the primitive itself.  Blocking
  (FBS010): no blocking primitives -- even hidden behind sync helpers
  -- inside ``async def``, where the reach stops.

What the receive path raises and counts is not approximated here from
source text: ``tests/property/test_receive_contract.py`` drives every
receive surface with adversarial bytes and checks the exception
taxonomy and the rejection accounting on the running code.

Every fixpoint iterates modules and functions in sorted order and
records first-found provenance, so witness paths (and therefore finding
messages) are deterministic.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import get_rule
from repro.analysis.callgraph import CallSite, FunctionSummary, ModuleSummary, Project
from repro.analysis.findings import Finding

__all__ = ["run_project_passes"]

_MAX_ITERATIONS = 64

#: ``witness(summary, fn, labels)``: the recorded path by which a label
#: set evaluated inside ``fn`` derives from a key, or None.
_Witness = Callable[
    [ModuleSummary, FunctionSummary, Iterable[Tuple]], Optional[Tuple[str, ...]]
]

#: Packages whose callers must stay pure (transitive FBS002/FBS003).
#: The load and bench layers go through sanctioned clocks by design.
_PURITY_ZONE = ("repro.core", "repro.crypto", "repro.netsim", "repro.baselines")

#: Modules that may read the real clock themselves: ``repro.bench``
#: measures real time, and ``repro.transport.udp`` *is* the real-time
#: substrate -- its ``now()`` is the clock the rest of the stack
#: injects, which keeps real time quarantined behind the transport
#: boundary.  Everything else (the rest of ``repro.transport``
#: included) stays under the ban.
_CLOCK_SANCTIONED = ("repro.bench", "repro.transport.udp")

_REPLAY = (
    "deterministic replay requires the simulated clock (sim.now / the "
    "injected now callable) and explicitly seeded generators "
    "(random.Random(seed), numpy.random.default_rng(seed))"
)


def _under(summary: ModuleSummary, zone: Sequence[str]) -> bool:
    mod = summary.module
    return mod is not None and any(
        mod == z or mod.startswith(z + ".") for z in zone
    )


def _in_zone(summary: ModuleSummary, zone: Sequence[str]) -> bool:
    return not summary.is_test and _under(summary, zone)


def _bound_params(fn: FunctionSummary) -> List[str]:
    """Parameters that positional call arguments map onto."""
    params = fn.params
    if (
        params
        and params[0] in ("self", "cls")
        and "staticmethod" not in fn.decorators
    ):
        return params[1:]
    return list(params)


class _Passes:
    def __init__(self, project: Project, rule_ids: Set[str]) -> None:
        self.project = project
        self.rule_ids = rule_ids
        self.findings: List[Finding] = []
        # Resolved call edges, precomputed once:
        # (module_key, qname) -> [(site, callee_module_key, callee_qname)]
        self.edges: Dict[Tuple[str, str], List[Tuple[CallSite, str, str]]] = {}
        for summary, fn in project.iter_functions():
            out = []
            for site in fn.calls:
                resolved = project.resolve_call(summary, fn, site)
                if resolved is not None:
                    out.append((site, resolved[0], resolved[1]))
            self.edges[(summary.key, fn.qname)] = out

    def _emit(
        self,
        rule_id: str,
        summary: ModuleSummary,
        line: int,
        col: int,
        message: str,
        flow: Tuple[str, ...] = (),
    ) -> None:
        if rule_id not in self.rule_ids:
            return
        self.findings.append(
            Finding(
                rule_id=rule_id,
                severity=get_rule(rule_id).severity,
                path=summary.path,
                line=line,
                column=col,
                message=message,
                flow=flow,
            )
        )

    def run(self) -> List[Finding]:
        if self.rule_ids & {"FBS001"}:
            self._taint_pass()
        if self.rule_ids & {"FBS002", "FBS003"}:
            self._impurity_pass()
        if self.rule_ids & {"FBS010"}:
            self._blocking_pass()
        return self.findings

    # -- label propagation: FBS001 key-material taint ----------------------------------

    def _propagate(self) -> _Witness:
        """Carry ``src`` labels to a fixpoint over returns, ``self.attr``
        stores and call arguments.

        Returns ``witness(summary, fn, labels)``: the shortest recorded
        source-to-here path of a label set evaluated inside ``fn``, or
        None when nothing in it derives from a key.
        """
        project = self.project
        ret: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        param: Dict[Tuple[str, str, str], Tuple[str, ...]] = {}
        attr: Dict[Tuple[str, str], Tuple[str, ...]] = {}

        def witness(
            summary: ModuleSummary,
            fn: FunctionSummary,
            labels: Iterable[Tuple],
        ) -> Optional[Tuple[str, ...]]:
            best: Optional[Tuple[str, ...]] = None
            for label in sorted(labels):
                path: Optional[Tuple[str, ...]] = None
                if label[0] == "src":
                    path = (f"{label[1]} at {summary.path}:{label[2]}",)
                elif label[0] == "param":
                    path = param.get((summary.key, fn.qname, label[1]))
                elif label[0] == "ret":
                    edge = self._edge_for_site(summary, fn, label[1])
                    if edge is not None:
                        site, cmod, cq = edge
                        inner = ret.get((cmod, cq))
                        if inner is not None:
                            path = inner + (
                                f"returned to {summary.path}:{site.line}",
                            )
                elif label[0] == "attr":
                    path = attr.get((label[1], label[2]))
                if path is not None and (best is None or len(path) < len(best)):
                    best = path
            return best

        for _ in range(_MAX_ITERATIONS):
            changed = False
            for summary, fn in project.iter_functions():
                key = (summary.key, fn.qname)
                # Returns.
                if key not in ret:
                    path = witness(summary, fn, fn.returns)
                    if path is not None:
                        ret[key] = path + (
                            f"returned from {fn.qname}() ({summary.path})",
                        )
                        changed = True
                # Attribute stores.
                for name, labels, line in fn.attr_stores:
                    akey = (f"{summary.key}.{fn.class_name}", name)
                    if akey in attr:
                        continue
                    path = witness(summary, fn, labels)
                    if path is not None:
                        attr[akey] = path + (
                            f"stored into self.{name} at {summary.path}:{line}",
                        )
                        changed = True
                # Arguments.
                for site, cmod, cq in self.edges[key]:
                    callee = project.function(cmod, cq)
                    if callee is None:
                        continue
                    mapped = list(zip(_bound_params(callee), site.args))
                    mapped.extend(
                        (name, labels)
                        for name, labels in sorted(site.kwargs.items())
                        if name in callee.params
                    )
                    for pname, labels in mapped:
                        pkey = (cmod, cq, pname)
                        if pkey in param:
                            continue
                        path = witness(summary, fn, labels)
                        if path is not None:
                            param[pkey] = path + (
                                f"passed to {cq}() as '{pname}' "
                                f"from {summary.path}:{site.line}",
                            )
                            changed = True
            if not changed:
                break
        return witness

    def _taint_pass(self) -> None:
        witness = self._propagate()
        for summary, fn in self.project.iter_functions():
            for sink in fn.sinks:
                path = witness(summary, fn, sink.labels)
                if path is None:
                    continue
                via = " through an interprocedural flow" if len(path) > 1 else ""
                self._emit(
                    "FBS001",
                    summary,
                    sink.line,
                    sink.col,
                    f"key material ({sink.desc}) reaches {sink.kind}{via} "
                    f"[{' -> '.join(path)}]; key material must never be "
                    "printed, logged or formatted, and is compared with "
                    "repro.crypto.mac.constant_time_equal, never ==",
                    flow=path,
                )

    def _edge_for_site(
        self, summary: ModuleSummary, fn: FunctionSummary, site_id: int
    ) -> Optional[Tuple[CallSite, str, str]]:
        if not isinstance(site_id, int) or site_id >= len(fn.calls):
            return None
        site = fn.calls[site_id]
        for edge in self.edges[(summary.key, fn.qname)]:
            if edge[0] is site:
                return edge
        return None

    # -- transitive reach: FBS002/FBS003 impurity, FBS010 blocking --------------------

    def _closure(
        self,
        direct: Callable[[FunctionSummary], Optional[Tuple[str, Tuple[str, int, int]]]],
        through: Callable[[FunctionSummary], bool] = lambda fn: True,
    ) -> Dict[Tuple[str, str], Tuple[str, str, str, Tuple[str, ...]]]:
        """Which functions reach a primitive, directly or through calls.

        ``direct(fn)`` is the ``(kind, (desc, line, col))`` of a
        primitive ``fn`` uses itself, or None; the fact passes from a
        callee to its callers through every function ``through``
        accepts.  Returns ``(module_key, qname) -> (kind, desc, where,
        chain)``, ``chain`` naming the calls from that function down to
        the primitive.
        """
        project = self.project
        facts: Dict[Tuple[str, str], Tuple[str, str, str, Tuple[str, ...]]] = {}
        for summary, fn in project.iter_functions():
            found = direct(fn) if through(fn) else None
            if found is not None:
                kind, (desc, line, _col) = found
                facts[(summary.key, fn.qname)] = (
                    kind, desc, f"{summary.path}:{line}", (f"{fn.qname}()",)
                )
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for summary, fn in project.iter_functions():
                key = (summary.key, fn.qname)
                if key in facts or not through(fn):
                    continue
                for _site, cmod, cq in self.edges[key]:
                    fact = facts.get((cmod, cq))
                    if fact is not None:
                        facts[key] = fact[:3] + ((f"{fn.qname}()",) + fact[3],)
                        changed = True
                        break
            if not changed:
                break
        return facts

    def _impurity_pass(self) -> None:
        def direct(fn: FunctionSummary):
            if fn.wall_clock:
                return "clock", fn.wall_clock[0]
            if fn.unseeded_random:
                return "random", fn.unseeded_random[0]
            return None

        impure = self._closure(direct)
        rules = {
            "clock": ("FBS002", "the wall clock"),
            "random": ("FBS003", "unseeded randomness"),
        }
        for summary, fn in self.project.iter_functions():
            if summary.is_test:
                continue
            # Zero hops: the function reads the primitive itself.
            own = [("random", site) for site in fn.unseeded_random]
            if not _under(summary, _CLOCK_SANCTIONED):
                own += [("clock", site) for site in fn.wall_clock]
            for kind, (desc, line, col) in own:
                rule_id, what = rules[kind]
                self._emit(
                    rule_id, summary, line, col, f"{desc} uses {what}; {_REPLAY}"
                )
            if not _in_zone(summary, _PURITY_ZONE):
                continue
            for site, cmod, cq in self.edges[(summary.key, fn.qname)]:
                fact = impure.get((cmod, cq))
                if fact is None:
                    continue
                kind, desc, where, chain = fact
                rule_id, what = rules[kind]
                self._emit(
                    rule_id,
                    summary,
                    site.line,
                    site.col,
                    f"call to impure {cq}() transitively reaches {what} "
                    f"({desc} at {where}, via {' -> '.join(chain)}); {_REPLAY}",
                    flow=chain,
                )

    def _blocking_pass(self) -> None:
        # An ``async def`` is where the rule reports, not a helper the
        # fact travels through: awaiting a coroutine yields to the loop.
        blocking = self._closure(
            lambda fn: ("blocking", fn.blocking[0]) if fn.blocking else None,
            through=lambda fn: not fn.is_async,
        )
        for summary, fn in self.project.iter_functions():
            if not fn.is_async or summary.is_test:
                continue
            for desc, line, col in fn.blocking:
                self._emit(
                    "FBS010",
                    summary,
                    line,
                    col,
                    f"blocking call {desc} inside async function "
                    f"{fn.qname}(); the event loop must never be blocked -- "
                    "use the loop clock or an executor",
                )
            for site, cmod, cq in self.edges[(summary.key, fn.qname)]:
                fact = blocking.get((cmod, cq))
                if fact is None:
                    continue
                _kind, desc, where, chain = fact
                self._emit(
                    "FBS010",
                    summary,
                    site.line,
                    site.col,
                    f"async function {fn.qname}() calls {cq}(), which "
                    f"transitively blocks on {desc} at {where} (via "
                    f"{' -> '.join(chain)}); the event loop must never be blocked",
                    flow=chain,
                )


def run_project_passes(project: Project, rule_ids: Set[str]) -> List[Finding]:
    """Run every interprocedural pass whose rule is selected."""
    return _Passes(project, rule_ids).run()
