"""Phase 2 of the whole-program analyzer: interprocedural fixpoints.

Three graph algorithms, each written once, run over the
:class:`~repro.analysis.callgraph.Project` built in phase 1.  None of
them touch an AST -- they consume only the summaries, and they are the
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
* **Unguarded raises** (:meth:`_Passes._report_unguarded`):
  per-exception-class reachability from a set of roots -- their own
  raise sites first -- over call edges that are not *guarded* for that
  class (guarded = the call site sits in a ``try`` catching the class
  or an ancestor, or is dominated by a metrics bump).  Rooted at the
  receive datapath it is rejection accounting (FBS006); rooted at the
  public protocol surface it is the exception taxonomy (FBS007).

Every fixpoint iterates modules and functions in sorted order and
records first-found provenance, so witness paths (and therefore finding
messages) are deterministic.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import get_rule
from repro.analysis.callgraph import (
    BUILTIN_EXC_PARENTS,
    CallSite,
    FunctionSummary,
    ModuleSummary,
    Project,
    RaiseSite,
)
from repro.analysis.findings import Finding

__all__ = ["run_project_passes"]

_MAX_ITERATIONS = 64

#: ``witness(summary, fn, labels)``: the recorded path by which a label
#: set evaluated inside ``fn`` derives from a key, or None.
_Witness = Callable[
    [ModuleSummary, FunctionSummary, Iterable[Tuple]], Optional[Tuple[str, ...]]
]

#: Fallback taxonomies when the real errors module is not in the
#: analyzed set (single-file runs, fixtures).
_FALLBACK_RECEIVE_ERRORS = {
    "ReceiveError",
    "StaleTimestampError",
    "MacMismatchError",
    "HeaderFormatError",
}
_FALLBACK_TAXONOMY = _FALLBACK_RECEIVE_ERRORS | {
    "FBSError",
    "UnknownPrincipalError",
    "ScenarioError",
    "CertificateError",
    "SignatureError",
}

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

#: The module whose public functions are the protocol surface (FBS007
#: roots) and, with it, the packages forming the receive datapath
#: (FBS006 roots).
_PROTOCOL_MODULE = "repro.core.protocol"
_DATAPATH = (_PROTOCOL_MODULE, "repro.baselines")


def _under(summary: ModuleSummary, zone: Sequence[str]) -> bool:
    mod = summary.module
    return mod is not None and any(
        mod == z or mod.startswith(z + ".") for z in zone
    )


def _in_zone(summary: ModuleSummary, zone: Sequence[str]) -> bool:
    return not summary.is_test and _under(summary, zone)


def _raised(site: RaiseSite) -> Set[str]:
    """The class names a raise site raises: its own, or -- for a bare
    ``raise`` -- the ones its handler caught."""
    return {site.name} if site.name else set(site.reraise_of)


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
        if self.rule_ids & {"FBS006"}:
            self._receive_accounting_pass()
        if self.rule_ids & {"FBS007"}:
            self._taxonomy_escape_pass()
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

    # -- unguarded raises: FBS006 rejection accounting, FBS007 taxonomy escapes ---------

    def _reach_unguarded(
        self,
        roots: List[Tuple[str, str]],
        covering: Set[str],
    ) -> Dict[Tuple[str, str], Tuple[str, ...]]:
        """BFS over call edges not guarded for the exception class."""
        project = self.project
        chains: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        frontier: List[Tuple[str, str]] = []
        for key in roots:
            summary = project.modules.get(key[0])
            fn = project.function(*key)
            if summary is None or fn is None:
                continue
            chains[key] = (f"{fn.qname}() ({summary.path}:{fn.line})",)
            frontier.append(key)
        while frontier:
            next_frontier: List[Tuple[str, str]] = []
            for key in frontier:
                for site, cmod, cq in self.edges.get(key, ()):
                    ckey = (cmod, cq)
                    if (
                        ckey in chains
                        or site.bump_before
                        or set(site.caught) & covering
                    ):
                        continue
                    callee_summary = project.modules.get(cmod)
                    callee = project.function(cmod, cq)
                    if callee_summary is None or callee is None:
                        continue
                    chains[ckey] = chains[key] + (
                        f"{cq}() ({callee_summary.path}:{callee.line})",
                    )
                    next_frontier.append(ckey)
            frontier = next_frontier
        return chains

    def _report_unguarded(
        self,
        rule_id: str,
        roots: List[Tuple[str, str]],
        classes: Iterable[str],
        bump_guards: bool,
        message: Callable[[str, FunctionSummary, Tuple[str, ...]], str],
    ) -> None:
        """Report, once per raise site, every raise of one of ``classes``
        that a root can reach with nothing on the way catching it.

        ``bump_guards`` says whether a metrics bump before the raise
        accounts for it; ``message(exc, fn, chain)`` is the rule's
        wording.
        """
        if not roots:
            return
        project = self.project
        emitted: Set[Tuple[str, int, int]] = set()
        for exc in sorted(classes):
            covering = {exc} | project.exception_ancestors(exc)
            chains = self._reach_unguarded(roots, covering)
            for key in sorted(chains):
                summary = project.modules[key[0]]
                fn = project.function(*key)
                for site in fn.raises:
                    if exc not in _raised(site) or set(site.caught) & covering:
                        continue
                    loc = (summary.path, site.line, site.col)
                    if loc in emitted or (bump_guards and site.bump_before):
                        continue
                    emitted.add(loc)
                    self._emit(
                        rule_id,
                        summary,
                        site.line,
                        site.col,
                        message(exc, fn, chains[key]),
                        flow=chains[key],
                    )

    def _receive_accounting_pass(self) -> None:
        project = self.project
        receive_errors = project.exception_subclasses("ReceiveError")
        if receive_errors == {"ReceiveError"}:
            receive_errors = _FALLBACK_RECEIVE_ERRORS
        roots = [
            (summary.key, qname)
            for key in sorted(project.modules)
            for summary in (project.modules[key],)
            if _in_zone(summary, _DATAPATH)
            for qname in sorted(summary.functions)
        ]

        def message(exc: str, fn: FunctionSummary, chain: Tuple[str, ...]) -> str:
            where = "on" if len(chain) == 1 else "in a helper reachable from"
            return (
                f"{exc} raised in {fn.qname}() {where} the receive "
                f"datapath [{' -> '.join(chain)}] without a metrics bump on "
                "the path; every rejected datagram must be counted exactly once"
            )

        self._report_unguarded(
            "FBS006", roots, receive_errors, bump_guards=True, message=message
        )

    def _taxonomy_escape_pass(self) -> None:
        project = self.project
        taxonomy = project.exception_subclasses("FBSError") | _FALLBACK_TAXONOMY
        roots = [
            (summary.key, qname)
            for key in sorted(project.modules)
            for summary in (project.modules[key],)
            if summary.module == _PROTOCOL_MODULE and not summary.is_test
            for qname in sorted(summary.functions)
            if summary.functions[qname].is_public and qname != "<module>"
        ]
        # A name that is neither a builtin nor a project class is a
        # variable holding an already-typed error (``raise error``), not
        # an escape.
        classes = {"BaseException", *BUILTIN_EXC_PARENTS}
        for summary in project.modules.values():
            classes.update(summary.classes)
        candidates: Set[str] = set()
        for summary, fn in project.iter_functions():
            for site in fn.raises:
                candidates |= (_raised(site) & classes) - taxonomy
        self._report_unguarded(
            "FBS007",
            roots,
            candidates,
            bump_guards=False,
            message=lambda exc, fn, chain: (
                f"{exc} raised in {fn.qname}() can escape through a public "
                f"protocol entry point [{' -> '.join(chain)}]; the protocol "
                "surface must raise FBSError taxonomy exceptions only"
            ),
        )


def run_project_passes(project: Project, rule_ids: Set[str]) -> List[Finding]:
    """Run every interprocedural pass whose rule is selected."""
    return _Passes(project, rule_ids).run()
