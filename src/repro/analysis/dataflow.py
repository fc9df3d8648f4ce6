"""Phase 2 of the whole-program analyzer: interprocedural fixpoints.

Five passes run over the :class:`~repro.analysis.callgraph.Project`
built in phase 1.  None of them touch an AST -- they consume only the
summaries, and they are the only detectors of their rules: a flow that
starts and ends in one function is the zero-hop case of the same pass
that follows it through calls.

* **Taint** (FBS001): key material propagated through assignments,
  ndarray views, calls, returns, containers, and ``self.attr`` stores;
  every finding carries the full source-to-sink witness path
  (knowledge-flow style).
* **Exception flow** (FBS006/FBS007): per-exception-class
  reachability from the receive datapath -- its own functions first --
  over call edges that are not *guarded* for that class (guarded = the
  call site sits in a ``try`` catching the class or an ancestor, or is
  dominated by a metrics bump).
* **Impurity** (FBS002/FBS003): reading the wall clock or unseeded
  randomness is banned where it stands, and a function that
  transitively reaches either is impure; calling an impure function
  from the deterministic core is as banned as the primitive itself.
* **Blocking** (FBS010): no blocking primitives -- even hidden behind
  sync helpers -- inside ``async def``.
* **Report order** (FBS011): unordered ``set`` iteration and
  ``json.dump`` without ``sort_keys`` in the report-producing packages.

Every fixpoint iterates modules and functions in sorted order and
records first-found provenance, so witness paths (and therefore finding
messages, fingerprints, and baseline entries) are deterministic.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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

#: Packages whose reports must be byte-identical (FBS011).
_REPORT_ZONE = (
    "repro.resilience",
    "repro.load",
    "repro.obs",
    "repro.analysis",
    "repro.transport",
    "repro.gateway",
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
        if self.rule_ids & {"FBS011"}:
            self._report_order_pass()
        return self.findings

    # -- FBS001: key-material taint ----------------------------------------------------

    def _taint_pass(self) -> None:
        project = self.project
        ret_taint: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        param_taint: Dict[Tuple[str, str, str], Tuple[str, ...]] = {}
        attr_taint: Dict[Tuple[str, str], Tuple[str, ...]] = {}

        def eval_labels(
            summary: ModuleSummary,
            fn: FunctionSummary,
            labels: Iterable[Tuple],
        ) -> Optional[Tuple[str, ...]]:
            best: Optional[Tuple[str, ...]] = None
            for label in sorted(labels):
                # Order-safe boundaries are transparent to taint.
                while label and label[0] == "ord":
                    label = tuple(label[1:])
                if not label:
                    continue
                path: Optional[Tuple[str, ...]] = None
                if label[0] == "src":
                    path = (f"{label[1]} at {summary.path}:{label[2]}",)
                elif label[0] == "param":
                    path = param_taint.get((summary.key, fn.qname, label[1]))
                elif label[0] == "ret":
                    edge = self._edge_for_site(summary, fn, label[1])
                    if edge is not None:
                        site, cmod, cq = edge
                        inner = ret_taint.get((cmod, cq))
                        if inner is not None:
                            path = inner + (
                                f"returned to {summary.path}:{site.line}",
                            )
                elif label[0] == "attr":
                    path = attr_taint.get((label[1], label[2]))
                if path is not None and (best is None or len(path) < len(best)):
                    best = path
            return best

        for _ in range(_MAX_ITERATIONS):
            changed = False
            for summary, fn in project.iter_functions():
                key = (summary.key, fn.qname)
                # Returns.
                if key not in ret_taint:
                    path = eval_labels(summary, fn, fn.returns)
                    if path is not None:
                        ret_taint[key] = path + (
                            f"returned from {fn.qname}() ({summary.path})",
                        )
                        changed = True
                # Attribute stores.
                for attr, labels, line in fn.attr_stores:
                    owner = f"{summary.key}.{fn.class_name}"
                    akey = (owner, attr)
                    if akey in attr_taint:
                        continue
                    path = eval_labels(summary, fn, labels)
                    if path is not None:
                        attr_taint[akey] = path + (
                            f"stored into self.{attr} at {summary.path}:{line}",
                        )
                        changed = True
                # Arguments.
                for site, cmod, cq in self.edges[key]:
                    callee = project.function(cmod, cq)
                    if callee is None:
                        continue
                    positional = _bound_params(callee)
                    mapped = list(zip(positional, site.args))
                    mapped.extend(
                        (name, labels)
                        for name, labels in sorted(site.kwargs.items())
                        if name in callee.params
                    )
                    for pname, labels in mapped:
                        pkey = (cmod, cq, pname)
                        if pkey in param_taint:
                            continue
                        path = eval_labels(summary, fn, labels)
                        if path is not None:
                            param_taint[pkey] = path + (
                                f"passed to {cq}() as '{pname}' "
                                f"from {summary.path}:{site.line}",
                            )
                            changed = True
            if not changed:
                break

        for summary, fn in project.iter_functions():
            for sink in fn.sinks:
                path = eval_labels(summary, fn, sink.labels)
                if path is None:
                    continue
                via = " through an interprocedural flow" if len(path) > 1 else ""
                witness = " -> ".join(path)
                self._emit(
                    "FBS001",
                    summary,
                    sink.line,
                    sink.col,
                    f"key material ({sink.desc}) reaches {sink.kind}{via} "
                    f"[{witness}]; key material must never be printed, "
                    "logged or formatted, and is compared with "
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

    # -- FBS002/FBS003: wall clock and unseeded randomness, direct and transitive -------

    def _impurity_pass(self) -> None:
        project = self.project
        # (module_key, qname) -> (kind, desc, where, chain)
        impure: Dict[Tuple[str, str], Tuple[str, str, str, Tuple[str, ...]]] = {}
        for summary, fn in project.iter_functions():
            key = (summary.key, fn.qname)
            if fn.wall_clock:
                desc, line, _col = fn.wall_clock[0]
                impure[key] = (
                    "clock", desc, f"{summary.path}:{line}",
                    (f"{fn.qname}()",),
                )
            elif fn.unseeded_random:
                desc, line, _col = fn.unseeded_random[0]
                impure[key] = (
                    "random", desc, f"{summary.path}:{line}",
                    (f"{fn.qname}()",),
                )
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for summary, fn in project.iter_functions():
                key = (summary.key, fn.qname)
                if key in impure:
                    continue
                for site, cmod, cq in self.edges[key]:
                    fact = impure.get((cmod, cq))
                    if fact is not None:
                        kind, desc, where, chain = fact
                        impure[key] = (
                            kind, desc, where, (f"{fn.qname}()",) + chain
                        )
                        changed = True
                        break
            if not changed:
                break

        rules = {
            "clock": ("FBS002", "the wall clock"),
            "random": ("FBS003", "unseeded randomness"),
        }
        for summary, fn in project.iter_functions():
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
                witness = " -> ".join(chain)
                self._emit(
                    rule_id,
                    summary,
                    site.line,
                    site.col,
                    f"call to impure {cq}() transitively reaches {what} "
                    f"({desc} at {where}, via {witness}); {_REPLAY}",
                    flow=chain,
                )

    # -- FBS006: datapath rejection accounting -----------------------------------------

    def _receive_errors(self) -> Set[str]:
        found = self.project.exception_subclasses("ReceiveError")
        if found == {"ReceiveError"}:
            return set(_FALLBACK_RECEIVE_ERRORS)
        return found

    def _guarded(self, site: CallSite, covering: Set[str]) -> bool:
        return site.bump_before or bool(set(site.caught) & covering)

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
                    if ckey in chains or self._guarded(site, covering):
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

    def _receive_accounting_pass(self) -> None:
        project = self.project
        receive_errors = self._receive_errors()
        roots = [
            (summary.key, qname)
            for key in sorted(project.modules)
            for summary in (project.modules[key],)
            if _in_zone(summary, _DATAPATH)
            for qname in sorted(summary.functions)
        ]
        if not roots:
            return
        emitted: Set[Tuple[str, int, int]] = set()
        for exc in sorted(receive_errors):
            covering = {exc} | project.exception_ancestors(exc)
            chains = self._reach_unguarded(roots, covering)
            for key in sorted(chains):
                summary = project.modules[key[0]]
                fn = project.function(*key)
                for site in fn.raises:
                    if exc not in _raised(site):
                        continue
                    if site.bump_before or set(site.caught) & covering:
                        continue
                    loc = (summary.path, site.line, site.col)
                    if loc in emitted:
                        continue
                    emitted.add(loc)
                    where = (
                        "on" if len(chains[key]) == 1
                        else "in a helper reachable from"
                    )
                    witness = " -> ".join(chains[key])
                    self._emit(
                        "FBS006",
                        summary,
                        site.line,
                        site.col,
                        f"{exc} raised in {fn.qname}() {where} the receive "
                        f"datapath [{witness}] without a metrics bump on the "
                        "path; every rejected datagram must be counted "
                        "exactly once",
                        flow=chains[key],
                    )

    # -- FBS007: non-taxonomy exceptions escaping the protocol surface -----------------

    def _taxonomy_escape_pass(self) -> None:
        project = self.project
        taxonomy = project.exception_subclasses("FBSError") | _FALLBACK_TAXONOMY
        roots = []
        for key in sorted(project.modules):
            summary = project.modules[key]
            if summary.module != _PROTOCOL_MODULE or summary.is_test:
                continue
            for qname in sorted(summary.functions):
                fn = summary.functions[qname]
                if fn.is_public and fn.qname != "<module>":
                    roots.append((summary.key, qname))
        if not roots:
            return
        # Which non-taxonomy classes are raised anywhere matters; collect
        # the candidate set first to bound the per-class BFS.  A name that
        # is neither a builtin nor a project class is a variable holding an
        # already-typed error (``raise error``), not an escape.
        classes = {"BaseException", *BUILTIN_EXC_PARENTS}
        for summary in project.modules.values():
            classes.update(summary.classes)
        candidates: Set[str] = set()
        for summary, fn in project.iter_functions():
            for site in fn.raises:
                candidates |= (_raised(site) & classes) - taxonomy
        emitted: Set[Tuple[str, int, int]] = set()
        for exc in sorted(candidates):
            covering = {exc} | project.exception_ancestors(exc)
            chains = self._reach_unguarded(roots, covering)
            for key in sorted(chains):
                summary = project.modules[key[0]]
                fn = project.function(*key)
                for site in fn.raises:
                    if exc not in _raised(site):
                        continue
                    if set(site.caught) & covering:
                        continue
                    loc = (summary.path, site.line, site.col)
                    if loc in emitted:
                        continue
                    emitted.add(loc)
                    witness = " -> ".join(chains[key])
                    self._emit(
                        "FBS007",
                        summary,
                        site.line,
                        site.col,
                        f"{exc} raised in {fn.qname}() can escape through a "
                        f"public protocol entry point [{witness}]; the "
                        "protocol surface must raise FBSError taxonomy "
                        "exceptions only",
                        flow=chains[key],
                    )

    # -- FBS010: no blocking calls inside async def ------------------------------------

    def _blocking_pass(self) -> None:
        project = self.project
        blocking: Dict[Tuple[str, str], Tuple[str, str, Tuple[str, ...]]] = {}
        for summary, fn in project.iter_functions():
            if fn.blocking and not fn.is_async:
                desc, line, _col = fn.blocking[0]
                blocking[(summary.key, fn.qname)] = (
                    desc, f"{summary.path}:{line}", (f"{fn.qname}()",)
                )
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for summary, fn in project.iter_functions():
                key = (summary.key, fn.qname)
                if key in blocking or fn.is_async:
                    continue
                for site, cmod, cq in self.edges[key]:
                    fact = blocking.get((cmod, cq))
                    if fact is not None:
                        desc, where, chain = fact
                        blocking[key] = (desc, where, (f"{fn.qname}()",) + chain)
                        changed = True
                        break
            if not changed:
                break

        for summary, fn in project.iter_functions():
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
                desc, where, chain = fact
                witness = " -> ".join(chain)
                self._emit(
                    "FBS010",
                    summary,
                    site.line,
                    site.col,
                    f"async function {fn.qname}() calls {cq}(), which "
                    f"transitively blocks on {desc} at {where} (via "
                    f"{witness}); the event loop must never be blocked",
                    flow=chain,
                )

    # -- FBS011: deterministic report serialization ------------------------------------

    def _report_order_pass(self) -> None:
        project = self.project
        set_ret: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        set_param: Dict[Tuple[str, str, str], Tuple[str, ...]] = {}
        set_attr: Dict[Tuple[str, str], Tuple[str, ...]] = {}

        def eval_set(
            summary: ModuleSummary,
            fn: FunctionSummary,
            labels: Iterable[Tuple],
        ) -> Optional[Tuple[str, ...]]:
            best: Optional[Tuple[str, ...]] = None
            for label in sorted(labels):
                if label[0] == "ord":
                    continue  # behind an order-safe boundary
                path: Optional[Tuple[str, ...]] = None
                if label[0] == "set":
                    path = (f"{label[1]} at {summary.path}:{label[2]}",)
                elif label[0] == "param":
                    path = set_param.get((summary.key, fn.qname, label[1]))
                elif label[0] == "ret":
                    edge = self._edge_for_site(summary, fn, label[1])
                    if edge is not None:
                        _site, cmod, cq = edge
                        path = set_ret.get((cmod, cq))
                elif label[0] == "attr":
                    path = set_attr.get((label[1], label[2]))
                if path is not None and (best is None or len(path) < len(best)):
                    best = path
            return best

        for _ in range(_MAX_ITERATIONS):
            changed = False
            for summary, fn in project.iter_functions():
                key = (summary.key, fn.qname)
                if key not in set_ret:
                    path = eval_set(summary, fn, fn.returns)
                    if path is not None:
                        set_ret[key] = path + (f"returned from {fn.qname}()",)
                        changed = True
                for attr, labels, line in fn.attr_stores:
                    akey = (f"{summary.key}.{fn.class_name}", attr)
                    if akey in set_attr:
                        continue
                    path = eval_set(summary, fn, labels)
                    if path is not None:
                        set_attr[akey] = path + (f"stored into self.{attr}",)
                        changed = True
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
                        if pkey in set_param:
                            continue
                        path = eval_set(summary, fn, labels)
                        if path is not None:
                            set_param[pkey] = path + (
                                f"passed to {cq}() as '{pname}'",
                            )
                            changed = True
            if not changed:
                break

        for summary, fn in project.iter_functions():
            if not _in_zone(summary, _REPORT_ZONE):
                continue
            for site in fn.order_sites:
                path = eval_set(summary, fn, site.labels)
                if path is None:
                    continue
                origin = path[0]
                via = f" [{' -> '.join(path)}]" if len(path) > 1 else ""
                subject = f" over {site.desc}" if site.desc else ""
                self._emit(
                    "FBS011",
                    summary,
                    site.line,
                    site.col,
                    f"unordered iteration ({site.kind}){subject}: the value "
                    f"comes from {origin}{via}; wrap it in sorted(...) so "
                    "report output is byte-identical across runs",
                    flow=path,
                )
            for fname, line, col in fn.unsorted_json:
                self._emit(
                    "FBS011",
                    summary,
                    line,
                    col,
                    f"{fname}() without sort_keys=True in a report module; "
                    "byte-identical report contracts require sorted keys",
                )


def run_project_passes(project: Project, rule_ids: Set[str]) -> List[Finding]:
    """Run every interprocedural pass whose rule is selected."""
    return _Passes(project, rule_ids).run()
