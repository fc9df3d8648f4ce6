"""Phase 2 of the key-taint analysis: the interprocedural fixpoint.

One graph algorithm runs over the
:class:`~repro.analysis.callgraph.Project` built in phase 1.  It never
touches an AST -- it consumes only the summaries -- and it is the only
detector: a flow that starts and ends in one function is the zero-hop
case of the same algorithm that follows it through calls.

**Label propagation** (:meth:`_Passes._propagate`): key material
(``src`` labels) carried through assignments, calls, returns,
containers and ``self.attr`` stores until nothing changes, every step
recorded, so a finding carries the full source-to-sink witness path
(knowledge-flow style).  A key that reaches ``print``/``repr``/a
logging call/an f-string is a leak, and one in an ``==``/``!=``
compare is a timing channel: key and digest compares go through
:func:`repro.crypto.mac.constant_time_equal`.  This stays a static
check because a check on the running code sees only the paths a test
takes (EXPERIMENTS.md "fbslint keeps key taint" lists the shapes the
running checks miss).

The fixpoint iterates modules and functions in sorted order and
records first-found provenance, so witness paths (and therefore finding
messages) are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.callgraph import CallSite, FunctionSummary, ModuleSummary, Project

__all__ = ["Finding", "taint_findings"]

_MAX_ITERATIONS = 64

#: ``witness(summary, fn, labels)``: the recorded path by which a label
#: set evaluated inside ``fn`` derives from a key, or None.
_Witness = Callable[
    [ModuleSummary, FunctionSummary, Iterable[Tuple]], Optional[Tuple[str, ...]]
]


@dataclass(frozen=True)
class Finding:
    """Key material reaching a sink at one source location."""

    path: str
    line: int
    column: int
    message: str
    #: The witness path, source -> ... -> sink (also in ``message``).
    flow: Tuple[str, ...] = field(default=(), compare=False)

    def render(self) -> str:
        """The one report line."""
        return f"{self.path}:{self.line}:{self.column}: FBS001 {self.message}"


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
    def __init__(self, project: Project) -> None:
        self.project = project
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

    def _taint_pass(self) -> List[Finding]:
        witness = self._propagate()
        findings = []
        for summary, fn in self.project.iter_functions():
            for sink in fn.sinks:
                path = witness(summary, fn, sink.labels)
                if path is None:
                    continue
                via = " through an interprocedural flow" if len(path) > 1 else ""
                findings.append(
                    Finding(
                        path=summary.path,
                        line=sink.line,
                        column=sink.col,
                        message=(
                            f"key material ({sink.desc}) reaches {sink.kind}{via} "
                            f"[{' -> '.join(path)}]; key material must never be "
                            "printed, logged or formatted, and is compared with "
                            "repro.crypto.mac.constant_time_equal, never =="
                        ),
                        flow=path,
                    )
                )
        return findings

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


def taint_findings(project: Project) -> List[Finding]:
    """Every key-material flow from a source to a sink in ``project``."""
    return _Passes(project)._taint_pass()
