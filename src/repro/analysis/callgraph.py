"""Phase 1 of the whole-program analyzer: module summaries + call graph.

fbslint analyzes the tree in two phases.  Phase 1 (this module) parses
every module once and distills each into a :class:`ModuleSummary`, the
one fact base the taint detector reads: the functions it defines, the
calls they make (with their arguments' dataflow labels, for the
interprocedural pass), their key-material sinks, the classes and their
statically-evident attribute types, and the module's imports.  The
tables that say what a source or a sink *is* live here and nowhere
else.  Because no other walk exists, this one reaches every place
python evaluates an expression: the module body is a pseudo-function
whose walk summarizes each def and class where it meets it,
decorators, default values and class bodies run in the enclosing
scope, lambda bodies are walked with their parameters shadowed, and a
free name reads the nearest enclosing scope that binds it (closures,
module globals).  Phase 2 (:mod:`repro.analysis.dataflow`) never
touches an AST: it runs one fixpoint over a :class:`Project` built
from these summaries and emits every FBS001 finding, a same-function
flow being the zero-hop case of the interprocedural one.  Exceptions,
clocks, generators and blocking calls are not part of the fact base:
what the receive path may raise or must count, what reaches a report
and what runs on the event loop are checked on the running code
(``tests/property/test_receive_contract.py``,
``tests/test_report_determinism.py``, ``tests/shim/loopguard.py``).

The dataflow vocabulary is a small label language, key taint and
nothing else: a label says what a value may *know* (knowledge-flow
style).  Every expression evaluates to a set of labels describing
where its value may come from:

* ``("src", desc, line)`` -- the result of a key-derivation call
  (taint source);
* ``("param", name)`` -- the function's own parameter ``name``;
* ``("ret", site)`` -- the return value of call site ``site``;
* ``("attr", owner, name)`` -- attribute ``name`` of class ``owner``
  (``self.name`` loads/stores);
* ``("ctor", callee)`` -- the instance a constructor call makes
  (types ``self.x = Foo()`` for call resolution; it carries no taint
  and does not survive being put in a container).

A container holds what its elements hold: lists, tuples, dicts, sets,
comprehensions, subscripts and loop targets pass labels through.
Whether a ``param``/``ret``/``attr`` label actually carries key
material is decided by the interprocedural fixpoint in phase 2; phase
1 only records the local flows.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import call_name, dotted_name
from repro.analysis.context import ModuleContext

__all__ = [
    "CallSite",
    "SinkSite",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "Project",
    "summarize_module",
]

Label = Tuple[Any, ...]

#: A call whose target name contains one of these is a key-material
#: taint source.
SOURCE_FRAGMENTS = (
    "flow_key",
    "master_key",
    "mac_key",
    "encryption_key",
    "session_key",
    "interval_key",
    "derive_key",
)
#: Exact call names that are also taint sources (DH agreement).
SOURCE_NAMES = {"agree"}

LOG_METHODS = {"debug", "info", "warning", "error", "exception", "critical", "log"}

#: Constructors/combinators whose result holds their arguments' contents:
#: key bytes fed to these stay key material (``repro.crypto.vector``
#: moves MAC keys and DES round masks through ndarrays and packed ints;
#: ``np.take(masks, lanes)`` gathers key rows and
#: ``int.from_bytes(key, "little")`` re-spells them, neither launders
#: them).  Methods need no table: a call on a tainted receiver
#: (``.astype()``, ``.view()``, ``.tobytes()``, ``.to_bytes()``) is
#: tainted already.
_CONTENT_FUNCS = {
    "array",
    "asarray",
    "ascontiguousarray",
    "concatenate",
    "from_bytes",
    "frombuffer",
    "stack",
    "take",
}

#: Builtins whose result still carries their argument's contents:
#: taint passes through (``sorted(keys)``, ``list(keys)``, ``set(keys)``).
_TAINT_PASSTHROUGH = {
    "sorted", "sum", "min", "max",
    "list", "tuple", "enumerate", "iter", "reversed",
    "set", "frozenset",
}
#: Builtins whose scalar result carries no contents (``len(key)`` is
#: not key material).
_SCALAR_CONSUMERS = {"len", "any", "all", "bool"}

#: Container mutators that inject their argument's taint into the receiver.
_CONTAINER_MUTATORS = {"append", "add", "insert", "extend", "update", "setdefault"}


def _is_source_call(node: ast.Call) -> Optional[str]:
    name = call_name(node)
    if name in SOURCE_NAMES or any(f in name for f in SOURCE_FRAGMENTS):
        return name
    return None


# -- summary dataclasses ---------------------------------------------------------------


@dataclass
class CallSite:
    """One call expression inside a function."""

    callee: str  # dotted target as written ("self._rejected", "modes.decrypt")
    line: int
    col: int
    #: Labels of each positional argument.
    args: List[List[Label]] = field(default_factory=list)
    #: Labels of each keyword argument.
    kwargs: Dict[str, List[Label]] = field(default_factory=dict)


@dataclass
class SinkSite:
    """A taint sink occurrence (FBS001)."""

    kind: str  # "print()", "logging call .debug()", "f-string", "=="
    line: int
    col: int
    labels: List[Label]
    desc: str  # human handle on the flowing expression


@dataclass
class FunctionSummary:
    """Everything phase 2 needs to know about one function."""

    qname: str  # "FBSEndpoint.unprotect", "decode", "<module>"
    line: int
    params: List[str] = field(default_factory=list)
    class_name: Optional[str] = None
    decorators: List[str] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    sinks: List[SinkSite] = field(default_factory=list)
    #: Labels that may flow into the return value (or a yield).
    returns: List[Label] = field(default_factory=list)
    #: ``self.X = <labels>`` stores: (attr, labels, line).
    attr_stores: List[Tuple[str, List[Label], int]] = field(default_factory=list)


@dataclass
class ClassSummary:
    name: str
    line: int
    bases: List[str] = field(default_factory=list)
    #: Statically-evident attribute types: attr -> dotted class expr
    #: (from ``self.attr = ClassName(...)`` assignments).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """The phase-1 product for one source file."""

    path: str  # report path (repo-relative)
    #: Symbol-table key: the dotted name ("repro.core.protocol"), else
    #: the path.  A module that lost a contested dotted name (a fixture
    #: impersonating a real module) is re-keyed by path.
    key: str
    #: Import bindings: local name -> ("module", target) | ("from", module, name).
    imports: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)


# -- phase-1 summarizer ----------------------------------------------------------------


class _ModuleSummarizer:
    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        module = ".".join(ctx.module_parts) if ctx.module_parts else None
        self.summary = ModuleSummary(path=ctx.path, key=module or ctx.path)
        self._collect_imports(ctx.tree)

    def _collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.asname:
                        self.summary.imports[item.asname] = ("module", item.name)
                    else:
                        root = item.name.split(".")[0]
                        self.summary.imports[root] = ("module", root)
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for item in node.names:
                    local = item.asname or item.name
                    self.summary.imports[local] = ("from", node.module, item.name)

    def run(self) -> ModuleSummary:
        # The module body is a pseudo-function, so module-level calls and
        # sinks take part in the interprocedural passes.  Its walk -- like
        # every function's -- summarizes each def and class it meets.
        _FunctionSummarizer(
            self, "<module>", self.ctx.tree.body, params=[],
            class_name=None, line=1, decorators=[],
        ).run()
        return self.summary


def _param_names(args: ast.arguments) -> List[str]:
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return params


class _FunctionSummarizer:
    """Intra-function label propagation (two passes to a fixpoint)."""

    def __init__(
        self,
        owner: _ModuleSummarizer,
        qname: str,
        body: Sequence[ast.stmt],
        params: List[str],
        class_name: Optional[str],
        line: int,
        decorators: List[str],
        enclosing: Optional["_FunctionSummarizer"] = None,
    ) -> None:
        self.owner = owner
        self.body = body
        #: The scope this def sits in: free names (closure variables,
        #: module globals) are read from it.
        self.enclosing = enclosing
        self.fs = FunctionSummary(
            qname=qname,
            line=line,
            params=params,
            class_name=class_name,
            decorators=decorators,
        )
        self.env: Dict[str, Set[Label]] = {
            p: {("param", p)} for p in params if p not in ("self", "cls")
        }
        #: Qualified-name prefix of the defs nested in this body.
        self.prefix = "" if qname == "<module>" else qname + "."
        self.recording = False
        self._site_ids: Dict[Tuple[int, int, str], int] = {}

    def run(self) -> None:
        for recording in (False, True):
            self.recording = recording
            for stmt in self.body:
                self._stmt(stmt)
        self.owner.summary.functions[self.fs.qname] = self.fs

    # -- statement walk ----------------------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            labels = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, labels, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign):
            self._eval(stmt.annotation)
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value), stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            self._assign(stmt.target, self._eval(stmt.value), stmt.lineno)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                labels = self._eval(stmt.value)
                if self.recording:
                    for l in sorted(labels):
                        if l not in self.fs.returns:
                            self.fs.returns.append(l)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_labels = self._eval(stmt.iter)
            self._assign(stmt.target, self._contents(iter_labels), stmt.lineno)
            for inner in stmt.body + stmt.orelse:
                self._stmt(inner)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                labels = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, labels, stmt.lineno)
            for inner in stmt.body:
                self._stmt(inner)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._def(stmt, self.fs.class_name, self.prefix)
        elif isinstance(stmt, ast.ClassDef):
            self._class(stmt)
        else:
            # Statements that bind no label (if, while, try, raise,
            # match, ...).
            self._children(stmt)

    def _children(self, node: ast.AST) -> None:
        """Walk a node the label language does not model.

        Nothing under it binds a label, but every expression and
        statement under it -- an ``except`` clause, a ``match`` arm, a
        pattern guard, a default value -- is still evaluated, so its
        calls and sinks are recorded.
        """
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child)
            elif isinstance(child, ast.stmt):
                self._stmt(child)
            else:
                self._children(child)

    def _def(self, node: ast.stmt, class_name: Optional[str], prefix: str) -> None:
        """A def met on the walk: its decorators, defaults and
        annotations run here; its body gets a summary of its own."""
        for expr in node.decorator_list:
            self._eval(expr)
        self._children(node.args)
        if node.returns is not None:
            self._eval(node.returns)
        if self.recording:
            _FunctionSummarizer(
                self.owner,
                prefix + node.name,
                node.body,
                params=_param_names(node.args),
                class_name=class_name,
                line=node.lineno,
                decorators=[dotted_name(d) for d in node.decorator_list],
                enclosing=self,
            ).run()

    def _class(self, node: ast.ClassDef) -> None:
        """A class body runs where it stands, in the enclosing scope;
        its methods are summarized under ``Class.method``, nested
        classes flat."""
        for expr in node.decorator_list + node.bases:
            self._eval(expr)
        for kw in node.keywords:
            self._eval(kw.value)
        if self.recording:
            self.owner.summary.classes[node.name] = ClassSummary(
                name=node.name,
                line=node.lineno,
                bases=[dotted_name(b) for b in node.bases],
            )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._def(stmt, node.name, node.name + ".")
            else:
                self._stmt(stmt)

    def _assign(self, target: ast.AST, labels: Set[Label], line: int) -> None:
        if isinstance(target, ast.Name):
            self.env.setdefault(target.id, set()).update(labels)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, labels, line)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, labels, line)
        elif isinstance(target, ast.Subscript):
            self._eval(target.value)
            self._eval(target.slice)
        elif isinstance(target, ast.Attribute):
            base = target.value
            if not (isinstance(base, ast.Name) and base.id in ("self", "cls")):
                self._eval(base)
            else:
                owner = self.fs.class_name
                if owner and self.recording:
                    self.fs.attr_stores.append((target.attr, sorted(labels), line))
                    # Statically-evident attribute type for call resolution.
                    cls_summary = self.owner.summary.classes.get(owner)
                    if cls_summary is not None and target.attr not in cls_summary.attr_types:
                        ctor = self._constructor_of(labels)
                        if ctor:
                            cls_summary.attr_types[target.attr] = ctor

    def _constructor_of(self, labels: Set[Label]) -> Optional[str]:
        ctors = sorted({l[1] for l in labels if l[0] == "ctor"})
        if len(ctors) == 1:
            return ctors[0]
        return None

    # -- expression evaluation ---------------------------------------------------------

    def _eval(self, node: ast.expr) -> Set[Label]:
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                owner = self.fs.class_name
                if owner:
                    key = self.owner.summary.key
                    return {("attr", f"{key}.{owner}", node.attr)}
                return set()
            return self._eval(base)
        if isinstance(node, ast.Subscript):
            labels = self._eval(node.value)
            self._eval(node.slice)
            return labels
        if isinstance(node, ast.BinOp):
            return self._eval(node.left) | self._eval(node.right)
        if isinstance(node, ast.BoolOp):
            out: Set[Label] = set()
            for v in node.values:
                out |= self._eval(v)
            return out
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body) | self._eval(node.orelse)
        if isinstance(node, ast.Compare):
            return self._compare(node)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                labels = self._eval(node.value)
                if self.recording:
                    for l in sorted(labels):
                        if l not in self.fs.returns:
                            self.fs.returns.append(l)
            return set()
        if isinstance(node, ast.NamedExpr):
            labels = self._eval(node.value)
            self._assign(node.target, labels, node.lineno)
            return labels
        if isinstance(node, ast.JoinedStr):
            for part in node.values:
                self._eval(part)
            return set()
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)):
            return self._comprehension(node)
        if isinstance(node, ast.Lambda):
            # Defaults run now; the body runs later, with its
            # parameters shadowing ours.
            self._children(node.args)
            shadowed = {
                p: self.env.pop(p) for p in _param_names(node.args) if p in self.env
            }
            self._eval(node.body)
            self.env.update(shadowed)
            return set()
        if isinstance(node, ast.FormattedValue):
            labels = self._eval(node.value)
            self._record_sink("f-string", node, labels, self._describe(node.value))
            if node.format_spec is not None:
                self._eval(node.format_spec)
            return set()
        if isinstance(node, ast.Constant):
            return set()
        # Fallback, and every container display: union over child
        # expressions.
        out = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self._eval(child)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            return self._contents(out)
        return out

    def _lookup(self, name: str) -> Set[Label]:
        """Labels of a name: bound here, else by the nearest enclosing
        scope that binds it.  Only labels that mean the same thing in
        every function cross the boundary -- ``param`` and ``ret`` are
        relative to the function that holds them."""
        if name in self.env:
            return set(self.env[name])
        scope = self.enclosing
        while scope is not None and name not in scope.env:
            scope = scope.enclosing
        if scope is None:
            return set()
        return {l for l in scope.env[name] if l[0] not in ("param", "ret")}

    @staticmethod
    def _contents(labels: Set[Label]) -> Set[Label]:
        """What a container holds, or an element drawn from one: its
        taint, not its type (``[Foo()]`` is no ``Foo`` for call
        resolution, and neither is what a loop draws from ``Foo()``)."""
        return {l for l in labels if l[0] != "ctor"}

    def _comprehension(self, node: ast.expr) -> Set[Label]:
        for gen in node.generators:
            iter_labels = self._eval(gen.iter)
            self._assign(gen.target, self._contents(iter_labels), node.lineno)
            for cond in gen.ifs:
                self._eval(cond)
        if isinstance(node, ast.DictComp):
            out = self._eval(node.key) | self._eval(node.value)
        else:
            out = self._eval(node.elt)
        return self._contents(out)

    def _compare(self, node: ast.Compare) -> Set[Label]:
        operands = [node.left] + list(node.comparators)
        label_sets = [self._eval(op) for op in operands]
        for op, (left, llabels), (right, rlabels) in zip(
            node.ops,
            zip(operands, label_sets),
            zip(operands[1:], label_sets[1:]),
        ):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side, labels in ((left, llabels), (right, rlabels)):
                if labels:
                    self._record_sink("==", node, labels, self._describe(side))
                    break
        return set()

    # -- calls -------------------------------------------------------------------------

    def _call(self, node: ast.Call) -> Set[Label]:
        func = node.func
        callee = dotted_name(func)
        # The receiver of a method call, or a computed callee
        # (``handlers[k]()``, ``(lambda: ...)()``).
        receiver = self._eval(func.value if isinstance(func, ast.Attribute) else func)
        arg_labels = [self._eval(a) for a in node.args]
        kw_labels = {
            kw.arg: self._eval(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        for kw in node.keywords:
            if kw.arg is None:
                self._eval(kw.value)

        fname = call_name(node)

        self._detect_taint_sink(node, func, fname, node.args, node.keywords,
                                arg_labels, kw_labels)

        # Container mutation: lst.append(key) taints lst.
        if (
            isinstance(func, ast.Attribute)
            and fname in _CONTAINER_MUTATORS
            and isinstance(func.value, ast.Name)
        ):
            pool = self.env.setdefault(func.value.id, set())
            for labels in arg_labels:
                pool.update(self._contents(labels))
            for labels in kw_labels.values():
                pool.update(self._contents(labels))

        # Key-material source?
        source = _is_source_call(node)
        if source is not None:
            self._register_site(node, callee, arg_labels, kw_labels)
            return {("src", f"{source}()", node.lineno)}

        if isinstance(func, ast.Name) and func.id in _SCALAR_CONSUMERS:
            return set()
        if isinstance(func, ast.Name) and func.id in _TAINT_PASSTHROUGH:
            return self._contents(set().union(*arg_labels))

        site_id = self._register_site(node, callee, arg_labels, kw_labels)

        out = {("ret", site_id)} if site_id is not None else set()
        # A method call on a tainted receiver yields tainted output
        # (key.hex(), lanes.astype(...).tobytes()), and so does a
        # constructor fed key bytes (np.frombuffer(key), int.from_bytes(key)).
        if isinstance(func, ast.Attribute):
            out |= receiver
            if fname in _CONTENT_FUNCS:
                for labels in arg_labels:
                    out |= labels
        # Track which class a constructor call makes (for attr typing).
        if callee and callee.split(".")[-1][:1].isupper():
            out.add(("ctor", callee))
        return out

    def _register_site(
        self,
        node: ast.Call,
        callee: str,
        arg_labels: List[Set[Label]],
        kw_labels: Dict[str, Set[Label]],
    ) -> Optional[int]:
        if not callee or not self.recording:
            # During pass 1 call sites are not registered; returns labels
            # referencing site ids must exist, so reuse ids keyed by
            # location to stay stable across passes.
            if not callee:
                return None
            key = (node.lineno, node.col_offset, callee)
            return self._site_ids.get(key)
        key = (node.lineno, node.col_offset, callee)
        if key in self._site_ids:
            return self._site_ids[key]
        site = CallSite(
            callee=callee,
            line=node.lineno,
            col=node.col_offset + 1,
            args=[sorted(labels) for labels in arg_labels],
            kwargs={k: sorted(v) for k, v in kw_labels.items()},
        )
        self.fs.calls.append(site)
        site_id = len(self.fs.calls) - 1
        self._site_ids[key] = site_id
        return site_id

    # -- detectors ---------------------------------------------------------------------

    def _detect_taint_sink(
        self, node, func, fname, args, keywords, arg_labels, kw_labels
    ) -> None:
        sink = None
        if isinstance(func, ast.Name) and func.id in ("print", "repr", "str", "format"):
            sink = f"{func.id}()"
        elif isinstance(func, ast.Attribute) and fname in LOG_METHODS:
            sink = f"logging call .{fname}()"
        if sink is None:
            return
        for arg, labels in list(zip(args, arg_labels)) + [
            (kw.value, kw_labels.get(kw.arg, set()))
            for kw in keywords
            if kw.arg is not None
        ]:
            if labels:
                self._record_sink(sink, node, labels, self._describe(arg))
                return

    def _record_sink(
        self, kind: str, node: ast.AST, labels: Set[Label], desc: str
    ) -> None:
        if not self.recording or not labels:
            return
        site = SinkSite(
            kind=kind,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            labels=sorted(labels),
            desc=desc,
        )
        for existing in self.fs.sinks:
            if (existing.kind, existing.line, existing.col) == (
                site.kind, site.line, site.col
            ):
                return
        self.fs.sinks.append(site)

    def _describe(self, node: ast.AST) -> str:
        if isinstance(node, ast.Name):
            return repr(node.id)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else "?"
            )
            return f"{name}() result"
        if isinstance(node, ast.Subscript):
            return self._describe(node.value)
        if isinstance(node, ast.Attribute):
            return repr(dotted_name(node))
        if isinstance(node, ast.BinOp):
            return self._describe(node.left)
        if isinstance(node, ast.FormattedValue):
            return self._describe(node.value)
        return "key material"


def summarize_module(ctx: ModuleContext) -> ModuleSummary:
    """Distill one parsed module into its phase-1 summary."""
    return _ModuleSummarizer(ctx).run()


# -- the project (phase-2 substrate) ---------------------------------------------------


class Project:
    """Whole-program view: summaries + symbol resolution + call graph."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        for s in summaries:
            # First module wins a contested dotted name (fixture files
            # impersonating core modules fall back to their path key).
            if s.key in self.modules:
                s = replace(s, key=s.path)
            self.modules[s.key] = s
        self._resolve_memo: Dict[Tuple[str, Optional[str], str], Optional[Tuple[str, str]]] = {}

    # -- iteration ---------------------------------------------------------------------

    def iter_functions(self) -> Iterator[Tuple[ModuleSummary, FunctionSummary]]:
        for key in sorted(self.modules):
            summary = self.modules[key]
            for qname in sorted(summary.functions):
                yield summary, summary.functions[qname]

    def function(self, module_key: str, qname: str) -> Optional[FunctionSummary]:
        summary = self.modules.get(module_key)
        if summary is None:
            return None
        return summary.functions.get(qname)

    # -- name resolution ---------------------------------------------------------------

    def _lookup_export(
        self, module_key: str, name: str, depth: int = 0
    ) -> Optional[Tuple[str, str, str]]:
        """Resolve ``name`` inside module -> ("func"|"class"|"module", module, sym)."""
        if depth > 6:
            return None
        summary = self.modules.get(module_key)
        if summary is None:
            return None
        if name in summary.functions:
            return ("func", module_key, name)
        if name in summary.classes:
            return ("class", module_key, name)
        target = summary.imports.get(name)
        if target is None:
            # ``from repro.crypto import modes`` binds a submodule even
            # when the package __init__ never imports it.
            candidate = f"{module_key}.{name}"
            if candidate in self.modules:
                return ("module", candidate, name)
            return None
        if target[0] == "module":
            return ("module", target[1], name)
        _, src_module, src_name = target
        if src_module == module_key:
            return None
        resolved = self._lookup_export(src_module, src_name, depth + 1)
        if resolved is None and f"{src_module}.{src_name}" in self.modules:
            return ("module", f"{src_module}.{src_name}", src_name)
        return resolved

    def _find_method(
        self, module_key: str, class_name: str, method: str, depth: int = 0
    ) -> Optional[Tuple[str, str]]:
        """Find a method in a class or its statically-known bases."""
        if depth > 6:
            return None
        summary = self.modules.get(module_key)
        if summary is None:
            return None
        cls = summary.classes.get(class_name)
        if cls is None:
            return None
        qname = f"{class_name}.{method}"
        if qname in summary.functions:
            return (module_key, qname)
        for base in cls.bases:
            resolved = self._resolve_class(module_key, base)
            if resolved is not None:
                found = self._find_method(resolved[0], resolved[1], method, depth + 1)
                if found is not None:
                    return found
        return None

    def _resolve_class(
        self, module_key: str, class_ref: str
    ) -> Optional[Tuple[str, str]]:
        """Resolve a dotted class reference -> (module_key, class_name)."""
        parts = class_ref.split(".")
        if not parts or "?" in parts:
            return None
        export = self._lookup_export(module_key, parts[0])
        for part in parts[1:]:
            if export is None:
                return None
            kind, mod, sym = export
            if kind == "module":
                export = self._lookup_export(mod, part)
            elif kind == "class":
                return None  # Class.attr is not a class we track
            else:
                return None
        if export is not None and export[0] == "class":
            return (export[1], export[2])
        return None

    def resolve_call(
        self,
        summary: ModuleSummary,
        fn: FunctionSummary,
        site: CallSite,
    ) -> Optional[Tuple[str, str]]:
        """Resolve a call site to (module_key, function qname), if evident."""
        memo_key = (summary.key, fn.class_name, site.callee)
        if memo_key in self._resolve_memo:
            return self._resolve_memo[memo_key]
        result = self._resolve_uncached(summary, fn, site.callee)
        self._resolve_memo[memo_key] = result
        return result

    def _resolve_uncached(
        self, summary: ModuleSummary, fn: FunctionSummary, callee: str
    ) -> Optional[Tuple[str, str]]:
        parts = callee.split(".")
        if not parts or "?" in parts:
            return None
        # self.method() / cls.method() / self.attr.method()
        if parts[0] in ("self", "cls") and fn.class_name:
            if len(parts) == 2:
                return self._find_method(summary.key, fn.class_name, parts[1])
            if len(parts) == 3:
                cls = summary.classes.get(fn.class_name)
                if cls is None:
                    return None
                attr_type = cls.attr_types.get(parts[1])
                if attr_type is None:
                    return None
                resolved = self._resolve_class(summary.key, attr_type)
                if resolved is None:
                    return None
                return self._find_method(resolved[0], resolved[1], parts[2])
            return None
        if parts[0] in ("self", "cls"):
            return None
        export = self._lookup_export(summary.key, parts[0])
        idx = 1
        while export is not None and idx < len(parts):
            kind, mod, sym = export
            if kind == "module":
                export = self._lookup_export(mod, parts[idx])
                idx += 1
            elif kind == "class":
                if idx == len(parts) - 1:
                    found = self._find_method(mod, sym, parts[idx])
                    return found
                return None
            else:
                return None
        if export is None:
            return None
        kind, mod, sym = export
        if idx != len(parts):
            return None
        if kind == "func":
            return (mod, sym)
        if kind == "class":
            # Constructor: resolve to __init__ when it exists.
            return self._find_method(mod, sym, "__init__")
        return None
