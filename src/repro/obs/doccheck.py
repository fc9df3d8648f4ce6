"""Docs-vs-code sync checks (the ``check-docs`` CLI subcommand).

Two checks, both pure-stdlib:

* **Coverage** -- a guide must mention, in backticks, every name the
  code requires of it (:func:`check_backticked`).
  ``docs/OBSERVABILITY.md`` owes every event class in
  :data:`repro.obs.events.EVENT_TYPES` and every metric name in
  :data:`repro.obs.registry.METRIC_CATALOG`; ``docs/DEPLOYMENT.md``
  owes every operator-facing knob of the real-socket transport
  (``UdpTransportConfig`` fields, ``--transport`` hop names) and of the
  gateway (``GatewayConfig`` fields, admission drop/eviction reasons).
  The guides cannot silently fall behind the code.
* **Links** -- every relative markdown link in the repo's top-level and
  ``docs/`` markdown files must resolve to an existing file (anchors
  are stripped; external ``http(s)``/``mailto`` links are skipped).

Both return plain lists of problem strings so the CLI can print them
and exit nonzero without any assertion machinery (fbslint FBS004 bans
``assert`` under ``src/repro``).
"""

from __future__ import annotations

import dataclasses
import os
import re
from typing import Dict, List, Sequence

from repro.obs.events import EVENT_TYPES
from repro.obs.registry import METRIC_CATALOG

__all__ = [
    "check_backticked",
    "observability_names",
    "deployment_names",
    "check_markdown_links",
    "default_markdown_files",
    "run_doc_checks",
]

_BACKTICKED = re.compile(r"`([^`\n]+)`")
# [text](target) -- excluding images is unnecessary; image targets must
# exist too.  Reference-style links are not used in this repo.
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_backticked(
    doc_path: str, required: Dict[str, Sequence[str]]
) -> List[str]:
    """Names in ``required`` (``{label: names}``) that ``doc_path`` never
    mentions in backticks, one problem each (empty = in sync)."""
    if not os.path.isfile(doc_path):
        return [f"{doc_path}: missing"]
    with open(doc_path, "r", encoding="utf-8") as fp:
        mentioned = set(_BACKTICKED.findall(fp.read()))
    return [
        f"{doc_path}: {label} `{name}` is not documented"
        for label, names in required.items()
        for name in names
        if name not in mentioned
    ]


def observability_names() -> Dict[str, Sequence[str]]:
    """What ``docs/OBSERVABILITY.md`` must document."""
    return {
        "event type": [cls.__name__ for cls in EVENT_TYPES],
        "metric": sorted(METRIC_CATALOG),
    }


def deployment_names() -> Dict[str, Sequence[str]]:
    """What ``docs/DEPLOYMENT.md`` must document."""
    # Lazy imports: obs sits below transport and gateway in the layering
    # and must not pull them in eagerly; check-docs is an offline CLI path.
    from repro.gateway.admission import DROP_REASONS, EVICTION_REASONS
    from repro.gateway.tenants import GatewayConfig
    from repro.transport.hop import HOP_NAMES
    from repro.transport.udp import UdpTransportConfig

    def knobs(config_cls) -> List[str]:
        return [field.name for field in dataclasses.fields(config_cls)]

    return {
        "UdpTransportConfig knob": knobs(UdpTransportConfig),
        "--transport value": HOP_NAMES,
        "GatewayConfig knob": knobs(GatewayConfig),
        "gateway reason": DROP_REASONS + EVICTION_REASONS,
    }


def check_markdown_links(paths: Sequence[str], root: str) -> List[str]:
    """Relative links in ``paths`` that do not resolve (empty = all ok)."""
    problems: List[str] = []
    for path in paths:
        if not os.path.isfile(path):
            problems.append(f"{path}: missing")
            continue
        with open(path, "r", encoding="utf-8") as fp:
            text = fp.read()
        base = os.path.dirname(os.path.abspath(path))
        for target in _MD_LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = os.path.normpath(
                os.path.join(base, target.split("#", 1)[0])
            )
            if not os.path.exists(resolved):
                rel = os.path.relpath(path, root)
                problems.append(f"{rel}: broken link -> {target}")
    return problems


def default_markdown_files(root: str) -> List[str]:
    """The markdown set the link check covers: repo top level + docs/."""
    found: List[str] = []
    for entry in sorted(os.listdir(root)):
        if entry.endswith(".md"):
            found.append(os.path.join(root, entry))
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        for entry in sorted(os.listdir(docs)):
            if entry.endswith(".md"):
                found.append(os.path.join(docs, entry))
    return found


def run_doc_checks(root: str) -> List[str]:
    """All documentation checks for a repo root; empty means clean."""
    problems = check_backticked(
        os.path.join(root, "docs", "OBSERVABILITY.md"), observability_names()
    )
    problems.extend(
        check_backticked(
            os.path.join(root, "docs", "DEPLOYMENT.md"), deployment_names()
        )
    )
    problems.extend(
        check_markdown_links(default_markdown_files(root), root)
    )
    return problems
