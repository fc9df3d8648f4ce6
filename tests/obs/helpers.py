"""Folding a JSONL trace file the way ``python -m repro.obs summarize``
does: every record onto one fresh registry."""

from repro.obs import MetricsRegistry, read_records


def fold_file(path):
    registry = MetricsRegistry()
    for record in read_records(str(path)):
        registry.fold(record)
    return registry
