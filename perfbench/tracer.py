"""Span tracer for the traced run.

The tracer rebinds public functions of the matterkb modules to wrappers that
record one span per call: (name, start, end, parent, counts). It rebinds a
function wherever a loaded matterkb module holds it, so names imported by
other modules (`cli.validate_all`, `dsl.apply_transfer`, ...) are traced
too, and it rebinds `KnowledgeBase` methods on the class. Nothing under
`src/` knows about it. Spans stay in memory until the run ends.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


def _statements(args, result) -> dict:
    sc = result.scenario
    if sc is None:
        return {}
    parts = (sc.kind_decls, sc.object_decls, sc.quantity_creations,
             sc.adjacency, sc.subquantity_assertions, sc.events)
    return {"statements": sum(len(p) for p in parts)}


def _report(args, result) -> dict:
    return {"worlds": len(result.worlds_checked), "violations": len(result.violations)}


def _export_bytes(args, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


def _import_bytes(args, result) -> dict:
    return {"bytes": len(args[0].encode("utf-8"))}


# (module, attribute, span name, counter). An attribute "Class.method" is
# rebound on the class. `provenance._Index` is the provenance index build,
# which has no public entry point of its own.
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "load_kb", "cli.load_kb", None),
    ("cli", "run_query", "cli.run_query", None),
    ("dsl", "parse_bytes", "dsl.parse", None),
    ("dsl", "parse", "dsl.parse", _statements),
    ("dsl", "load", "dsl.load", None),
    ("events", "apply_creation", "events.apply_creation", None),
    ("events", "apply_transfer", "events.apply_transfer", None),
    ("events", "replay", "events.replay", None),
    ("model", "KnowledgeBase.assert_adjacency", "model.assert_adjacency", None),
    ("model", "KnowledgeBase.retract_adjacency", "model.retract_adjacency", None),
    ("model", "KnowledgeBase.live_quantities_at", "model.live_quantities_at", None),
    ("model", "KnowledgeBase.adjacency_at", "model.adjacency_at", None),
    ("model", "KnowledgeBase.world_at", "model.world_at", None),
    ("model", "KnowledgeBase.holders_of", "model.holders_of", None),
    ("model", "KnowledgeBase.change_points", "model.change_points", None),
    ("provenance", "_Index", "provenance.derive_edges", None),
    ("provenance", "derive_edges", "provenance.derive_edges", None),
    ("provenance", "inherited_from", "provenance.closure", None),
    ("provenance", "donated_to", "provenance.closure", None),
    ("provenance", "common_ancestors", "provenance.closure", None),
    ("provenance", "sub_portions_of", "provenance.closure", None),
    ("provenance", "sub_portion_parents", "provenance.closure", None),
    ("provenance", "granule_history", "provenance.granule_history", None),
    ("provenance", "cohort_at", "provenance.cohort_at", None),
    ("provenance", "classify_origin", "provenance.classify_origin", None),
    ("validation", "validate_all", "validation.validate_all", _report),
    ("validation", "check_typing", "validation.check_typing", None),
    ("validation", "check_supplementation", "validation.check_supplementation", None),
    ("validation", "check_subquantity_inclusion", "validation.check_subquantity_inclusion", None),
    ("validation", "check_ggd", "validation.check_ggd", None),
    ("validation", "check_history", "validation.check_history", None),
    ("validation", "check_connectivity", "validation.check_connectivity", None),
    ("validation", "check_maximality", "validation.check_maximality", None),
    ("canonical", "export_document", "canonical.export", _export_bytes),
    ("canonical", "import_document", "canonical.import", _import_bytes),
]

LAYERS = ("cli", "dsl", "events", "model", "provenance", "validation", "canonical")


class Tracer:
    """Records spans while installed; `install` and `uninstall` pair up."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[4] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "matterkb" or n.startswith("matterkb."))]
        for module_name, attr, name, counter in TARGETS:
            owner = sys.modules[f"matterkb.{module_name}"]
            cls_name, _, key = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            orig = vars(owner).get(key)
            if orig is None:
                # A later version may rename a traced function; its layer
                # metric then reads 0 instead of stopping the run.
                print(f"trace: matterkb.{module_name}.{attr} not found, not traced", file=sys.stderr)
                continue
            wrapper = self._wrap(name, orig, counter)
            for o in [owner] if cls_name else modules:
                for k, value in list(vars(o).items()):
                    if value is orig:
                        self._rebind(o, k, wrapper)

    def _rebind(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: self time, call count and summed counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, counts) in enumerate(self.spans):
            row = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            row["self_s"] += end - start - child[i]
            row["calls"] += 1
            for key, value in (counts or {}).items():
                row[key] = row.get(key, 0) + value
        return out

    def layer_self(self) -> dict[str, float]:
        """Self time per layer (module)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, row in self.totals().items():
            out[name.split(".")[0]] += row["self_s"]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "counts"], "spans": self.spans}, fh)
