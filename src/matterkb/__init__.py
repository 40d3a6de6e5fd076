"""matterkb: a growing-block temporal knowledge base for portions of matter.

Quantities are maximal connected portions of matter composed of granule
objects; all matter movement happens through an append-only event log, from
which historical provenance relations are derived. A scenario DSL, axiom
validators, canonical serialization, and a CLI sit on top of the kernel.
"""

from importlib import resources
from pathlib import Path

from .canonical import export_document, import_document, kb_to_doc
from .dsl import ParseDiagnostic, ParseResult, Scenario, load, parse, parse_bytes
from .events import (
    CreatedEntry,
    EventRec,
    apply_creation,
    apply_transfer,
    event_log,
    replay,
)
from .model import (
    AdjacencyInterval,
    KindDecl,
    KnowledgeBase,
    ObjectInst,
    QuantityInst,
    SubQuantityAssertion,
    WorldView,
)
from .provenance import (
    ConstitutionView,
    Episode,
    GranuleHistory,
    ProvenanceEdge,
    classify_origin,
    cohort_at,
    common_ancestors,
    constitution_view,
    derive_edges,
    donated_to,
    granule_history,
    inherited_from,
    sub_portion_parents,
    sub_portions_of,
)
from .validation import Report, Violation, validate_all

__version__ = "0.1.0"


def case_study_path() -> Path:
    """Filesystem path of the bundled rock-splitting scenario."""
    return Path(str(resources.files("matterkb").joinpath("scenarios/casestudy.mp")))


__all__ = [
    "AdjacencyInterval",
    "ConstitutionView",
    "CreatedEntry",
    "Episode",
    "EventRec",
    "GranuleHistory",
    "KindDecl",
    "KnowledgeBase",
    "ObjectInst",
    "ParseDiagnostic",
    "ParseResult",
    "ProvenanceEdge",
    "QuantityInst",
    "Report",
    "Scenario",
    "SubQuantityAssertion",
    "Violation",
    "WorldView",
    "apply_creation",
    "apply_transfer",
    "case_study_path",
    "classify_origin",
    "cohort_at",
    "common_ancestors",
    "constitution_view",
    "derive_edges",
    "donated_to",
    "event_log",
    "export_document",
    "granule_history",
    "import_document",
    "inherited_from",
    "kb_to_doc",
    "load",
    "parse",
    "parse_bytes",
    "replay",
    "sub_portion_parents",
    "sub_portions_of",
    "validate_all",
]
