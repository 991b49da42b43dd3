"""FAIR-by-design digitisation catalog engine for cultural-heritage collections."""

from .rdf import (
    BlankNode,
    InvalidIri,
    InvalidTerm,
    Iri,
    Literal,
    ParseError,
    Quad,
    parse_nquads,
    serialize_nquads,
)
from .store import ANY, Delta, QuadPattern, Store, Variable, parse_update, serialize_update
from .mapping import MappingDocument, Table, execute_mapping, parse_mapping, read_table, resolve_curie
from .provenance import ProvenanceTracker, Snapshot
from .workflow import AssetVersion, ConstraintProfile, PhaseKind, PhaseRecord, UploadRecord, validate_asset
from .catalog import Catalog, Config
from .fair import check_registry, render_report, run_audit

__version__ = "0.1.0"

__all__ = [
    "ANY",
    "AssetVersion",
    "BlankNode",
    "Catalog",
    "Config",
    "ConstraintProfile",
    "Delta",
    "InvalidIri",
    "InvalidTerm",
    "Iri",
    "Literal",
    "MappingDocument",
    "ParseError",
    "PhaseKind",
    "PhaseRecord",
    "ProvenanceTracker",
    "Quad",
    "QuadPattern",
    "Snapshot",
    "Store",
    "Table",
    "UploadRecord",
    "Variable",
    "check_registry",
    "execute_mapping",
    "parse_mapping",
    "parse_nquads",
    "parse_update",
    "read_table",
    "render_report",
    "resolve_curie",
    "run_audit",
    "serialize_nquads",
    "serialize_update",
    "validate_asset",
]
