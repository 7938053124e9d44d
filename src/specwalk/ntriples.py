"""Line-oriented N-Triples parsing and serialization.

Only the N-Triples subset is supported (one triple per line, terminated by
" ."). Blank nodes are interned by label within one file; literal lexical
forms keep their datatype/language suffix as part of the interned string.
"""
from __future__ import annotations

import gzip
import io
import re
from dataclasses import dataclass, field

from .graph import (RDF_TYPE, SNAPSHOT_MAGIC, Graph, GraphBuilder, GraphError,
                    read_snapshot)

# a body "_:b" would intern as the blank node _:b, one holding '"' could
# share a term with a literal, and the empty IRI would render as no token
_IRI = r'<((?!_:)[^<>"\s]+)>'
_BNODE = r"(_:[A-Za-z0-9][A-Za-z0-9_.\-]*)"
_LITERAL = r'("(?:[^"\\]|\\.)*"(?:\^\^<[^<>\s]*>|@[A-Za-z][A-Za-z0-9\-]*)?)'

_LINE_RE = re.compile(
    rf"^\s*(?:{_IRI}|{_BNODE})\s+{_IRI}\s+(?:{_IRI}|{_BNODE}|{_LITERAL})\s*\.\s*(?:#.*)?$"
)


class ParseError(GraphError):
    """Raised in strict mode on a malformed N-Triples line."""


@dataclass
class ParseReport:
    parsed: int = 0
    skipped: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)


def parse_ntriples(lines, strict: bool = False, rdf_type: str = RDF_TYPE) -> Graph:
    """Parse an iterable of N-Triples lines into a Graph.

    Malformed lines are recorded and skipped (lenient, default) or abort with
    the offending line number (strict). The returned graph carries the
    ParseReport as ``graph.report``.
    """
    builder = GraphBuilder(rdf_type=rdf_type)
    report = ParseReport()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE_RE.match(line)
        if m is None:
            if strict:
                raise ParseError(f"malformed N-Triples at line {lineno}: {line!r}")
            report.skipped += 1
            report.errors.append((lineno, line))
            continue
        s_iri, s_bnode, pred, o_iri, o_bnode, o_lit = m.groups()
        subject = s_iri if s_iri is not None else s_bnode
        if o_lit is not None:
            builder.add(subject, pred, o_lit, object_literal=True)
        else:
            builder.add(subject, pred, o_iri if o_iri is not None else o_bnode)
        report.parsed += 1
    graph = builder.build()
    graph.report = report
    return graph


def serialize_ntriples(graph: Graph, out) -> None:
    """Write the triple set in Graph.rendered_lines order (canonical across
    interning orders); parse(serialize(g)) is a fixed point on triple sets."""
    out.writelines(graph.rendered_lines(" ", " .\n"))


def open_text(path: str):
    """Open a text file, transparently decompressing ``.gz`` inputs."""
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def load_graph(path: str, strict: bool = False, rdf_type: str = RDF_TYPE) -> Graph:
    """Load a graph from a snapshot or an N-Triples file (gzipped if the
    name ends in .gz)."""
    with open(path, "rb") as f:
        magic = f.read(len(SNAPSHOT_MAGIC))
    if magic == SNAPSHOT_MAGIC:
        return read_snapshot(path)
    with open_text(path) as f:
        return parse_ntriples(f, strict=strict, rdf_type=rdf_type)
