"""Line-oriented N-Triples parsing and serialization.

Only the N-Triples subset is supported (one triple per line, terminated by
" ."). Blank nodes are interned by label within one file; literal lexical
forms keep their datatype/language suffix as part of the interned string.
"""
from __future__ import annotations

import gzip
import re
import zlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, count, islice, pairwise

import numpy as np

from .graph import (RDF_TYPE, SNAPSHOT_MAGIC, Graph, GraphError, distinct_rows,
                    read_snapshot)

# lines matched per block: bounds the lines and match objects held at once
BLOCK_LINES = 4096
# plain lines split at a time: few body strings are alive at once, so the
# terms that outlive the block are not scattered over memory freed after it
_SPLIT_LINES = 64

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
    ParseReport as ``graph.report``. Lines are read BLOCK_LINES at a time;
    term ids follow first occurrence in (s, p, o) line order.
    """
    report = ParseReport()
    # term -> id: a missing term takes the next id, so ids follow first use
    ids = defaultdict(count().__next__)
    blocks = [np.zeros(0, dtype=np.int64)]  # each block's s, p, o ids
    lines = iter(lines)
    start = 1  # the line number of the block's first line
    while block := list(islice(lines, BLOCK_LINES)):
        groups = _plain_terms(block)
        if groups is None:
            # ^\s* and \s*...$ absorb the whitespace a strip would remove
            matches = list(map(_LINE_RE.match, block))
            if not all(matches):
                _record_malformed(block, matches, start, strict, report)
            # each match holds exactly three non-empty groups: s, p and o
            groups = filter(None, chain.from_iterable(
                map(re.Match.groups, filter(None, matches))))
        blocks.append(np.fromiter(map(ids.__getitem__, groups), np.int64))
        start += len(block)
    spo = np.concatenate(blocks).reshape(-1, 3)
    report.parsed = len(spo)
    # _IRI forbids '"' and a blank node starts with "_:", so only a literal
    # starts with '"'
    terms = list(ids)
    graph = Graph(terms, [t.startswith('"') for t in terms],
                  distinct_rows(spo), rdf_type)
    graph.report = report
    return graph


def _plain_terms(block: list[str]):
    """An iterator over the 3n IRI bodies of a block of n lines, in (s, p, o)
    line order, when every item is one plain line ``<s> <p> <o> .\\n``;
    None otherwise.

    A plain line is ASCII, holds no '"' and no control byte but its final
    newline, and each body is non-empty and does not start with "_:". So
    _LINE_RE matches it with groups (s, None, p, o, None, None): on the
    blocks accepted here, ids, report and errors equal the regex path's.
    Every check compares the whole block's bytes at once.
    """
    text = "".join(block)
    # outside ASCII, \s also matches \x85, \xa0 and \u2028
    if not text.isascii() or '"' in text:
        return None
    raw = bytearray(text, "ascii")
    del text
    b = np.frombuffer(raw, np.uint8)
    n = len(block)
    # the n control bytes (\s counts \t \x0b \x0c \r \x1c-\x1f) are the
    # items' last bytes, and all are newlines
    nl = np.flatnonzero(b < 0x20)
    ends = np.fromiter(map(len, block), np.intp, n).cumsum() - 1
    if len(nl) != n or not np.array_equal(nl, ends) or (b[nl] != 0x0A).any():
        return None
    lt, gt, sp = (np.flatnonzero(b == c) for c in b"<> ")
    if not len(lt) == len(gt) == len(sp) == 3 * n:
        return None
    lt, gt, sp = lt.reshape(n, 3), gt.reshape(n, 3), sp.reshape(n, 3)
    dot = sp[:, 2] + 1
    # each line is "<" body ">" " " three times, then "." and its newline
    if not ((lt[0, 0] == 0) & (lt[1:, 0] == nl[:-1] + 1).all()
            & (sp == gt + 1).all() & (lt[:, 1:] == sp[:, :2] + 1).all()
            & (nl == dot + 1).all() & (b[dot] == 0x2E).all()
            & (gt - lt > 1).all()):
        return None
    if ((b[lt + 1] == 0x5F) & (b[lt + 2] == 0x3A)).any():  # "_:"
        return None
    # blank out the brackets and dots, so that split() yields the bodies
    b[lt], b[gt], b[dot] = 0x20, 0x20, 0x20
    cuts = [0, *(nl[_SPLIT_LINES - 1::_SPLIT_LINES] + 1).tolist(), len(raw)]
    view = memoryview(raw)
    return chain.from_iterable(str(view[a:z], "ascii").split()
                               for a, z in pairwise(cuts))


def _record_malformed(block: list[str], matches: list, start: int,
                      strict: bool, report: ParseReport) -> None:
    """Pass over the block's blank and comment lines; record each other
    line that failed to match as malformed, or raise ParseError if strict."""
    for lineno, raw, m in zip(count(start), block, matches):
        if m is not None:
            continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if strict:
            raise ParseError(f"malformed N-Triples at line {lineno}: {line!r}")
        report.skipped += 1
        report.errors.append((lineno, line))


def serialize_ntriples(graph: Graph, out) -> None:
    """Write the triple set in Graph.rendered_lines order (canonical across
    interning orders); parse(serialize(g)) is a fixed point on triple sets."""
    out.writelines(graph.rendered_lines(" ", " .\n"))


@contextmanager
def open_text(path: str):
    """Open a UTF-8 text file, dropping a leading byte-order mark and
    transparently decompressing ``.gz`` inputs. A truncated or corrupt gzip
    stream, or bytes that are not UTF-8, found while the file is read,
    raise GraphError naming it."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8-sig") as f:
            yield f
    except (EOFError, zlib.error) as exc:
        raise GraphError(f"corrupt gzip input {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise GraphError(f"input {path} is not UTF-8: {exc.reason}") from None


def load_graph(path: str, strict: bool = False, rdf_type: str = RDF_TYPE) -> Graph:
    """Load a graph from a snapshot or an N-Triples file (gzipped if the
    name ends in .gz)."""
    with open(path, "rb") as f:
        magic = f.read(len(SNAPSHOT_MAGIC))
    # any format's magic: read_snapshot rejects an old one by name
    if magic[:6] == SNAPSHOT_MAGIC[:6]:
        return read_snapshot(path)
    with open_text(path) as f:
        return parse_ntriples(f, strict=strict, rdf_type=rdf_type)
