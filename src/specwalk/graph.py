"""Immutable, integer-indexed RDF multigraph with forward/reverse adjacency.

Terms (IRIs, blank node labels, literal lexical forms) are interned to dense
integer ids. After construction the graph is never mutated, so it can be
shared freely across threads; random sampling takes an explicit seed or
explicit uniforms so reads stay side-effect free.
"""
from __future__ import annotations

import hashlib
import logging
import random
import struct
from bisect import bisect_left
from collections.abc import Set
from itertools import chain
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

SNAPSHOT_MAGIC = b"SWSNAP01"


class GraphError(Exception):
    """Base class for graph construction/lookup errors."""


class UnknownTermError(GraphError):
    """Raised when a term id or term string is not interned in the graph."""


class GraphBuilder:
    """Single-writer builder; produces an immutable Graph."""

    def __init__(self, rdf_type: str = RDF_TYPE):
        self.rdf_type = rdf_type
        self._terms: list[str] = []
        self._literal: list[bool] = []
        self._ids: dict[str, int] = {}
        self._triples: set[tuple[int, int, int]] = set()

    def intern(self, term: str, literal: bool = False) -> int:
        tid = self._ids.get(term)
        if tid is None:
            tid = len(self._terms)
            self._ids[term] = tid
            self._terms.append(term)
            self._literal.append(literal)
        elif self._literal[tid] != literal:
            raise GraphError(f"term interned as both literal and resource: {term!r}")
        return tid

    def add(self, subject: str, predicate: str, obj: str,
            object_literal: bool = False) -> None:
        s = self.intern(subject, literal=False)
        p = self.intern(predicate, literal=False)
        o = self.intern(obj, literal=object_literal)
        self._triples.add((s, p, o))

    def build(self) -> "Graph":
        return Graph(self._terms, self._literal, sorted(self._triples),
                     self.rdf_type)


class TripleSet(Set):
    """Read-only set view of a graph's (s, p, o) triples over its out_adj
    lists; iterates in ascending order."""

    _from_iterable = frozenset  # result type of the Set mixins' &, |, -, ^

    def __init__(self, out_adj: list[list[tuple[int, int]]], n: int):
        self._out_adj = out_adj
        self._len = n

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for s, edges in enumerate(self._out_adj):
            for p, o in edges:
                yield s, p, o

    def __contains__(self, triple) -> bool:
        s, p, o = triple
        if not 0 <= s < len(self._out_adj):
            return False
        edges = self._out_adj[s]
        i = bisect_left(edges, (p, o))
        return i < len(edges) and edges[i] == (p, o)


def uniforms(rng: random.Random, rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) block of floats k / 2**53 in [0, 1) from rng.randbytes,
    filled row by row, so the first r rows do not depend on `rows`."""
    words = np.frombuffer(rng.randbytes(8 * rows * cols), dtype="<u8")
    return ((words >> 11) * 2.0 ** -53).reshape(rows, cols)


def slice_pick(lo: np.ndarray, hi: np.ndarray, targets: np.ndarray,
               u: np.ndarray) -> np.ndarray:
    """Per row, targets[lo + floor(u * (hi - lo))] clamped to hi - 1, or -1
    where the slice [lo, hi) is empty."""
    out = np.full(len(lo), -1, dtype=np.int64)
    live = hi > lo
    lo, hi = lo[live], hi[live]
    pick = lo + (u[live] * (hi - lo)).astype(np.int64)
    out[live] = targets[np.minimum(pick, hi - 1)]
    return out


class PathIndex(NamedTuple):
    """Array form of the adjacency. out_key[i] = s * n_terms + p and
    out_obj[i] = o for the i-th triple in ascending (s, p, o) order, so each
    (node, predicate) owns one sorted slice of out_key. in_src[in_ptr[o]:
    in_ptr[o + 1]] are the subjects of the triples into o, in in_adj order."""

    out_key: np.ndarray
    out_obj: np.ndarray
    in_ptr: np.ndarray
    in_src: np.ndarray


class Graph:
    """Immutable triple store: out/in adjacency lists hold each triple once;
    path_index() adds an array copy on first use, for batched sampling."""

    def __init__(self, terms: list[str], literal: list[bool],
                 triples, rdf_type: str = RDF_TYPE):
        """`triples` must be strictly ascending (s, p, o) id tuples, so
        sorted and distinct; GraphError otherwise."""
        self.terms = terms
        self.literal = literal
        self.rdf_type = rdf_type
        self._ids = {t: i for i, t in enumerate(terms)}
        self.rdf_type_id = self._ids.get(rdf_type)
        n = len(terms)
        # Filled from sorted triples, so out_adj[v] is sorted by (predicate,
        # object): the edges of one predicate form a contiguous run, which
        # _edges_with finds by bisection.
        self.out_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self.in_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        count = 0
        prev = (-1,)
        for triple in triples:
            if triple <= prev:
                raise GraphError(f"triples must be sorted and distinct: "
                                 f"triple {count} {triple} follows {prev}")
            s, p, o = prev = triple
            if self.literal[s]:
                raise GraphError(f"literal in subject position: {terms[s]!r}")
            if self.literal[p]:
                raise GraphError(f"literal in predicate position: {terms[p]!r}")
            self.out_adj[s].append((p, o))
            self.in_adj[o].append((p, s))
            count += 1
        self.triples = TripleSet(self.out_adj, count)
        self.report = None  # set by parsers
        self._checksum: str | None = None
        self._pred_freq: dict[int, int] | None = None
        self._index: PathIndex | None = None

    # -- lookups ---------------------------------------------------------

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def n_triples(self) -> int:
        return len(self.triples)

    def has_term(self, term: str) -> bool:
        return term in self._ids

    def term_id(self, term: str) -> int:
        try:
            return self._ids[term]
        except KeyError:
            raise UnknownTermError(f"term not in graph: {term!r}") from None

    def _check(self, tid: int) -> None:
        if not isinstance(tid, int) or tid < 0 or tid >= len(self.terms):
            raise UnknownTermError(f"unknown term id: {tid!r}")

    def _edges_with(self, v: int, pred: int) -> list[tuple[int, int]]:
        """The run of (pred, object) pairs in out_adj[v]."""
        edges = self.out_adj[v]
        lo = bisect_left(edges, (pred,))
        return edges[lo:bisect_left(edges, (pred + 1,), lo)]

    def path_index(self) -> PathIndex:
        """The PathIndex, built on first use and cached."""
        if self._index is None:
            n = len(self.terms)
            spo = np.fromiter(chain.from_iterable(self.triples), np.int64,
                              3 * len(self.triples)).reshape(-1, 3)
            in_deg = np.array([len(e) for e in self.in_adj], dtype=np.int64)
            in_ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(in_deg, out=in_ptr[1:])
            in_src = np.fromiter((s for edges in self.in_adj for _, s in edges),
                                 np.int64, len(spo))
            self._index = PathIndex(spo[:, 0] * n + spo[:, 1], spo[:, 2],
                                    in_ptr, in_src)
        return self._index

    def sample_paths(self, starts, predicates, u: np.ndarray) -> np.ndarray:
        """Walk the predicate sequence from each start, one row per walk.

        Step k of row i takes the matching out-edge lo + floor(u[i, k] *
        (hi - lo)) of the current node's (node, predicate) slice [lo, hi).
        Returns the visited nodes, shape (len(starts), len(predicates) + 1);
        a row that reaches a node with no edge for the next predicate holds
        -1 from there on.
        """
        index = self.path_index()
        nodes = np.empty((len(starts), len(predicates) + 1), dtype=np.int64)
        nodes[:, 0] = starts
        v = nodes[:, 0]
        for k, pred in enumerate(predicates):
            # a dead row's v = -1 gives a negative key, below every out_key
            key = v * len(self.terms) + pred
            v = nodes[:, k + 1] = slice_pick(
                np.searchsorted(index.out_key, key, "left"),
                np.searchsorted(index.out_key, key, "right"),
                index.out_obj, u[:, k])
        return nodes

    def path_counts(self, sources, predicates) -> dict[int, int]:
        """node -> number of paths from the sources realizing the predicate
        sequence; a source listed twice starts two paths, and an empty
        sequence gives one path per source."""
        counts: dict[int, int] = {}
        for s in sources:
            counts[s] = counts.get(s, 0) + 1
        for pred in predicates:
            nxt: dict[int, int] = {}
            for v, c in counts.items():
                for _, o in self._edges_with(v, pred):
                    nxt[o] = nxt.get(o, 0) + c
            counts = nxt
            if not counts:
                break
        return counts

    def types_of(self, v: int) -> frozenset[int]:
        """Directly asserted rdf:type objects of v (no inference)."""
        self._check(v)
        if self.rdf_type_id is None:
            return frozenset()
        return frozenset(o for _, o in self._edges_with(v, self.rdf_type_id))

    def entities_of_type(self, t) -> frozenset[int]:
        """Entities with a direct rdf:type assertion to t; empty if t unknown."""
        if isinstance(t, str):
            tid = self._ids.get(t)
            if tid is None:
                return frozenset()
            t = tid
        else:
            self._check(t)
        return frozenset(s for p, s in self.in_adj[t] if p == self.rdf_type_id)

    def sample_entities(self, t, n: int, seed: int) -> list[int]:
        """Sample n distinct type-t entities uniformly; deterministic in seed.

        Returns all members (shuffled) when fewer than n exist; raises for a
        type with zero instances.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        members = sorted(self.entities_of_type(t))
        if not members:
            name = t if isinstance(t, str) else self.terms[t]
            raise GraphError(f"type has no instances: {name!r}")
        rng = random.Random(seed)
        if len(members) <= n:
            if len(members) < n:
                log.warning("requested %d entities of type, only %d exist",
                            n, len(members))
            rng.shuffle(members)
            return members
        return rng.sample(members, n)

    def predicate_frequency(self) -> dict[int, int]:
        """Global triple count per predicate id."""
        if self._pred_freq is None:
            freq: dict[int, int] = {}
            for _, p, _ in self.triples:
                freq[p] = freq.get(p, 0) + 1
            self._pred_freq = freq
        return self._pred_freq

    # -- rendering & checksum --------------------------------------------

    def render_term(self, tid: int) -> str:
        """N-Triples surface form of a term."""
        t = self.terms[tid]
        if self.literal[tid] or t.startswith("_:"):
            return t
        return f"<{t}>"

    def render_token(self, tid: int) -> str:
        """Corpus/vocabulary token for a term: raw term with whitespace folded.

        Corpus lines are whitespace-separated, so embedded whitespace in
        literals is replaced by underscores.
        """
        return "_".join(self.terms[tid].split())

    def checksum(self) -> str:
        """Content-based sha256 over the sorted triple set (id-order independent)."""
        if self._checksum is None:
            h = hashlib.sha256()
            lines = sorted(
                f"{self.render_term(s)}\t{self.render_term(p)}\t{self.render_term(o)}"
                for s, p, o in self.triples
            )
            for line in lines:
                h.update(line.encode("utf-8"))
                h.update(b"\n")
            self._checksum = h.hexdigest()
        return self._checksum


# -- binary snapshot -----------------------------------------------------
#
# Layout (little-endian):
#   8s   magic "SWSNAP01"
#   u32  term count
#   u64  triple count
#   u16  rdf:type IRI length, then the IRI bytes
#   per term: u32 utf-8 length, bytes, u8 literal flag
#   per triple (strictly ascending): 3 x u32 (subject, predicate, object)

def write_snapshot(graph: Graph, path: str) -> None:
    with open(path, "wb") as f:
        f.write(SNAPSHOT_MAGIC)
        f.write(struct.pack("<IQ", len(graph.terms), len(graph.triples)))
        rt = graph.rdf_type.encode("utf-8")
        f.write(struct.pack("<H", len(rt)))
        f.write(rt)
        for term, lit in zip(graph.terms, graph.literal):
            tb = term.encode("utf-8")
            f.write(struct.pack("<I", len(tb)))
            f.write(tb)
            f.write(struct.pack("<B", 1 if lit else 0))
        for s, p, o in graph.triples:
            f.write(struct.pack("<III", s, p, o))


def read_snapshot(path: str) -> Graph:
    """Load a snapshot; GraphError when it is truncated or inconsistent."""
    with open(path, "rb") as f:
        def read(n: int) -> bytes:
            data = f.read(n)
            if len(data) != n:
                raise GraphError(f"truncated graph snapshot: {path}")
            return data

        if f.read(8) != SNAPSHOT_MAGIC:
            raise GraphError(f"not a graph snapshot: {path}")
        n_terms, n_triples = struct.unpack("<IQ", read(12))
        (rt_len,) = struct.unpack("<H", read(2))
        rdf_type = read(rt_len).decode("utf-8")
        terms: list[str] = []
        literal: list[bool] = []
        for _ in range(n_terms):
            (tlen,) = struct.unpack("<I", read(4))
            terms.append(read(tlen).decode("utf-8"))
            literal.append(read(1) != b"\0")
        buf = f.read()
    if len(buf) != 12 * n_triples:
        raise GraphError(f"triple block is {len(buf)} bytes, expected "
                         f"{12 * n_triples}: {path}")
    triples = list(struct.iter_unpack("<III", buf))
    if triples and max(map(max, triples)) >= n_terms:
        raise GraphError(f"term id out of range in graph snapshot: {path}")
    return Graph(terms, literal, triples, rdf_type)
