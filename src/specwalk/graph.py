"""Immutable, integer-indexed RDF multigraph over sorted triple arrays.

Terms (IRIs, blank node labels, literal lexical forms) are interned to dense
integer ids. After construction the graph's terms and arrays are never
mutated, so it can be shared freely across threads; random sampling takes an
explicit seed or explicit uniforms (hashed_uniforms) so reads stay
side-effect free. The one thing built later is the term -> id index, on the
first lookup by term string: two threads that build it at once build equal
dicts, and either one is kept.
"""
from __future__ import annotations

import hashlib
import logging
import random
import re
import struct
from collections import defaultdict
from collections.abc import Iterable, Sequence, Set
from itertools import count

import numpy as np

log = logging.getLogger(__name__)

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

SNAPSHOT_MAGIC = b"SWSNAP03"
_TOKEN_ESCAPE = re.compile(r"[\\\s]")


def escape_token(term: str) -> str:
    """The term, each backslash doubled and each whitespace character (a
    corpus separator) written \\uXXXX, so distinct terms give distinct
    whitespace-free tokens. A printable term without a space or a backslash
    is returned as it is: space is the only printable character that \\s
    matches."""
    if term.isprintable() and " " not in term and "\\" not in term:
        return term
    return _TOKEN_ESCAPE.sub(lambda m: "\\\\" if m[0] == "\\" else
                             f"\\u{ord(m[0]):04X}", term)


class GraphError(Exception):
    """Base class for graph construction/lookup errors."""


class UnknownTermError(GraphError):
    """Raised when a term id or term string is not interned in the graph."""


class GraphBuilder:
    """Single-writer builder of an immutable Graph; ids follow first use."""

    def __init__(self, rdf_type: str = RDF_TYPE):
        self.rdf_type = rdf_type
        # term -> id: a missing term takes the next id
        self._ids = defaultdict(count().__next__)
        self._triples: list[int] = []  # s, p, o ids, one triple after another

    def intern(self, term: str) -> int:
        return self._ids[term]

    def add(self, subject: str, predicate: str, obj: str) -> None:
        self._triples += map(self._ids.__getitem__, (subject, predicate, obj))

    def build(self) -> "Graph":
        spo = np.array(self._triples, dtype=np.int64).reshape(-1, 3)
        return Graph(list(self._ids), distinct_rows(spo), self.rdf_type)


def distinct_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D integer array, in ascending order. (numpy
    2.4's np.unique imports numpy.ma on first use, about 1.5 MiB.)"""
    a = a[np.lexsort(a.T[::-1])]
    first = np.ones(len(a), dtype=bool)
    first[1:] = (a[1:] != a[:-1]).any(axis=1)
    return a[first]


class TripleSet(Set):
    """Read-only set view of a graph's (s, p, o) triples; iterates in
    ascending order."""

    _from_iterable = frozenset  # result type of the Set mixins' &, |, -, ^

    def __init__(self, graph: "Graph"):
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph.out_src)

    def __iter__(self):
        g = self._graph
        for lo in range(0, len(g.out_src), 4096):  # bounds the int lists
            yield from zip(*(a[lo:lo + 4096].tolist()
                             for a in (g.out_src, g.out_pred, g.out_obj)))

    def __contains__(self, triple) -> bool:
        s, p, o = triple
        return 0 <= s < self._graph.n_terms and (p, o) in self._graph.out_adj[s]


class EdgeLists(Sequence):
    """Read-only per-node view of the out side: view[v] is the list of
    (predicate, object) pairs in v's slice [ptr[v], ptr[v + 1]), in array
    order."""

    def __init__(self, ptr: np.ndarray, pred: np.ndarray, obj: np.ndarray):
        self._ptr, self._pred, self._obj = ptr, pred, obj

    def __len__(self) -> int:
        return len(self._ptr) - 1

    def __getitem__(self, v: int) -> list[tuple[int, int]]:
        lo, hi = self._ptr[v], self._ptr[v + 1]
        return list(zip(self._pred[lo:hi].tolist(), self._obj[lo:hi].tolist()))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 output function of state x + golden gamma (uint64
    arrays wrap on overflow)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def hashed_state(seed, *parts) -> np.ndarray:
    """The SplitMix64 state (uint64) of the seed with each part (non-negative
    integers or integer arrays, broadcast) mixed in turn. The seed is an
    int, taken mod 2**64, or a uint64 array of such states, so
    hashed_state(hashed_state(s, a), b) equals hashed_state(s, a, b)."""
    x = seed if isinstance(seed, np.ndarray) else \
        np.full(1, seed % 2 ** 64, dtype=np.uint64)
    for part in parts:
        x = _splitmix64(x ^ np.asarray(part).astype(np.uint64))
    return x


def hashed_uniforms(seed, *parts) -> np.ndarray:
    """Floats k / 2**53 in [0, 1), one per broadcast tuple of the parts:
    the top 53 bits of hashed_state(seed, *parts), a counter-based
    SplitMix64 hash (Steele, Lea & Flood 2014), so a draw depends on the
    seed and its parts alone. Walks pass (entity, attempt, column), the
    estimator (depth, predicates..., trial, column). The result has at least
    one dimension."""
    return (hashed_state(seed, *parts) >> np.uint64(11)) * 2.0 ** -53


def slice_members(lo: np.ndarray, hi: np.ndarray):
    """(at, owner): every index of the slices [lo[i], hi[i]) in slice order,
    and the i of the slice each one belongs to."""
    lens = hi - lo
    owner = np.repeat(np.arange(len(lo)), lens)
    return (np.repeat(lo - np.cumsum(lens) + lens, lens)
            + np.arange(len(owner)), owner)


def exact_counts(x: np.ndarray) -> np.ndarray:
    """x, path counts summed in float64, or ArithmeticError if one reaches
    2**53, past which such sums are inexact. A count feeding a sum is at
    most the sum, so checking the counts that are read is enough."""
    if len(x) and x.max() >= 2.0 ** 53:
        raise ArithmeticError("a path count reached 2**53; float64 counts "
                              "are exact only below it")
    return x


def slice_pick(lo: np.ndarray, hi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, lo + floor(u * (hi - lo)) clamped to hi - 1, or -1 where the
    slice [lo, hi) is empty."""
    out = np.full(len(lo), -1, dtype=np.int64)
    live = hi > lo
    lo, hi = lo[live], hi[live]
    out[live] = np.minimum(lo + (u[live] * (hi - lo)).astype(np.int64), hi - 1)
    return out


class Graph:
    """Immutable triple store: integer arrays, built once, that hold each
    triple once, on the out side; the in side is an order over its rows.

    out_src, out_pred and out_obj are int32 while the term count is below
    2**31, int64 above it; in_edge, which holds row numbers, is int32 while
    the triple count is. out_key is always int64, as s * n_terms + p
    reaches 2**31 from 46,341 terms on, and so is every other product of
    ids: a caller widens an id array before multiplying it.

    A term's kind comes from its N-Triples text: a literal starts with '"'
    (tag or datatype kept), a blank node with "_:", and any other term is an
    IRI without its angle brackets; the bool array literal follows it.

    Out side, in ascending (s, p, o) order: out_src, out_pred and out_obj;
    out_key = s * n_terms + p, so each (node, predicate) owns one slice of
    out_key; out_ptr, the offsets of each subject's slice. In side: in_edge,
    the out-edge rows in (object, subject, predicate) order, and in_ptr, the
    offsets of each object's slice of in_edge. out_adj[v] lists v's
    (predicate, object) pairs.
    """

    def __init__(self, terms: list[str], triples: np.ndarray,
                 rdf_type: str = RDF_TYPE):
        """`triples` is an (n, 3) integer array of strictly ascending (s, p,
        o) rows, so sorted and distinct; GraphError otherwise, or when an id
        is out of range, a subject or predicate is a literal or a term is
        repeated."""
        self.terms = terms
        self.literal = np.array([t[:1] == '"' for t in terms], dtype=bool)
        self.rdf_type = rdf_type
        self._ids = None  # term -> id, built by the first lookup by term
        if len(set(terms)) != len(terms):
            ids = self._term_index()
            term = next(t for i, t in enumerate(terms) if ids[t] != i)
            raise GraphError(f"term table repeats a term: {term!r}")
        self.rdf_type_id = terms.index(rdf_type) if rdf_type in terms else None
        n = len(terms)
        spo = np.asarray(triples).reshape(-1, 3)  # u32 from a snapshot

        def reject(bad: np.ndarray, problem: str) -> None:
            if bad.any():
                i = int(np.argmax(bad))
                raise GraphError(f"{problem}: triple {i} "
                                 f"{tuple(spo[i].tolist())}")

        # checked before the cast to int32, which would wrap
        if spo.size and (spo.min() < 0 or spo.max() >= n):
            reject(((spo < 0) | (spo >= n)).any(axis=1), "term id out of range")
        self.out_src, self.out_pred, self.out_obj = np.ascontiguousarray(
            spo.T, dtype=np.int32 if n < 2 ** 31 else np.int64)
        self.out_key = self.out_src.astype(np.int64) * n + self.out_pred
        key, obj = self.out_key, self.out_obj
        reject(np.append(False, (key[1:] < key[:-1]) | (
            (key[1:] == key[:-1]) & (obj[1:] <= obj[:-1]))),
               "triples must be sorted and distinct")
        reject(self.literal[self.out_src] | self.literal[self.out_pred],
               "literal in subject or predicate position")
        self.out_ptr = np.searchsorted(
            self.out_src, np.arange(n + 1, dtype=self.out_src.dtype))
        self.in_edge = np.argsort(obj, kind="stable").astype(
            np.int32 if len(obj) < 2 ** 31 else np.int64)
        self.in_ptr = np.append(0, np.cumsum(np.bincount(obj, minlength=n)))
        self.out_adj = EdgeLists(self.out_ptr, self.out_pred, self.out_obj)
        self.triples = TripleSet(self)
        self.report = None  # set by parsers
        self._checksum: str | None = None

    # -- lookups ---------------------------------------------------------

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def n_triples(self) -> int:
        return len(self.out_src)

    def _term_index(self) -> dict[str, int]:
        """term -> id, built on the first call: a graph that is only parsed
        and written to a snapshot never holds it."""
        if self._ids is None:
            self._ids = dict(zip(self.terms, range(len(self.terms))))
        return self._ids

    def has_term(self, term: str) -> bool:
        return term in self._term_index()

    def term_id(self, term: str) -> int:
        try:
            return self._term_index()[term]
        except KeyError:
            raise UnknownTermError(f"term not in graph: {term!r}") from None

    def ids(self, x, what: str = "term") -> np.ndarray:
        """x, one id or an iterable of ids, as int64 (0-d for one id).
        UnknownTermError names, by repr, the first that is a bool, not an
        integer, negative or >= n_terms (an array element as a plain value)."""
        if isinstance(x, np.ndarray) and x.dtype.kind in "iu":
            bad = x[(x < 0) | (x >= len(self.terms))].tolist()
        else:
            if isinstance(x, Iterable) and not isinstance(x, str):
                x = x.tolist() if isinstance(x, np.ndarray) else list(x)
            bad = [v for v in (x if isinstance(x, list) else [x])
                   if type(v) is bool or not isinstance(v, (int, np.integer))
                   or not 0 <= v < len(self.terms)]
        if bad:
            raise UnknownTermError(f"unknown {what} id: {bad[0]!r}")
        return np.asarray(x, dtype=np.int64)

    def out_slices(self, nodes, pred) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi): the bounds of each node's out-edges with predicate pred,
        one id or an array of one per node, checked by ids (a key from an id
        outside the term table would be another node's). The nodes are not
        checked: -1 is a dead node, as in prune_mask's padded rows, and gets
        an empty slice. Each distinct (node, pred) key is searched once."""
        pred = self.ids(pred, "predicate")
        # a negative node's key is negative, below every out_key
        keys, inv = np.unique(np.asarray(nodes, dtype=np.int64)
                              * len(self.terms) + pred, return_inverse=True)
        return (np.searchsorted(self.out_key, keys, "left")[inv],
                np.searchsorted(self.out_key, keys, "right")[inv])

    def sample_paths(self, starts, u: np.ndarray, predicates=None,
                     pick=None, inward=False) -> np.ndarray:
        """The out-edge indices of a walk from each start (checked by ids),
        shape u.shape = (len(starts), d), -1 from a dead end on.

        Step k takes pick(lo, hi, u[:, k]) (default slice_pick) among the
        current node's out-edges [lo, hi): all of them when predicates is
        None, else its out_slices for predicates[k], one id or one per row
        when predicates is a (d, rows) matrix. An inward walk (predicates
        None) picks among the node's in-edge slots [lo, hi) instead, records
        the edge in_edge[i] and moves to its subject.
        """
        pick = pick or slice_pick
        ptr, head = (self.in_ptr, self.out_src) if inward else \
            (self.out_ptr, self.out_obj)
        edges = np.full(u.shape, -1, dtype=np.int64)
        live = np.arange(len(edges))
        v = self.ids(starts)
        for k in range(edges.shape[1]):
            if predicates is None:
                lo, hi = ptr[v], ptr[v + 1]
            else:
                pred = np.asarray(predicates[k])
                lo, hi = self.out_slices(v, pred[live] if pred.ndim else pred)
            e = pick(lo, hi, u[live, k])
            live, e = live[e >= 0], e[e >= 0]
            if inward:
                e = self.in_edge[e]
            edges[live, k] = e
            v = head[e]
        return edges

    def path_counts(self, sources, predicates) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, paths): ascending nodes reached from the sources (checked
        by ids) along the predicate sequence and their path counts
        (exact_counts); a source listed twice starts two paths, an empty
        sequence one per source."""
        nodes, counts = np.unique(self.ids(sources), return_counts=True)
        for pred in predicates:
            # the matching edges of all nodes, each with its node's count
            at, owner = slice_members(*self.out_slices(nodes, pred))
            nodes, inv = np.unique(self.out_obj[at], return_inverse=True)
            counts = np.bincount(inv, counts[owner], len(nodes))
        return nodes, exact_counts(counts)

    def types_of(self, v: int) -> frozenset[int]:
        """Directly asserted rdf:type objects of v (no inference)."""
        v = self.ids([v])  # one id: a list or an array is a bad one
        if self.rdf_type_id is None:
            return frozenset()
        (lo,), (hi,) = self.out_slices(v, self.rdf_type_id)
        return frozenset(self.out_obj[lo:hi].tolist())

    def entities_of_type(self, t) -> frozenset[int]:
        """Entities with a direct rdf:type assertion to t; empty if t unknown."""
        if isinstance(t, str):
            t = self._term_index().get(t)
            if t is None:
                return frozenset()
        t = self.ids([t])[0]
        e = self.in_edge[self.in_ptr[t]:self.in_ptr[t + 1]]
        return frozenset(
            self.out_src[e][self.out_pred[e] == self.rdf_type_id].tolist())

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

    def predicate_frequency(self) -> np.ndarray:
        """Global triple count per term id (0 for a term that is never a
        predicate)."""
        return np.bincount(self.out_pred, minlength=len(self.terms))

    # -- rendering & checksum --------------------------------------------

    def render_token(self, tid: int) -> str:
        """Corpus/vocabulary token for a term: escape_token of its text."""
        return escape_token(self.terms[tid])

    def rendered_lines(self, sep: str, end: str):
        """Lines f"{s}{sep}{p}{sep}{o}{end}" of rendered terms, 4096 per
        string, by (s, p, o) compared as rendered: the lines' text order
        unless a term is a prefix of another that goes on with a character
        at or below sep or end, as no two N-Triples terms do."""
        r = [t if t[:1] == '"' or t[:2] == "_:" else f"<{t}>"
             for t in self.terms]
        order = self._rendered_order(r)
        word = np.array(r, dtype=object)
        for lo in range(0, len(order), 4096):  # bounds the strings held
            at = order[lo:lo + 4096]
            cells = np.empty((len(at), 6), dtype=object)
            cells[:, 0] = word[self.out_src[at]]
            cells[:, 2] = word[self.out_pred[at]]
            cells[:, 4] = word[self.out_obj[at]]
            cells[:, 1] = cells[:, 3] = sep
            cells[:, 5] = end
            yield "".join(cells.ravel().tolist())

    def _rendered_order(self, r: list[str]) -> np.ndarray:
        """The triples' order by (s, p, o) compared as the rendered terms r
        (its own call, so that its arrays are freed before lines are built)."""
        n = len(r)
        rank = np.empty(n, dtype=np.uint64)
        rank[sorted(range(n), key=r.__getitem__)] = np.arange(n, dtype=np.uint64)
        # the distinct (s, p) pairs start the runs of out_key; rank them by
        # rank[s] * n + rank[p] (< n**2 <= 2**64 for any u32 term count)
        first = np.flatnonzero(np.diff(self.out_key, prepend=-1))
        sp = (rank[self.out_src[first]] * np.uint64(n)
              + rank[self.out_pred[first]])
        pair_rank = np.empty(len(first), dtype=np.uint64)
        pair_rank[np.argsort(sp)] = np.arange(len(first), dtype=np.uint64)
        # one distinct key per triple, below n_triples * n
        runs = np.diff(first, append=len(self.out_key))
        return np.argsort(np.repeat(pair_rank, runs) * np.uint64(n)
                          + rank[self.out_obj])

    def checksum(self) -> str:
        """sha256 of the tab-separated rendered_lines (id-order independent)."""
        if self._checksum is None:
            h = hashlib.sha256()
            for text in self.rendered_lines("\t", "\n"):
                h.update(text.encode("utf-8"))
            self._checksum = h.hexdigest()
        return self._checksum


# -- binary snapshot -----------------------------------------------------
#
# Layout (little-endian), format 3:
#   8s   magic "SWSNAP03"
#   u32  term count n
#   u64  triple count m
#   u16  rdf:type IRI length in bytes, then the IRI's utf-8 bytes
#   n x u32  each term's length in characters
#   m x 3 x u32  (subject, predicate, object), strictly ascending
#   the n terms' utf-8 text, concatenated, to the end of the file


def write_snapshot(graph: Graph, path: str) -> None:
    rt = graph.rdf_type.encode("utf-8")
    with open(path, "wb") as f:
        f.write(SNAPSHOT_MAGIC)
        f.write(struct.pack("<IQH", len(graph.terms), graph.n_triples, len(rt)))
        f.write(rt)
        f.write(np.fromiter(map(len, graph.terms), "<u4",
                            len(graph.terms)).tobytes())
        f.write(np.stack([graph.out_src, graph.out_pred, graph.out_obj],
                         axis=1).astype("<u4").tobytes())
        f.write("".join(graph.terms).encode("utf-8"))


def read_snapshot(path: str) -> Graph:
    """Load a snapshot; GraphError naming the file when it is not a format-3
    snapshot, or is truncated, padded or inconsistent."""
    with open(path, "rb") as f:
        data = f.read()

    def fail(problem: str):
        return GraphError(f"{problem}: {path}")

    if data[:8] in (b"SWSNAP01", b"SWSNAP02"):
        raise fail(f"format {int(data[6:8])} snapshot; re-run ingest on the "
                   "N-Triples input")
    if data[:8] != SNAPSHOT_MAGIC:
        raise fail("not a graph snapshot")
    if len(data) < 22:
        raise fail("truncated graph snapshot")
    n_terms, n_triples, rt_len = struct.unpack_from("<IQH", data, 8)
    at = 22 + rt_len  # the term lengths, then the triples, then the text
    text_at = at + 4 * n_terms + 12 * n_triples
    if len(data) < text_at:
        raise fail("truncated graph snapshot")
    try:
        rdf_type = data[22:at].decode("utf-8")
        text = str(memoryview(data)[text_at:], "utf-8")
    except UnicodeDecodeError as exc:
        raise fail(f"snapshot text is not utf-8 ({exc.reason})") from None
    # the text runs to the end of the file: a cut or padding shows here
    ends = [0, *np.cumsum(np.frombuffer(data, "<u4", n_terms, at),
                          dtype=np.int64).tolist()]
    if ends[-1] != len(text):
        raise fail(f"snapshot text is {len(text)} characters, but its term "
                   f"lengths sum to {ends[-1]}")
    terms = [text[a:z] for a, z in zip(ends, ends[1:])]
    # copied, so that the file is freed before Graph's arrays are built
    triples = np.frombuffer(data, "<u4", 3 * n_triples,
                            at + 4 * n_terms).reshape(-1, 3).copy()
    del data, text
    try:
        return Graph(terms, triples, rdf_type)
    except GraphError as exc:
        raise fail(str(exc)) from None
