import struct

import pytest
from hypothesis import strategies as st

from specwalk.graph import RDF_TYPE, GraphBuilder, hashed_uniforms
from specwalk.specificity import FORWARD_RETRY_LIMIT
from specwalk.synth import franchise_graph, layered_graph

EX = "http://x/"
TYPE_T = EX + "T"


def v1_snapshot_bytes(g):
    """A graph in the format-1 snapshot layout: per term a u32 utf-8 length,
    the bytes and a flag byte, then the 3 x u32 triple rows."""
    rt = g.rdf_type.encode()
    return (b"SWSNAP01" + struct.pack("<IQH", g.n_terms, g.n_triples, len(rt))
            + rt + b"".join(struct.pack("<I", len(t.encode())) + t.encode()
                            + bytes([f])
                            for t, f in zip(g.terms, g.literal.tolist()))
            + b"".join(struct.pack("<III", *t) for t in g.triples))


def v2_snapshot_bytes(g):
    """A graph in the format-2 snapshot layout: the terms' u32 utf-8 lengths,
    their flag bytes and their bytes, then the 3 x u32 triple rows."""
    rt = g.rdf_type.encode()
    blobs = [t.encode() for t in g.terms]
    return (b"SWSNAP02" + struct.pack("<IQH", g.n_terms, g.n_triples, len(rt))
            + rt + struct.pack(f"<{len(blobs)}I", *map(len, blobs))
            + bytes(g.literal) + b"".join(blobs)
            + b"".join(struct.pack("<III", *t) for t in g.triples))


def in_edges(g, v):
    """v's (predicate, subject) pairs, read through in_ptr and in_edge."""
    e = g.in_edge[g.in_ptr[v]:g.in_ptr[v + 1]]
    return list(zip(g.out_pred[e].tolist(), g.out_src[e].tolist()))


def build(triples, rdf_type=RDF_TYPE):
    """Graph from (s, p, o) tuples of terms."""
    b = GraphBuilder(rdf_type=rdf_type)
    for s, p, o in triples:
        b.add(s, p, o)
    return b.build()


N_NODES = 6
PREDICATES = [EX + f"p{j}" for j in range(3)] + [RDF_TYPE]


_node = st.integers(0, N_NODES - 1)
small_edges = st.lists(st.tuples(_node, st.sampled_from(PREDICATES), _node),
                       max_size=30)


def small_graph(edges):
    """Graph whose node n{i} has term id i (i < N_NODES), with one triple per
    (i, predicate IRI, j) edge; every predicate is interned even if unused."""
    b = GraphBuilder()
    for i in range(N_NODES):
        b.intern(EX + f"n{i}")
    for p in PREDICATES:
        b.intern(p)
    for s, p, o in edges:
        b.add(EX + f"n{s}", p, EX + f"n{o}")
    return b.build()


def small_graphs():
    """Random small_graph over up to 30 edges."""
    return small_edges.map(small_graph)


def scan_pick(weights, u):
    """The first index whose running weight exceeds u * total, the last
    positive one if rounding leaves none, None for a zero total."""
    total = sum(weights)
    if total <= 0:
        return None
    run = 0.0
    for i, w in enumerate(weights):
        run += w
        if run > u * total:
            return i
    return max(i for i, w in enumerate(weights) if w > 0)


def scan_trials(g, relationship, seeds, type_set, n_walks, seed):
    """Scalar reference for trial_outcomes: (hit, dead) per trial, dead when
    the forward walk still dead-ends after the last retry. Trial i reads one
    draw at a time, hashed_uniforms(seed, d, p1, ..., pd, i, column), with
    forward attempt a in columns a(1 + d) to a(1 + d) + d and the reverse
    walk in the d columns after the last attempt's; each step's edges are
    found by scanning the sorted triples. A draw u picks options[floor(u *
    len(options))], clamped to the last option."""
    triples = sorted(g.triples)
    seeds = sorted(seeds)
    d = relationship.depth

    def draw(i, column):
        return float(hashed_uniforms(seed, d, *relationship.predicates, i,
                                     column)[0])

    def pick(options, u):
        return options[min(int(u * len(options)), len(options) - 1)] \
            if options else -1

    outcomes = []
    for i in range(n_walks):
        v = -1
        for a in range(FORWARD_RETRY_LIMIT + 1):  # until one walks them all
            v = pick(seeds, draw(i, a * (1 + d)))
            for k, pred in enumerate(relationship.predicates):
                v = pick([o for s, p, o in triples if s == v and p == pred],
                         draw(i, a * (1 + d) + 1 + k))
                if v < 0:
                    break
            if v >= 0:
                break
        dead = v < 0
        for k in range(d):
            if v >= 0:
                v = pick([s for s, p, o in triples if o == v],
                         draw(i, (FORWARD_RETRY_LIMIT + 1) * (1 + d) + k))
        outcomes.append((v in type_set, dead))
    return outcomes


@pytest.fixture
def chain_graph():
    # f (type T) --p--> x ; single deterministic path
    return build([
        (EX + "f", RDF_TYPE, TYPE_T),
        (EX + "f", EX + "p", EX + "x"),
    ])


@pytest.fixture
def aliasing_graph():
    """(graph, bad): e0 and e1 of type T, e0 p x, e1 q y and x q e1, and the
    predicate id bad = (e1 - e0) * n_terms + q, outside the term table, whose
    out_key from e0 is e1's q key."""
    g = build([(EX + "e0", RDF_TYPE, TYPE_T), (EX + "e1", RDF_TYPE, TYPE_T),
               (EX + "e0", EX + "p", EX + "x"), (EX + "e1", EX + "q", EX + "y"),
               (EX + "x", EX + "q", EX + "e1")])
    e0, e1, q = (g.term_id(EX + n) for n in ("e0", "e1", "q"))
    return g, (e1 - e0) * g.n_terms + q


@pytest.fixture(scope="session")
def franchise():
    return franchise_graph(seed=1)


@pytest.fixture(scope="session")
def layered():
    return layered_graph(seed=1)
