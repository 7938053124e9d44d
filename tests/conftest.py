import struct

import pytest
from hypothesis import strategies as st

from specwalk.graph import RDF_TYPE, GraphBuilder
from specwalk.synth import franchise_graph, layered_graph

EX = "http://x/"
TYPE_T = EX + "T"


def v1_snapshot_bytes(g):
    """A graph in the format-1 snapshot layout: per term a u32 utf-8 length,
    the bytes and a flag byte, then the 3 x u32 triple rows."""
    rt = g.rdf_type.encode()
    return (b"SWSNAP01" + struct.pack("<IQH", g.n_terms, g.n_triples, len(rt))
            + rt + b"".join(struct.pack("<I", len(t.encode())) + t.encode()
                            + bytes([f]) for t, f in zip(g.terms, g.literal))
            + b"".join(struct.pack("<III", *t) for t in g.triples))


def build(triples, rdf_type=RDF_TYPE):
    """Graph from (s, p, o[, literal]) tuples of short local names."""
    b = GraphBuilder(rdf_type=rdf_type)
    for t in triples:
        s, p, o = t[:3]
        b.add(s, p, o, object_literal=len(t) > 3 and t[3])
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


@pytest.fixture
def chain_graph():
    # f (type T) --p--> x ; single deterministic path
    return build([
        (EX + "f", RDF_TYPE, TYPE_T),
        (EX + "f", EX + "p", EX + "x"),
    ])


@pytest.fixture(scope="session")
def franchise():
    return franchise_graph(seed=1)


@pytest.fixture(scope="session")
def layered():
    return layered_graph(seed=1)
