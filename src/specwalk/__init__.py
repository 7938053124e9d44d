"""Specificity-weighted RDF graph walks, embeddings and recommendation."""

__version__ = "0.1.0"

from .graph import (Graph, GraphBuilder, GraphError, UnknownTermError,
                    read_snapshot, write_snapshot)
from .ntriples import ParseError, load_graph, parse_ntriples, serialize_ntriples
from .pagerank import ScoreMap, compute_pagerank, load_scores, save_scores
from .recommend import (Recommendation, ndcg, precision_at_k,
                        sensitivity_sweep, top_k)
from .skipgram import (EmbeddingModel, TrainConfig, Vocabulary, build_vocab,
                       sgns_step, train)
from .specificity import (EstimatorParams, SemanticRelationship,
                          SpecificityEntry, SpecificityTable,
                          estimate_specificity, exact_specificity,
                          rank_by_specificity)
from .walks import Walk, WalkCorpus, WalkStrategy, extract_corpus, prune_check

__all__ = [name for name in dir() if not name.startswith("_")]
