"""Skip-gram with negative sampling (SGNS) over walk corpora.

Plain numpy implementation: input vectors initialized uniformly in
[-0.5/dim, 0.5/dim], output vectors zero, negatives drawn from the
unigram^0.75 distribution, learning rate decayed linearly over all processed
pairs. Single-worker training is bit-deterministic given the seed.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

SIGMOID_CLAMP = 30.0  # |x| beyond this contributes negligible gradient


@dataclass
class TrainConfig:
    dim: int = 500
    window: int = 10
    negatives: int = 25
    epochs: int = 5
    lr: float = 0.025
    min_count: int = 1
    subsample: float = 0.0  # off by default; fraction threshold when > 0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.window < 1 or self.negatives < 1:
            raise ValueError("dim, window and negatives must all be >= 1")


class Vocabulary:
    """Token <-> dense index bijection; indices by descending count then token."""

    def __init__(self, counts: dict[str, int], min_count: int = 1):
        kept = {t: c for t, c in counts.items() if c >= min_count}
        self.tokens = sorted(kept, key=lambda t: (-kept[t], t))
        self.index = {t: i for i, t in enumerate(self.tokens)}
        self.counts = np.array([kept[t] for t in self.tokens], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index


def build_vocab(token_lines, min_count: int = 1) -> Vocabulary:
    counts: dict[str, int] = {}
    for tokens in token_lines:
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
    return Vocabulary(counts, min_count=min_count)


def context_pairs(tokens, window: int):
    """All ordered (center, context) pairs within the window."""
    if window < 1:
        raise ValueError("window must be >= 1")
    pairs = []
    n = len(tokens)
    for i in range(n):
        for j in range(max(0, i - window), min(n, i + window + 1)):
            if i != j:
                pairs.append((tokens[i], tokens[j]))
    return pairs


def unigram_table(vocab: Vocabulary, power: float = 0.75) -> np.ndarray:
    """Cumulative distribution over vocabulary indices for negative draws."""
    weights = vocab.counts.astype(np.float64) ** power
    cum = np.cumsum(weights)
    return cum / cum[-1]


def sample_negatives(cum: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    return np.searchsorted(cum, rng.random(k)).astype(np.int64)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -SIGMOID_CLAMP, SIGMOID_CLAMP)))


@dataclass
class EmbeddingModel:
    vocab: Vocabulary
    w_in: np.ndarray
    w_out: np.ndarray | None
    config: TrainConfig
    epoch_losses: list[float] = field(default_factory=list)

    def vector(self, token: str) -> np.ndarray:
        return self.w_in[self.vocab.index[token]]

    def save_text(self, out) -> None:
        """word2vec text format over input vectors."""
        out.write(f"{len(self.vocab)} {self.config.dim}\n")
        for i, token in enumerate(self.vocab.tokens):
            vals = " ".join(f"{x:.6f}" for x in self.w_in[i])
            out.write(f"{token} {vals}\n")

    @classmethod
    def load_text(cls, stream) -> "EmbeddingModel":
        """Read the word2vec text format written by save_text.

        ValueError naming the line unless the header is a row count >= 0 and
        a dimension >= 1, followed by exactly that many rows, each a token
        and `dim` floats.
        """
        header = stream.readline().split()
        if (len(header) != 2 or not all(h.isdigit() for h in header)
                or int(header[1]) < 1):
            raise ValueError(f"model line 1: expected '<rows> <dim>' with "
                             f"dim >= 1, got {' '.join(header)!r}")
        n, dim = int(header[0]), int(header[1])
        tokens = []
        w_in = np.empty((n, dim), dtype=np.float32)
        for i in range(n):
            lineno = i + 2
            line = stream.readline()
            if not line:
                raise ValueError(f"model line {lineno}: file ends after {i} "
                                 f"of the header's {n} rows")
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1 or not parts[0]:
                raise ValueError(f"model line {lineno}: expected a token and "
                                 f"{dim} values, got {len(parts) - 1} values")
            tokens.append(parts[0])
            try:
                w_in[i] = np.array(parts[1:], dtype=np.float32)
            except ValueError as exc:
                raise ValueError(f"model line {lineno}: {exc}") from None
        if stream.readline().strip():
            raise ValueError(f"model line {n + 2}: more rows than the "
                             f"header's {n}")
        vocab = Vocabulary.__new__(Vocabulary)
        vocab.tokens = tokens
        vocab.index = {t: i for i, t in enumerate(tokens)}
        vocab.counts = np.zeros(n, dtype=np.int64)
        return cls(vocab, w_in, None, TrainConfig(dim=dim))


def init_model(vocab: Vocabulary, config: TrainConfig) -> EmbeddingModel:
    rng = np.random.Generator(np.random.PCG64(config.seed))
    bound = 0.5 / config.dim
    w_in = rng.uniform(-bound, bound, (len(vocab), config.dim)).astype(np.float32)
    w_out = np.zeros((len(vocab), config.dim), dtype=np.float32)
    return EmbeddingModel(vocab, w_in, w_out, config)


def sgns_step(model: EmbeddingModel, center: int, context: int,
              negatives, lr: float) -> float:
    """One gradient step on log s(u_ctx.v) + sum log s(-u_neg.v).

    Updates both matrices in place; returns the objective value before the
    update. lr=0 leaves the model unchanged.
    """
    w_in, w_out = model.w_in, model.w_out
    idx = np.empty(1 + len(negatives), dtype=np.int64)
    idx[0] = context
    idx[1:] = negatives
    v = w_in[center]
    us = w_out[idx]
    dots = us @ v
    f = _sigmoid(dots)
    obj = float(np.log(max(f[0], 1e-12)) + np.log(np.maximum(1.0 - f[1:], 1e-12)).sum())
    labels = np.zeros(len(idx), dtype=np.float32)
    labels[0] = 1.0
    gscale = (labels - f.astype(np.float32)) * lr
    v_grad = gscale @ us
    np.add.at(w_out, idx, gscale[:, None] * v[None, :])
    w_in[center] += v_grad
    return obj


def train(token_lines, config: TrainConfig) -> EmbeddingModel:
    """Train SGNS over an iterable of token lists (corpus lines)."""
    lines = [list(t) for t in token_lines]
    vocab = build_vocab(lines, min_count=config.min_count)
    if len(vocab) == 0:
        raise ValueError("empty vocabulary after min-count filtering")
    sentences = []
    for tokens in lines:
        ids = [vocab.index[t] for t in tokens if t in vocab.index]
        if len(ids) >= 2:
            sentences.append(np.array(ids, dtype=np.int64))
    model = init_model(vocab, config)
    if config.epochs == 0 or not sentences:
        return model
    rng = np.random.Generator(np.random.PCG64(config.seed + 1))
    cum = unigram_table(vocab)

    keep_prob = None
    if config.subsample > 0:
        freq = vocab.counts / vocab.counts.sum()
        keep_prob = np.minimum(
            1.0, np.sqrt(config.subsample / np.maximum(freq, 1e-12))
            + config.subsample / np.maximum(freq, 1e-12))

    pairs_per_epoch = 0
    for sent in sentences:
        n = len(sent)
        for i in range(n):
            pairs_per_epoch += min(n, i + config.window + 1) - max(0, i - config.window) - 1
    total_pairs = pairs_per_epoch * config.epochs
    processed = 0
    lr_floor = config.lr * 1e-4

    for epoch in range(config.epochs):
        epoch_obj = 0.0
        epoch_pairs = 0
        for sent in sentences:
            if keep_prob is not None:
                mask = rng.random(len(sent)) < keep_prob[sent]
                sent = sent[mask]
            n = len(sent)
            for i in range(n):
                center = int(sent[i])
                lo, hi = max(0, i - config.window), min(n, i + config.window + 1)
                for j in range(lo, hi):
                    if j == i:
                        continue
                    lr = max(lr_floor, config.lr * (1.0 - processed / total_pairs))
                    negs = sample_negatives(cum, config.negatives, rng)
                    epoch_obj += sgns_step(model, center, int(sent[j]), negs, lr)
                    processed += 1
                    epoch_pairs += 1
        mean = epoch_obj / epoch_pairs if epoch_pairs else 0.0
        model.epoch_losses.append(-mean)  # negative objective = loss
        log.info("epoch %d/%d: mean loss %.4f", epoch + 1, config.epochs, -mean)
    if not np.isfinite(model.w_in).all() or not np.isfinite(model.w_out).all():
        raise ArithmeticError("non-finite values in trained embeddings")
    return model
