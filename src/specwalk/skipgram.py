"""Skip-gram with negative sampling (SGNS) over walk corpora.

Plain numpy implementation: input vectors initialized uniformly in
[-0.5/dim, 0.5/dim], output vectors zero, negatives drawn from the
unigram^0.75 distribution.

Training runs in minibatches of ``BATCH_SIZE`` (center, context) pairs. Each
epoch builds its pairs as index arrays (every ordered pair of positions at
most ``window`` apart within a line, after subsampling), shuffles them with
the training RNG and steps through them a batch at a time. A batch draws
``negatives`` per pair, computes every gradient from the weights as they were
before the batch, and adds the *summed* update of each row: a token that
appears k times in a batch moves as far as k single-pair steps would from
the same start. ``sgns_step`` takes one such step on a batch it is given.

Everything a batch needs that does not depend on the weights is built once
per chunk of ``PLAN_BATCHES`` batches: the negatives (one draw, the same
bits as one draw per batch), the learning rates, and each batch's distinct
rows with the map from its entries to them. A batch step sums each row's
updates with two small matrix products: one ``np.bincount`` of the gradient
scales gives the (distinct output rows x pairs) coefficients, which multiply
the center vectors, and the (distinct centers x pairs) indicator matrix
multiplies the per-pair input gradients. Each distinct row is then added
once. The models are bit-identical to computing each batch from scratch,
and under OpenBLAS they do not depend on its number of threads.

The learning rate decays linearly from ``lr`` to ``lr * 1e-4`` over the pairs
actually trained: epoch e covers the fraction [e/epochs, (e+1)/epochs) of the
schedule, split evenly over that epoch's pairs, so subsampling does not stop
the decay short. Single-worker training is bit-deterministic given the seed.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

SIGMOID_CLAMP = 30.0  # |x| beyond this contributes negligible gradient
# Pairs per gradient step. Summed row updates grow with the batch, so larger
# batches take larger steps on frequent tokens: 256 diverges on the
# criterion-7 corpus at the default learning rate.
BATCH_SIZE = 64
# Batches whose negatives and row plans are built at once. Plans take tens of
# bytes per (pair, row) they cover: planning a whole epoch at once added
# about 720 bytes of peak memory per pair (dim 16, 10 negatives, 40 tokens).
PLAN_BATCHES = 16


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
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not self.subsample >= 0:
            raise ValueError(f"subsample must be >= 0, got {self.subsample}")
        if self.min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {self.min_count}")


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


def context_pair_arrays(flat: np.ndarray, lengths: np.ndarray,
                        window: int) -> tuple[np.ndarray, np.ndarray]:
    """(centers, contexts): every ordered pair of positions at most `window`
    apart within a line, for lines stored back to back in `flat`.

    Lines of one length share one (i, j) offset pattern, so the only Python
    loop is over the distinct lengths.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    starts = np.cumsum(lengths) - lengths
    centers, contexts = [], []
    for n in np.flatnonzero(np.bincount(lengths)[2:]) + 2:
        pos = np.arange(n)
        gap = np.abs(pos[:, None] - pos[None, :])
        i, j = np.nonzero((gap > 0) & (gap <= window))
        rows = flat[starts[lengths == n][:, None] + pos]
        centers.append(rows[:, i].ravel())
        contexts.append(rows[:, j].ravel())
    if not centers:
        return flat[:0], flat[:0]
    return np.concatenate(centers), np.concatenate(contexts)


def unigram_table(vocab: Vocabulary, power: float = 0.75) -> np.ndarray:
    """Cumulative distribution over vocabulary indices for negative draws."""
    weights = vocab.counts.astype(np.float64) ** power
    cum = np.cumsum(weights)
    return cum / cum[-1]


def sample_negatives(cum: np.ndarray, shape, rng: np.random.Generator) -> np.ndarray:
    """Vocabulary indices of the given shape drawn from the table `cum`."""
    return np.searchsorted(cum, rng.random(shape)).astype(np.int64, copy=False)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -SIGMOID_CLAMP, SIGMOID_CLAMP)))


@dataclass
class EmbeddingModel:
    vocab: Vocabulary
    w_in: np.ndarray
    w_out: np.ndarray | None
    config: TrainConfig
    epoch_losses: list[float] = field(default_factory=list)
    epoch_pairs: list[int] = field(default_factory=list)  # pairs trained
    final_lr: float = 0.0  # learning rate of the last batch trained

    def vector(self, token: str) -> np.ndarray:
        return self.w_in[self.vocab.index[token]]

    def save_text(self, out) -> None:
        """word2vec text format over input vectors."""
        out.write(f"{len(self.vocab)} {self.config.dim}\n")
        row = "%s " + " ".join(["%.6f"] * self.w_in.shape[1]) + "\n"
        out.writelines(row % (token, *values) for token, values in
                       zip(self.vocab.tokens, self.w_in.tolist()))

    @classmethod
    def load_text(cls, stream) -> "EmbeddingModel":
        """Read the word2vec text format written by save_text.

        ValueError naming the line unless the header is a row count >= 0 and
        a dimension >= 1, followed by exactly that many rows, each a token
        and `dim` floats that are finite in float32 (no nan, inf or value
        beyond float32's range).
        """
        header = stream.readline().split()
        if (len(header) != 2 or not all(h.isdigit() for h in header)
                or int(header[1]) < 1):
            raise ValueError(f"model line 1: expected '<rows> <dim>' with "
                             f"dim >= 1, got {' '.join(header)!r}")
        n, dim = int(header[0]), int(header[1])
        tokens = []
        w_in = np.empty((n, dim), dtype=np.float32)
        with np.errstate(over="ignore"):  # out-of-range values fail below
            for i in range(n):
                lineno = i + 2
                line = stream.readline()
                if not line:
                    raise ValueError(f"model line {lineno}: file ends after "
                                     f"{i} of the header's {n} rows")
                parts = line.rstrip("\n").split(" ")
                if len(parts) != dim + 1 or not parts[0]:
                    raise ValueError(f"model line {lineno}: expected a token "
                                     f"and {dim} values, got {len(parts) - 1} "
                                     "values")
                tokens.append(parts[0])
                try:
                    w_in[i] = np.array(parts[1:], dtype=np.float32)
                except ValueError as exc:
                    raise ValueError(f"model line {lineno}: {exc}") from None
        finite = np.isfinite(w_in)
        if not finite.all():
            i, j = np.argwhere(~finite)[0].tolist()
            raise ValueError(f"model line {i + 2}: value {j + 1} reads as "
                             f"{float(w_in[i, j])} in float32, not a finite "
                             "number")
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


def _distinct_rows(rows: np.ndarray, per_batch: int, n_rows: int):
    """Each batch's distinct rows, for batches of `per_batch` consecutive
    entries of `rows`. Returns (distinct, inverse, bounds): batch b's
    distinct rows, ascending, are `distinct[bounds[b]:bounds[b + 1]]`, and
    its entry j is row `distinct[bounds[b] + inverse[j]]`. One sort of
    `batch * n_rows + row` gives every batch's.
    """
    batch = np.arange(len(rows)) // per_batch
    keys = batch * n_rows + rows
    order = np.argsort(keys)
    keys = keys[order]
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    # sorting keeps every batch in place, so batch b holds the sorted
    # positions [b * per_batch, (b + 1) * per_batch)
    bounds = np.searchsorted(np.flatnonzero(first),
                             np.arange(0, len(rows) + per_batch, per_batch))
    return keys[first] % n_rows, inverse - bounds[batch], bounds


def _batch_plans(centers: np.ndarray, contexts: np.ndarray,
                 negatives: np.ndarray, per_batch: int, n_rows: int,
                 dtype) -> list:
    """The weight-independent inputs of `_sgns_step` for each batch of
    `per_batch` consecutive pairs: its centers, its context and negative
    rows, and for each weight matrix the distinct rows it updates with a
    map from (distinct row, pair) cells to the batch's entries. For `w_in`
    that map is the (distinct centers x pairs) indicator matrix; for
    `w_out` it is each (pair, row) entry's flat cell index."""
    idx = np.concatenate((contexts[:, None], negatives), axis=1)
    n, k = idx.shape
    in_rows, in_inv, in_bounds = _distinct_rows(centers, per_batch, n_rows)
    out_rows, out_inv, out_bounds = _distinct_rows(idx.ravel(),
                                                   per_batch * k, n_rows)
    batch, col = np.divmod(np.arange(n), per_batch)
    width = np.minimum(per_batch, n - batch * per_batch)  # its batch's pairs
    out_cell = out_inv * np.repeat(width, k) + np.repeat(col, k)
    # every batch's indicator matrix, back to back in one array
    size = np.diff(in_bounds) * width[::per_batch]
    at = np.cumsum(size) - size
    onehot = np.zeros(size.sum(), dtype=dtype)
    onehot[at[batch] + in_inv * width + col] = 1
    plans = []
    for b, lo in enumerate(range(0, n, per_batch)):
        hi = lo + per_batch
        i0, i1 = in_bounds[b], in_bounds[b + 1]
        plans.append((centers[lo:hi], idx[lo:hi], in_rows[i0:i1],
                      onehot[at[b]:at[b] + size[b]].reshape(i1 - i0, -1),
                      out_rows[out_bounds[b]:out_bounds[b + 1]],
                      out_cell[lo * k:hi * k]))
    return plans


def _sgns_step(w_in: np.ndarray, w_out: np.ndarray, plan, lr: float) -> float:
    """One summed gradient step over the batch `plan` describes."""
    centers, idx, in_rows, onehot, out_rows, out_cell = plan
    v = w_in[centers]
    us = w_out[idx]
    f = _sigmoid(np.einsum("bd,bkd->bk", v, us))
    obj = (np.log(np.maximum(f[:, 0], 1e-12)).sum(dtype=np.float64)
           + np.log(np.maximum(1.0 - f[:, 1:], 1e-12)).sum(dtype=np.float64))
    gscale = -f
    gscale[:, 0] += 1.0
    gscale *= lr
    # coef[r, b]: the summed gscale of pair b's entries on distinct row r
    coef = np.bincount(out_cell, gscale.ravel(), len(out_rows) * len(v))
    w_in[in_rows] += onehot @ np.einsum("bk,bkd->bd", gscale, us)
    # in the weights' dtype, so that the product is one BLAS gemm
    w_out[out_rows] += coef.astype(v.dtype, copy=False).reshape(
        len(out_rows), -1) @ v
    return float(obj)


def sgns_step(model: EmbeddingModel, centers, contexts, negatives,
              lr: float) -> float:
    """One summed gradient step on sum_b log s(u_ctx.v) + sum log s(-u_neg.v)
    over the (center, context) pairs; a scalar center and context are a
    batch of one.

    `negatives` has one row per pair. Every gradient is taken at the weights
    before the step, and the updates that land on one row add up. Updates
    both matrices in place; returns the objective before the update. lr=0
    leaves the model unchanged.
    """
    centers, contexts = np.atleast_1d(centers), np.atleast_1d(contexts)
    n = len(centers)
    if n == 0:
        raise ValueError("a step needs at least one (center, context) pair")
    negatives = np.asarray(negatives, dtype=np.int64).reshape(n, -1)
    (plan,) = _batch_plans(centers, contexts, negatives, n, len(model.w_in),
                           model.w_in.dtype)
    return _sgns_step(model.w_in, model.w_out, plan, lr)


def train(token_lines, config: TrainConfig) -> EmbeddingModel:
    """Train SGNS over an iterable of token lists (corpus lines)."""
    lines = [list(t) for t in token_lines]
    vocab = build_vocab(lines, min_count=config.min_count)
    if len(vocab) == 0:
        raise ValueError("empty vocabulary after min-count filtering")
    ids = [[vocab.index[t] for t in tokens if t in vocab.index]
           for tokens in lines]
    ids = [s for s in ids if len(s) >= 2]
    model = init_model(vocab, config)
    if config.epochs == 0 or not ids:
        return model
    lengths = np.array([len(s) for s in ids], dtype=np.int64)
    # int32 token ids keep each epoch's pair arrays at 8 bytes a pair
    flat = np.fromiter((t for s in ids for t in s), dtype=np.int32,
                       count=int(lengths.sum()))
    rng = np.random.Generator(np.random.PCG64(config.seed + 1))
    cum = unigram_table(vocab)

    keep_prob = None
    if config.subsample > 0:
        freq = vocab.counts / vocab.counts.sum()
        keep_prob = np.minimum(
            1.0, np.sqrt(config.subsample / np.maximum(freq, 1e-12))
            + config.subsample / np.maximum(freq, 1e-12))
        line_starts = np.cumsum(lengths) - lengths
    else:
        all_pairs = context_pair_arrays(flat, lengths, config.window)

    lr_floor = config.lr * 1e-4
    lr = config.lr
    chunk = PLAN_BATCHES * BATCH_SIZE
    for epoch in range(config.epochs):
        if keep_prob is None:
            centers, contexts = all_pairs
        else:
            kept = rng.random(len(flat)) < keep_prob[flat]
            centers, contexts = context_pair_arrays(
                flat[kept], np.add.reduceat(kept, line_starts), config.window)
        n_pairs = len(centers)
        order = rng.permutation(n_pairs)
        epoch_obj = 0.0
        for c0 in range(0, n_pairs, chunk):
            c1 = min(c0 + chunk, n_pairs)
            picked = order[c0:c1]  # the chunk's pairs, in shuffled order
            negs = sample_negatives(cum, (c1 - c0, config.negatives), rng)
            starts = np.arange(c0, c1, BATCH_SIZE)
            lrs = np.maximum(lr_floor, config.lr * (
                1.0 - (epoch + starts / n_pairs) / config.epochs)).tolist()
            plans = _batch_plans(centers[picked], contexts[picked], negs,
                                 BATCH_SIZE, len(vocab), model.w_in.dtype)
            for plan, lr in zip(plans, lrs):
                epoch_obj += _sgns_step(model.w_in, model.w_out, plan, lr)
        mean = epoch_obj / n_pairs if n_pairs else 0.0
        model.epoch_losses.append(-mean)  # negative objective = loss
        model.epoch_pairs.append(n_pairs)
        log.info("epoch %d/%d: mean loss %.4f over %d pairs", epoch + 1,
                 config.epochs, -mean, n_pairs)
    model.final_lr = lr
    if not np.isfinite(model.w_in).all() or not np.isfinite(model.w_out).all():
        raise ArithmeticError("non-finite values in trained embeddings")
    return model
