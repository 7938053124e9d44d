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
rows with the map from its entries to them. Negatives come from a guide
table built once per run, which returns exactly the indices a binary search
of the unigram table would (see ``_negative_sampler``). Distinct rows come
from a presence table over the chunk's (batch x vocabulary) cells while
there are at most ``DENSE_CELLS_PER_ENTRY`` cells per entry, and from one
sort of the entries beyond that. A batch step sums each row's updates with
two small matrix products: one ``np.bincount`` of the gradient scales gives
the (distinct output rows x pairs) coefficients, which multiply the center
vectors, and the (distinct centers x pairs) indicator matrix multiplies the
per-pair input gradients. Each distinct row is then added once. Each step
stores its sigmoid outputs, and the chunk's per-batch objectives are summed
from them at its end. The models are bit-identical to computing each batch
from scratch, and under OpenBLAS they do not depend on its number of
threads.

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
# about 530 bytes of peak memory per pair (dim 16, 10 negatives, 40 tokens).
PLAN_BATCHES = 16
# A batch plan finds each batch's distinct rows with a presence table over
# its (batch x vocabulary) cells when those are at most this many times the
# entries, and by sorting the entries otherwise. The two cross here for the
# output rows, which cost the most: timed per chunk of 16 batches of
# Zipf-drawn rows (one Xeon core), the table was faster at up to 12 cells
# per entry and the sort at 32 to 128, with the two within 20% of each other
# in between, at 384, 704 and 1,664 entries a batch (5, 10 and 25
# negatives). For the 64 centers of a batch the table stays faster up to
# about 64 cells per entry, but either takes under 40 us there.
DENSE_CELLS_PER_ENTRY = 16


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
    loop is over the distinct lengths. The pattern lists each center i's
    contexts j in ascending order, i ascending, and is built in
    O(n * window) for a line of n tokens.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    starts = np.cumsum(lengths) - lengths
    centers, contexts = [], []
    for n in np.flatnonzero(np.bincount(lengths)[2:]) + 2:
        pos = np.arange(n)
        lo = np.maximum(pos - window, 0)
        span = np.minimum(pos + window, n - 1) - lo + 1  # i's window, i too
        i = np.repeat(pos, span)
        j = np.arange(len(i)) - np.repeat(np.cumsum(span) - span - lo, span)
        i, j = i[i != j], j[i != j]
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


def _negative_sampler(cum: np.ndarray):
    """A function (shape, rng) that draws vocabulary indices of that shape
    from the table `cum`: exactly ``np.searchsorted(cum, rng.random(shape))``.

    A guide table (Chen & Asau 1974) over M >= 4 * len(cum) equal buckets,
    M a power of two, holds for bucket j the index of the first entry of
    `cum` that is >= j / M. A draw u lies in bucket floor(u * M), which is
    exact because M is a power of two. Where that bucket holds at most one
    boundary of `cum`, one comparison with it finds the index; draws in
    wider buckets (the rare-token tail) fall back to a binary search.

    The table keeps 5 bytes a bucket (an int32 index and a flag), 20 to 40
    bytes a vocabulary token, and is built from arrays of the vocabulary's
    size: entry i of `cum` lies in bucket min(floor(cum[i] * M), M), and
    bucket j's index counts the entries in buckets before j.
    """
    m = 1 << (4 * len(cum) - 1).bit_length()
    at = np.clip(np.floor(cum * m), -1, m).astype(np.int64)
    guide = np.repeat(np.arange(len(cum) + 1, dtype=np.int32),
                      np.diff(at, prepend=-1, append=m))
    shared = at[1:][at[1:] == at[:-1]]  # buckets holding a second boundary
    wide = np.zeros(m, dtype=bool)
    wide[shared[(shared >= 0) & (shared < m)]] = True
    any_wide = bool(wide.any())
    cum_ext = np.append(cum, np.inf)

    def draw(shape, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(shape)  # a float when shape is None
        flat = np.ravel(u)
        bucket = (flat * m).astype(np.intp)
        lo = guide[bucket].astype(np.intp)
        idx = lo + (cum_ext[lo] < flat)
        if any_wide:
            slow = wide[bucket]
            idx[slow] = np.searchsorted(cum, flat[slow])
        # a scalar, as np.searchsorted returns, for shape None or ()
        return idx.astype(np.int64, copy=False).reshape(np.shape(u))[()]

    return draw


def sample_negatives(cum: np.ndarray, shape, rng: np.random.Generator) -> np.ndarray:
    """Vocabulary indices of the given shape drawn from the table `cum`."""
    return _negative_sampler(cum)(shape, rng)


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
        not on an earlier row and `dim` floats that are finite in float32
        (no nan, inf or value beyond float32's range).
        """
        header = stream.readline().split()
        if (len(header) != 2 or not all(h.isdigit() for h in header)
                or int(header[1]) < 1):
            raise ValueError(f"model line 1: expected '<rows> <dim>' with "
                             f"dim >= 1, got {' '.join(header)!r}")
        n, dim = int(header[0]), int(header[1])
        index = {}  # token -> row
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
                first = index.setdefault(parts[0], i)
                if first != i:
                    raise ValueError(f"model line {lineno}: token "
                                     f"{parts[0]!r} is also on line "
                                     f"{first + 2}")
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
        vocab.tokens = list(index)
        vocab.index = index
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
    its entry j is row `distinct[bounds[b] + inverse[j]]`.

    Batch b's entry on row r is cell `b * n_rows + r`. Where there are at
    most ``DENSE_CELLS_PER_ENTRY`` cells per entry, a presence table over
    the cells finds the distinct ones; for larger vocabularies one sort of
    the entries' cells does.
    """
    n_batches = -(-len(rows) // per_batch)
    offset = np.arange(n_batches + 1) * n_rows  # batch b's first cell
    keys = np.repeat(offset[:-1], per_batch)[:len(rows)] + rows
    dense = offset[-1] <= DENSE_CELLS_PER_ENTRY * len(rows)
    if dense:
        present = np.zeros(offset[-1], dtype=bool)
        present[keys] = True
        cells = np.flatnonzero(present)
    else:
        order = np.argsort(keys)
        keys = keys[order]
        first = np.concatenate(([True], keys[1:] != keys[:-1]))
        cells = keys[first]
    bounds = np.searchsorted(cells, offset)
    size = np.diff(bounds)
    rank = np.arange(len(cells)) - np.repeat(bounds[:-1], size)  # in batch
    if dense:
        cell_rank = np.empty(offset[-1], dtype=np.int64)
        cell_rank[cells] = rank
        inverse = cell_rank[keys]
    else:
        inverse = np.empty(len(rows), dtype=np.int64)
        inverse[order] = rank[np.cumsum(first) - 1]
    return cells - np.repeat(offset[:-1], size), inverse, bounds


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


def _sgns_step(w_in: np.ndarray, w_out: np.ndarray, plan, lr: float,
               f: np.ndarray) -> None:
    """One summed gradient step over the batch `plan` describes. Writes each
    (pair, row) entry's sigmoid output, from the weights before the step, to
    `f`."""
    centers, idx, in_rows, onehot, out_rows, out_cell = plan
    v = w_in[centers]
    us = w_out[idx]
    x = np.clip(np.einsum("bd,bkd->bk", v, us), -SIGMOID_CLAMP, SIGMOID_CLAMP)
    np.divide(1.0, 1.0 + np.exp(-x), out=f)
    gscale = -f
    gscale[:, 0] += 1.0
    gscale *= lr
    # coef[r, b]: the summed gscale of pair b's entries on distinct row r
    coef = np.bincount(out_cell, gscale.ravel(), len(out_rows) * len(v))
    w_in[in_rows] += onehot @ np.einsum("bk,bkd->bd", gscale, us)
    # in the weights' dtype, so that the product is one BLAS gemm
    w_out[out_rows] += coef.astype(v.dtype, copy=False).reshape(
        len(out_rows), -1) @ v


def _objectives(f: np.ndarray, per_batch: int) -> list[float]:
    """sum log s(u_ctx.v) + sum log s(-u_neg.v) of each batch of `per_batch`
    consecutive pairs, from their sigmoid outputs `f` (pairs x rows).

    Each batch's two float64 sums run over its own entries as one
    contiguous block, so they equal summing that batch alone.
    """
    pos = np.log(np.maximum(f[:, 0], 1e-12))
    neg = np.log(np.maximum(1.0 - f[:, 1:], 1e-12))
    n_full = len(f) // per_batch
    cut = n_full * per_batch
    obj = (pos[:cut].reshape(n_full, per_batch).sum(axis=1, dtype=np.float64)
           + neg[:cut].reshape(n_full, per_batch * neg.shape[1])
           .sum(axis=1, dtype=np.float64))
    if cut < len(f):
        obj = np.append(obj, pos[cut:].sum(dtype=np.float64)
                        + neg[cut:].sum(dtype=np.float64))
    return obj.tolist()


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
    f = np.empty((n, negatives.shape[1] + 1), model.w_in.dtype)
    _sgns_step(model.w_in, model.w_out, plan, lr, f)
    return _objectives(f, n)[0]


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
    draw_negatives = _negative_sampler(unigram_table(vocab))

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
            negs = draw_negatives((c1 - c0, config.negatives), rng)
            starts = np.arange(c0, c1, BATCH_SIZE)
            lrs = np.maximum(lr_floor, config.lr * (
                1.0 - (epoch + starts / n_pairs) / config.epochs)).tolist()
            plans = _batch_plans(centers[picked], contexts[picked], negs,
                                 BATCH_SIZE, len(vocab), model.w_in.dtype)
            f = np.empty((c1 - c0, config.negatives + 1), model.w_in.dtype)
            for b0, plan, lr in zip(range(0, c1 - c0, BATCH_SIZE), plans, lrs):
                _sgns_step(model.w_in, model.w_out, plan, lr,
                           f[b0:b0 + BATCH_SIZE])
            for obj in _objectives(f, BATCH_SIZE):
                epoch_obj += obj
        mean = epoch_obj / n_pairs if n_pairs else 0.0
        model.epoch_losses.append(-mean)  # negative objective = loss
        model.epoch_pairs.append(n_pairs)
        log.info("epoch %d/%d: mean loss %.4f over %d pairs", epoch + 1,
                 config.epochs, -mean, n_pairs)
    model.final_lr = lr
    if not np.isfinite(model.w_in).all() or not np.isfinite(model.w_out).all():
        raise ArithmeticError("non-finite values in trained embeddings")
    return model
