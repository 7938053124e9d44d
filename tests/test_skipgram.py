import io
import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specwalk
from specwalk.skipgram import (BATCH_SIZE, DENSE_CELLS_PER_ENTRY,
                               PLAN_BATCHES, EmbeddingModel, TrainConfig,
                               Vocabulary, _distinct_rows,
                               _negative_sampler, build_vocab,
                               context_pair_arrays, init_model,
                               sample_negatives, sgns_step, train,
                               unigram_table)


def two_clique_corpus(seed=0, lines=300):
    """Two token communities that co-occur internally but never across."""
    rng = random.Random(seed)
    a = [f"a{i}" for i in range(6)]
    b = [f"b{i}" for i in range(6)]
    corpus = []
    for i in range(lines):
        group = a if i % 2 == 0 else b
        corpus.append(rng.choices(group, k=5))
    return corpus, a, b


def cosine(x, y):
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0 or ny == 0:
        return 0.0
    return float(np.dot(x, y) / (nx * ny))


class TestVocab:
    def test_counts_and_order(self):
        v = build_vocab([["b", "a", "b"], ["c", "b", "a"]])
        assert v.tokens == ["b", "a", "c"]  # count desc, then token asc
        assert list(v.counts) == [3, 2, 1]
        assert v.index["b"] == 0

    def test_min_count_filter(self):
        v = build_vocab([["a", "a", "b"]], min_count=2)
        assert v.tokens == ["a"]
        assert "b" not in v

    def test_tie_broken_by_token(self):
        v = build_vocab([["z", "a"]])
        assert v.tokens == ["a", "z"]


def reference_pairs(tokens, window: int):
    """Reference for context_pair_arrays: all ordered (center, context) pairs
    within the window of one line, by explicit loops."""
    if window < 1:
        raise ValueError("window must be >= 1")
    pairs = []
    n = len(tokens)
    for i in range(n):
        for j in range(max(0, i - window), min(n, i + window + 1)):
            if i != j:
                pairs.append((tokens[i], tokens[j]))
    return pairs


def vectorised_pairs(lines, window: int):
    """context_pair_arrays over token lines, mapped back to token pairs."""
    tokens = sorted({t for line in lines for t in line})
    index = {t: i for i, t in enumerate(tokens)}
    flat = np.array([index[t] for line in lines for t in line], dtype=np.int64)
    lengths = np.array([len(line) for line in lines], dtype=np.int64)
    centers, contexts = context_pair_arrays(flat, lengths, window)
    return [(tokens[c], tokens[x]) for c, x in zip(centers, contexts)]


class TestContextPairs:
    def test_window_one(self):
        want = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]
        assert reference_pairs(["a", "b", "c"], 1) == want
        assert vectorised_pairs([["a", "b", "c"]], 1) == want

    def test_single_token_no_pairs(self):
        assert reference_pairs(["a"], 5) == []
        assert vectorised_pairs([["a"]], 5) == []

    def test_wide_window_all_ordered_pairs(self):
        want = {(x, y) for x in "abcd" for y in "abcd" if x != y}
        for got in (reference_pairs(list("abcd"), 10),
                    vectorised_pairs([list("abcd")], 10)):
            assert len(got) == 12
            assert set(got) == want

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            reference_pairs(["a", "b"], 0)
        with pytest.raises(ValueError):
            context_pair_arrays(np.array([0, 1]), np.array([2]), 0)

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(st.lists(st.sampled_from("abcdef"), max_size=12),
                          max_size=8),
           window=st.integers(1, 12))
    def test_matches_reference_loop(self, lines, window):
        # lines grouped by length, shortest first; each line's pairs in the
        # reference loop's order (the order training shuffles from)
        want = [p for line in sorted(lines, key=len)
                for p in reference_pairs(line, window)]
        assert vectorised_pairs(lines, window) == want

    def test_memory_grows_with_the_pairs_not_the_line_squared(self):
        """A 4,000-token line builds its pairs in O(n * window) memory: an
        n x n offset mask would peak at about 6.4 KB a pair here."""
        n, window = 4000, 5
        flat = (np.arange(n) % 97).astype(np.int32)
        tracemalloc.start()
        try:
            centers, _ = context_pair_arrays(flat, np.array([n]), window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(centers) == 2 * window * n - window * (window + 1)
        assert peak / len(centers) <= 64


class TestNegativeSampling:
    def test_table_matches_power_law(self):
        v = build_vocab([["a"] * 16 + ["b"]])
        cum = unigram_table(v, power=0.75)
        wa, wb = 16 ** 0.75, 1.0
        assert cum[0] == pytest.approx(wa / (wa + wb))
        assert cum[-1] == 1.0

    def test_empirical_distribution_total_variation(self):
        rng = random.Random(1)
        counts = {f"tok{i:03d}": rng.randrange(1, 200) for i in range(100)}
        v = Vocabulary(counts)
        cum = unigram_table(v, power=0.75)
        weights = v.counts.astype(float) ** 0.75
        expected = weights / weights.sum()
        gen = np.random.Generator(np.random.PCG64(7))
        n = 1_000_000
        draws = sample_negatives(cum, n, gen)
        observed = np.bincount(draws, minlength=len(v)) / n
        tv = 0.5 * np.abs(observed - expected).sum()
        assert tv <= 0.01


def searchsorted_draws(cum, shape, seed):
    return np.searchsorted(
        cum, np.random.Generator(np.random.PCG64(seed)).random(shape))


def flat_tail_table(head, tail):
    """A unigram table whose `tail` count-1 tokens follow `head` tokens of
    count 10**6: most tail tokens share a guide bucket with another."""
    return unigram_table(Vocabulary(
        {f"t{i:05d}": 10**6 if i < head else 1 for i in range(head + tail)}))


class TestSampleNegativesOracle:
    """sample_negatives draws exactly np.searchsorted(cum, rng.random(shape))
    with the same generator."""

    @settings(max_examples=150, deadline=None)
    @given(counts=st.lists(st.integers(1, 10**6), min_size=1, max_size=60),
           tail=st.sampled_from([0, 0, 50, 500]),
           shape=st.one_of(st.integers(0, 3000),
                           st.tuples(st.integers(0, 40), st.integers(0, 30))),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_searchsorted(self, counts, tail, shape, seed):
        counts = counts + [1] * tail
        cum = unigram_table(Vocabulary(
            {f"t{i:05d}": c for i, c in enumerate(counts)}))
        got = sample_negatives(cum, shape, np.random.Generator(
            np.random.PCG64(seed)))
        want = searchsorted_draws(cum, shape, seed)
        assert got.dtype == np.int64
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [0, (0,), (0, 5), (3, 0)])
    def test_empty_shapes(self, shape):
        cum = flat_tail_table(4, 100)
        got = sample_negatives(cum, shape, np.random.Generator(
            np.random.PCG64(0)))
        assert got.shape == np.empty(shape).shape
        assert got.dtype == np.int64

    @pytest.mark.parametrize("shape", [None, ()])
    @pytest.mark.parametrize("head,tail", [(1, 0), (4, 100), (1, 3000)])
    def test_scalar_shapes(self, shape, head, tail):
        """One draw is a numpy int64 scalar, as np.searchsorted returns,
        also from tables whose flat tails take the binary search."""
        cum = flat_tail_table(head, tail)
        for seed in range(20):
            got = sample_negatives(cum, shape, np.random.Generator(
                np.random.PCG64(seed)))
            want = searchsorted_draws(cum, shape, seed)
            assert type(got) is np.int64
            assert got == want

    def test_draws_on_a_boundary(self):
        """A draw equal to a table entry takes that entry's token, as a
        left binary search does; the generator is a stub that returns
        draws on and next to the boundaries of four equal tokens."""
        cum = unigram_table(Vocabulary({t: 2 for t in "abcd"}))
        below = np.nextafter(cum, 0)
        u = np.concatenate(([0.0], cum[:-1], below, np.nextafter(cum[:-1], 1)))

        class Stub:
            def random(self, shape):
                return u.reshape(shape)

        got = sample_negatives(cum, u.shape, Stub())
        assert np.array_equal(got, np.searchsorted(cum, u))
        assert got[1:4].tolist() == [0, 1, 2]

    def test_guide_table_memory_per_token(self):
        """The sampler of a 100,000-token table peaks at about 41 bytes a
        token while it is built (a guide of 8 bytes a bucket and a float
        boundary per bucket peaked at 131); the model at dim 16 takes 128."""
        cum = unigram_table(Vocabulary(
            {f"t{i}": 10**7 // (i + 1) + 1 for i in range(100_000)}))
        tracemalloc.start()
        try:
            draw = _negative_sampler(cum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(cum) <= 48
        got = draw((1000, 5), np.random.Generator(np.random.PCG64(4)))
        assert np.array_equal(got, searchsorted_draws(cum, (1000, 5), 4))

    def test_one_token_table(self):
        cum = unigram_table(Vocabulary({"a": 3}))
        got = sample_negatives(cum, (50, 7), np.random.Generator(
            np.random.PCG64(2)))
        assert got.shape == (50, 7)
        assert not got.any()

    @pytest.mark.parametrize("head,tail", [(1, 3000), (4, 996), (30, 5000)])
    def test_flat_tail_takes_the_binary_search(self, head, tail):
        """Many draws land in a guide bucket that holds several boundaries
        of the table, where the sampler falls back to a binary search."""
        cum = flat_tail_table(head, tail)
        shape, seed = (4000, 5), 9
        u = np.random.Generator(np.random.PCG64(seed)).random(shape)
        m = 1 << (4 * len(cum) - 1).bit_length()  # buckets, a power of two
        guide = np.searchsorted(cum, np.arange(m + 1) / m)
        wide = np.diff(guide)[(u * m).astype(np.int64)] > 1
        assert wide.sum() >= 20
        got = sample_negatives(cum, shape, np.random.Generator(
            np.random.PCG64(seed)))
        assert np.array_equal(got, searchsorted_draws(cum, shape, seed))


class TestGradients:
    def test_zero_lr_leaves_model_unchanged(self):
        v = build_vocab([["a", "b", "c"]])
        model = init_model(v, TrainConfig(dim=8, seed=1))
        w_in_before = model.w_in.copy()
        w_out_before = model.w_out.copy()
        sgns_step(model, 0, 1, np.array([2]), lr=0.0)
        assert np.array_equal(model.w_in, w_in_before)
        assert np.array_equal(model.w_out, w_out_before)

    def test_empty_batch_names_the_rule(self):
        model = init_model(build_vocab([["a", "b", "c"]]),
                           TrainConfig(dim=8, seed=1))
        w_in, w_out = model.w_in.copy(), model.w_out.copy()
        with pytest.raises(ValueError, match=r"at least one \(center, "
                                             r"context\) pair"):
            sgns_step(model, [], [], np.zeros((0, 2), dtype=np.int64), 0.1)
        assert np.array_equal(model.w_in, w_in)
        assert np.array_equal(model.w_out, w_out)

    def test_gradient_matches_finite_differences(self):
        """One pair via sgns_step, then batches whose centers, contexts and
        negatives repeat, against the summed objective's finite differences."""
        rng = np.random.Generator(np.random.PCG64(3))
        v = build_vocab([[f"t{i}" for i in range(10)]])
        h = 1e-5

        def objective(w_in, w_out, centers, contexts, negs):
            idx = np.concatenate((contexts[:, None], negs), axis=1)
            dots = np.einsum("bd,bkd->bk", w_in[centers], w_out[idx])
            f = 1.0 / (1.0 + np.exp(-dots))
            return np.log(f[:, 0]).sum() + np.log(1.0 - f[:, 1:]).sum()

        for case in range(100):
            model = init_model(v, TrainConfig(dim=8, seed=case))
            model.w_in = rng.normal(0, 0.5, model.w_in.shape).astype(np.float64)
            model.w_out = rng.normal(0, 0.5, model.w_out.shape).astype(np.float64)
            base_in = model.w_in.copy()
            base_out = model.w_out.copy()
            lr = 1.0
            if case < 50:
                centers = rng.integers(10, size=1)
                contexts = rng.integers(10, size=1)
                negs = rng.integers(0, 10, size=(1, 3))
                sgns_step(model, int(centers[0]), int(contexts[0]), negs[0], lr)
            else:
                # four tokens over up to 8 pairs: every role repeats
                b = int(rng.integers(2, 9))
                centers = rng.integers(4, size=b)
                contexts = rng.integers(4, size=b)
                negs = rng.integers(0, 4, size=(b, 3))
                sgns_step(model, centers, contexts, negs, lr)
            analytic_in = model.w_in - base_in
            analytic_out = model.w_out - base_out
            # check several coordinates of each matrix numerically
            for matrix, analytic in ((0, analytic_in), (1, analytic_out)):
                flat = np.argwhere(np.abs(analytic) > 1e-9)
                if len(flat) == 0:
                    continue
                for r, c in flat[:: max(1, len(flat) // 5)]:
                    wp_in, wp_out = base_in.copy(), base_out.copy()
                    wm_in, wm_out = base_in.copy(), base_out.copy()
                    if matrix == 0:
                        wp_in[r, c] += h
                        wm_in[r, c] -= h
                    else:
                        wp_out[r, c] += h
                        wm_out[r, c] -= h
                    num = (objective(wp_in, wp_out, centers, contexts, negs)
                           - objective(wm_in, wm_out, centers, contexts,
                                       negs)) / (2 * h)
                    got = analytic[r, c] / lr
                    assert got == pytest.approx(num, rel=1e-4, abs=1e-7)

    def test_repeated_positive_updates_raise_score(self):
        v = build_vocab([["a", "b"]])
        model = init_model(v, TrainConfig(dim=16, seed=0))
        def score():
            return float(model.w_out[1] @ model.w_in[0])
        prev = score()
        for _ in range(20):
            sgns_step(model, 0, 1, np.array([], dtype=np.int64), lr=0.1)
            cur = score()
            assert cur > prev
            prev = cur

    def test_duplicate_negative_indices_accumulate(self):
        v = build_vocab([["a", "b", "c"]])
        model = init_model(v, TrainConfig(dim=4, seed=2))
        model.w_out += 0.1
        single = init_model(v, TrainConfig(dim=4, seed=2))
        single.w_out += 0.1
        sgns_step(model, 0, 1, np.array([2, 2]), lr=0.5)
        # two identical negatives must apply twice the single-negative pull
        sgns_step(single, 0, 1, np.array([2]), lr=0.5)
        moved_twice = model.w_out[2] - 0.1
        moved_once = single.w_out[2] - 0.1
        assert np.allclose(moved_twice, 2 * moved_once)

        # one batch holding the same pair twice (so the center, context and
        # negative all repeat) moves every row it touches twice as far as one
        # step on that pair from the same weights
        single = init_model(v, TrainConfig(dim=4, seed=2))
        single.w_out += 0.1
        batch = init_model(v, TrainConfig(dim=4, seed=2))
        batch.w_out += 0.1
        start_in = batch.w_in.copy()
        sgns_step(batch, np.array([0, 0]), np.array([1, 1]),
                  np.array([[2], [2]]), lr=0.5)
        sgns_step(single, 0, 1, np.array([2]), lr=0.5)
        assert np.allclose(batch.w_in[0] - start_in[0],
                           2 * (single.w_in[0] - start_in[0]))
        for row in (1, 2):
            assert np.allclose(batch.w_out[row] - 0.1,
                               2 * (single.w_out[row] - 0.1))
        assert np.array_equal(batch.w_in[1:], start_in[1:])

    @settings(max_examples=150, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           pairs=st.integers(1, 2 * BATCH_SIZE), negatives=st.integers(2, 5),
           dim=st.integers(1, 9), n_rows=st.integers(1, 12),
           lr=st.sampled_from([0.025, 1.0]), seed=st.integers(0, 2**16))
    def test_step_matches_float64_add_at(self, dtype, pairs, negatives, dim,
                                         n_rows, lr, seed):
        """sgns_step against the per-pair updates summed per row by
        np.add.at in float64. Each element may differ by 1e-5 (float32)
        or 1e-12 (float64) times its scale: |w| plus the sum of lr * |x|
        over the updates on it, x the vector the update scales. Over 2,000 random batches of these
        sizes the worst ratio was 5.8e-7 in float32 (about ten ulps) and
        5.7e-15 in float64."""
        rng = np.random.Generator(np.random.PCG64(seed))
        w_in = rng.normal(0, 0.5, (n_rows, dim)).astype(dtype)
        w_out = rng.normal(0, 0.5, (n_rows, dim)).astype(dtype)
        centers = rng.integers(n_rows, size=pairs)
        contexts = rng.integers(n_rows, size=pairs)
        negs = rng.integers(n_rows, size=(pairs, negatives))
        centers[-1] = centers[0]  # a repeated center
        contexts[-1] = negs[0, -1]  # a w_out row in two pairs, two roles
        negs[0, 0] = contexts[0]  # a negative equal to its context
        negs[-1, 1] = negs[-1, 0]  # the same negative twice in one pair
        want = float64_step(w_in, w_out, centers, contexts, negs, lr)
        start = w_in.astype(np.float64), w_out.astype(np.float64)
        model = EmbeddingModel(Vocabulary({}), w_in, w_out,
                               TrainConfig(dim=dim))
        obj = sgns_step(model, centers, contexts, negs, lr)
        tol = {np.float32: 1e-5, np.float64: 1e-12}[dtype]
        assert obj == pytest.approx(want[0], rel=tol, abs=tol)
        for got, w0, (delta, scale) in zip((w_in, w_out), start, want[1:]):
            err = np.abs(got.astype(np.float64) - w0 - delta)
            assert (err <= tol * (np.abs(w0) + scale)).all()


def float64_step(w_in, w_out, centers, contexts, negatives, lr):
    """(objective, (delta, scale) of w_in, (delta, scale) of w_out) of one
    summed step in float64: each pair's updates added with np.add.at, and
    the same sums over lr * |x| for the vector x each update scales."""
    w_in, w_out = w_in.astype(np.float64), w_out.astype(np.float64)
    idx = np.concatenate((contexts[:, None], negatives), axis=1)
    v, us = w_in[centers], w_out[idx]
    f = 1.0 / (1.0 + np.exp(-np.clip(np.einsum("bd,bkd->bk", v, us),
                                     -30.0, 30.0)))
    obj = (np.log(np.maximum(f[:, 0], 1e-12)).sum()
           + np.log(np.maximum(1.0 - f[:, 1:], 1e-12)).sum())
    gscale = -f
    gscale[:, 0] += 1.0
    gscale *= lr
    d_in, s_in = np.zeros_like(w_in), np.zeros_like(w_in)
    d_out, s_out = np.zeros_like(w_out), np.zeros_like(w_out)
    np.add.at(d_in, centers, np.einsum("bk,bkd->bd", gscale, us))
    np.add.at(s_in, centers, lr * np.abs(us).sum(axis=1))
    np.add.at(d_out, idx, gscale[:, :, None] * v[:, None, :])
    np.add.at(s_out, idx, lr * np.broadcast_to(np.abs(v)[:, None, :],
                                               us.shape))
    return obj, (d_in, s_in), (d_out, s_out)


class TestTraining:
    def test_epochs_zero_returns_initialization(self):
        corpus, _, _ = two_clique_corpus()
        cfg = TrainConfig(dim=8, window=2, negatives=2, epochs=0, seed=4)
        model = train(corpus, cfg)
        fresh = init_model(model.vocab, cfg)
        assert np.array_equal(model.w_in, fresh.w_in)
        assert model.epoch_losses == []

    def test_initialization_ranges(self):
        v = build_vocab([["a", "b", "c"]])
        cfg = TrainConfig(dim=50, seed=9)
        model = init_model(v, cfg)
        bound = 0.5 / cfg.dim
        assert model.w_in.dtype == np.float32
        assert np.abs(model.w_in).max() <= bound
        assert not np.array_equal(model.w_in[0], model.w_in[1])
        assert np.count_nonzero(model.w_out) == 0

    def test_two_cliques_separate(self):
        corpus, a, b = two_clique_corpus()
        model = train(corpus, TrainConfig(dim=16, window=4, negatives=5,
                                          epochs=3, seed=0))
        intra = [cosine(model.vector(x), model.vector(y))
                 for x, y in itertools.combinations(a, 2)]
        inter = [cosine(model.vector(x), model.vector(y))
                 for x in a for y in b]
        assert min(intra) > max(inter)

    def test_loss_decreases_over_epochs(self):
        corpus, _, _ = two_clique_corpus()
        model = train(corpus, TrainConfig(dim=16, window=4, negatives=5,
                                          epochs=5, seed=0))
        assert len(model.epoch_losses) == 5
        assert model.epoch_losses[4] < model.epoch_losses[0]

    def test_bit_deterministic(self):
        corpus, _, _ = two_clique_corpus()
        cfg = TrainConfig(dim=8, window=3, negatives=3, epochs=2, seed=11)
        m1 = train(corpus, cfg)
        m2 = train(corpus, cfg)
        assert np.array_equal(m1.w_in, m2.w_in)
        assert np.array_equal(m1.w_out, m2.w_out)
        m3 = train(corpus, TrainConfig(dim=8, window=3, negatives=3, epochs=2,
                                       seed=12))
        assert not np.array_equal(m1.w_in, m3.w_in)

    def test_bit_deterministic_across_blas_threads(self):
        """The per-row sums are BLAS gemm calls: 64 pairs by a few hundred
        distinct rows by dim 64 here, large enough for OpenBLAS to split
        them over threads. A model trained under one BLAS thread must equal
        one trained under two, byte for byte."""
        child = ("import hashlib, random\n"
                 "from specwalk.skipgram import TrainConfig, train\n"
                 "rng = random.Random(0)\n"
                 "tokens = [f't{i}' for i in range(300)]\n"
                 "corpus = [rng.choices(tokens, k=20) for _ in range(60)]\n"
                 "m = train(corpus, TrainConfig(dim=64, window=5, "
                 "negatives=10, epochs=1, seed=0))\n"
                 "print(hashlib.sha256(m.w_in.tobytes() + m.w_out.tobytes())"
                 ".hexdigest())\n")
        src = os.path.dirname(os.path.dirname(specwalk.__file__))
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH"))))}
            done = subprocess.run([sys.executable, "-c", child], env=env,
                                  capture_output=True, text=True,
                                  timeout=120, check=True)
            digests.append(done.stdout)
        assert len(digests[0]) == 65 and digests[0] == digests[1]

    @pytest.mark.parametrize("subsample", [0.0, 0.01])
    def test_learning_rate_decays_to_floor(self, subsample):
        corpus, _, _ = two_clique_corpus()
        cfg = TrainConfig(dim=8, window=4, negatives=2, epochs=2,
                          subsample=subsample, seed=0)
        model = train(corpus, cfg)
        full = sum(len(reference_pairs(line, cfg.window)) for line in corpus)
        if subsample:
            # subsampling drops tokens, so fewer pairs train than the corpus has
            assert all(0 < n < full for n in model.epoch_pairs)
        else:
            assert model.epoch_pairs == [full] * cfg.epochs
        # the last batch starts one batch short of the end of the schedule
        step = cfg.lr * BATCH_SIZE / (model.epoch_pairs[-1] * cfg.epochs)
        assert abs(model.final_lr - cfg.lr * 1e-4) <= step

    def test_all_values_finite(self):
        corpus, _, _ = two_clique_corpus(lines=100)
        model = train(corpus, TrainConfig(dim=8, window=3, negatives=3,
                                          epochs=2, lr=0.5, seed=0))
        assert np.isfinite(model.w_in).all()
        assert np.isfinite(model.w_out).all()

    def test_empty_vocab_raises(self):
        with pytest.raises(ValueError):
            train([["a"], ["b"]], TrainConfig(dim=4, min_count=5))

    @pytest.mark.parametrize("dim", [1, 8])
    def test_save_load_round_trip(self, dim):
        corpus, a, _ = two_clique_corpus(lines=50)
        model = train(corpus, TrainConfig(dim=dim, window=2, negatives=2,
                                          epochs=1, seed=0))
        buf = io.StringIO()
        model.save_text(buf)
        buf.seek(0)
        loaded = EmbeddingModel.load_text(buf)
        assert loaded.vocab.tokens == model.vocab.tokens
        assert np.allclose(loaded.vector(a[0]), model.vector(a[0]), atol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(width=32), min_size=1, max_size=12),
           dim=st.integers(1, 4))
    def test_save_text_matches_per_float_formatting(self, values, dim):
        # the per-float f-string writer save_text had before it formatted
        # one row at a time; float32 values include -0.0, subnormals, 1e-7
        # and values of 1e5 and above
        special = [-0.0, 1e-45, -1.4e-40, 1e-7, -1e-7, 1e5, -123456.79,
                   3.4e38, 0.5, 2.5e-6]
        flat = np.array(special + values, dtype=np.float32)
        flat = np.resize(flat, (-(-len(flat) // dim), dim))
        tokens = [f"t{i}" for i in range(len(flat))]
        model = EmbeddingModel(Vocabulary(dict.fromkeys(tokens, 1)), flat,
                               None, TrainConfig(dim=dim))
        want = f"{len(tokens)} {dim}\n" + "".join(
            f"{token} {' '.join(f'{x:.6f}' for x in model.w_in[i])}\n"
            for i, token in enumerate(model.vocab.tokens))
        buf = io.StringIO()
        model.save_text(buf)
        assert buf.getvalue() == want

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
    def test_load_rejects_non_finite_values(self, value):
        # 1e39 is beyond float32's range, so it would load as inf
        text = f"2 3\na 0.1 0.2 0.3\nb 0.4 {value} 0.6\n"
        with pytest.raises(ValueError, match="model line 3: value 2 "):
            EmbeddingModel.load_text(io.StringIO(text))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(dim=0)
        with pytest.raises(ValueError):
            TrainConfig(negatives=0)
        for field, value in (("lr", 0.0), ("lr", -1.0), ("lr", float("nan")),
                             ("epochs", -1), ("subsample", -0.5),
                             ("subsample", float("nan")), ("min_count", 0)):
            with pytest.raises(ValueError, match=field):
                TrainConfig(**{field: value})


# -- byte-identity oracle ----------------------------------------------------
# The trainer as it was before negatives and row plans were built per chunk
# of batches: every batch draws its own negatives, finds its own distinct
# rows and allocates its own temporaries. The chunked trainer must match it
# bit for bit.

def _reference_scatter_add(w, rows, pair, scale, x):
    """w[r] += the sum of scale[e] * x[pair[e]] over the entries e on row r:
    per-(distinct row, pair) coefficients by bincount, then one product."""
    distinct, inverse = np.unique(rows, return_inverse=True)
    coef = np.bincount(inverse * len(x) + pair, scale,
                       len(distinct) * len(x)).astype(x.dtype)
    w[distinct] += coef.reshape(len(distinct), len(x)) @ x


def _reference_sgns_batch(w_in, w_out, centers, contexts, negatives, lr):
    idx = np.concatenate((contexts[:, None], negatives), axis=1)
    v = w_in[centers]
    us = w_out[idx]
    f = 1.0 / (1.0 + np.exp(-np.clip(np.einsum("bd,bkd->bk", v, us),
                                     -30.0, 30.0)))
    obj = (np.log(np.maximum(f[:, 0], 1e-12)).sum(dtype=np.float64)
           + np.log(np.maximum(1.0 - f[:, 1:], 1e-12)).sum(dtype=np.float64))
    gscale = -f
    gscale[:, 0] += 1.0
    gscale *= lr
    pairs = np.arange(len(centers))
    _reference_scatter_add(w_in, centers, pairs, np.ones(len(centers)),
                           np.einsum("bk,bkd->bd", gscale, us))
    _reference_scatter_add(w_out, idx.ravel(),
                           np.repeat(pairs, idx.shape[1]), gscale.ravel(), v)
    return float(obj)


def _reference_train(token_lines, config):
    lines = [list(t) for t in token_lines]
    vocab = build_vocab(lines, min_count=config.min_count)
    ids = [[vocab.index[t] for t in tokens if t in vocab.index]
           for tokens in lines]
    ids = [s for s in ids if len(s) >= 2]
    model = init_model(vocab, config)
    if config.epochs == 0 or not ids:
        return model
    lengths = np.array([len(s) for s in ids], dtype=np.int64)
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
    for epoch in range(config.epochs):
        if keep_prob is None:
            centers, contexts = all_pairs
        else:
            kept = rng.random(len(flat)) < keep_prob[flat]
            centers, contexts = context_pair_arrays(
                flat[kept], np.add.reduceat(kept, line_starts), config.window)
        n_pairs = len(centers)
        order = rng.permutation(n_pairs)
        centers, contexts = centers[order], contexts[order]
        epoch_obj = 0.0
        for start in range(0, n_pairs, BATCH_SIZE):
            stop = min(start + BATCH_SIZE, n_pairs)
            progress = (epoch + start / n_pairs) / config.epochs
            lr = max(lr_floor, config.lr * (1.0 - progress))
            negs = np.searchsorted(cum, rng.random((stop - start,
                                                    config.negatives)))
            epoch_obj += _reference_sgns_batch(
                model.w_in, model.w_out, centers[start:stop],
                contexts[start:stop], negs, lr)
        mean = epoch_obj / n_pairs if n_pairs else 0.0
        model.epoch_losses.append(-mean)
        model.epoch_pairs.append(n_pairs)
    model.final_lr = lr
    return model


def assert_same_model(got, want):
    assert got.vocab.tokens == want.vocab.tokens
    assert got.w_in.tobytes() == want.w_in.tobytes()
    assert got.w_out.tobytes() == want.w_out.tobytes()
    assert got.epoch_losses == want.epoch_losses
    assert got.epoch_pairs == want.epoch_pairs
    assert got.final_lr == want.final_lr


CHUNK_PAIRS = PLAN_BATCHES * BATCH_SIZE
# A two-token line gives two pairs, so n such lines give 2n pairs. Pair
# counts are always even (both orders of a pair train), so one chunk +- 2
# pairs is as close to a chunk boundary as an epoch can fall.
BOUNDARY_LINES = [CHUNK_PAIRS // 2 - 1, CHUNK_PAIRS // 2, CHUNK_PAIRS // 2 + 1,
                  3 * CHUNK_PAIRS // 2 - 1, 3 * CHUNK_PAIRS // 2 + 1]


def pair_lines(n, seed):
    """n two-token lines over five tokens, some repeating one token."""
    rng = random.Random(seed)
    return [[rng.choice("vwxyz"), rng.choice("vwxyz")] for _ in range(n)]


class TestByteIdentity:
    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(st.lists(st.sampled_from("abcdef"), max_size=9),
                          max_size=8),
           filler=st.sampled_from([0, 3, 40] + BOUNDARY_LINES),
           window=st.integers(1, 4), negatives=st.integers(1, 4),
           dim=st.sampled_from([1, 3, 8]), epochs=st.integers(1, 3),
           subsample=st.sampled_from([0.0, 0.05]), lr=st.sampled_from(
               [0.005, 0.025]), seed=st.integers(0, 2**16))
    def test_train_equals_per_batch_reference(self, lines, filler, window,
                                              negatives, dim, epochs,
                                              subsample, lr, seed):
        corpus = lines + pair_lines(filler, seed)
        if not any(corpus):
            corpus = [["a"]]
        cfg = TrainConfig(dim=dim, window=window, negatives=negatives,
                          epochs=epochs, lr=lr, subsample=subsample, seed=seed)
        assert_same_model(train(corpus, cfg), _reference_train(corpus, cfg))

    @pytest.mark.parametrize("n_lines", [10] + BOUNDARY_LINES)
    def test_chunk_boundaries(self, n_lines):
        corpus = pair_lines(n_lines, n_lines)
        cfg = TrainConfig(dim=4, window=1, negatives=3, epochs=2, seed=5)
        got = train(corpus, cfg)
        assert got.epoch_pairs == [2 * n_lines] * 2
        assert_same_model(got, _reference_train(corpus, cfg))

    @pytest.mark.parametrize("negatives", [1, 3])
    def test_large_vocabulary_sorts_rows(self, negatives):
        """3,000 tokens seen once each: a chunk's (batch x vocabulary) cells
        outnumber its centers more than DENSE_CELLS_PER_ENTRY times, so
        their distinct rows come from the sort; with one negative the
        output rows' do too, with three from the presence table."""
        corpus = [[f"t{i}", f"t{i + 1}"] for i in range(0, 3000, 2)]
        cfg = TrainConfig(dim=4, window=1, negatives=negatives, epochs=1,
                          seed=3)
        cells = PLAN_BATCHES * 3000  # a full chunk's (batch x row) cells
        centers = PLAN_BATCHES * BATCH_SIZE
        assert cells > DENSE_CELLS_PER_ENTRY * centers
        sorts_outputs = cells > DENSE_CELLS_PER_ENTRY * centers * (
            1 + negatives)
        assert sorts_outputs == (negatives == 1)
        assert_same_model(train(corpus, cfg), _reference_train(corpus, cfg))

    @settings(max_examples=100, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           pairs=st.integers(1, 2 * BATCH_SIZE), negatives=st.integers(0, 4),
           dim=st.integers(1, 9), n_rows=st.integers(1, 12),
           lr=st.sampled_from([0.0, 0.025, 1.0]), seed=st.integers(0, 2**16))
    def test_sgns_batch_equals_reference(self, dtype, pairs, negatives, dim,
                                         n_rows, lr, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        w_in = rng.normal(0, 0.5, (n_rows, dim)).astype(dtype)
        w_out = rng.normal(0, 0.5, (n_rows, dim)).astype(dtype)
        centers = rng.integers(n_rows, size=pairs)
        contexts = rng.integers(n_rows, size=pairs)
        negs = rng.integers(n_rows, size=(pairs, negatives))
        ref_in, ref_out = w_in.copy(), w_out.copy()
        model = EmbeddingModel(Vocabulary({}), w_in, w_out,
                               TrainConfig(dim=dim))
        got = sgns_step(model, centers, contexts, negs, lr)
        want = _reference_sgns_batch(ref_in, ref_out, centers, contexts, negs,
                                     lr)
        assert got == want
        assert w_in.tobytes() == ref_in.tobytes()
        assert w_out.tobytes() == ref_out.tobytes()


def argsort_distinct_rows(rows, per_batch, n_rows):
    """The batch plans' distinct rows by one argsort of every entry's
    (batch, row) cell, as they were found before the presence table."""
    batch = np.arange(len(rows)) // per_batch
    keys = batch * n_rows + rows
    order = np.argsort(keys)
    keys = keys[order]
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    bounds = np.searchsorted(np.flatnonzero(first),
                             np.arange(0, len(rows) + per_batch, per_batch))
    return keys[first] % n_rows, inverse - bounds[batch], bounds


class TestDistinctRows:
    @settings(max_examples=200, deadline=None)
    @given(dense=st.booleans(), per_batch=st.integers(1, 70),
           n_batches=st.integers(1, PLAN_BATCHES), last=st.integers(1, 70),
           n_rows=st.integers(1, 4 * DENSE_CELLS_PER_ENTRY),
           int32=st.booleans(), seed=st.integers(0, 2**16))
    def test_equals_argsort_oracle(self, dense, per_batch, n_batches, last,
                                   n_rows, int32, seed):
        """Both sides of the presence-table threshold, with a partial last
        batch when `last` < `per_batch`."""
        n = (n_batches - 1) * per_batch + min(last, per_batch)
        dense_max = DENSE_CELLS_PER_ENTRY * n // n_batches  # rows kept dense
        n_rows = (min(n_rows, dense_max) if dense
                  else dense_max + n_rows)
        rows = np.random.default_rng(seed).integers(
            n_rows, size=n, dtype=np.int32 if int32 else np.int64)
        got = _distinct_rows(rows, per_batch, n_rows)
        want = argsort_distinct_rows(rows, per_batch, n_rows)
        assert len(got) == 3
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)

    def test_vocabulary_at_the_threshold(self):
        rows = np.arange(BATCH_SIZE * 3) % 7
        for n_rows in (DENSE_CELLS_PER_ENTRY * BATCH_SIZE,
                       DENSE_CELLS_PER_ENTRY * BATCH_SIZE + 1):
            got = _distinct_rows(rows, BATCH_SIZE, n_rows)
            for g, w in zip(got, argsort_distinct_rows(rows, BATCH_SIZE,
                                                      n_rows)):
                assert np.array_equal(g, w)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_memory_grows_with_pairs_only_by_the_pair_arrays():
    """The work buffers and each chunk's negatives and plans do not grow with
    the corpus: four times the corpus adds at most 32 bytes of peak per added
    pair. The epoch's pair arrays and its shuffle order take 16; an epoch's
    negatives alone would take 80 here."""
    rng = random.Random(0)
    tokens = [f"t{i}" for i in range(40)]
    corpus = [rng.choices(tokens, k=20) for _ in range(100)]
    cfg = TrainConfig(dim=16, window=10, negatives=10, epochs=1, seed=0)
    small = traced_peak(train, corpus, cfg)
    large = traced_peak(train, corpus * 4, cfg)
    added = 3 * train(corpus, cfg).epoch_pairs[0]
    assert (large - small) / added <= 32
