import io
import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specwalk.skipgram import (BATCH_SIZE, EmbeddingModel, TrainConfig,
                               Vocabulary, build_vocab, context_pair_arrays,
                               init_model, sample_negatives, sgns_batch,
                               sgns_step, train, unigram_table)


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
        want = Counter(p for line in lines
                       for p in reference_pairs(line, window))
        assert Counter(vectorised_pairs(lines, window)) == want


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


class TestGradients:
    def test_zero_lr_leaves_model_unchanged(self):
        v = build_vocab([["a", "b", "c"]])
        model = init_model(v, TrainConfig(dim=8, seed=1))
        w_in_before = model.w_in.copy()
        w_out_before = model.w_out.copy()
        sgns_step(model, 0, 1, np.array([2]), lr=0.0)
        assert np.array_equal(model.w_in, w_in_before)
        assert np.array_equal(model.w_out, w_out_before)

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
                sgns_batch(model.w_in, model.w_out, centers, contexts, negs, lr)
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
        sgns_batch(batch.w_in, batch.w_out, np.array([0, 0]), np.array([1, 1]),
                   np.array([[2], [2]]), lr=0.5)
        sgns_step(single, 0, 1, np.array([2]), lr=0.5)
        assert np.allclose(batch.w_in[0] - start_in[0],
                           2 * (single.w_in[0] - start_in[0]))
        for row in (1, 2):
            assert np.allclose(batch.w_out[row] - 0.1,
                               2 * (single.w_out[row] - 0.1))
        assert np.array_equal(batch.w_in[1:], start_in[1:])


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

    def test_save_load_round_trip(self):
        corpus, a, _ = two_clique_corpus(lines=50)
        model = train(corpus, TrainConfig(dim=8, window=2, negatives=2,
                                          epochs=1, seed=0))
        buf = io.StringIO()
        model.save_text(buf)
        buf.seek(0)
        loaded = EmbeddingModel.load_text(buf)
        assert loaded.vocab.tokens == model.vocab.tokens
        assert np.allclose(loaded.vector(a[0]), model.vector(a[0]), atol=1e-6)

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
