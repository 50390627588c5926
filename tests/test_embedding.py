from __future__ import annotations

import hashlib
import math
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lgr import embedding
from lgr import (
    FixtureProvider,
    HashProvider,
    l2_normalize,
    load_fixture_table,
    save_fixture_table,
)
from oracles import cosine_similarity

# Regression pin: similarity of two fixed texts under the shipped hash
# construction, recorded once and asserted stable ever after.
CUP_MUG_SIM_SEED7_D384 = 0.07558850059384492

# Regression pin: SHA-256 of every vector below, concatenated in loop order
# (seed, then dim, then text), recorded from the per-block construction.
# The texts are ASCII, one character, Unicode, and one or two 128-byte
# BLAKE2b blocks long (120 bytes plus the counter fill one exactly).
PIN_SEEDS = (0, 7)
PIN_DIMS = (1, 7, 8, 9, 384, 1536)
PIN_TEXTS = ("cup", "a", "café", "冰箱", "x" * 120, "the red mug on the kitchen counter " * 5)
PIN_SHA256 = "b02700650ed7566d106aac655c853206ae0a52df15a2adf70ddd0e5df061eb5a"


class TestCosineSimilarity:
    def test_self_similarity_is_one(self):
        v = l2_normalize(np.arange(1, 9, dtype=float))
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert cosine_similarity(a, b) == 0.0

    def test_forty_five_degrees(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 1.0]) / math.sqrt(2)
        assert cosine_similarity(a, b) == pytest.approx(math.sqrt(2) / 2, abs=1e-4)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine_similarity(np.ones(3), np.ones(4))

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.zeros(3), np.ones(3))

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=16),
        st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=16),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_symmetry_and_scale_invariance(self, xs, ys, alpha):
        n = min(len(xs), len(ys))
        a = np.array(xs[:n], dtype=float)
        b = np.array(ys[:n], dtype=float)
        if not a.any() or not b.any():
            return
        assert cosine_similarity(a, b) == cosine_similarity(b, a)
        assert cosine_similarity(alpha * a, b) == pytest.approx(
            cosine_similarity(a, b), abs=1e-9
        )


class TestHashProvider:
    def test_deterministic_per_instance_and_across_instances(self):
        p1 = HashProvider(seed=7, dim=384)
        p2 = HashProvider(seed=7, dim=384)
        a = p1.embed("cup")
        assert np.array_equal(a, p1.embed("cup"))
        assert np.array_equal(a, p2.embed("cup"))

    def test_seed_changes_output(self):
        a = HashProvider(seed=1, dim=32).embed("cup")
        b = HashProvider(seed=2, dim=32).embed("cup")
        assert not np.array_equal(a, b)

    def test_output_unit_norm_float32(self):
        vec = HashProvider(seed=3, dim=50).embed("anything at all")
        assert vec.dtype == np.float32
        assert vec.shape == (50,)
        assert abs(float(np.linalg.norm(vec.astype(np.float64))) - 1.0) <= 1e-6

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            HashProvider(seed=0, dim=8).embed("")

    def test_pinned_regression_value(self):
        p = HashProvider(seed=7, dim=384)
        sim = cosine_similarity(p.embed("cup"), p.embed("mug"))
        assert sim == pytest.approx(CUP_MUG_SIM_SEED7_D384, abs=1e-9)
        h = hashlib.sha256()
        for seed in PIN_SEEDS:
            for dim in PIN_DIMS:
                p = HashProvider(seed=seed, dim=dim)
                for text in PIN_TEXTS:
                    h.update(p.embed(text).tobytes())
        assert h.hexdigest() == PIN_SHA256

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-(2**70), 2**70),
        st.one_of(st.integers(1, 40), st.sampled_from([383, 384, 385, 1536])),
        st.text(min_size=1, max_size=300),
    )
    def test_equals_per_block_reference(self, seed, dim, text):
        got = HashProvider(seed=seed, dim=dim).embed(text)
        want = oracles.hash_embed_per_block(seed, dim, text)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=60))
    def test_cache_is_bounded_lru_and_eviction_keeps_bytes(self, cap, texts):
        p = HashProvider(seed=4, dim=9)
        first: dict[str, bytes] = {}
        recent: list[str] = []  # least recently used first
        with mock.patch.object(embedding, "_CACHE_TEXTS", cap):
            for text in texts:
                got = p.embed(text).tobytes()
                assert first.setdefault(text, got) == got
                recent = [t for t in recent if t != text] + [text]
                assert list(p._cache) == recent[-cap:]
        for text, got in first.items():
            assert got == oracles.hash_embed_per_block(4, 9, text).tobytes()

    def test_cache_bound_holds_under_threads(self):
        # more threads than cores embed overlapping texts through one small
        # cache whose cap yields the interpreter when compared: an unlocked
        # check-then-insert would let the cache pass the cap
        class YieldingCap(int):
            def __le__(self, other):
                time.sleep(0)
                return int(self) <= other

        p = HashProvider(seed=6, dim=16)
        texts = [f"t{i}" for i in range(12)]
        want = {t: oracles.hash_embed_per_block(6, 16, t).tobytes() for t in texts}
        errors: list = []

        def work(offset: int) -> None:
            try:
                for i in range(300):
                    text = texts[(i * (offset + 1) + offset) % len(texts)]
                    assert p.embed(text).tobytes() == want[text]
                    assert len(p._cache) <= 3
            except AssertionError as exc:
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(embedding, "_CACHE_TEXTS", YieldingCap(3)):
                threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert not errors and len(p._cache) <= 3

    def test_cache_cap_holds_every_benchmark_vocabulary(self):
        assert embedding._CACHE_TEXTS >= 4096

    def test_output_is_read_only(self):
        vec = HashProvider(seed=0, dim=8).embed("cup")
        with pytest.raises(ValueError):
            vec[0] = 0.5

    @given(st.text(min_size=1, max_size=40))
    def test_always_unit_norm(self, text):
        vec = HashProvider(seed=5, dim=24).embed(text)
        assert abs(float(np.linalg.norm(vec.astype(np.float64))) - 1.0) <= 1e-6


class TestNormalizeOverflow:
    """A finite vector whose norm overflows float64 normalizes like its
    scaled copy; it was returned as zeros, with an overflow warning."""

    @pytest.mark.parametrize(
        "values, scaled",
        [
            ([1e200, 1e200], [1.0, 1.0]),
            ([-1e300, 5e299, 0.0], [-2.0, 1.0, 0.0]),
            ([1.7e308, 1.7e308, 1.7e308, -1.7e308], [1.0, 1.0, 1.0, -1.0]),
        ],
    )
    def test_overflowing_norm_is_scaled_first(self, values, scaled):
        out = l2_normalize(values)  # the suite turns any warning into an error
        assert out.tobytes() == l2_normalize(scaled).tobytes()
        assert float(np.linalg.norm(out.astype(np.float64))) == pytest.approx(1.0, abs=1e-6)

    @given(st.lists(st.just(0.0) | st.floats(1e-100, 1e100) | st.floats(-1e100, -1e-100),
                    min_size=1, max_size=40))
    def test_a_norm_that_does_not_overflow_is_not_scaled(self, values):
        v = np.array(values)
        if not v.any():
            return
        expected = (v / np.linalg.norm(v)).astype(np.float32)  # the construction before scaling
        assert l2_normalize(v).tobytes() == expected.tobytes()

    def test_fixture_row_and_provider(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("big\t1e200,1e200,0\nsmall\t3,4,0\n")
        table = load_fixture_table(path)
        assert table["big"].tolist() == [1e200, 1e200, 0.0]
        provider = FixtureProvider(table, dim=3)
        assert provider.embed("big").tobytes() == l2_normalize([1.0, 1.0, 0.0]).tobytes()
        assert provider.embed("small").tobytes() == np.array([0.6, 0.8, 0.0], np.float32).tobytes()


class TestFixtureProvider:
    def test_table_entries_dominate(self):
        e1 = l2_normalize(np.array([1.0, 0.0, 0.0]))
        provider = FixtureProvider({"cup": e1}, fallback=HashProvider(0, 3))
        assert np.array_equal(provider.embed("cup"), e1)

    def test_unseen_text_routes_to_fallback(self):
        fallback = HashProvider(seed=9, dim=6)
        provider = FixtureProvider({}, fallback=fallback)
        assert np.array_equal(provider.embed("novel"), fallback.embed("novel"))

    def test_table_vectors_normalized_on_load(self):
        provider = FixtureProvider({"big": np.array([3.0, 4.0])}, dim=2)
        assert float(np.linalg.norm(provider.embed("big"))) == pytest.approx(1.0)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="mixes dimensions"):
            FixtureProvider({"a": np.ones(3), "b": np.ones(4)})

    def test_fallback_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FixtureProvider({"a": np.ones(3)}, fallback=HashProvider(0, 4))

    def test_empty_table_needs_dim_or_fallback(self):
        with pytest.raises(ValueError):
            FixtureProvider({})
        assert FixtureProvider({}, dim=5).dimension() == 5


class TestFixtureTableFile:
    def test_round_trip(self, tmp_path):
        table = {
            "cup": np.array([1.0, 0.5, -0.25]),
            "door frame": np.array([0.0, 2.0, 0.125]),
        }
        path = tmp_path / "table.tsv"
        save_fixture_table(table, path)
        loaded = load_fixture_table(path)
        assert set(loaded) == set(table)
        for key in table:
            assert np.allclose(loaded[key], table[key])

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("# comment\n\ncup\t1.0,0.0\n")
        assert list(load_fixture_table(path)) == ["cup"]

    def test_missing_tab_reports_line(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("cup 1.0,0.0\n")
        with pytest.raises(ValueError, match=":1:"):
            load_fixture_table(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("cup\t1.0,zap\n")
        with pytest.raises(ValueError, match=":1:"):
            load_fixture_table(path)

    @pytest.mark.parametrize(
        "row, why",
        [
            ("nan,1,0", "a vector with non-finite values"),
            ("1,-inf,0", "a vector with non-finite values"),
            ("0,0,-0.0", "the zero vector"),
        ],
    )
    def test_vector_that_cannot_be_normalized_reports_line(self, tmp_path, row, why):
        # was loaded; the provider then failed with no file or line
        path = tmp_path / "table.tsv"
        path.write_text(f"# comment\nmug\t1,0,0\ncup\t{row}\n")
        with pytest.raises(ValueError) as err:
            load_fixture_table(path)
        assert str(err.value) == f"{path}:3: bad vector value: cannot normalize {why}"

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("cup\t1.0,0.0\ncup\t0.0,1.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_fixture_table(path)
