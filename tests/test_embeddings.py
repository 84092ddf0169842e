"""Embedding file loading, lookups and key normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplescore.embeddings import EmbeddingStore, load_embeddings, normalize_key
from triplescore.errors import DimensionMismatchError, DuplicateKeyError, MalformedLineError


def masked_gather(store, keys):
    """The store's former gather, kept as the oracle for `EmbeddingStore.rows`:
    zeros, then the held rows assigned through a boolean mask."""
    at = np.array([store._index.get(key, -1) for key in keys], dtype=np.intp)
    held = at >= 0
    rows = np.zeros((len(at), store.dim))
    rows[held] = store.vectors[at[held]]
    return rows, held


def write(tmp_path, text, name="emb.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoad:
    def test_minimal_file(self, tmp_path):
        store = load_embeddings(write(tmp_path, "2 3\nparis 1 0 0\nfrance 0 1 0\n"))
        assert store.dim == 3
        assert len(store) == 2

    def test_round_trip_exact_vectors(self, tmp_path):
        store = load_embeddings(
            write(tmp_path, "2 2\na 0.25 -1.5\nb 3.125 0.0078125\n")
        )
        assert store.lookup("a").tolist() == [0.25, -1.5]
        assert store.lookup("b").tolist() == [3.125, 0.0078125]

    def test_wrong_component_count(self, tmp_path):
        path = write(tmp_path, "1 3\nparis 1 0\n")
        with pytest.raises(MalformedLineError) as err:
            load_embeddings(path)
        assert err.value.line_no == 2

    def test_duplicate_key(self, tmp_path):
        path = write(tmp_path, "2 2\nparis 1 0\nParis 0 1\n")
        with pytest.raises(DuplicateKeyError):
            load_embeddings(path)

    def test_header_count_mismatch(self, tmp_path):
        path = write(tmp_path, "3 2\nparis 1 0\n")
        with pytest.raises(MalformedLineError):
            load_embeddings(path)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "not a header\n")
        with pytest.raises(MalformedLineError) as err:
            load_embeddings(path)
        assert err.value.line_no == 1

    def test_non_numeric_component(self, tmp_path):
        path = write(tmp_path, "1 2\nparis 1 x\n")
        with pytest.raises(MalformedLineError):
            load_embeddings(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999", "NaN"])
    def test_non_finite_component(self, tmp_path, token):
        path = write(tmp_path, f"2 2\nparis 1 0\nrome 1 {token}\n")
        with pytest.raises(MalformedLineError) as err:
            load_embeddings(path)
        assert err.value.line_no == 3
        assert "non-finite" in str(err.value)


class TestLoadKeys:
    """load_embeddings(path, keys): only the vectors for keys are parsed."""

    TEXT = "3 2\nparis 1 0\nrome 0 1\nNew_York 0.5 0.5\n"

    def test_none_equals_full_store(self, tmp_path):
        path = write(tmp_path, self.TEXT)
        full, same = load_embeddings(path), load_embeddings(path, None)
        assert len(same) == len(full) == 3
        assert same.dim == full.dim
        for key in ("paris", "rome", "new_york"):
            assert same.lookup(key).tolist() == full.lookup(key).tolist()

    def test_keeps_only_requested_keys(self, tmp_path):
        keys = {normalize_key(k) for k in ("Paris", "new york")}
        store = load_embeddings(write(tmp_path, self.TEXT), keys)
        assert len(store) == 2
        assert store.lookup("paris").tolist() == [1.0, 0.0]
        assert store.lookup("new_york").tolist() == [0.5, 0.5]
        assert store.lookup("rome") is None

    def test_requested_key_absent_from_file_is_absent(self, tmp_path):
        store = load_embeddings(write(tmp_path, self.TEXT), {"rome", "atlantis"})
        assert len(store) == 1
        assert store.lookup("atlantis") is None

    def test_token_count_checked_on_unkept_line(self, tmp_path):
        path = write(tmp_path, "2 2\nparis 1 0\nrome 0\n")
        with pytest.raises(MalformedLineError) as err:
            load_embeddings(path, {"paris"})
        assert err.value.line_no == 3

    def test_duplicate_checked_on_unkept_lines(self, tmp_path):
        path = write(tmp_path, "3 2\nparis 1 0\nRome 0 1\nrome 1 1\n")
        with pytest.raises(DuplicateKeyError) as err:
            load_embeddings(path, {"paris"})
        assert err.value.key == "rome"

    def test_header_count_covers_unkept_lines(self, tmp_path):
        path = write(tmp_path, "2 2\nparis 1 0\nrome 0 1\noslo 1 1\n")
        with pytest.raises(MalformedLineError) as err:
            load_embeddings(path, {"paris"})
        assert "holds 3" in str(err.value)

    # 2**62, which numpy cannot allocate, and 10**12, for which the gather
    # would ask for terabytes: with no vector line, nothing bounds dim
    @pytest.mark.parametrize("header", ["0 4611686018427387904", "0 1000000000000",
                                        "0 3", "-1 3"])
    def test_header_without_entries_rejected(self, tmp_path, header):
        path = write(tmp_path, header + "\n")
        with pytest.raises(MalformedLineError) as err:
            load_embeddings(path, set())
        assert err.value.line_no == 1
        assert "must declare an entry" in str(err.value)

    @pytest.mark.parametrize("token", ["nan", "inf", "x"])
    def test_bad_component_on_unkept_line_is_not_parsed(self, tmp_path, token):
        path = write(tmp_path, f"2 2\nparis 1 0\nrome 1 {token}\n")
        store = load_embeddings(path, {"paris"})
        assert len(store) == 1
        assert store.lookup("rome") is None

    @pytest.mark.parametrize("token, message", [("nan", "non-finite"), ("inf", "non-finite"),
                                                ("x", "non-numeric")])
    def test_bad_component_on_kept_line_names_it(self, tmp_path, token, message):
        path = write(tmp_path, f"2 2\nparis 1 0\nrome 1 {token}\n")
        with pytest.raises(MalformedLineError) as err:
            load_embeddings(path, {"rome"})
        assert err.value.line_no == 3
        assert message in str(err.value)


class TestLookup:
    def test_normalizes_case(self, tmp_path):
        store = load_embeddings(write(tmp_path, "1 3\nparis 1 0 0\n"))
        assert store.lookup("Paris").tolist() == [1.0, 0.0, 0.0]

    def test_multiword_key(self, tmp_path):
        store = load_embeddings(
            write(tmp_path, "1 2\nunited_states_of_america 1 0\n")
        )
        assert store.lookup("United States of America") is not None
        assert "united  states of\tamerica" in store

    def test_absent_key_is_none(self, tmp_path):
        store = load_embeddings(write(tmp_path, "1 2\nparis 1 0\n"))
        assert store.lookup("atlantis_xyz") is None


class TestNormalizeKey:
    def test_examples(self):
        assert normalize_key("United States of America") == "united_states_of_america"
        assert normalize_key("  Paris ") == "paris"
        assert normalize_key("a\t b") == "a_b"

    @given(st.text(max_size=40))
    def test_idempotent(self, raw):
        once = normalize_key(raw)
        assert normalize_key(once) == once


class TestStore:
    def test_rejects_wrong_length_vector(self):
        # vectors must form one (n, dim) matrix with a row per key
        for vectors in ([1.0, 0.0], [[[1.0, 0.0]]], [[1.0, 0.0], [0.0, 1.0]]):
            with pytest.raises(DimensionMismatchError):
                EmbeddingStore(["a"], np.array(vectors))

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(DimensionMismatchError):
            EmbeddingStore([], np.empty((0, 0)))

    def test_rejects_duplicate_keys(self):
        with pytest.raises(DuplicateKeyError) as err:
            EmbeddingStore(["a", "b", "a"], np.eye(3))
        assert err.value.key == "a"

    def test_vectors_are_read_only(self, tmp_path):
        store = load_embeddings(write(tmp_path, "2 2\nparis 1 0\nrome 0 1\n"))
        with pytest.raises(ValueError):
            store.lookup("paris")[:] = 0.0
        assert store.lookup("paris").tolist() == [1.0, 0.0]

    def test_rows_are_fresh_copies_by_key(self, tmp_path):
        # the rows follow the keys, not the file order, and are zero where absent
        store = load_embeddings(write(tmp_path, "2 2\nrome 0 1\nparis 1 0\n"))
        rows, held = store.rows(["paris", "atlantis", "rome", "paris"])
        assert rows.tolist() == [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        assert held.tolist() == [True, False, True, True]
        rows[:] = 7.0
        assert store.lookup("paris").tolist() == [1.0, 0.0]
        assert store.rows([])[0].shape == (0, 2)

    def test_rows_of_an_empty_store_are_zero(self):
        store = EmbeddingStore([], np.empty((0, 3)))
        rows, held = store.rows(["paris", "rome"])
        assert rows.tolist() == [[0.0] * 3] * 2
        assert held.tolist() == [False, False]
        assert store.rows([])[0].shape == (0, 3)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 6), dim=st.integers(1, 4),
           picks=st.lists(st.integers(-3, 8), max_size=12), seed=st.integers(0, 2**16))
    def test_rows_match_the_masked_gather(self, n, dim, picks, seed):
        # picks below 0 or from n on name absent keys; the rest are held
        keys = [f"k{i}" for i in range(n)]
        store = EmbeddingStore(keys, np.random.default_rng(seed).normal(size=(n, dim)))
        wanted = [f"k{i}" if 0 <= i < n else f"absent{i}" for i in picks]
        rows, held = store.rows(wanted)
        want_rows, want_held = masked_gather(store, wanted)
        assert rows.dtype == want_rows.dtype and rows.flags.writeable
        assert np.array_equal(rows, want_rows) and np.array_equal(held, want_held)

    def test_normalization_collision_is_duplicate(self, tmp_path):
        # "New York" and "new_york" normalize to the same key
        path = write(tmp_path, "2 2\nNew_York 1 0\nnew_york 0 1\n")
        with pytest.raises(DuplicateKeyError) as err:
            load_embeddings(path)
        assert err.value.key == "new_york"
