"""Embedding file loading, lookups and key normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_units import RawStore, unit_rows, units
from triplescore.corpus import Corpus
from triplescore.embeddings import EmbeddingStore, load_embeddings, normalize_key
from triplescore.errors import DimensionMismatchError, DuplicateKeyError, MalformedLineError
from triplescore.features import KeyPlan


def masked_gather(store, keys):
    """The store's former gather, kept as the oracle for `EmbeddingStore.rows`:
    zeros, then the numbered keys' rows and usable flags assigned through a
    boolean mask. A key the store numbers but does not hold has a zero,
    unusable row, so it gathers as an absent key does."""
    at = np.array([store._index.get(key, -1) for key in keys], dtype=np.intp)
    numbered = at >= 0
    rows = np.zeros((len(at), store.dim))
    rows[numbered] = store.vectors[at[numbered]]
    usable = np.zeros(len(at), dtype=bool)
    usable[numbered] = store.usable[at[numbered]]
    return rows, usable


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
        # the store holds unit rows: the exact vectors, each over its norm
        want = units([[0.25, -1.5], [3.125, 0.0078125]])
        assert store.lookup("a").tobytes() == want[0].tobytes()
        assert store.lookup("b").tobytes() == want[1].tobytes()

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

    @pytest.mark.parametrize("dim", ["0", "-3"])
    def test_header_without_a_positive_dimension_rejected(self, tmp_path, dim):
        path = write(tmp_path, f"1 {dim}\nparis\n")
        with pytest.raises(MalformedLineError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}:1: dimension must be positive, got {dim}"

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
        assert store.lookup("new_york").tolist() == units([[0.5, 0.5]])[0].tolist()
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

    @pytest.mark.parametrize("keys", [None, {"paris": 0, "oslo": 1, "rome": 2}])
    def test_vectors_are_read_only(self, tmp_path, keys):
        store = load_embeddings(write(tmp_path, "2 2\nparis 1 0\nrome 0 1\n"), keys)
        with pytest.raises(ValueError):
            store.lookup("paris")[:] = 0.0
        with pytest.raises(ValueError):
            store.usable[:] = True
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
           picks=st.lists(st.integers(-3, 8), max_size=12), seed=st.integers(0, 2**16),
           zero=st.lists(st.booleans(), min_size=6, max_size=6))
    def test_rows_match_the_masked_gather(self, n, dim, picks, seed, zero):
        # picks below 0 or from n on name absent keys; the rest are held,
        # and a zero vector is held but unusable
        keys = [f"k{i}" for i in range(n)]
        vectors = np.random.default_rng(seed).normal(size=(n, dim))
        vectors[zero[:n]] = 0.0
        store = EmbeddingStore(keys, vectors)
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


# Components whose squares overflow (the norm is then infinite and the row
# unusable), underflow to subnormals or to zero, or are ordinary numbers.
COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e200, -1e200, 1e-170, 1e-310, -2.2e-308, 5e-324]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
NAMES = [f"k{i}" for i in range(8)]


@st.composite
def unit_files(draw):
    """(dim, raw vectors by key in file order, keys to load with, the row order)."""
    dim = draw(st.integers(1, 4))
    vectors = {}
    for name in draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=8, unique=True)):
        zero = draw(st.integers(0, 4)) == 0
        vectors[name] = [0.0] * dim if zero else [draw(COMPONENTS) for _ in range(dim)]
    # the keys to load may name keys the file lacks
    picked = draw(st.lists(st.sampled_from(NAMES + ["absent", "gone"]), unique=True))
    kind = draw(st.sampled_from(["none", "set", "plan"]))
    if kind == "none":
        return dim, vectors, None, list(vectors)
    if kind == "set":
        keys = set(picked)
        return dim, vectors, keys, list(keys)
    cut = draw(st.integers(0, len(picked)))
    keys = KeyPlan(Corpus({}), picked[:cut], picked[cut:]).rows
    return dim, vectors, keys, list(keys)


class TestUnitRows:
    """The store's rows against the former copy-then-normalise `_unit_rows`."""

    @settings(max_examples=200, deadline=None)
    @given(unit_files())
    def test_loaded_rows_and_mask_match_the_reference(self, tmp_path_factory, file):
        dim, vectors, keys, order = file
        path = tmp_path_factory.mktemp("units") / "emb.txt"
        path.write_text(f"{len(vectors)} {dim}\n" + "".join(
            " ".join([key, *map(repr, v)]) + "\n" for key, v in vectors.items()))
        with np.errstate(over="ignore"):
            store = load_embeddings(path, keys)
            want_rows, want_usable = unit_rows(RawStore(dim, vectors), order)
            built = EmbeddingStore(list(vectors), np.array(list(vectors.values())))
            want_built = unit_rows(RawStore(dim, vectors), list(vectors))
        assert store.vectors.tobytes() == want_rows.tobytes()
        assert store.usable.tolist() == want_usable.tolist()
        assert built.vectors.tobytes() == want_built[0].tobytes()
        assert built.usable.tolist() == want_built[1].tolist()
        held = [key for key in order if key in vectors]
        assert len(store) == len(held)
        assert [key for key in NAMES + ["absent"] if key in store] == sorted(held)
        for i, key in enumerate(order):
            row = store.lookup(key)
            assert (row is None) == (key not in vectors)
            assert row is None or row.tobytes() == want_rows[i].tobytes()


class TestAllocation:
    """Kept vectors are written into one matrix sized from the header, the
    file size and the keys; a header never makes the loader allocate more
    than the file could fill, and extra lines are never written past it."""

    KEYS = [None, {"paris", "rome", "oslo", "bern"}]

    @pytest.mark.parametrize("keys", KEYS)
    @pytest.mark.parametrize("header", ["1000000000000 100", "1000000000000 2",
                                        "1 1000000000000", "1 4611686018427387904"])
    def test_an_over_declaring_header_fails_on_its_lines(self, tmp_path, keys, header):
        path = write(tmp_path, f"{header}\nparis 1 0\n")
        with pytest.raises(MalformedLineError) as err:
            load_embeddings(path, keys)
        count, dim = map(int, header.split())
        if dim == 2:
            assert err.value.line_no == 1
            assert f"header declares {count} entries, file holds 1" in str(err.value)
        else:
            assert err.value.line_no == 2
            assert f"expected 1 key + {dim} values, got 3 tokens" in str(err.value)

    @pytest.mark.parametrize("keys", KEYS + [{"paris", "rome", "oslo", "bern", "lima"}])
    @pytest.mark.parametrize("extra", [1, 3, 4])
    # the scanned path, the per-line path (a tab), and per-line lines before
    # scanned ones, which then start past the end of the matrix
    @pytest.mark.parametrize("seps", [" " * 5, "\t" * 5, "\t\t   "])
    def test_more_lines_than_declared(self, tmp_path, keys, extra, seps):
        names = ["paris", "rome", "oslo", "bern", "lima"][:1 + extra]
        lines = "".join(f"{name}{sep}{i}{sep}1\n"
                        for i, (name, sep) in enumerate(zip(names, seps)))
        path = write(tmp_path, "1 2\n" + lines)
        with pytest.raises(MalformedLineError) as err:
            load_embeddings(path, keys)
        assert err.value.line_no == 1
        assert str(err.value).endswith(f"header declares 1 entries, file holds {1 + extra}")

    # each line's separator: the scan reads every line, `line` does, or they
    # alternate, so a line that `line` reads follows one the scan reads
    @pytest.mark.parametrize("seps", [" " * 5, "\t" * 5, " \t \t "])
    def test_a_store_holds_unit_rows_in_file_order_or_in_the_order_of_its_keys(
            self, tmp_path, seps):
        rows = {"paris": (1.0, 0.0), "rome": (0.0, 1.0), "oslo": (0.5, 2.0),
                "bern": (3.0, -1.0), "lima": (-2.0, 0.25)}
        text = "".join(f"{sep.join([key, *map(repr, v)])}\n"
                       for sep, (key, v) in zip(seps, rows.items()))
        path = write(tmp_path, f"{len(rows)} 2\n{text}")
        raw = RawStore(2, rows)
        store = load_embeddings(path)
        assert len(store) == len(rows)
        assert store._index == {key: i for i, key in enumerate(rows)}
        assert store.vectors.tobytes() == unit_rows(raw, list(rows))[0].tobytes()
        # the keys are numbered in their order, whatever a dict maps them to;
        # a key the file lacks keeps a zero row that the store does not hold
        for keys in ({"rome", "bern", "atlantis"}, {"lima": 0, "atlantis": 1, "oslo": 2},
                     {"lima": 2, "atlantis": 0, "oslo": 1}, ["oslo", "lima", "oslo"], set()):
            store = load_embeddings(path, keys)
            units, usable = store.rows(keys)
            assert (units is store.vectors and usable is store.usable) \
                == (keys == {"lima": 0, "atlantis": 1, "oslo": 2})
            keys = list(dict.fromkeys(keys))
            copies, copied = store.rows(dict(zip(keys, range(len(keys)))))
            assert copies.flags.writeable and copied.flags.writeable
            assert copies.tobytes() == store.vectors.tobytes()
            assert copied.tolist() == store.usable.tolist()
            assert len(store) == len(set(keys) & set(rows))
            assert store.vectors.shape == (len(keys), 2)
            assert store.vectors.tobytes() == unit_rows(raw, list(keys))[0].tobytes()
            assert ("atlantis" in store, store.lookup("atlantis")) == (False, None)
