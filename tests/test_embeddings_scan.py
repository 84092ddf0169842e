"""The block-scanning embedding loader against the per-line oracle.

The oracle below is `load_embeddings` as it was before the block scan:
text-mode reading (universal newlines, one leading byte-order mark
skipped), one `str.split()` per line, and
the token-count, duplicate-key, numeric, finiteness and header-count
checks in line order. Random files exercise the places where a byte scan
could part from it: case duplicates, blank and whitespace-only lines,
runs of spaces, tabs and the other ASCII and Unicode whitespace,
`\\r\\n` and lone `\\r` line ends, non-ASCII keys, DEL and C0 control
bytes in keys and in values, wrong token counts, bad and non-finite
components, an off header count, a missing final newline and a leading
byte-order mark, with the block size patched down so that block edges
fall everywhere, or drawn around the loader's own block size. Some files
draw their values from a numeric alphabet (digits, ". e E + - _ x", "inf"
and "nan"), whose tokens numpy's C text reader and `float()` may judge
differently; a refused kept line must then take the per-line `float()`
path and load, or fail, as the oracle does. The oracle's vectors go into
`EmbeddingStore(keys, vectors)`, which unit-normalises them, so both
stores are compared by their unit rows and usable flags. Fixed files
cover what random ones rarely reach: a first block longer than the ones
after it, so the loader's reused masks hold stale bytes past a block's
end, and lines around the length where the scan's token counts change
width. `_blocks` is checked on its own for where it may cut, and a file
of several default-size blocks must load as it does in 64 KiB blocks.
"""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EMBEDDINGS_TEXT, store_from
from oracle_units import units
from triplescore import embeddings
from triplescore.cli import main
from triplescore.corpus import Corpus
from triplescore.embeddings import EmbeddingStore, load_embeddings, normalize_key
from triplescore.errors import DuplicateKeyError, MalformedLineError
from triplescore.features import KeyPlan


def oracle_load_embeddings(path, keys=None) -> EmbeddingStore:
    wanted = None if keys is None else {normalize_key(k) for k in keys}
    entries: dict[str, np.ndarray] = {}
    seen: set[str] = set()
    with open(path, encoding="utf-8-sig") as fh:
        header = fh.readline()
        if not header.strip():
            raise MalformedLineError(path, 1, "missing header line '<count> <dim>'")
        parts = header.split()
        if len(parts) != 2:
            raise MalformedLineError(
                path, 1, f"header must be '<count> <dim>', got {header.strip()!r}"
            )
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLineError(
                path, 1, f"header must hold two integers, got {header.strip()!r}"
            ) from None
        if dim <= 0:
            raise MalformedLineError(path, 1, f"dimension must be positive, got {dim}")
        if count < 1:
            raise MalformedLineError(path, 1, f"header must declare an entry, got {count}")

        for line_no, line in enumerate(fh, start=2):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != dim + 1:
                raise MalformedLineError(
                    path,
                    line_no,
                    f"expected 1 key + {dim} values, got {len(tokens)} tokens",
                )
            key = normalize_key(tokens[0])
            if key in seen:
                raise DuplicateKeyError(key, path)
            seen.add(key)
            if wanted is not None and key not in wanted:
                continue
            try:
                vec = np.array(tokens[1:], dtype=float)
            except ValueError:
                raise MalformedLineError(path, line_no, "non-numeric vector component") from None
            if not np.isfinite(vec).all():
                raise MalformedLineError(path, line_no, "non-finite vector component")
            entries[key] = vec

    if len(seen) != count:
        raise MalformedLineError(
            path, 1, f"header declares {count} entries, file holds {len(seen)}"
        )
    return store_from(dim, entries)


KEYS = ["paris", "Paris", "rome", "new_york", "NEW_YORK", "oslo", "a", "b_c",
        "café", "Café", "straße", "İstanbul", "ſun", "Ｋ", "東京", "del\x7f", "\x01x", "e\x1bsc"]
SUFFIXES = ["", "", "", "2", "3", "_x", "_é"]
ABSENT = ["atlantis", "el_dorado", "CAFÉ"]
SPACES = [" ", " ", " ", "  ", "   ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
          "\x1f", "\x85", "\xa0", "　"]
VALUES = ["0", "1", "-2.5", "0.125", "1e3", "-0", "+7", ".5", "1_0", "١", "٣.٥",
          "infinity", "1e999", "nan", "inf", "-inf", "x", "0x1p3", "1d3", "--1", "\x00",
          "\x7f", "1\x7f", "\x012", "3\x1b"]
ENDS = ["\n", "\n", "\n", "\r\n", "\r"]
# tokens such as "0x10", "1e5_0", "nan1", "5.e-" or "+inf"
NUMERIC = st.lists(st.sampled_from([*"0123456789.eE+-_x", "inf", "nan"]),
                   min_size=1, max_size=6).map("".join)


@st.composite
def embedding_files(draw):
    dim = draw(st.integers(1, 3))
    # one file in four draws some of its values from the numeric alphabet
    numeric = draw(st.integers(0, 3)) == 0
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["vector"] * 24 + ["blank", "space", "short", "long"]))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "space":
            lines.append(draw(st.sampled_from(SPACES)))
            continue
        n = dim + {"vector": 0, "short": -1, "long": 1}[kind]
        tokens = [draw(st.sampled_from(KEYS)) + draw(st.sampled_from(SUFFIXES))]
        tokens += [draw(NUMERIC) if numeric and draw(st.booleans())
                   else draw(st.sampled_from(VALUES[:6] * 20 + VALUES)) for _ in range(n)]
        # most lines are plain ASCII, which the block scan checks itself
        spaces = SPACES if draw(st.integers(0, 4)) == 0 else SPACES[:5]
        seps = [draw(st.sampled_from(spaces)) for _ in range(len(tokens) + 1)]
        lead = seps[0] if draw(st.integers(0, 5)) == 0 else ""
        trail = seps[-1] if draw(st.integers(0, 5)) == 0 else ""
        lines.append(lead + "".join(t + s for t, s in zip(tokens, seps[1:-1])) + tokens[-1]
                     + trail)
    entries = sum(1 for line in lines if line.split())
    count = entries + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    header = draw(st.sampled_from([f"{count} {dim}"] * 20 + [f"{count}\t{dim} ", f"{count}",
                                                            "x y", f"{count} 0", ""]))
    # a block with a "\r" has its line ends made "\n" before the scan; most files have none
    ends = ENDS if draw(st.integers(0, 3)) == 0 else ["\n"]
    text = ""
    for line in [header] + lines:
        text += line + draw(st.sampled_from(ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.integers(0, 7)) == 0:
        text = "\ufeff" + text
    wanted = st.builds(str.__add__, st.sampled_from(KEYS + ABSENT), st.sampled_from(SUFFIXES))
    keys = draw(st.one_of(st.none(), st.lists(wanted, max_size=8)))
    return text, keys


def outcome(load, path, keys, order=None):
    """A loaded store as its dim and each held key's unit row bytes and usable
    flag, or the error. With `order`, the keys the store was loaded with in
    the order it numbers them, row i must be the i-th key's row, or zero."""
    try:
        store = load(path, keys)
    except Exception as exc:
        return type(exc), str(exc)
    names = sorted({normalize_key(k + s) for k in KEYS for s in SUFFIXES})
    rows, usable = store.rows(names)
    vectors = {k: (row.tobytes(), ok)
               for k, row, ok in zip(names, rows, usable.tolist()) if k in store}
    assert len(vectors) == len(store)
    for i, key in enumerate(order or ()):
        row = store.lookup(key)
        assert store.vectors[i].tobytes() == (np.zeros(store.dim) if row is None else row).tobytes()
    return store.dim, vectors


@pytest.fixture(scope="module")
def emb_path(tmp_path_factory):
    return tmp_path_factory.mktemp("scan") / "emb.txt"


@settings(max_examples=400, deadline=None)
@given(embedding_files(), st.one_of(
    st.integers(1, 64),
    st.integers(embeddings._BLOCK_BYTES // 2, 2 * embeddings._BLOCK_BYTES)))
def test_matches_oracle(emb_path, file, block):
    text, keys = file
    emb_path.write_bytes(text.encode("utf-8"))
    wanted = None if keys is None else {normalize_key(k) for k in keys}
    with mock.patch.object(embeddings, "_BLOCK_BYTES", block):
        got = outcome(load_embeddings, emb_path, wanted, None if wanted is None else list(wanted))
    assert got == outcome(oracle_load_embeddings, emb_path, keys)


def stale_mask_file(variant: int) -> str:
    """A file whose first vector line is long and whose later lines are
    short, mixing clean lines with ones the scan must hand to `line`; from
    variant 3 on, one line is malformed."""
    lines = ["Paris" + " " * 700 + "1 2 3", "rome 4 5 6"]
    odd = ["café\t7 8 9", "straße 1 0 1", "del\x7f 2 2 2", "e\x1bsc 3 3 3", "   ",
           "  ſun 4 4 4", "\x01x 9 9 9", "東京 1_0 2 3", "Ｋ 1 1 1", "a_é 6 6 6\t"]
    filler = iter([k + s for s in ("2", "3", "_x") for k in ("new_york", "oslo", "a", "b_c",
                                                              "paris", "rome", "café")])
    for i in range(30):
        lines.append(odd[(i + variant) % len(odd)] if i % 3 == variant % 3 else
                     f"{next(filler)} {i} {i % 7} -{i}")
    if variant >= 3:
        lines.insert(5 * variant, ["oslo 1 2", "new_york 1 x 2", "b_c 7 1e999 1"][variant - 3])
    entries = sum(1 for line in lines if line.split())
    return f"{entries} 3\n" + "\n".join(lines) + "\n"


@pytest.mark.parametrize("variant", range(6))
@pytest.mark.parametrize("block", [16, 64, 100, 333])
@pytest.mark.parametrize("keys", [None, ["paris", "new_york2", "rome", "café", "東京", "b_c_x",
                                         "e\x1bsc", "b_c"], ["a2", "a3", "del\x7f", "oslo"]])
def test_first_block_longer_than_the_rest(tmp_path, variant, block, keys):
    """Blocks after a long first one reuse masks sized for it; their stale
    bytes past each block's end must change no outcome."""
    path = tmp_path / "emb.txt"
    path.write_bytes(stale_mask_file(variant).encode())
    with mock.patch.object(embeddings, "_BLOCK_BYTES", block):
        got = outcome(load_embeddings, path, None if keys is None else set(keys), None)
    assert got == outcome(oracle_load_embeddings, path, keys)


@pytest.mark.parametrize("dim", [65533, 65534, 65535])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_token_counts_exact_across_the_16_bit_limit(tmp_path, dim, extra):
    """A line shorter than 2**17 - 1 bytes has its tokens counted in uint16;
    at 65,536 tokens a line is longer, and its count must not wrap to 0."""
    path = tmp_path / "emb.txt"
    path.write_text(f"1 {dim}\nparis" + " 1" * (dim + extra) + "\n")
    assert outcome(load_embeddings, path, None) == outcome(oracle_load_embeddings, path, None)


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_long_line_across_blocks(tmp_path, block, end):
    values = " ".join(["0.5"] * 50_000)
    text = end.join(["2 50000", f"paris {values}", "", f"Rome {values}", ""])
    path = tmp_path / "emb.txt"
    path.write_bytes(text.encode())
    with mock.patch.object(embeddings, "_BLOCK_BYTES", block):
        store = load_embeddings(path, {"rome"})
    assert len(store) == 1
    assert store.lookup("rome").tobytes() == units([np.full(50_000, 0.5)])[0].tobytes()


def test_crlf_is_never_split_across_blocks(tmp_path):
    """A "\\r\\n" cut between two reads must not count as two line ends."""
    path = tmp_path / "emb.txt"
    path.write_bytes(b"3 2\r\nparis 1 2\r\nrome 3 4\r\noslo 5\r\n")
    for block in range(1, 40):
        with mock.patch.object(embeddings, "_BLOCK_BYTES", block):
            with pytest.raises(MalformedLineError) as err:
                load_embeddings(path)
        assert err.value.line_no == 4, block


def test_only_unscannable_lines_take_the_exact_path(tmp_path):
    """A non-ASCII key sends its own line to the per-line check, not its block."""
    lines = [f"k{i} {i} 1" for i in range(40)]
    lines[7] = "café 7 1"
    lines[30] = "tab\t30 1"
    path = tmp_path / "emb.txt"
    path.write_text("40 2\n" + "\n".join(lines) + "\n")
    exact = []
    line = embeddings._Loader.line

    def spy(self, raw, line_no):
        exact.append(line_no)
        return line(self, raw, line_no)

    with mock.patch.object(embeddings._Loader, "line", spy):
        store = load_embeddings(path, {"café", "k3"})
    assert exact == [9, 32]
    assert store.lookup("café").tolist() == units([[7.0, 1.0]])[0].tolist()
    assert store.lookup("k3").tolist() == units([[3.0, 1.0]])[0].tolist()
    assert len(store) == 2


@pytest.mark.parametrize("body, line_no", [
    (b"paris 1 0\n\xff 0 1\n", 3),
    (b"paris 1 0\r\nrome 0 \xe9\r\n", 3),
    (b"paris 1 \xc3\n", 2),
])
def test_undecodable_line_is_named(tmp_path, body, line_no):
    path = tmp_path / "emb.txt"
    path.write_bytes(b"2 2\n" + body)
    with pytest.raises(MalformedLineError) as err:
        load_embeddings(path, {"paris"})
    assert err.value.line_no == line_no
    assert str(err.value) == f"{path}:{line_no}: not valid UTF-8"


def test_undecodable_header_is_named(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes(b"2\xff 2\nparis 1 0\n")
    with pytest.raises(MalformedLineError) as err:
        load_embeddings(path)
    assert str(err.value) == f"{path}:1: not valid UTF-8"


def spy_lines(monkeypatch):
    """Line numbers of the lines parsed on their own by `_Loader.line`."""
    lines = []
    line = embeddings._Loader.line

    def spy(self, raw, line_no):
        lines.append(line_no)
        return line(self, raw, line_no)

    monkeypatch.setattr(embeddings._Loader, "line", spy)
    return lines


def test_value_only_float_accepts_loads_through_the_fallback(tmp_path, monkeypatch):
    """numpy's reader refuses "1_0"; each kept line of its block is then parsed by float()."""
    path = tmp_path / "emb.txt"
    path.write_text("4 2\nparis 1 2\nrome 1_0 3\noslo 4 5\nbern 6 1e5_0\n")
    fallback = spy_lines(monkeypatch)
    store = load_embeddings(path, {"paris", "rome", "bern"})
    assert fallback == [2, 3, 5]
    want = units([[10.0, 3.0], [6.0, 1e50], [1.0, 2.0]])
    assert store.lookup("rome").tolist() == want[0].tolist()
    assert store.lookup("bern").tolist() == want[1].tolist()
    assert store.lookup("paris").tolist() == want[2].tolist()
    assert "oslo" not in store


def test_block_of_accepted_values_takes_no_fallback(tmp_path, monkeypatch):
    path = tmp_path / "emb.txt"
    path.write_text("3 2\nparis 1 2\nrome -0 .5\noslo 5. +1E-3\n")
    fallback = spy_lines(monkeypatch)
    store = load_embeddings(path)
    assert fallback == []
    assert store.vectors.tobytes() == units([[1, 2], [-0.0, 0.5], [5, 1e-3]]).tobytes()


@pytest.mark.parametrize("value, message", [
    ("0x10", "non-numeric vector component"),
    ("5#", "non-numeric vector component"),  # comments=None: not read as 5.0
    ("1e999", "non-finite vector component"),
])
def test_kept_value_float_refuses_exits_2_at_its_line(micro_paths, tmp_path, capsys,
                                                      value, message):
    path = tmp_path / "emb.txt"
    path.write_text(EMBEDDINGS_TEXT.replace("pilot 0.8 0.6", f"pilot 0.8 {value}"))
    code = main(["extract", "--embeddings", str(path), "--corpus", str(micro_paths["corpus"]),
                 "--universe", str(micro_paths["universe"]),
                 "--triples", str(micro_paths["triples"])])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}:7: {message}\n"


def test_block_mixing_a_failing_kept_line_names_the_first_bad_line(tmp_path):
    """The first bad kept line is named; a skipped line's values are never parsed."""
    path = tmp_path / "emb.txt"
    path.write_text("6 2\nparis 1 2\noslo x y\nrome 1_0 3\nbern 0x1 2\nkyiv 4 nan\n"
                    "riga 5 6\n")
    with pytest.raises(MalformedLineError) as err:
        load_embeddings(path, {"paris", "rome", "bern", "kyiv", "riga"})
    assert str(err.value) == f"{path}:5: non-numeric vector component"
    store = load_embeddings(path, {"paris": 0, "rome": 1, "riga": 2})
    assert store.vectors.tolist() == units([[1.0, 2.0], [10.0, 3.0], [5.0, 6.0]]).tolist()


# "a" runs of up to 700 bytes, so that lines longer than a small buffer occur
BLOCK_BYTES_DATA = st.lists(st.one_of(st.sampled_from([b"a", b" ", b"\n", b"\r"]),
                                      st.integers(1, 700).map(b"a".__mul__)),
                            max_size=60).map(b"".join)


@settings(max_examples=300, deadline=None)
@given(BLOCK_BYTES_DATA, st.integers(1, 300))
def test_blocks_cut_only_after_line_ends(data, block):
    """`_blocks` cuts at line ends only, whatever the buffer size: the blocks
    add up to the input, and every line, longer than the buffer or not, is
    in one block. Where the cuts fall is not pinned: no output depends on it."""
    with mock.patch.object(embeddings, "_BLOCK_BYTES", block):
        blocks = list(embeddings._blocks(io.BytesIO(data)))
    assert b"".join(blocks) == data
    assert all(blocks)
    assert all(b.endswith((b"\n", b"\r")) for b in blocks[:-1])
    assert not any(a.endswith(b"\r") and b.startswith(b"\n") for a, b in zip(blocks, blocks[1:]))
    cuts = set(np.cumsum([len(b) for b in blocks]).tolist())
    start = 0
    for line in data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n"):
        # the line's bytes in data run to the end of its "\r\n", "\r" or "\n", if any
        stop = start + len(line)
        stop += 2 if data[stop:stop + 2] == b"\r\n" else stop < len(data)
        assert not cuts & set(range(start + 1, stop)), (start, stop, block)
        start = stop


def many_block_file(bad_line: str | None = None) -> tuple[bytes, list[str]]:
    """A file that spans at least 4 blocks of the default size, and its keys.

    Most lines are clean; some hold a tab, a non-ASCII key or an upper-case
    key, and some end in "\\r\\n", so each block mixes the scan and `line`.
    With bad_line, that line replaces the first vector line of the third block.
    """
    rng = np.random.default_rng(26)
    dim = 40
    keys, lines = [], []
    while sum(map(len, lines)) < 4.5 * embeddings._BLOCK_BYTES:
        i = len(lines)
        key = [f"k{i}", f"K{i}x", f"ké{i}", f"k{i}_t"][i % 4] if i % 53 == 0 else f"k{i}"
        values = [f"{v:.6f}" for v in rng.normal(size=dim)]
        sep = "\t" if key.endswith("_t") else " "
        end = "\r\n" if i % 31 == 0 else "\n"
        keys.append(normalize_key(key))
        lines.append(sep.join([key, *values]) + end)
    header = f"{len(lines)} {dim}\n"
    if bad_line is not None:
        at, i = len(header), 0
        while at <= 2 * embeddings._BLOCK_BYTES:
            at += len(lines[i])
            i += 1
        lines[i] = bad_line.replace("KEY", keys[i]) + "\n"
    return (header + "".join(lines)).encode(), keys


def store_bytes(store, keys):
    """The store's rows and usable flags in the order of keys, then its own
    matrix, masks and index, which maps each key to its row."""
    rows, usable = store.rows(keys)
    return (rows.tobytes(), usable.tobytes(), store.vectors.tobytes(), store.usable.tobytes(),
            store._held.tobytes(), store._index)


@pytest.fixture(scope="module")
def many_block_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("blocks") / "emb.txt"
    data, keys = many_block_file()
    assert len(data) >= 4 * embeddings._BLOCK_BYTES
    path.write_bytes(data)
    return path, keys


@pytest.mark.parametrize("pick", ["all", "set", "plan"])
def test_many_blocks_load_as_at_64_kib_and_as_the_oracle(many_block_path, pick):
    path, keys = many_block_path
    picked = keys[5::7] + ["absent", "k0"]
    wanted = {"all": None, "set": set(picked),
              "plan": KeyPlan(Corpus(), picked[::2], picked[1::2]).rows}[pick]
    store = load_embeddings(path, wanted)
    with mock.patch.object(embeddings, "_BLOCK_BYTES", 1 << 16):
        small = load_embeddings(path, wanted)
    assert store_bytes(store, keys) == store_bytes(small, keys)
    oracle = oracle_load_embeddings(path, None if wanted is None else picked)
    assert len(store) == len(oracle) == (len(keys) if wanted is None else len(set(picked)) - 1)
    assert store_bytes(store, keys)[:2] == store_bytes(oracle, keys)[:2]
    if wanted is None:
        # every key at its line's place among the vector lines, at either block size
        assert store._index == small._index == dict(zip(keys, range(len(keys))))


@pytest.mark.parametrize("bad_line, message", [
    ("KEY 1 2", "expected 1 key + 40 values, got 3 tokens"),
    ("KEY" + " 0.5" * 39 + " x", "non-numeric vector component"),
])
def test_malformed_line_in_the_third_block_is_named_at_either_size(tmp_path, bad_line, message):
    data, keys = many_block_file(bad_line)
    path = tmp_path / "emb.txt"
    path.write_bytes(data)
    errors = []
    for block in (embeddings._BLOCK_BYTES, 1 << 16):
        with mock.patch.object(embeddings, "_BLOCK_BYTES", block):
            with pytest.raises(MalformedLineError) as err:
                load_embeddings(path, set(keys))
        errors.append(str(err.value))
    with pytest.raises(MalformedLineError) as err:
        oracle_load_embeddings(path, keys)
    assert errors == [str(err.value)] * 2
    assert err.value.line_no > 2 and message in str(err.value)
