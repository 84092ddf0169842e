"""The block-scanning embedding loader against the per-line oracle.

The oracle below is `load_embeddings` as it was before the block scan:
text-mode reading (universal newlines), one `str.split()` per line, and
the token-count, duplicate-key, numeric, finiteness and header-count
checks in line order. Random files exercise the places where a byte scan
could part from it: case duplicates, blank and whitespace-only lines,
runs of spaces, tabs and the other ASCII and Unicode whitespace,
`\\r\\n` and lone `\\r` line ends, non-ASCII keys, wrong token counts,
bad and non-finite components, an off header count and a missing final
newline, with the block size patched down so that block edges fall
everywhere. Some files draw their values from a numeric alphabet (digits,
". e E + - _ x", "inf" and "nan"), whose tokens numpy's C text reader and
`float()` may judge differently; a refused kept line must then take the
per-line `float()` path and load, or fail, as the oracle does.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EMBEDDINGS_TEXT, store_from
from triplescore import embeddings
from triplescore.cli import main
from triplescore.embeddings import EmbeddingStore, load_embeddings, normalize_key
from triplescore.errors import DuplicateKeyError, MalformedLineError


def oracle_load_embeddings(path, keys=None) -> EmbeddingStore:
    wanted = None if keys is None else {normalize_key(k) for k in keys}
    entries: dict[str, np.ndarray] = {}
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
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
        "café", "Café", "straße", "İstanbul", "ſun", "Ｋ", "東京"]
SUFFIXES = ["", "", "", "2", "3", "_x", "_é"]
ABSENT = ["atlantis", "el_dorado", "CAFÉ"]
SPACES = [" ", " ", " ", "  ", "   ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
          "\x1f", "\x85", "\xa0", "　"]
VALUES = ["0", "1", "-2.5", "0.125", "1e3", "-0", "+7", ".5", "1_0", "١", "٣.٥",
          "infinity", "1e999", "nan", "inf", "-inf", "x", "0x1p3", "1d3", "--1", "\x00"]
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
    wanted = st.builds(str.__add__, st.sampled_from(KEYS + ABSENT), st.sampled_from(SUFFIXES))
    keys = draw(st.one_of(st.none(), st.lists(wanted, max_size=8)))
    return text, keys


def outcome(load, path, keys):
    """A loaded store as its dim and each vector's bytes, or the error."""
    try:
        store = load(path, keys)
    except Exception as exc:
        return type(exc), str(exc)
    names = {normalize_key(k + s) for k in KEYS for s in SUFFIXES}
    vectors = {k: store.lookup(k).tobytes() for k in names if k in store}
    assert len(vectors) == len(store)
    return store.dim, vectors


@pytest.fixture(scope="module")
def emb_path(tmp_path_factory):
    return tmp_path_factory.mktemp("scan") / "emb.txt"


@settings(max_examples=400, deadline=None)
@given(embedding_files(), st.one_of(st.integers(1, 64), st.just(1 << 16)))
def test_matches_oracle(emb_path, file, block):
    text, keys = file
    emb_path.write_bytes(text.encode("utf-8"))
    wanted = None if keys is None else {normalize_key(k) for k in keys}
    with mock.patch.object(embeddings, "_BLOCK_BYTES", block):
        got = outcome(load_embeddings, emb_path, wanted)
    assert got == outcome(oracle_load_embeddings, emb_path, keys)


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
    assert store.lookup("rome").tobytes() == np.full(50_000, 0.5).tobytes()


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
    assert store.lookup("café").tolist() == [7.0, 1.0]
    assert store.lookup("k3").tolist() == [3.0, 1.0]
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


def spy_entries(monkeypatch):
    """Line numbers of the lines parsed on their own by `_Loader.entry`."""
    lines = []
    entry = embeddings._Loader.entry

    def spy(self, key, values, line_no):
        lines.append(line_no)
        return entry(self, key, values, line_no)

    monkeypatch.setattr(embeddings._Loader, "entry", spy)
    return lines


def test_value_only_float_accepts_loads_through_the_fallback(tmp_path, monkeypatch):
    """numpy's reader refuses "1_0"; each kept line of its block is then parsed by float()."""
    path = tmp_path / "emb.txt"
    path.write_text("4 2\nparis 1 2\nrome 1_0 3\noslo 4 5\nbern 6 1e5_0\n")
    fallback = spy_entries(monkeypatch)
    store = load_embeddings(path, {"paris", "rome", "bern"})
    assert fallback == [2, 3, 5]
    assert store.lookup("rome").tolist() == [10.0, 3.0]
    assert store.lookup("bern").tolist() == [6.0, 1e50]
    assert store.lookup("paris").tolist() == [1.0, 2.0]
    assert "oslo" not in store


def test_block_of_accepted_values_takes_no_fallback(tmp_path, monkeypatch):
    path = tmp_path / "emb.txt"
    path.write_text("3 2\nparis 1 2\nrome -0 .5\noslo 5. +1E-3\n")
    fallback = spy_entries(monkeypatch)
    store = load_embeddings(path)
    assert fallback == []
    assert store.vectors.tobytes() == np.array([[1, 2], [-0.0, 0.5], [5, 1e-3]]).tobytes()


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
    store = load_embeddings(path, {"paris", "rome", "riga"})
    assert store.vectors.tolist() == [[1.0, 2.0], [10.0, 3.0], [5.0, 6.0]]
