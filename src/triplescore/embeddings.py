"""Entity embedding store: textual word-vector loading and lookups.

Multi-word entities are bridged to single-token embedding keys by
normalization: lowercase, internal whitespace collapsed to underscores.
"United States of America" and "united_states_of_america" name the same
vector.
"""

from __future__ import annotations

import codecs
import io
import os
import re

import numpy as np

from .errors import DimensionMismatchError, DuplicateKeyError, MalformedLineError


def normalize_key(raw: str) -> str:
    """Lowercase and collapse whitespace runs to single underscores.

    Idempotent: normalize(normalize(x)) == normalize(x).
    """
    return "_".join(raw.lower().split())


class EmbeddingStore:
    """Immutable map from normalized key to the unit row of its vector.

    The rows are one read-only float64 (n, dim) matrix, `vectors`, and the
    read-only mask `usable` marks the rows whose vector has a positive
    finite norm. Such a row is the vector divided by its norm; every other
    row is zero, and so is the row of a key the store numbers but does not
    hold. Safe for concurrent reads once constructed; loading is
    single-threaded.
    """

    def __init__(self, keys, vectors):
        """A store of normalized keys and a matrix with one row per key, in that
        order; the rows are unit-normalised here, on a copy."""
        vectors = np.array(vectors, dtype=float)
        if vectors.ndim != 2:
            raise DimensionMismatchError(f"vectors must be (n, dim), got {vectors.shape}")
        n, dim = vectors.shape
        if dim <= 0:
            raise DimensionMismatchError(f"dimension must be positive, got {dim}")
        index = {key: i for i, key in enumerate(keys)}
        if len(index) != len(keys):
            # index holds each key's last row, so its first row is elsewhere
            raise DuplicateKeyError(next(k for i, k in enumerate(keys) if index[k] != i))
        if len(index) != n:
            raise DimensionMismatchError(f"{len(keys)} keys for {n} vectors")
        self._hold(index, vectors, _unit(vectors), np.ones(n, dtype=bool))

    @classmethod
    def _of_units(cls, index: dict, vectors, usable, held) -> "EmbeddingStore":
        """A store of rows that are already unit rows (the loader's)."""
        store = cls.__new__(cls)
        store._hold(index, vectors, usable, held)
        return store

    def _hold(self, index: dict, vectors, usable, held) -> None:
        self.dim = vectors.shape[1]
        self.vectors, self.usable = vectors.view(), usable.view()
        self.vectors.flags.writeable = self.usable.flags.writeable = False
        self._index, self._held = index, held
        self._count = int(np.count_nonzero(held))

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: str) -> bool:
        return self.lookup(key) is not None

    def lookup(self, key: str) -> np.ndarray | None:
        """Read-only unit row for the normalized key, or None if the store does not hold it."""
        i = self._index.get(normalize_key(key))
        return None if i is None or not self._held[i] else self.vectors[i]

    def rows(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """The normalized keys' unit rows, in the order of `keys`, and which are usable.

        A vector is usable iff the store holds it and its norm is a positive
        finite number; this one rule decides the similarity flags, the ops
        terms and the ops_terms flag. When `keys` is the store's own index
        (the dict `load_embeddings` was given and kept as it is, not an equal
        copy), row i holds the key `keys` numbers i, so the store's own
        read-only matrix and mask are returned as they are. Otherwise this
        is a gather: fresh copies, zero where a key is not held.
        """
        if keys is self._index:
            return self.vectors, self.usable
        at = np.array([self._index.get(key, -1) for key in keys], dtype=np.intp)
        if not len(self.vectors):   # take() raises on an empty axis
            return np.zeros((len(at), self.dim)), np.zeros(len(at), dtype=bool)
        held = at >= 0
        rows = self.vectors.take(at, axis=0)
        rows[~held] = 0.0
        return rows, self.usable[at] & held


def _unit(rows: np.ndarray) -> np.ndarray:
    """Unit-normalise rows in place, zero the unusable ones, and return which are usable.

    A row is usable iff its norm is a positive finite number; the others are
    divided by 1, then zeroed. Each row's norm and division are its own, so
    a row gets the same bits whatever rows it is normalised with.
    """
    norms = np.linalg.norm(rows, axis=1)
    usable = (norms > 0.0) & np.isfinite(norms)
    rows /= np.where(usable, norms, 1.0)[:, None]
    rows[~usable] = 0.0
    return usable


# Bytes per read, into one buffer that `_blocks` reuses for the whole file. A
# block is cut after its last line end, so a line longer than this grows the
# buffer and is scanned whole. At 64 KiB the numpy scan's fixed cost per block
# dominated a big vocabulary's load; at 1 MiB a small file's load paid for the
# first touch of every fresh page of its read buffer and masks.
_BLOCK_BYTES = 1 << 18


def load_embeddings(path, keys=None) -> EmbeddingStore:
    """Load a textual word-vector file.

    Format: header line "<count> <dim>", both at least 1, then one
    "<key> <v1> ... <v_dim>" per line, space-separated. Keys contain no
    spaces. Duplicate keys are an error rather than last-wins so that runs
    stay reproducible, and so are nan or infinite components (including
    ones that overflow, such as 1e999), which would otherwise reach the
    features as nan.

    The store holds unit rows (see `EmbeddingStore`): each kept vector is
    unit-normalised as its block is parsed. Without `keys` (or with None)
    every vector is kept, in file order.

    With `keys`, normalized keys such as a `KeyPlan`'s `rows`, only the
    vectors whose normalized key is in `keys` are parsed and stored, each
    at its key's row of one zeroed (len(keys), dim) matrix: the keys are
    numbered in their order. A dict that already numbers its keys so, as
    `KeyPlan.rows` does, becomes the store's index as it is, not copied.
    A key the file does not hold keeps a zero row, and the store does not
    hold it. Every line still gets the token-count and
    duplicate-key checks and counts toward the header's entry count; the
    numeric and finiteness checks run on the kept lines.

    The file must be UTF-8, and one leading byte-order mark is skipped;
    lines end at "\\n", "\\r\\n" or "\\r", and tokens are separated by
    whitespace as `str.split()` defines it.
    """
    with open(path, "rb") as fh:
        blocks = _blocks(fh)
        buf, n = next(blocks, (bytearray(), 0))
        bom = len(codecs.BOM_UTF8) if buf.startswith(codecs.BOM_UTF8, 0, n) else 0
        end = re.compile(rb"\r\n?|\n").search(buf, bom, n)
        stop = end.start() if end else n
        header = _decode(buf[bom:stop], path, 1)
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
        # A vector line's token count bounds dim; a file without one would not.
        if count < 1:
            raise MalformedLineError(path, 1, f"header must declare an entry, got {count}")

        # Kept vectors go into one matrix, at their keys' rows. A vector line
        # takes at least 2 * dim + 1 bytes, so a header cannot make the matrix
        # longer, or wider, than the file could fill.
        size = os.fstat(fh.fileno()).st_size
        if keys is None:
            order, rows = None, min(count, size // (2 * dim + 1))
        else:
            order = keys if _numbers_in_order(keys) else {
                key: i for i, key in enumerate(dict.fromkeys(keys))}
            rows = len(order)
        loader = _Loader(path, dim, order, np.zeros((rows, min(dim, size))))
        # The header line, blanked in place, is a blank line 1 to the scan, so
        # the first block is scanned where it was read, like the others.
        buf[:stop] = b" " * stop
        line_no = loader.block(buf, n, 1)
        for buf, n in blocks:
            line_no = loader.block(buf, n, line_no)

    if len(loader.seen) != count:
        raise MalformedLineError(
            path, 1, f"header declares {count} entries, file holds {len(loader.seen)}"
        )
    return EmbeddingStore._of_units(loader.order, loader.vectors, loader.usable, loader.held)


def _numbers_in_order(keys) -> bool:
    """Whether keys is a dict that maps its keys to 0, 1, ... in order, as
    `KeyPlan.rows` does, and so can serve as a store's index as it is."""
    return isinstance(keys, dict) and list(keys.values()) == list(range(len(keys)))


def _blocks(fh):
    """Read fh in blocks that each start a line and end one (the last may not).

    Every read goes into one buffer, reused for the whole file, and each
    block is yielded in place as (buffer, n): its first n bytes, cut after
    their last line end. The caller may read and overwrite buf[:n], and
    keeps no view of the buffer once it asks for the next block, since the
    buffer is then refilled, and grown when one line fills it (resizing a
    buffer that a view still exports raises BufferError). The start of the
    line after the cut moves to the buffer's front, where the next read
    continues it.
    """
    buf = bytearray(_BLOCK_BYTES)
    n = 0   # bytes held at the buffer's front
    while True:
        with memoryview(buf) as view:
            got = fh.readinto(view[n:])
        if not got:
            break
        n += got
        # Cut after the last "\n", or after a later "\r" whose next byte is
        # read and so is not the "\n" of a "\r\n": no line end is split.
        cut = buf.rfind(b"\n", 0, n)
        cut = max(cut, buf.rfind(b"\r", cut + 1, n - 1)) + 1
        if cut:
            yield buf, cut
            buf[:n - cut] = buf[cut:n]
            n -= cut
        elif n == len(buf):
            buf.extend(bytes(n))
    if n:
        yield buf, n


def _decode(raw: bytes, path, line_no) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedLineError(path, line_no, "not valid UTF-8") from None


class _Loader:
    """The checks of the lines after the header, and the vectors they keep.

    `line` checks one line as text. `block` scans a block where `_blocks`
    read it, with numpy, in a few whole-block passes, each written into a
    bool buffer the loader keeps across blocks: one marks the control bytes
    and the bytes from 0x80 up (the "\\n"s among them end the lines), one
    the bytes up to the space, and one the token starts, which one more pass
    sums per line. The first pass also shows whether the block holds a
    "\\r": only such a block, or a last block without a final line end, is
    copied, with its line ends made "\\n", and scanned instead. Only a
    block with another odd byte gets a mask of the lines that hold one. A
    line without one that starts with its key and holds 1 + dim tokens
    splits the same as bytes and as text, so the scan reads its key: the
    block's keys are cut out as bytes, then joined, lowered and decoded
    once. The lines it cannot vouch for go to `line`. `record` checks a
    batch of keys against `seen` with one set operation. One set
    intersection with a given `order` picks the block's kept keys (without
    one, all are kept), and only the kept lines are cut out and joined:
    they go to numpy's C text reader in one call (`_parse`). If it refuses
    one of them, each kept line goes to `line`, in line order, whose
    `float()` parse loads a value only `float()` accepts (such as "1_0")
    and names the first bad line.
    """

    def __init__(self, path, dim: int, order: dict | None, vectors: np.ndarray):
        self.path = path
        self.dim = dim
        self.vectors = vectors
        self.usable = np.zeros(len(vectors), dtype=bool)
        self.held = np.zeros(len(vectors), dtype=bool)
        # Without `order`, every key is kept at its line's place among the
        # vector lines: `seen` numbers the keys as `record` adds them, and is
        # the order.
        self.seen = _Numbering() if order is None else set()
        self.order = self.seen if order is None else order
        # the odd-byte, space and token-start masks; grown to the longest block
        self.masks = np.empty((3, 0), dtype=bool)

    def line(self, raw: bytes, line_no: int) -> None:
        tokens = _decode(raw, self.path, line_no).split()
        if not tokens:
            return
        if len(tokens) != self.dim + 1:
            raise MalformedLineError(
                self.path,
                line_no,
                f"expected 1 key + {self.dim} values, got {len(tokens)} tokens",
            )
        # a token holds no whitespace and lower() adds none: lower() normalizes it
        key = tokens[0].lower()
        self.record((key,))
        if key not in self.order:
            return
        try:
            vec = np.array(tokens[1:], dtype=float)
        except ValueError:
            raise MalformedLineError(self.path, line_no, "non-numeric vector component") from None
        if not np.isfinite(vec).all():
            raise MalformedLineError(self.path, line_no, "non-finite vector component")
        self.keep([key], vec[None])

    def keep(self, keys: list[str], rows: np.ndarray) -> None:
        """Unit-normalise kept keys' rows in place and write them into `vectors`
        at their rows in `order`, dropping any past its end (only a file with
        more lines than its header declares numbers those, without `keys`)."""
        usable = _unit(rows)
        at = np.array([self.order[key] for key in keys], dtype=np.intp)
        if at.max() >= len(self.vectors):
            inside = at < len(self.vectors)
            at, rows, usable = at[inside], rows[inside], usable[inside]
        self.vectors[at] = rows
        self.usable[at] = usable
        self.held[at] = True

    def record(self, keys) -> None:
        """Add keys to `seen` in line order; the first seen before is a duplicate."""
        size = len(self.seen)
        if self.seen.isdisjoint(keys):
            self.seen.update(keys)
            if len(self.seen) == size + len(keys):
                return
            earlier = ()   # a key repeats within keys
        else:
            earlier = self.seen
        # Name the first key, in line order, seen before it.
        batch = set()
        for key in keys:
            if key in earlier or key in batch:
                raise DuplicateKeyError(key, self.path)
            batch.add(key)

    def block(self, buf, n: int, line_no: int) -> int:
        """Check the lines of buf[:n], numbered from line_no; return the next number.

        buf is scanned in place. A block that holds a "\\r", or that does not
        end in a "\\n", is copied with its line ends made "\\n" and scanned
        instead. No view of buf outlives the call. n is at least 1: `_blocks`
        yields no empty block, and an empty file is refused at its header.
        """
        if n > self.masks.shape[1]:
            self.masks = np.empty((3, n), dtype=bool)
        odd, space, starts = self.masks[:, :n]
        a = np.frombuffer(buf, dtype=np.uint8, count=n)
        # The odd bytes, below 32 when read as int8: the control bytes and those
        # from 0x80 up. Each "\n" is one of them, and a clean line holds no
        # other. DEL may stay: it is ASCII and not whitespace, so it decodes,
        # splits and lowers the same in `line`.
        np.less(a.view(np.int8), 32, out=odd)
        odd_at = np.flatnonzero(odd)
        odd_bytes = a[odd_at]
        if a[-1] != 10 or (odd_bytes == 13).any():
            return self.block(*_newlines(buf, n), line_no)
        is_end = odd_bytes == 10
        if is_end.all():
            ends, clean = odd_at, None
        else:
            ends = odd_at[is_end]
            clean = np.diff(np.flatnonzero(is_end), prepend=-1) == 1
        begins = np.empty_like(ends)
        begins[0] = 0
        np.add(ends[:-1], 1, out=begins[1:])
        # On a clean line the bytes <= 32 are spaces and its "\n", which are
        # all that str.split() takes for whitespace there. A line starts with a
        # token iff its first byte starts one, since the byte before it is a "\n".
        np.less_equal(a, 32, out=space)
        starts[0] = not space[0]
        np.greater(space[:-1], space[1:], out=starts[1:])
        # A line of m bytes before its "\n" holds at most (m + 1) // 2 tokens, so
        # uint16, which sums about twice as fast as int32, counts them exactly
        # while every line is shorter than 2**17 - 1 bytes.
        wide = np.uint16 if (ends - begins).max() < (1 << 17) - 1 else np.int32
        counts = np.add.reduceat(starts, begins, dtype=wide)
        fast = (counts == self.dim + 1) & starts[begins]
        blank = counts == 0
        if clean is not None:
            fast &= clean
            blank &= clean

        # A fast line's key runs from its first byte to its first space. The
        # line is ASCII, so the keys are cut out as bytes and lowered and
        # decoded together, and each key's length is its length in bytes.
        fast_lines = np.flatnonzero(fast)
        firsts = begins[fast_lines].tolist()
        find = buf.find
        keys = b"\n".join([buf[b:find(b" ", b)] for b in firsts]).lower().decode(
            "ascii").split("\n") if firsts else []
        if self.order is self.seen:
            kept = list(range(len(keys)))
        else:
            wanted = self.order.keys() & keys
            kept = [j for j, key in enumerate(keys) if key in wanted] if wanted else []
        stops = ends[fast_lines[kept]].tolist()
        lines = b"\n".join([buf[firsts[j] + len(keys[j]):e] for j, e in zip(kept, stops)])
        # The kept fast lines are parsed together; with none kept there is no
        # call, as numpy warns on empty input. If that fails, each goes to
        # `line`, in line order below, so the first error is raised.
        vectors = _parse(lines) if kept else None
        todo = np.flatnonzero(~(fast | blank))
        if kept and vectors is None:
            todo = np.union1d(todo, fast_lines[kept])
        # The other fast lines only record their keys, in a batch before the
        # next line in todo (at: the index among the fast lines it comes at, or
        # its own, whose key `line` records, when it is a refused fast line).
        at = np.searchsorted(fast_lines, todo).tolist()
        done = 0
        for i, j in zip(todo.tolist(), at):
            if j > done:
                self.record(keys[done:j])
            self.line(buf[begins[i]:ends[i]], line_no + i)
            done = j + 1 if fast[i] else j
        self.record(keys[done:])
        if vectors is not None:
            self.keep([keys[j] for j in kept], vectors)
        return line_no + len(ends)


class _Numbering(dict):
    """A set of keys that numbers them 0, 1, ... in the order they are added."""

    def update(self, keys) -> None:
        dict.update(self, zip(keys, range(len(self), len(self) + len(keys))))

    def isdisjoint(self, keys) -> bool:
        return self.keys().isdisjoint(keys)


def _newlines(buf, n: int) -> tuple:
    """buf[:n] with its "\\r\\n" and "\\r" line ends made "\\n", ending in one,
    and its length."""
    text = buf[:n].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not text.endswith(b"\n"):
        text += b"\n"
    return text, len(text)


def _parse(lines: bytes) -> np.ndarray | None:
    """The rows of whitespace-separated values in lines, or None if one is refused.

    lines is ASCII text, one row a line, the lines joined by "\\n". numpy's
    C text reader converts each token with the routine `float()` uses, and
    accepts a subset of what `float()` does (no underscores), so every row
    it returns has the bits `float()` gives. comments=None keeps
    "5#" from reading as 5.0. A non-finite value is refused too.
    """
    try:
        rows = np.loadtxt(io.BytesIO(lines), dtype=float, comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if np.isfinite(rows).all() else None
