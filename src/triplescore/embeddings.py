"""Entity embedding store: textual word-vector loading and lookups.

Multi-word entities are bridged to single-token embedding keys by
normalization: lowercase, internal whitespace collapsed to underscores.
"United States of America" and "united_states_of_america" name the same
vector.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import DimensionMismatchError, DuplicateKeyError, MalformedLineError


def normalize_key(raw: str) -> str:
    """Lowercase and collapse whitespace runs to single underscores.

    Idempotent: normalize(normalize(x)) == normalize(x).
    """
    return "_".join(raw.lower().split())


class EmbeddingStore:
    """Immutable map from normalized key to a row of one read-only (n, dim) matrix.

    Safe for concurrent reads once constructed; loading is single-threaded.
    """

    def __init__(self, keys, vectors):
        vectors = np.asarray(vectors, dtype=float)
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
        self.dim = dim
        self.vectors = vectors.view()
        self.vectors.flags.writeable = False
        self._index = index

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return normalize_key(key) in self._index

    def lookup(self, key: str) -> np.ndarray | None:
        """Read-only vector for the normalized key, or None if unknown."""
        i = self._index.get(normalize_key(key))
        return None if i is None else self.vectors[i]

    def rows(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Fresh copies of normalized keys' rows, zero where absent, and which are held."""
        at = np.array([self._index.get(key, -1) for key in keys], dtype=np.intp)
        held = at >= 0
        if not len(self._index):   # take() raises on an empty axis
            return np.zeros((len(at), self.dim)), held
        rows = self.vectors.take(at, axis=0)
        rows[~held] = 0.0
        return rows, held


# Bytes per read. A block is cut after its last line end, so a line longer
# than this is read across several reads and scanned whole.
_BLOCK_BYTES = 1 << 16


def load_embeddings(path, keys=None) -> EmbeddingStore:
    """Load a textual word-vector file.

    Format: header line "<count> <dim>", both at least 1, then one
    "<key> <v1> ... <v_dim>" per line, space-separated. Keys contain no
    spaces. Duplicate keys are an error rather than last-wins so that runs
    stay reproducible, and so are nan or infinite components (including
    ones that overflow, such as 1e999), which would otherwise reach the
    features as nan.

    With `keys`, a set or dict of normalized keys (such as a `KeyPlan`'s
    `rows`), only the vectors whose normalized key is in `keys` are parsed
    and stored; `keys` is read as it is, not copied. Every line still gets
    the token-count and duplicate-key checks and counts toward the header's
    entry count; the numeric and finiteness checks run on the kept lines.

    The file must be UTF-8; lines end at "\\n", "\\r\\n" or "\\r", and
    tokens are separated by whitespace as `str.split()` defines it.
    """
    with open(path, "rb") as fh:
        blocks = _blocks(fh)
        first = next(blocks, b"")
        end = re.search(rb"\r\n?|\n", first)
        header = _decode(first[: end.start()] if end else first, path, 1)
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

        loader = _Loader(path, dim, keys)
        line_no = loader.block(first[end.end():] if end else b"", 2)
        for block in blocks:
            line_no = loader.block(block, line_no)

    if len(loader.seen) != count:
        raise MalformedLineError(
            path, 1, f"header declares {count} entries, file holds {len(loader.seen)}"
        )
    return EmbeddingStore(loader.keys, np.concatenate(loader.vectors or [np.empty((0, dim))]))


def _blocks(fh):
    """Read fh in blocks that each start a line and end one (the last may not)."""
    parts = []
    while data := fh.read(_BLOCK_BYTES):
        # Cut after the last "\n", or after a "\r" whose next byte is read
        # and so is not the "\n" of a "\r\n": no line end is split.
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        if cut:
            parts.append(data[:cut])
            yield b"".join(parts)
            parts = [data[cut:]]
        else:
            parts.append(data)
    tail = b"".join(parts)
    if tail:
        yield tail


def _decode(raw: bytes, path, line_no) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedLineError(path, line_no, "not valid UTF-8") from None


class _Loader:
    """The checks of the lines after the header, and the vectors they keep.

    `line` checks one line as text. `block` turns a block's "\\r\\n" and
    "\\r" line ends into "\\n", scans its lines with numpy and passes to
    `line` only the lines it cannot vouch for. A line of printable ASCII
    that starts with its key and holds 1 + dim tokens splits the same as
    bytes and as text, so the scan reads its key, and its values are
    read only when the key is kept: a block's kept lines go to numpy's C
    text reader in one call (`_parse`). If it refuses one of them, each
    kept line is parsed on its own with `float()` by `entry`, in line
    order, so a value only `float()` accepts (such as "1_0") still loads
    and the first bad line is the one named.
    """

    def __init__(self, path, dim: int, wanted):
        self.path = path
        self.dim = dim
        self.wanted = wanted
        self.keys: list[str] = []
        self.vectors: list[np.ndarray] = []
        self.seen: set[str] = set()

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
        self.entry(tokens[0].lower(), tokens[1:], line_no)

    def entry(self, key: str, values: list[str], line_no: int) -> None:
        self.record((key,))
        if self.wanted is not None and key not in self.wanted:
            return
        try:
            vec = np.array(values, dtype=float)
        except ValueError:
            raise MalformedLineError(self.path, line_no, "non-numeric vector component") from None
        if not np.isfinite(vec).all():
            raise MalformedLineError(self.path, line_no, "non-finite vector component")
        self.keys.append(key)
        self.vectors.append(vec[None])

    def record(self, keys) -> None:
        """Add keys to `seen` in line order; one seen before is a duplicate."""
        batch = set(keys)
        if len(batch) == len(keys) and self.seen.isdisjoint(batch):
            self.seen |= batch
            return
        for key in keys:
            if key in self.seen:
                raise DuplicateKeyError(key, self.path)
            self.seen.add(key)

    def block(self, buf: bytes, line_no: int) -> int:
        """Check the lines of buf, numbered from line_no; return the next number."""
        if not buf:
            return line_no
        if b"\r" in buf:
            buf = buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if not buf.endswith(b"\n"):
            buf += b"\n"
        a = np.frombuffer(buf, dtype=np.uint8)
        # The bytes outside printable ASCII (found by uint8 wrap-around); each
        # "\n" is one of them, and a clean line holds no other.
        odd = np.flatnonzero(a - np.uint8(32) > 94)
        is_end = a[odd] == 10
        ends = odd[is_end]
        clean = np.diff(np.flatnonzero(is_end), prepend=-1) == 1
        begins = np.concatenate(([0], ends[:-1] + 1))
        # On a clean line the bytes <= 32 are spaces and its "\n", which are
        # all that str.split() takes for whitespace there.
        space = a <= 32
        starts = np.empty_like(space)
        starts[0] = not space[0]
        np.greater(space[:-1], space[1:], out=starts[1:])
        counts = np.add.reduceat(starts, begins, dtype=np.int32)
        blank = clean & (counts == 0)
        fast = clean & (counts == self.dim + 1) & ~space[begins]

        # A fast line's key runs from its first byte to its first space.
        # latin-1 maps each byte to one character, so offsets carry over.
        text = buf.decode("latin-1")
        fast_lines = np.flatnonzero(fast)
        spans = list(zip(begins[fast_lines].tolist(), ends[fast_lines].tolist()))
        keys = [text[b:text.find(" ", b)].lower() for b, _ in spans]

        def values(j):
            b, e = spans[j]
            return text[b + len(keys[j]):e]

        wanted = self.wanted
        kept = [j for j, key in enumerate(keys) if wanted is None or key in wanted]
        # The kept fast lines are parsed together; with none kept there is no
        # call, as numpy warns on empty input. If that fails, each is parsed
        # on its own, in line order below, so the first error is raised.
        vectors = _parse([values(j) for j in kept]) if kept else None
        todo = np.flatnonzero(~(fast | blank))
        if kept and vectors is None:
            todo = np.union1d(todo, fast_lines[kept])
        # The other fast lines only record their keys, in a batch before the
        # next line in todo (at: the index among the fast lines it comes at).
        at = np.searchsorted(fast_lines, todo).tolist()
        done = 0
        for i, j in zip(todo.tolist(), at):
            if j > done:
                self.record(keys[done:j])
            if fast[i]:
                self.entry(keys[j], values(j).split(), line_no + i)
                done = j + 1
            else:
                self.line(buf[begins[i]:ends[i]], line_no + i)
                done = j
        self.record(keys[done:])
        if vectors is not None:
            self.keys += [keys[j] for j in kept]
            self.vectors.append(vectors)
        return line_no + len(ends)


def _parse(lines: list[str]) -> np.ndarray | None:
    """The rows of whitespace-separated values in lines, or None if one is refused.

    numpy's C text reader converts each token with the routine `float()`
    uses, and accepts a subset of what `float()` does (no underscores), so
    every row it returns has the bits `float()` gives. comments=None keeps
    "5#" from reading as 5.0. A non-finite value is refused too.
    """
    try:
        rows = np.loadtxt(lines, dtype=float, comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if np.isfinite(rows).all() else None
