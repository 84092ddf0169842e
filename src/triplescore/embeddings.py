"""Entity embedding store: textual word-vector loading and lookups.

Multi-word entities are bridged to single-token embedding keys by
normalization: lowercase, internal whitespace collapsed to underscores.
"United States of America" and "united_states_of_america" name the same
vector.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, DuplicateKeyError, MalformedLineError


def normalize_key(raw: str) -> str:
    """Lowercase and collapse whitespace runs to single underscores.

    Idempotent: normalize(normalize(x)) == normalize(x).
    """
    return "_".join(raw.lower().split())


class EmbeddingStore:
    """Immutable map from normalized entity key to a fixed-dimension vector.

    Safe for concurrent reads once constructed; loading is single-threaded.
    """

    def __init__(self, dim: int, entries: dict[str, np.ndarray]):
        if dim <= 0:
            raise DimensionMismatchError(f"dimension must be positive, got {dim}")
        for key, vec in entries.items():
            if vec.shape != (dim,):
                raise DimensionMismatchError(
                    f"vector for {key!r} has length {vec.shape[0]}, expected {dim}"
                )
        self.dim = dim
        self._entries = entries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return normalize_key(key) in self._entries

    def lookup(self, key: str) -> np.ndarray | None:
        """Vector for the normalized key, or None if unknown."""
        return self._entries.get(normalize_key(key))


def load_embeddings(path, keys=None) -> EmbeddingStore:
    """Load a textual word-vector file.

    Format: header line "<count> <dim>", then one "<key> <v1> ... <v_dim>"
    per line, space-separated. Keys contain no spaces. Duplicate keys are
    an error rather than last-wins so that runs stay reproducible, and so
    are nan or infinite components (including ones that overflow, such as
    1e999), which would otherwise reach the features as nan.

    With `keys`, only the vectors whose normalized key is among the
    normalized `keys` are parsed and stored. Every line still gets the
    token-count and duplicate-key checks and counts toward the header's
    entry count; the numeric and finiteness checks run on the kept lines.
    """
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
    return EmbeddingStore(dim, entries)
