"""The unit rows feature extraction read while the store held raw vectors.

`unit_rows` is `features._unit_rows` as it was then: a fresh copy of the
keys' raw rows, zero where a key is absent, unit-normalised in place a
chunk at a time. `RawStore` holds raw vectors and gathers them as
`EmbeddingStore.rows` did then. Both stay here, unchanged, as the
reference the store's unit rows and usable mask are checked against.
"""

import numpy as np

from triplescore.features import _per_chunk


class RawStore:
    """Raw vectors by normalized key, with the store's former gather."""

    def __init__(self, dim: int, vectors: dict):
        self.dim = dim
        self.vectors = np.array(list(vectors.values()), dtype=float).reshape(len(vectors), dim)
        self._index = {key: i for i, key in enumerate(vectors)}

    def rows(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Fresh copies of normalized keys' rows, zero where absent, and which are held."""
        at = np.array([self._index.get(key, -1) for key in keys], dtype=np.intp)
        held = at >= 0
        if not len(self._index):   # take() raises on an empty axis
            return np.zeros((len(at), self.dim)), held
        rows = self.vectors.take(at, axis=0)
        rows[~held] = 0.0
        return rows, held


def unit_rows(store, keys) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalised rows of the normalized keys' vectors, and which rows are usable.

    A vector is usable iff the store holds it and its norm is a positive
    finite number. This one rule decides the similarity flags, the ops
    terms and the ops_terms flag. The rows of unusable vectors are zero.
    """
    rows, usable = store.rows(keys)
    step = _per_chunk(8 * store.dim)
    for i in range(0, len(rows), step):
        part = rows[i:i + step]
        norms = np.linalg.norm(part, axis=1)
        ok = usable[i:i + step] = (norms > 0.0) & np.isfinite(norms)
        part /= np.where(ok, norms, 1.0)[:, None]
        part[~ok] = 0.0
    return rows, usable


def units(vectors) -> np.ndarray:
    """The reference unit rows of a list of raw vectors of one length, in order."""
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    keys = [str(i) for i in range(len(vectors))]
    return unit_rows(RawStore(len(vectors[0]), dict(zip(keys, vectors))), keys)[0]
