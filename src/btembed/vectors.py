"""Embedding-space vectors tagged with their embedding's fingerprint, the check
that a vector fits its embedding, and the token probe rule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import SchemaMismatchError


def read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of `a`; the caller's own array stays writable."""
    view = a.view()
    view.flags.writeable = False
    return view


# Every decision splits here: the decoder's node probes, the parser's head
# labels and the transformer's gates and readout.
THRESHOLD = 0.5


def best_token(scores: np.ndarray) -> int | None:
    """Index of the highest probe score, lowest on ties, if strictly above THRESHOLD, else None."""
    best = int(np.argmax(scores))
    return best if scores[best] > THRESHOLD else None


@dataclass(frozen=True)
class BTVector:
    """A point in embedding space.

    The fingerprint records which embedding produced the vector so that
    operations refuse to mix vectors from incompatible embeddings. data is a
    read-only view, so vectors can share memory with each other and with the
    embedding without copies.
    """

    data: np.ndarray
    fingerprint: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("vector data must be one-dimensional")
        object.__setattr__(self, "data", read_only(arr))

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))


def checked_data(v: BTVector, fingerprint: str, dim: int) -> np.ndarray:
    """v's data, once v is shown to carry the fingerprint, `dim` entries and only finite values."""
    if v.fingerprint != fingerprint:
        raise SchemaMismatchError(
            f"vector fingerprint {v.fingerprint[:12]} does not match embedding {fingerprint[:12]}"
        )
    if v.dim != dim:
        raise SchemaMismatchError(f"vector has dim {v.dim}, embedding has dim {dim}")
    if not np.isfinite(v.data).all():
        raise ValueError("vector holds NaN or infinite values")
    return v.data
