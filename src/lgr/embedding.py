"""Text-embedding providers and the similarity math built on them.

No real sentence encoder ships with the engine. Providers form an adapter
boundary: a live encoder can be plugged in behind ``EmbeddingProvider``,
while the bundled providers keep every test deterministic and byte-identical
across platforms.
"""

from __future__ import annotations

import hashlib
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from pathlib import Path
from typing import Mapping

import numpy as np

_U64_SCALE = 2.0**-64
_SEED_MASK = 0xFFFFFFFFFFFFFFFF
_CACHE_TEXTS = 8192  # texts each HashProvider keeps, least recently used evicted first


def l2_normalize(values) -> np.ndarray:
    """Normalize to unit length in float64, stored as float32.

    Float32 storage keeps serialized vectors bit-exact; the norm of the
    result stays within 1e-6 of 1.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot normalize a vector with non-finite values")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    out = (v / norm).astype(np.float32)
    out.setflags(write=False)
    return out


def row_dots(matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Per-row dot products whose bits depend only on row content.

    BLAS matrix-vector kernels pick summation orders by memory alignment,
    which can leave identical rows with last-ulp score differences and so
    scramble deterministic tie-breaks downstream; einsum reduces every row
    the same way.
    """
    return np.einsum("ij,j->i", matrix, vec)


class EmbeddingProvider(ABC):
    """Deterministic text encoder: same text, same instance, same vector."""

    @abstractmethod
    def embed(self, text: str) -> np.ndarray:
        """Return the unit-norm embedding of ``text``."""

    @abstractmethod
    def dimension(self) -> int:
        """Width of every vector this provider emits."""


class HashProvider(EmbeddingProvider):
    """Pseudo-random unit embeddings keyed on (seed, text).

    Component block ``i`` (eight components) is the 64-byte keyed BLAKE2b
    digest of the UTF-8 text followed by ``i`` as eight little-endian
    bytes, so identical (seed, text) pairs produce byte-identical vectors
    on every platform and run. BLAKE2 absorbs its input in order, so the
    text is hashed once and each block finishes a copy of that state with
    its counter. Each instance keeps the vectors of its ``_CACHE_TEXTS``
    most recently embedded texts. Useful as a stand-in encoder: distinct
    texts land nearly orthogonal, identical texts coincide exactly.
    """

    def __init__(self, seed: int = 0, dim: int = 384):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self._seed = int(seed) & _SEED_MASK
        self._dim = dim
        self._key = self._seed.to_bytes(8, "little")
        self._counters = [i.to_bytes(8, "little") for i in range(-(-dim // 8))]
        self._cache: OrderedDict[str, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()  # readers and the ingest thread may share a provider

    @property
    def seed(self) -> int:
        return self._seed

    def dimension(self) -> int:
        return self._dim

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValueError("cannot embed empty text")
        cache = self._cache
        with self._lock:
            vec = cache.pop(text, None)  # pop and re-insert: most recent last
            if vec is None:
                vec = self._hash(text)
                if len(cache) >= _CACHE_TEXTS:
                    cache.popitem(last=False)
            cache[text] = vec
        return vec

    def _hash(self, text: str) -> np.ndarray:
        h = hashlib.blake2b(text.encode("utf-8"), digest_size=64, key=self._key)
        digests = []
        for counter in self._counters:
            block = h.copy()
            block.update(counter)
            digests.append(block.digest())
        words = np.frombuffer(b"".join(digests), "<u8", count=self._dim).astype(np.float64)
        return l2_normalize(words * _U64_SCALE * 2.0 - 1.0)  # uniform in [-1, 1)


class FixtureProvider(EmbeddingProvider):
    """Table-backed provider; unseen text routes to a hash fallback.

    Table entries dominate. Vectors are normalized on construction so the
    provider contract holds even for hand-written tables.
    """

    def __init__(
        self,
        table: Mapping[str, object],
        fallback: HashProvider | None = None,
        dim: int | None = None,
    ):
        normalized: dict[str, np.ndarray] = {}
        for text, values in table.items():
            if not text:
                raise ValueError("fixture table keys must be non-empty text")
            normalized[text] = l2_normalize(values)
        dims = {v.shape[0] for v in normalized.values()}
        if len(dims) > 1:
            raise ValueError(f"fixture table mixes dimensions: {sorted(dims)}")
        if dim is None:
            if dims:
                dim = dims.pop()
            elif fallback is not None:
                dim = fallback.dimension()
            else:
                raise ValueError("empty table needs an explicit dim or a fallback")
        elif dims and dims != {dim}:
            raise ValueError(f"table dimension {dims.pop()} != requested dim {dim}")
        if fallback is None:
            fallback = HashProvider(seed=0, dim=dim)
        elif fallback.dimension() != dim:
            raise ValueError(
                f"fallback dimension {fallback.dimension()} != table dimension {dim}"
            )
        self._table = normalized
        self._fallback = fallback
        self._dim = dim

    @property
    def table(self) -> dict[str, np.ndarray]:
        return dict(self._table)

    @property
    def fallback(self) -> HashProvider:
        return self._fallback

    def dimension(self) -> int:
        return self._dim

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValueError("cannot embed empty text")
        hit = self._table.get(text)
        if hit is not None:
            return hit
        return self._fallback.embed(text)


def load_fixture_table(path: str | Path) -> dict[str, np.ndarray]:
    """Read a fixture table: one record per line, ``text<TAB>v1,v2,...``.

    Blank lines and lines starting with ``#`` are skipped. Vectors are
    returned un-normalized (FixtureProvider normalizes on construction),
    but one that ``l2_normalize`` refuses is refused here, with its line.
    """
    table: dict[str, np.ndarray] = {}
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            text, sep, rest = line.partition("\t")
            if not sep or not text:
                raise ValueError(
                    f"{path}:{lineno}: expected 'text<TAB>v1,v2,...'"
                )
            try:
                values = np.array(
                    [float(tok) for tok in rest.split(",")], dtype=np.float64
                )
                l2_normalize(values)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad vector value: {exc}") from None
            if text in table:
                raise ValueError(f"{path}:{lineno}: duplicate key {text!r}")
            table[text] = values
    return table


def save_fixture_table(table: Mapping[str, object], path: str | Path) -> None:
    """Write a fixture table in the ``text<TAB>v1,v2,...`` line format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for text, values in table.items():
            vec = np.asarray(values, dtype=np.float64)
            fh.write(text + "\t" + ",".join(repr(float(x)) for x in vec) + "\n")
