"""Column store and exact top-k shared by the entity graph and caption store.

Both stores keep one row per item in float64 columns (embedding, x, y, z,
time) plus an int64 id column, and rank rows with the same three scans.
Rows stay in ascending id order, so a row is found from its id by binary
search and the row order doubles as the id order.
"""

from __future__ import annotations

import threading
from operator import attrgetter
from typing import Callable, Iterable

import numpy as np

from .embedding import row_dots
from .model import Config

_GROW = 64
_F32 = np.dtype(np.float32)


def check_dim(embedding, dim: int) -> np.ndarray:
    """The embedding as a float64 vector of length ``dim``, else ValueError."""
    e = np.asarray(embedding, dtype=np.float64)
    if e.shape != (dim,):
        raise _dim_error(dim, e.shape)
    return e


def _dim_error(dim: int, shape) -> ValueError:
    return ValueError(f"embedding dimension mismatch: expected {dim}, got {shape}")


def topk(key: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Rows of the k smallest keys, ties broken by ascending id.

    Equal to ``np.lexsort((ids, key))[:k]``. A partition finds the k-th
    key; every row whose key is not above it is a candidate, so rows tied
    with the k-th key all compete on id, and only the candidates are
    sorted. ``not >`` rather than ``<=`` also keeps NaN keys, so a NaN
    k-th key falls back to sorting every row, as lexsort would.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= key.shape[0]:
        return np.lexsort((ids, key))
    kth = key[np.argpartition(key, k - 1)[k - 1]]
    cand = np.flatnonzero(~(key > kth))
    return cand[np.lexsort((ids[cand], key[cand]))[:k]]


class Columns:
    """Growable row-aligned columns; the owning store holds the lock.

    Capacity beyond ``size`` comes from ``np.empty`` and is never written
    until a row lands there, so unused headroom costs no resident memory.
    """

    def __init__(self, dim: int, capacity: int = 0):
        self.size = 0
        self.emb = np.empty((capacity, dim), np.float64)
        self.x, self.y, self.z, self.time = (np.empty(capacity, np.float64) for _ in range(4))
        self.ids = np.empty(capacity, np.int64)

    def append(self, id_: int, *values) -> None:
        """Add a row (emb, x, y, z, t); ``id_`` must be above every stored id."""
        row = self.size
        if row == self.ids.shape[0]:
            self._grow(row + max(_GROW, row))
        self.write(row, *values)
        self.ids[row] = id_
        self.size = row + 1

    def write(self, row: int, emb, x: float, y: float, z: float, t: float) -> None:
        self.emb[row] = emb
        self.x[row], self.y[row], self.z[row], self.time[row] = x, y, z, t

    def row_of(self, id_: int) -> int:
        row = int(np.searchsorted(self.ids[: self.size], id_))
        if row == self.size or self.ids[row] != id_:
            raise KeyError(id_)
        return row

    def cosine(self, q) -> np.ndarray:
        e = check_dim(q, self.emb.shape[1])
        return np.clip(row_dots(self.emb[: self.size], e), -1.0, 1.0)

    def distance(self, p) -> np.ndarray:
        """L2 distance over x, y, z, summed left to right as a row sum would."""
        n = self.size
        px, py, pz = (float(v) for v in p)
        return np.sqrt((self.x[:n] - px) ** 2 + (self.y[:n] - py) ** 2 + (self.z[:n] - pz) ** 2)

    def time_gap(self, t: float) -> np.ndarray:
        return np.abs(self.time[: self.size] - float(t))

    def _grow(self, capacity: int) -> None:
        """Move every column to ``capacity`` rows, copying only used rows."""
        n = self.size
        for name in ("emb", "x", "y", "z", "time", "ids"):
            old = getattr(self, name)
            new = np.empty((capacity,) + old.shape[1:], old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)


class RowStore:
    """Single-writer, many-reader store of items, one per column row.

    All mutation happens under ``_lock``. ``_items[row]`` is the item behind
    row ``row`` of ``_cols``; ids only grow, so rows stay in id order.
    Subclasses name the id attribute (``_ID``), the item kind for errors
    (``_WHAT``) and map an item to its column values (``_values``).
    """

    _ID: str
    _WHAT: str
    _values: Callable[[object], tuple]  # (embedding, x, y, z, time) of an item

    def __init__(self, cfg: Config):
        self._cfg = cfg
        self._lock = threading.Lock()
        self._items: list = []
        self._next_id = 1
        self._cols = Columns(cfg.embedding_dim)

    @property
    def cfg(self) -> Config:
        return self._cfg

    @property
    def next_id(self) -> int:
        with self._lock:
            return self._next_id

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def _get(self, id_: int):
        with self._lock:
            try:
                return self._items[self._cols.row_of(id_)]
            except KeyError:
                raise KeyError(f"no such {self._WHAT}: {id_}") from None

    def _all(self) -> list:
        """Items in creation order (ascending id)."""
        with self._lock:
            return list(self._items)

    def _add(self, item) -> None:
        """Append a new item; call with the lock held."""
        self._items.append(item)
        self._cols.append(getattr(item, self._ID), *self._values(item))

    def _top(self, score: Callable, arg, k: int, descending: bool = False) -> list:
        """(item, score) pairs of the k rows ranked by ``score(columns, arg)``,
        ties broken by ascending id."""
        with self._lock:
            s = score(self._cols, arg)
            rows = topk(-s if descending else s, self._cols.ids[: self._cols.size], k)
            return [(self._items[r], v) for r, v in zip(rows.tolist(), s[rows].tolist())]

    @classmethod
    def restore(cls, cfg: Config, items: Iterable, next_id: int | None = None):
        """Rebuild a store from persisted items without re-ingesting.

        Every column is allocated once, with as much headroom as rows.
        ``next_id`` must exceed every stored id; it defaults to one above.
        """
        store = cls(cfg)
        store._items = ordered = sorted(items, key=attrgetter(cls._ID))
        n, dim = len(ordered), cfg.embedding_dim
        ids = np.fromiter(map(attrgetter(cls._ID), ordered), np.int64, n)
        dup = ids[1:][ids[1:] == ids[:-1]]
        if dup.size:
            raise ValueError(f"duplicate {cls._ID} {dup[0]}")
        top = int(ids[-1]) if n else 0
        if next_id is None:
            next_id = top + 1
        elif next_id < 1 or next_id <= top:
            raise ValueError(f"next_id {next_id} must be >= 1 and above the largest id {top}")
        store._next_id = next_id
        cols = store._cols = Columns(dim, n + max(_GROW, n))
        values = list(map(cls._values, ordered))
        for row, v in enumerate(values):
            if v[0].shape != (dim,):
                raise _dim_error(dim, v[0].shape)
            if v[0].dtype != _F32:
                raise ValueError(f"{cls._WHAT} embeddings must be float32, got {v[0].dtype}")
            cols.emb[row] = v[0]
        for i, col in enumerate((cols.x, cols.y, cols.z, cols.time), 1):
            col[:n] = np.fromiter((v[i] for v in values), np.float64, n)
        cols.ids[:n] = ids
        cols.size = n
        return store
