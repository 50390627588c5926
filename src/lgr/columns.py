"""Column store and exact top-k shared by the entity graph and caption store.

Both stores keep one row per item in columns: a float32 embedding column
(the stored vectors, exactly), float64 x, y, z and time columns, and an
int64 id column. Rows stay in ascending id order, so a row is found from
its id by binary search and the row order doubles as the id order.

Cosine scores are the clipped float64 dot products of the stored rows with
the query, computed with ``row_dots``. A scan gets them by filter and
refine: it scores every row in float32 (BLAS, the query rounded to
float32), keeps the rows whose float32 score is within a proven error
bound of the cut, and rescores only those in float64. ``row_dots`` bits
depend only on row content, so the refined scores, ids and order are the
same as a full float64 scan would give.
"""

from __future__ import annotations

import math
import threading
from operator import attrgetter
from typing import Callable, Iterable

import numpy as np

from .embedding import row_dots
from .model import Config

_GROW = 64
_CHUNK = 4096  # rows rescored per float64 block, so a wide refine stays small
_F32 = np.dtype(np.float32)
_U32, _U64 = 2.0**-24, 2.0**-53  # unit roundoff of float32 and float64
_TINY = 2.0**-149  # twice the largest error of one float32 (or float64) underflow
_ROUND_UP = 1.0 + 2.0**-20  # covers the float64 rounding in computing a bound


def check_dim(embedding, dim: int) -> np.ndarray:
    """The embedding as a float64 vector of length ``dim``, else ValueError."""
    e = np.asarray(embedding, dtype=np.float64)
    if e.shape != (dim,):
        raise _dim_error(dim, e.shape)
    return e


def _dim_error(dim: int, shape) -> ValueError:
    return ValueError(f"embedding dimension mismatch: expected {dim}, got {shape}")


def _gamma(d: int, u: float) -> float:
    """Relative error bound of a d-term dot product with unit roundoff u,
    in any summation order (Higham 2002, §3.1); inf when d*u >= 1/2."""
    return d * u / (1.0 - d * u) if d * u < 0.5 else math.inf


def _norm_bound(max_sq: float, dim: int) -> float:
    """An upper bound on the L2 norms of rows whose largest squared norm,
    summed in float32, came out as ``max_sq``."""
    return math.sqrt((max_sq + dim * _TINY) * (1.0 + 2.0 * _gamma(dim, _U32))) * _ROUND_UP


def _clip_unit(s: np.ndarray) -> np.ndarray:
    """``np.clip(s, -1, 1)`` in place, the same bits with less call overhead."""
    return np.minimum(np.maximum(s, -1.0, out=s), 1.0, out=s)


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
    ``norm_bound`` is at least the L2 norm of every stored embedding (NaN
    or inf once a row is not finite); the cosine filter's bound uses it.
    """

    def __init__(self, dim: int, capacity: int = 0):
        self.size = 0
        self.emb = np.empty((capacity, dim), np.float32)
        self.x, self.y, self.z, self.time = (np.empty(capacity, np.float64) for _ in range(4))
        self.ids = np.empty(capacity, np.int64)
        self.norm_bound = 0.0
        # the parts of the cosine bound that depend on the dimension alone
        self._rel_err = _gamma(dim, _U32) * (1.0 + _U32) + _U32 + _gamma(dim, _U64)
        self._tiny = dim * _TINY

    def append(self, id_: int, *values) -> None:
        """Add a row (emb, x, y, z, t); ``id_`` must be above every stored id."""
        row = self.size
        if row == self.ids.shape[0]:
            self._grow(row + max(_GROW, row))
        self.write(row, *values)
        self.ids[row] = id_
        self.size = row + 1

    def write(self, row: int, emb, x: float, y: float, z: float, t: float) -> None:
        e = self.emb[row]
        e[...] = emb
        self.bound_norms(float(np.dot(e, e)))
        self.x[row], self.y[row], self.z[row], self.time[row] = x, y, z, t

    def bound_norms(self, max_sq: float) -> None:
        """Widen ``norm_bound`` to rows whose largest float32 squared norm is
        ``max_sq``; ``np.maximum`` keeps a NaN."""
        self.norm_bound = float(np.maximum(self.norm_bound, _norm_bound(max_sq, self.emb.shape[1])))

    def row_of(self, id_: int) -> int:
        row = int(np.searchsorted(self.ids[: self.size], id_))
        if row == self.size or self.ids[row] != id_:
            raise KeyError(id_)
        return row

    def top_cosine(self, q, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows and scores of the k highest cosine scores, ties by ascending id.

        The k-th float32 score less twice the bound cuts the candidates: a
        row of the float64 top k, or tied with its k-th, scores at least
        that in float32. Every row is rescored when the store holds no
        more than k rows or no bound holds.
        """
        q64 = check_dim(q, self.emb.shape[1])
        n = self.size
        rows = None
        if 1 <= k < n:
            eps = self._eps(q64)
            if eps < 1.0:
                s32 = self._scores32(q64)
                kth = -np.partition(-s32, k - 1)[k - 1]
                rows = np.flatnonzero(s32 >= np.nextafter(float(kth) - 2.0 * eps, -np.inf))
        if rows is None:
            rows = np.arange(n)
        s = self._refine(rows, q64)
        top = topk(-s, self.ids[rows], k)
        return rows[top], s[top]

    def cosine_above(self, q, floor: float, mask: np.ndarray) -> np.ndarray:
        """Rows in ``mask`` whose cosine score is strictly above ``floor``.

        ``mask`` is consumed. Only rows whose float32 score is at least
        ``floor`` less the bound are rescored, or every masked row when no
        bound holds.
        """
        q64 = check_dim(q, self.emb.shape[1])
        eps = self._eps(q64)
        if eps < 1.0:
            mask &= self._scores32(q64) >= np.nextafter(floor - eps, -np.inf)
        rows = np.flatnonzero(mask)
        return rows[self._refine(rows, q64) > floor]

    def _eps(self, q64: np.ndarray) -> float:
        """A bound on |float32 score - float64 score| over every row, both clipped.

        It sums the float32 dot product's rounding (with ``||q32|| <= (1 +
        u) ||q||``), the query's rounding to float32, the float64 dot
        product's own rounding, and underflow in either. It is NaN or at
        least 1 when the query or a row is not finite, or so large that
        the float32 pass could overflow: then no float32 pass is made.
        """
        m = self.norm_bound
        nq = math.sqrt(np.einsum("i,i", q64, q64))  # einsum: NaN or inf with no warning
        return (self._rel_err * m * nq + (1.0 + m) * self._tiny) * _ROUND_UP

    def _scores32(self, q64: np.ndarray) -> np.ndarray:
        """Clipped float32 scores of every row, the query rounded to float32."""
        return _clip_unit(self.emb[: self.size] @ q64.astype(np.float32))

    def _refine(self, rows: np.ndarray, q64: np.ndarray) -> np.ndarray:
        """Clipped float64 ``row_dots`` scores of ``rows``, a block at a time."""
        s = np.empty(rows.shape[0])
        for i in range(0, rows.shape[0], _CHUNK):
            part = rows[i : i + _CHUNK]
            s[i : i + part.shape[0]] = row_dots(self.emb[part].astype(np.float64), q64)
        return _clip_unit(s)

    def distance(self, p) -> np.ndarray:
        """L2 distance over x, y, z, summed left to right as a row sum would."""
        n = self.size
        px, py, pz = (float(v) for v in p)
        return np.sqrt((self.x[:n] - px) ** 2 + (self.y[:n] - py) ** 2 + (self.z[:n] - pz) ** 2)

    def top_distance(self, p, k: int) -> tuple[np.ndarray, np.ndarray]:
        return self._smallest(self.distance(p), k)

    def top_time_gap(self, t: float, k: int) -> tuple[np.ndarray, np.ndarray]:
        return self._smallest(np.abs(self.time[: self.size] - float(t)), k)

    def _smallest(self, s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        rows = topk(s, self.ids[: self.size], k)
        return rows, s[rows]

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

    def _top(self, rank: Callable, arg, k: int) -> list:
        """(item, score) pairs of the k rows ``rank(columns, arg, k)`` picks,
        in its order."""
        with self._lock:
            rows, s = rank(self._cols, arg, k)
            return [(self._items[r], v) for r, v in zip(rows.tolist(), s.tolist())]

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
        embs = [v[0] for v in values]
        kinds = {(e.shape, e.dtype) for e in embs}
        for shape, _ in kinds:
            if shape != (dim,):
                raise _dim_error(dim, shape)
        for _, dtype in kinds:
            if dtype != _F32:
                raise ValueError(f"{cls._WHAT} embeddings must be float32, got {dtype}")
        if n:  # one copy into the column, through a flat view of its rows
            np.concatenate(embs, out=cols.emb[:n].reshape(-1))
            cols.bound_norms(float(np.einsum("ij,ij->i", cols.emb[:n], cols.emb[:n]).max()))
        for i, col in enumerate((cols.x, cols.y, cols.z, cols.time), 1):
            col[:n] = np.fromiter((v[i] for v in values), np.float64, n)
        cols.ids[:n] = ids
        cols.size = n
        return store
