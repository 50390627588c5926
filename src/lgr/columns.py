"""Column store and exact top-k shared by the entity graph and caption store.

Both stores keep one row per item in columns: float32 embeddings (the
stored vectors, exactly), float64 x, y, z and time columns, and an int64
id column. Rows stay in ascending id order, so a row is found from its id
by binary search and the row order doubles as the id order.

Each embedding is stored once, in a list of float32 chunks that are never
reallocated. A restored store's first chunk is its whole embedding block:
a loaded snapshot's read-only block is adopted as it is, and ``restore``
copies the items' vectors into one. Appended rows fill chunks of
``_CHUNK`` rows, allocated when the first row lands in them, and the
items that ingest creates hold read-only views of their chunk row. An
embedding is fixed at creation; updates rewrite only x, y, z and time.

Cosine scores are the clipped float64 dot products of the stored rows with
the query, computed with ``row_dots``. A scan gets them by filter and
refine: it scores every row in float32 (BLAS, chunk by chunk into one
score vector, the query rounded to float32), keeps the rows whose float32
score is within a proven error bound of the cut, and rescores only those
in float64, gathered from their chunks. ``row_dots`` bits depend only on
row content, so the refined scores, ids and order are the same as a full
float64 scan would give.
"""

from __future__ import annotations

import math
import threading
from dataclasses import replace
from operator import attrgetter
from typing import Callable, Iterable

import numpy as np

from .embedding import row_dots
from .model import Config

_GROW = 64
_CHUNK = 4096  # rows per appended embedding chunk, and per float64 refine block
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
    """Row-aligned columns; the owning store holds the lock.

    ``chunks[i]`` holds the float32 embeddings of the rows from
    ``starts[i]`` on. Every chunk holds at least one used row, and no chunk
    is ever reallocated or written twice, so views of its rows stay valid.
    The first chunk of a restored store is its whole embedding block; each
    later one holds ``_CHUNK`` rows. The x, y, z, time and id columns grow
    by doubling. Chunk rows and capacity beyond ``size`` come from
    ``np.empty`` and are never written until a row lands there, so unused
    headroom costs no resident memory. ``norm_bound`` is at least the L2
    norm of every stored embedding (NaN or inf once a row is not finite);
    the cosine filter's bound uses it.
    """

    def __init__(self, dim: int, capacity: int = 0):
        self.size = 0
        self.dim = dim
        self.chunks: list[np.ndarray] = []
        self.starts: list[int] = []
        self.x, self.y, self.z, self.time = (np.empty(capacity, np.float64) for _ in range(4))
        self.ids = np.empty(capacity, np.int64)
        self.norm_bound = 0.0
        # the parts of the cosine bound that depend on the dimension alone
        self._rel_err = _gamma(dim, _U32) * (1.0 + _U32) + _U32 + _gamma(dim, _U64)
        self._tiny = dim * _TINY

    def adopt(self, block: np.ndarray) -> None:
        """Take ``block``, the (n, dim) float32 embeddings of rows 0..n-1 of
        an empty store, as its first chunk, without copying it."""
        if block.shape[0]:
            self.chunks, self.starts = [block], [0]
            self.bound_norms(float(np.einsum("ij,ij->i", block, block).max()))

    def append(self, id_: int, emb, x: float, y: float, z: float, t: float) -> np.ndarray:
        """Add a row and return a read-only view of its stored embedding;
        ``id_`` must be above every stored id."""
        row = self.size
        if row == self.ids.shape[0]:
            self._grow(row + max(_GROW, row))
        if not self.chunks or row == self.starts[-1] + self.chunks[-1].shape[0]:
            self.chunks.append(np.empty((_CHUNK, self.dim), np.float32))
            self.starts.append(row)
        e = self.chunks[-1][row - self.starts[-1]]
        e[...] = emb
        self.bound_norms(float(np.dot(e, e)))
        self.write(row, x, y, z, t)
        self.ids[row] = id_
        self.size = row + 1
        e.flags.writeable = False
        return e

    def write(self, row: int, x: float, y: float, z: float, t: float) -> None:
        """Set a row's position and time; its embedding is fixed at creation."""
        self.x[row], self.y[row], self.z[row], self.time[row] = x, y, z, t

    def bound_norms(self, max_sq: float) -> None:
        """Widen ``norm_bound`` to rows whose largest float32 squared norm is
        ``max_sq``; ``np.maximum`` keeps a NaN."""
        self.norm_bound = float(np.maximum(self.norm_bound, _norm_bound(max_sq, self.dim)))

    def blocks(self) -> list[np.ndarray]:
        """The used rows of every chunk, in row order."""
        return [c[: self.size - s] for c, s in zip(self.chunks, self.starts)]

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
        q64 = check_dim(q, self.dim)
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
        q64 = check_dim(q, self.dim)
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
        """Clipped float32 scores of every row, the query rounded to float32,
        filled in one vector a chunk at a time. A store of one chunk (one
        restored or loaded and not grown since, or a small one) is scored
        in one call; the per-chunk bookkeeping showed in route latency."""
        q32 = q64.astype(np.float32)
        if len(self.chunks) == 1:
            return _clip_unit(self.chunks[0][: self.size] @ q32)
        s = np.empty(self.size, np.float32)
        for block, start in zip(self.blocks(), self.starts):
            np.matmul(block, q32, out=s[start : start + block.shape[0]])
        return _clip_unit(s)

    def _refine(self, rows: np.ndarray, q64: np.ndarray) -> np.ndarray:
        """Clipped float64 ``row_dots`` scores of ascending ``rows``, gathered
        from their chunks at most ``_CHUNK`` rows at a time; from a store of
        one chunk directly, with no chunk boundaries to find. One
        ``searchsorted`` finds where every later chunk's rows begin."""
        s = np.empty(rows.shape[0])
        if len(self.chunks) == 1:
            chunk = self.chunks[0]
            for i in range(0, rows.shape[0], _CHUNK):
                part = rows[i : i + _CHUNK]
                s[i : i + part.shape[0]] = row_dots(chunk[part].astype(np.float64), q64)
            return _clip_unit(s)
        ends = np.searchsorted(rows, self.starts[1:]).tolist() + [rows.shape[0]]
        lo = 0
        for chunk, start, hi in zip(self.chunks, self.starts, ends):
            for i in range(lo, hi, _CHUNK):
                j = min(i + _CHUNK, hi)
                s[i:j] = row_dots(chunk[rows[i:j] - start].astype(np.float64), q64)
            lo = hi
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
        """Move the x, y, z, time and id columns to ``capacity`` rows,
        copying only used rows."""
        n = self.size
        for name in ("x", "y", "z", "time", "ids"):
            old = getattr(self, name)
            new = np.empty(capacity, old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)


def _column(objs: list, name: str, dtype) -> np.ndarray:
    """Attribute ``name`` of every object, as an array. ``map`` and
    ``attrgetter`` run no Python code per object: one such pass per column
    is faster than one pass that builds a record per object."""
    return np.fromiter(map(attrgetter(name), objs), dtype, len(objs))


def _stack(items: list, dim: int, what: str) -> np.ndarray:
    """One (n, dim) float32 copy of the items' embeddings, after checking
    each distinct (shape, dtype) pair once."""
    kinds = set(map(attrgetter("embedding.shape", "embedding.dtype"), items))
    for shape, _ in kinds:
        if shape != (dim,):
            raise _dim_error(dim, shape)
    for _, dtype in kinds:
        if dtype != _F32:
            raise ValueError(f"{what} embeddings must be float32, got {dtype}")
    block = np.empty((len(items), dim), np.float32)
    if items:  # one copy, through a flat view of the block
        np.concatenate(list(map(attrgetter("embedding"), items)), out=block.reshape(-1))
    return block


class RowStore:
    """Single-writer, many-reader store of items, one per column row.

    All mutation happens under ``_lock``. ``_items[row]`` is the item behind
    row ``row`` of ``_cols``; ids only grow, so rows stay in id order.
    Subclasses name the id attribute (``_ID``), the time attribute
    (``_TIME``) and the item kind for errors (``_WHAT``); every item keeps
    its vector in ``embedding`` and its position in ``pose``.
    """

    _ID: str
    _TIME: str
    _WHAT: str

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

    def _export(self) -> tuple[list, list[np.ndarray]]:
        """Items in id order and the float32 blocks that hold their
        embeddings, row for row, taken under one lock."""
        with self._lock:
            return list(self._items), self._cols.blocks()

    def _top(self, rank: Callable, arg, k: int) -> list:
        """(item, score) pairs of the k rows ``rank(columns, arg, k)`` picks,
        in its order."""
        with self._lock:
            rows, s = rank(self._cols, arg, k)
            return [(self._items[r], v) for r, v in zip(rows.tolist(), s.tolist())]

    @classmethod
    def restore(cls, cfg: Config, items: Iterable, next_id: int | None = None):
        """Rebuild a store from persisted items without re-ingesting.

        The embeddings are copied once, into one chunk; the items keep
        their own arrays. The other columns are allocated once, with as
        much headroom as rows. ``next_id`` must exceed every stored id; it
        defaults to one above.
        """
        return cls._restore(cfg, items, next_id, None)

    @classmethod
    def _restore(cls, cfg: Config, items: Iterable, next_id: int | None, block):
        """``restore``, or with ``block`` (a read-only (n, dim) float32 array
        whose row i is ``items[i].embedding``) a store that adopts the block
        as its first chunk. Items out of id order get one sorted copy of the
        block, and are rebuilt on its rows."""
        items = list(items)
        n, dim = len(items), cfg.embedding_dim
        ids = _column(items, cls._ID, np.int64)
        order = None
        if not np.all(ids[1:] > ids[:-1]):
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            items = [items[i] for i in order.tolist()]
        dup = ids[1:][ids[1:] == ids[:-1]]
        if dup.size:
            raise ValueError(f"duplicate {cls._ID} {dup[0]}")
        top = int(ids[-1]) if n else 0
        if next_id is None:
            next_id = top + 1
        elif next_id < 1 or next_id <= top:
            raise ValueError(f"next_id {next_id} must be >= 1 and above the largest id {top}")
        if block is None:
            block = _stack(items, dim, cls._WHAT)
        elif order is not None:
            block = block[order]
            block.flags.writeable = False
            items = [replace(it, embedding=e) for it, e in zip(items, block)]
        store = cls(cfg)
        store._items, store._next_id = items, next_id
        cols = store._cols = Columns(dim, n + max(_GROW, n))
        cols.adopt(block)
        poses = list(map(attrgetter("pose"), items))
        cols.x[:n], cols.y[:n], cols.z[:n] = (_column(poses, a, np.float64) for a in "xyz")
        cols.time[:n] = _column(items, cls._TIME, np.float64)
        cols.ids[:n] = ids
        cols.size = n
        return store
