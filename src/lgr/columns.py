"""Column store and exact top-k shared by the entity graph and caption store.

Both stores keep one row per item in columns: float64 x, y, z and time
columns, an int64 id column, and float32 embeddings (the stored vectors,
exactly). Rows stay in ascending id order, so a row is found from its id
by binary search and the row order doubles as the id order.

The embeddings are interned: a list of float32 chunks that are never
reallocated holds each stored vector once, and once two rows share a
vector, a per-row ``uid`` column points each row at its vector. Append
looks the incoming float32 bytes up by hash and checks a hit byte for
byte (so ``-0.0`` and ``0.0`` stay apart); a repeat reuses the stored
vector. A robot that keeps seeing the same objects writes the same
caption and label again, so most appended vectors repeat. A restored
store's first chunk is its whole embedding block: a loaded snapshot's
read-only block (with its ``uid`` column, if it has one) is adopted as it
is, and ``restore`` copies the items' vectors into one, one vector per
row. Restored vectors are not hashed: hashing costs as much as the rest
of a 100k-row restore, so only appended vectors are looked up. Appended
vectors fill chunks of ``_CHUNK`` vectors, allocated when the first one
lands in them, and the items that ingest creates hold read-only views of
their vector's chunk row. An embedding is fixed at creation; updates
rewrite only x, y, z and time.

Cosine scores are the clipped float64 dot products of the stored vectors
with the query, computed with ``row_dots``. A scan gets them by filter
and refine: it scores every stored vector in float32 (BLAS, chunk by
chunk into one score vector, the query rounded to float32), keeps the
vectors whose float32 score is within a proven error bound of the cut,
and rescores only those in float64, gathered from their chunks. Rows take
their vector's score. ``row_dots`` bits depend only on row content, so
the refined scores, ids and order are the same as a full float64 scan
over every row would give. A store whose rows all hold their own vector
scans its rows directly, with no per-row gather.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import replace
from operator import attrgetter
from typing import Callable, Iterable

import numpy as np

from .embedding import row_dots
from .model import Config

_GROW = 64
_CHUNK = 4096  # vectors per appended embedding chunk, and per float64 refine block
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

    ``chunks[i]`` holds the float32 vectors from ``starts[i]`` on; the
    first ``distinct`` vectors are in use. Every chunk holds at least one
    used vector, and no chunk is ever reallocated or written twice, so
    views of its rows stay valid. The first chunk of a restored store is
    its whole embedding block; each later one holds ``_CHUNK`` vectors.
    ``uid`` is None while row i holds vector i; once a vector is shared,
    ``uid[row]`` is the row's vector. The x, y, z, time, id and uid
    columns grow by doubling. Chunk rows and capacity beyond what is used
    come from ``np.empty`` and are never written until something lands
    there, so unused headroom costs no resident memory. ``_index`` maps the
    hash of each appended vector's bytes to the vector; it holds no bytes.
    ``norm_bound`` is at least the L2 norm of every stored embedding (NaN
    or inf once a vector is not finite); the cosine filter's bound uses it.
    """

    def __init__(self, dim: int, capacity: int = 0):
        self.size = 0
        self.distinct = 0
        self.dim = dim
        self.chunks: list[np.ndarray] = []
        self.starts: list[int] = []
        self.x, self.y, self.z, self.time = (np.empty(capacity, np.float64) for _ in range(4))
        self.ids = np.empty(capacity, np.int64)
        self.uid: np.ndarray | None = None
        self._index: dict[int, int] = {}
        self.norm_bound = 0.0
        # the parts of the cosine bound that depend on the dimension alone
        self._rel_err = _gamma(dim, _U32) * (1.0 + _U32) + _U32 + _gamma(dim, _U64)
        self._tiny = dim * _TINY

    def adopt(self, block: np.ndarray) -> None:
        """Take ``block``, the (m, dim) float32 vectors of an empty store, as
        its first chunk, without copying or hashing it."""
        if block.shape[0]:
            self.chunks, self.starts = [block], [0]
            self.distinct = block.shape[0]
            self.bound_norms(float(np.einsum("ij,ij->i", block, block).max()))

    def append(self, id_: int, emb, x: float, y: float, z: float, t: float) -> np.ndarray:
        """Add a row and return a read-only view of its stored embedding;
        ``id_`` must be above every stored id. A vector byte-identical to
        one appended before is not stored again: the row shares it."""
        row = self.size
        if row == self.ids.shape[0]:
            self._grow(row + max(_GROW, row))
        v = np.asarray(emb, _F32)
        key = v.tobytes()
        h = hash(key)
        u = self._index.get(h)
        e = None if u is None else self._vector(u)
        if e is not None and e.tobytes() == key:  # byte for byte: -0.0 and 0.0 stay apart
            if self.uid is None:  # the first shared vector: row i held vector i so far
                self.uid = np.empty(self.ids.shape[0], np.int64)
                self.uid[:row] = np.arange(row)
        else:
            u = self.distinct
            if not self.chunks or u == self.starts[-1] + self.chunks[-1].shape[0]:
                self.chunks.append(np.empty((_CHUNK, self.dim), np.float32))
                self.starts.append(u)
            e = self.chunks[-1][u - self.starts[-1]]
            e[...] = v
            self.bound_norms(float(np.dot(e, e)))
            self._index.setdefault(h, u)  # a hash collision leaves the later vector unindexed
            self.distinct = u + 1
        if self.uid is not None:
            self.uid[row] = u
        self.write(row, x, y, z, t)
        self.ids[row] = id_
        self.size = row + 1
        e.flags.writeable = False
        return e

    def _vector(self, u: int) -> np.ndarray:
        """A view of stored vector ``u``."""
        c = bisect_right(self.starts, u) - 1
        return self.chunks[c][u - self.starts[c]]

    def write(self, row: int, x: float, y: float, z: float, t: float) -> None:
        """Set a row's position and time; its embedding is fixed at creation."""
        self.x[row], self.y[row], self.z[row], self.time[row] = x, y, z, t

    def bound_norms(self, max_sq: float) -> None:
        """Widen ``norm_bound`` to vectors whose largest float32 squared norm
        is ``max_sq``; ``np.maximum`` keeps a NaN."""
        self.norm_bound = float(np.maximum(self.norm_bound, _norm_bound(max_sq, self.dim)))

    def blocks(self) -> list[np.ndarray]:
        """The used vectors of every chunk, in order."""
        return [c[: self.distinct - s] for c, s in zip(self.chunks, self.starts)]

    def row_of(self, id_: int) -> int:
        row = int(np.searchsorted(self.ids[: self.size], id_))
        if row == self.size or self.ids[row] != id_:
            raise KeyError(id_)
        return row

    def top_cosine(self, q, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows and scores of the k highest cosine scores, ties by ascending id.

        The k-th best stored vector's float32 score less twice the bound
        cuts the candidates: every vector is held by at least one row, so
        that score is never above the k-th best row's, and a row of the
        float64 top k, or tied with its k-th, scores at least the cut in
        float32. Every row is rescored when the store holds no more than
        k rows or no bound holds.
        """
        q64 = check_dim(q, self.dim)
        n, uid = self.size, self.uid
        rows = None
        if 1 <= k < n:
            eps = self._eps(q64)
            if eps < 1.0:
                s32 = self._scores32(q64)
                j = min(k, s32.shape[0]) - 1
                kth = -np.partition(-s32, j)[j]
                keep = s32 >= np.nextafter(float(kth) - 2.0 * eps, -np.inf)
                rows = np.flatnonzero(keep if uid is None else keep[uid[:n]])
        if rows is None:
            rows = np.arange(n)
        s = self._row_scores(rows, q64)
        top = topk(-s, self.ids[rows], k)
        return rows[top], s[top]

    def cosine_above(self, q, floor: float, mask: np.ndarray) -> np.ndarray:
        """Rows in ``mask`` whose cosine score is strictly above ``floor``.

        ``mask`` is consumed. Only rows whose vector's float32 score is at
        least ``floor`` less the bound are rescored, or every masked row
        when no bound holds.
        """
        q64 = check_dim(q, self.dim)
        eps = self._eps(q64)
        if eps < 1.0:
            keep = self._scores32(q64) >= np.nextafter(floor - eps, -np.inf)
            mask &= keep if self.uid is None else keep[self.uid[: self.size]]
        rows = np.flatnonzero(mask)
        return rows[self._row_scores(rows, q64) > floor]

    def _row_scores(self, rows: np.ndarray, q64: np.ndarray) -> np.ndarray:
        """Clipped float64 scores of ascending ``rows``; each distinct
        vector they hold is rescored once."""
        if self.uid is None:
            return self._refine(rows, q64)
        held = self.uid[rows]
        hit = np.zeros(self.distinct, bool)
        hit[held] = True
        vectors = np.flatnonzero(hit)
        return self._refine(vectors, q64)[np.searchsorted(vectors, held)]

    def _eps(self, q64: np.ndarray) -> float:
        """A bound on |float32 score - float64 score| over every vector, both clipped.

        It sums the float32 dot product's rounding (with ``||q32|| <= (1 +
        u) ||q||``), the query's rounding to float32, the float64 dot
        product's own rounding, and underflow in either. It is NaN or at
        least 1 when the query or a vector is not finite, or so large that
        the float32 pass could overflow: then no float32 pass is made.
        """
        m = self.norm_bound
        nq = math.sqrt(np.einsum("i,i", q64, q64))  # einsum: NaN or inf with no warning
        return (self._rel_err * m * nq + (1.0 + m) * self._tiny) * _ROUND_UP

    def _scores32(self, q64: np.ndarray) -> np.ndarray:
        """Clipped float32 scores of every stored vector, the query rounded
        to float32, filled in one vector a chunk at a time. A store of one
        chunk (one restored or loaded and not grown since, or a small one)
        is scored in one call; the per-chunk bookkeeping showed in route
        latency."""
        q32 = q64.astype(np.float32)
        if len(self.chunks) == 1:
            return _clip_unit(self.chunks[0][: self.distinct] @ q32)
        s = np.empty(self.distinct, np.float32)
        for block, start in zip(self.blocks(), self.starts):
            np.matmul(block, q32, out=s[start : start + block.shape[0]])
        return _clip_unit(s)

    def _refine(self, vectors: np.ndarray, q64: np.ndarray) -> np.ndarray:
        """Clipped float64 ``row_dots`` scores of ascending stored
        ``vectors``, gathered from their chunks at most ``_CHUNK`` at a
        time; from a store of one chunk directly, with no chunk boundaries
        to find. One ``searchsorted`` finds where every later chunk's
        vectors begin."""
        s = np.empty(vectors.shape[0])
        if len(self.chunks) == 1:
            chunk = self.chunks[0]
            for i in range(0, vectors.shape[0], _CHUNK):
                part = vectors[i : i + _CHUNK]
                s[i : i + part.shape[0]] = row_dots(chunk[part].astype(np.float64), q64)
            return _clip_unit(s)
        ends = np.searchsorted(vectors, self.starts[1:]).tolist() + [vectors.shape[0]]
        lo = 0
        for chunk, start, hi in zip(self.chunks, self.starts, ends):
            for i in range(lo, hi, _CHUNK):
                j = min(i + _CHUNK, hi)
                s[i:j] = row_dots(chunk[vectors[i:j] - start].astype(np.float64), q64)
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
        """Move the x, y, z, time, id and uid columns to ``capacity`` rows,
        copying only used rows."""
        n = self.size
        for name in ("x", "y", "z", "time", "ids", "uid"):
            old = getattr(self, name)
            if old is not None:
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

    def _export(self) -> tuple[list, list[np.ndarray], np.ndarray | None]:
        """Items in id order, the float32 blocks of the stored vectors, and
        each item's vector (None when item i holds vector i), taken under
        one lock."""
        with self._lock:
            cols = self._cols
            uid = None if cols.uid is None else cols.uid[: cols.size]
            return list(self._items), cols.blocks(), uid

    def vector_count(self) -> int:
        """Distinct stored vectors; ``len(self)`` less the rows that share one."""
        with self._lock:
            return self._cols.distinct

    def _top(self, rank: Callable, arg, k: int) -> list:
        """(item, score) pairs of the k rows ``rank(columns, arg, k)`` picks,
        in its order."""
        with self._lock:
            rows, s = rank(self._cols, arg, k)
            return [(self._items[r], v) for r, v in zip(rows.tolist(), s.tolist())]

    @classmethod
    def restore(cls, cfg: Config, items: Iterable, next_id: int | None = None):
        """Rebuild a store from persisted items without re-ingesting.

        The embeddings are copied once, into one chunk, one vector per
        row; the items keep their own arrays. They are not hashed, so only
        vectors appended later are shared: hashing 100k rows costs as much
        as the rest of the restore. The other columns are allocated once,
        with as much headroom as rows. ``next_id`` must exceed every stored
        id; it defaults to one above.
        """
        return cls._restore(cfg, items, next_id, None)

    @classmethod
    def _restore(cls, cfg: Config, items: Iterable, next_id: int | None, block, uid=None):
        """``restore``, or with ``block`` (a read-only (m, dim) float32 array)
        a store that adopts the block as its first chunk. Row i of the block
        is ``items[i].embedding``, or with ``uid`` row ``uid[i]`` is, where
        every block row is some item's. Items out of id order reorder
        ``uid``, or with no ``uid`` get one sorted copy of the block and are
        rebuilt on its rows."""
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
        elif order is not None and uid is not None:
            uid = uid[order]
        elif order is not None:
            block = block[order]
            block.flags.writeable = False
            items = [replace(it, embedding=e) for it, e in zip(items, block)]
        store = cls(cfg)
        store._items, store._next_id = items, next_id
        cols = store._cols = Columns(dim, n + max(_GROW, n))
        cols.adopt(block)
        if uid is not None:
            cols.uid = np.empty_like(cols.ids)
            cols.uid[:n] = uid
        poses = list(map(attrgetter("pose"), items))
        cols.x[:n], cols.y[:n], cols.z[:n] = (_column(poses, a, np.float64) for a in "xyz")
        cols.time[:n] = _column(items, cls._TIME, np.float64)
        cols.ids[:n] = ids
        cols.size = n
        return store
