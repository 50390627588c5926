"""Column store and exact top-k shared by the entity graph and caption store.

Both stores keep one row per item in columns, and nowhere else: float64
x, y, z, yaw and time, int64 ids, an int64 index into the store's text
table (which holds each label or caption once), the graph's first_seen
and obs_count, an int64 ``uid`` (the row's stored vector), and float32
embeddings (the stored vectors, exactly). An item or a hit is built from
its row when it is asked for. Rows stay in ascending id order, so a row
is found from its id by binary search and the row order doubles as the
id order.

The embeddings are interned: a list of float32 chunks that are never
reallocated holds each stored vector once, and each row's ``uid`` points
at its vector. Append looks the incoming float32 bytes up by hash and
checks a hit byte for byte (so ``-0.0`` and ``0.0`` stay apart); a
repeat reuses the stored vector. A robot that keeps seeing the same
objects writes the same caption and label again, so most appended
vectors repeat. A restored store's first chunk is its whole embedding
block, read-only whatever its source: a loaded snapshot's block is
adopted as it is, with its ``uid`` column, and ``restore`` copies the
items' vectors into one, one vector per row. Restored vectors are not
hashed: hashing costs as much as the rest of a 100k-row restore, so
only appended vectors are looked up. Appended vectors fill chunks of
``_CHUNK`` vectors, allocated when the first one lands in them. An
item's embedding is a read-only view of its vector's chunk row; it is
fixed at creation, and a graph update rewrites only x, y, z, time and
obs_count.

Cosine scores are the clipped float64 dot products of the stored vectors
with the query, computed with ``row_dots``. A scan gets them by filter
and refine: it scores every stored vector in float32 (BLAS, chunk by
chunk into one score vector, the query rounded to float32), keeps the
vectors whose float32 score is within a proven error bound of the cut,
and rescores only those in float64, gathered from their chunks. Rows take
their vector's score through ``uid``. ``row_dots`` bits depend only on row
content, so the refined scores, ids and order are the same as a full
float64 scan over every row would give.

The ingest gate's float32 filter is memoized per stored vector, as a
robot sees the same labels again: a repeat query scores only the vectors
appended since, and stored vectors never change, so it keeps what a full
pass would. The memo is the writer's and is not saved; readers and
``top_cosine`` never use it.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from itertools import count, repeat
from numbers import Integral
from dataclasses import fields as dataclass_fields
from operator import attrgetter
from typing import Callable, Iterable

import numpy as np

from .embedding import row_dots
from .model import Config, Pose, json_number

_GROW = 64
ROWS = ("ids", "x", "y", "z", "yaw", "time", "text")  # every store's row columns, in file order
_HEAD = ("ids", "text", "x", "y", "z", "yaw")  # the columns every item and hit begins with
_CHUNK = 4096  # vectors per appended embedding chunk, and per float64 refine block
_F32 = np.dtype(np.float32)
_U32, _U64 = 2.0**-24, 2.0**-53  # unit roundoff of float32 and float64
_TINY = 2.0**-149  # twice the largest error of one float32 (or float64) underflow
_ROUND_UP = 1.0 + 2.0**-20  # covers the float64 rounding in computing a bound


def column_dtype(name: str) -> np.dtype:
    """int64 for ids, text indexes, counts and vector indexes; else float64."""
    return np.dtype(np.int64 if name in ("ids", "text", "count", "uid") else np.float64)


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
    ``uid[row]`` is the row's vector. ``texts`` holds each distinct text
    once, and the ``text`` column indexes it. The row columns (``names``)
    grow by doubling. Chunk rows and capacity beyond what is used
    come from ``np.empty`` and are never written until something lands
    there, so unused headroom costs no resident memory. ``_index`` maps the
    hash of each appended vector's bytes to the vector; it holds no bytes.
    ``norm_bound`` is at least the L2 norm of every stored embedding (NaN
    or inf once a vector is not finite); the cosine filter's bound uses it.
    """

    def __init__(self, dim: int, capacity: int, names: tuple[str, ...]):
        self.size = 0
        self.distinct = 0
        self.dim = dim
        self.chunks: list[np.ndarray] = []
        self.starts: list[int] = []
        self.names = names
        for name in names:
            setattr(self, name, np.empty(capacity, column_dtype(name)))
        self.texts: list[str] = []
        self._text_ids: dict[str, int] = {}
        self._index: dict[int, int] = {}
        self._memo: dict[int, tuple] = {}  # the gate's float32 filter, see ``_filter``
        self._memo_ids = 0  # kept vectors over every memo entry
        self._pass: tuple | None = None  # the last full pass no stored vector equals
        self.norm_bound = 0.0
        # the parts of the cosine bound that depend on the dimension alone
        self._rel_err = _gamma(dim, _U32) * (1.0 + _U32) + _U32 + _gamma(dim, _U64)
        self._tiny = dim * _TINY

    def append(self, id_: int, emb, text: str, pose, **values) -> None:
        """Add a row: its id, vector, text and pose, and ``values`` for its
        other columns by name. ``id_`` must be above every stored id. A
        vector byte-identical to one appended before is not stored again:
        the row shares it, as it shares a text appended before."""
        row = self.size
        if row == self.ids.shape[0]:
            self._grow(row + max(_GROW, row))
        v = np.asarray(emb, _F32)
        key = v.tobytes()
        h = hash(key)
        u = self._index.get(h)
        e = None if u is None else self._vector(u)
        if e is None or e.tobytes() != key:  # byte for byte: -0.0 and 0.0 stay apart
            u = self.distinct
            if not self.chunks or u == self.starts[-1] + self.chunks[-1].shape[0]:
                self.chunks.append(np.empty((_CHUNK, self.dim), np.float32))
                self.starts.append(u)
            e = self.chunks[-1][u - self.starts[-1]]
            e[...] = v
            self.bound_norms(float(np.dot(e, e)))
            self._index.setdefault(h, u)  # a hash collision leaves the later vector unindexed
            self.distinct = u + 1
            if self._pass is not None and self._pass[0] == key:  # the pass that created it
                self._remember(h, (u, *self._pass[1]))
                self._pass = None
        text_id = self._text_ids.setdefault(text, len(self.texts))
        if text_id == len(self.texts):
            self.texts.append(text)
        self.write(row, ids=id_, text=text_id, x=pose.x, y=pose.y, z=pose.z, yaw=pose.yaw,
                   uid=u, **values)
        self.size = row + 1

    def _vector(self, u: int) -> np.ndarray:
        """A read-only view of stored vector ``u``."""
        c = bisect_right(self.starts, u) - 1
        e = self.chunks[c][u - self.starts[c]]
        e.flags.writeable = False
        return e

    def gather(self, rows: np.ndarray, names) -> list[list]:
        """The values of ``rows`` in each column of ``names``, as lists."""
        return [getattr(self, c)[rows].tolist() for c in names]

    def write(self, row: int, **values) -> None:
        """Set columns of a row by name; its embedding is fixed at creation."""
        for name, value in values.items():
            getattr(self, name)[row] = value

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
        n = self.size
        rows = None
        if 1 <= k < n:
            eps = self._eps(q64)
            if eps < 1.0:
                s32 = self._scores32(q64)
                j = min(k, s32.shape[0]) - 1
                kth = -np.partition(-s32, j)[j]
                keep = s32 >= np.nextafter(float(kth) - 2.0 * eps, -np.inf)
                vectors, rows = np.flatnonzero(keep), np.flatnonzero(keep[self.uid[:n]])
        if rows is None:
            vectors, rows = np.arange(self.distinct), np.arange(n)
        # the candidates hold exactly the kept vectors: each is held by a row
        s = self._refine(vectors, q64)[np.searchsorted(vectors, self.uid[rows])]
        top = topk(-s, self.ids[rows], k)
        return rows[top], s[top]

    def cosine_above(self, q, floor: float, mask: np.ndarray) -> np.ndarray:
        """Rows in ``mask`` whose cosine score is strictly above ``floor``.

        Only masked rows whose vector's float32 score is at least ``floor``
        less the bound (``_filter``) are rescored, or every masked row when
        no bound holds. Only the masked rows' ``uid`` are read.
        """
        q64 = check_dim(q, self.dim)
        rows = np.flatnonzero(mask)
        eps = self._eps(q64)
        if eps < 1.0:
            keep = np.zeros(self.distinct, bool)
            keep[self._filter(q64, np.nextafter(floor - eps, -np.inf))] = True
            rows = rows[keep[self.uid[rows]]]
        return rows[self._row_scores(rows, q64) > floor]

    def _filter(self, q64: np.ndarray, cut: np.float64) -> np.ndarray:
        """The ascending stored vectors whose float32 score is at least ``cut``.

        ``_memo`` maps the hash of a stored vector's bytes to (the vector,
        the cut, how many vectors were scored, the kept vectors). A query
        of those bytes whose cut is not below the entry's scores only the
        vectors appended since; a higher cut gets the entry's larger set,
        which the float64 refine settles (the gate's cut for a query only
        falls, as ``norm_bound`` grows). Any other query scores every
        vector and makes the entry, keyed by a kept vector it equals; if
        none does, ``append`` makes it when it stores the query's bytes.
        """
        key = q64.astype(np.float32).tobytes()
        h = hash(key)
        e = self._memo.get(h)
        if e is not None and cut >= e[1] and self._vector(e[0]).tobytes() == key:
            u, cut0, m, kept = e
            if m < self.distinct:
                kept = np.concatenate((kept, np.flatnonzero(self._scores32(q64, m) >= cut0) + m))
                self._remember(h, (u, cut0, self.distinct, kept))
            return kept
        kept = np.flatnonzero(self._scores32(q64) >= cut)
        entry = (cut, self.distinct, kept)
        u = self._find(kept, key)
        if u is None:
            self._pass = (key, entry)
        else:
            self._remember(h, (u, *entry))
        return kept

    def _remember(self, h: int, entry: tuple) -> None:
        """Make ``entry`` the memo's entry for ``h``, unless the memo would then
        keep more vectors than the store holds rows and vectors (a low cut)."""
        old = self._memo.pop(h, None)
        if old is not None:
            self._memo_ids -= old[3].shape[0]
        if self._memo_ids + entry[3].shape[0] <= self.size + self.distinct:
            self._memo[h] = entry
            self._memo_ids += entry[3].shape[0]

    def _find(self, vectors: np.ndarray, key: bytes) -> int | None:
        """The first of ascending ``vectors`` whose bytes are ``key``."""
        bits = np.frombuffer(key, np.uint32)
        for i, _, block in self._gather(vectors):
            same = np.flatnonzero((block.view(np.uint32) == bits).all(axis=1))
            if same.shape[0]:
                return int(vectors[i + same[0]])
        return None

    def _row_scores(self, rows: np.ndarray, q64: np.ndarray) -> np.ndarray:
        """Clipped float64 scores of ascending ``rows``; each distinct
        vector they hold is rescored once."""
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

    def _scores32(self, q64: np.ndarray, lo: int = 0) -> np.ndarray:
        """Clipped float32 scores of the stored vectors from ``lo`` on, the
        query rounded to float32, filled in one vector a chunk at a time. A
        store of one chunk (one restored or loaded and not grown since, or
        a small one) is scored in one call; the per-chunk bookkeeping
        showed in route latency."""
        q32 = q64.astype(np.float32)
        if len(self.chunks) == 1:
            return _clip_unit(self.chunks[0][lo : self.distinct] @ q32)
        s = np.empty(self.distinct - lo, np.float32)
        for block, start in zip(self.blocks(), self.starts):
            a = max(lo - start, 0)
            if a < block.shape[0]:
                np.matmul(block[a:], q32, out=s[start + a - lo : start + block.shape[0] - lo])
        return _clip_unit(s)

    def _refine(self, vectors: np.ndarray, q64: np.ndarray) -> np.ndarray:
        """Clipped float64 ``row_dots`` scores of ascending stored ``vectors``."""
        s = np.empty(vectors.shape[0])
        for i, j, block in self._gather(vectors):
            s[i:j] = row_dots(block.astype(np.float64), q64)
        return _clip_unit(s)

    def _gather(self, vectors: np.ndarray):
        """``(i, j, block)``: ascending stored ``vectors[i:j]`` in float32,
        gathered from their chunks at most ``_CHUNK`` at a time; from a
        store of one chunk directly, with no chunk boundaries to find. One
        ``searchsorted`` finds where every later chunk's vectors begin."""
        if len(self.chunks) == 1:
            chunk = self.chunks[0]
            for i in range(0, vectors.shape[0], _CHUNK):
                part = vectors[i : i + _CHUNK]
                yield i, i + part.shape[0], chunk[part]
            return
        ends = np.searchsorted(vectors, self.starts[1:]).tolist() + [vectors.shape[0]]
        lo = 0
        for chunk, start, hi in zip(self.chunks, self.starts, ends):
            for i in range(lo, hi, _CHUNK):
                j = min(i + _CHUNK, hi)
                yield i, j, chunk[vectors[i:j] - start]
            lo = hi

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
        """Move the row columns to ``capacity`` rows, copying only used rows."""
        n = self.size
        for name in self.names:
            old = getattr(self, name)
            new = np.empty(capacity, old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)


def _column(objs: list, name: str, dtype) -> np.ndarray:
    """Attribute ``name`` of every object, as an array. ``map`` and
    ``attrgetter`` run no Python code per object: one such pass per column
    is faster than one pass that builds a record per object."""
    return np.fromiter(map(attrgetter(name), objs), dtype, len(objs))


def _intern(texts: Iterable[str], n: int) -> tuple[np.ndarray, dict[str, int]]:
    """Each of ``n`` texts' number in the returned index of the distinct
    texts, numbered in order of first appearance, in one pass."""
    index: dict[str, int] = {}
    # len(index) is taken as each text arrives: a new text gets the next number
    numbers = map(index.setdefault, texts, map(len, repeat(index)))
    return np.fromiter(numbers, np.int64, n), index


def _stack(vectors: list, dim: int, what: str) -> np.ndarray:
    """One read-only (n, dim) float32 copy of ``vectors``, which must all
    have length ``dim`` and cast nothing. Only when that fails are the
    distinct shapes, then the distinct dtypes, checked for the error."""
    block = np.empty((len(vectors), dim), np.float32)
    try:
        if set(map(len, vectors)) - {dim}:
            raise ValueError("a length other than dim")
        if vectors:  # one copy, through a flat view of the block
            np.concatenate(vectors, out=block.reshape(-1), casting="no")
    except (TypeError, ValueError):  # report the first wrong shape, then dtype
        for shape in set(map(attrgetter("shape"), vectors)):
            if shape != (dim,):
                raise _dim_error(dim, shape) from None
        for dtype in set(map(attrgetter("dtype"), vectors)):
            if dtype != _F32:
                raise ValueError(f"{what} embeddings must be float32, got {dtype}") from None
        raise
    block.flags.writeable = False
    return block


class RowStore:
    """Single-writer, many-reader store of rows, kept only in columns.

    All mutation happens under ``_lock``; ids only grow, so rows stay in id
    order. An item (``_ITEM``: id, text, embedding, pose, then the
    ``_REST`` columns, in field order) or a hit (``hit(id, text, pose,
    time, score)``) is built from its row when it is asked for; an item's
    ``embedding`` is a read-only view of the stored vector. Subclasses also
    name the id attribute (``_ID``) and the item kind for errors
    (``_WHAT``).
    """

    _ITEM: type
    _REST: tuple[str, ...]
    _NAMES: tuple[str, ...]  # its row columns, in file order: every store's, its own, then uid
    _ID: str
    _WHAT: str

    def __init__(self, cfg: Config):
        self._cfg = cfg
        self._lock = threading.Lock()
        self._next_id = 1
        self._cols = Columns(cfg.embedding_dim, 0, self._NAMES)

    @property
    def cfg(self) -> Config:
        return self._cfg

    @property
    def next_id(self) -> int:
        with self._lock:
            return self._next_id

    def __len__(self) -> int:
        with self._lock:
            return self._cols.size

    def _get(self, id_: int):
        with self._lock:
            try:
                return self._build(np.array([self._cols.row_of(id_)]))[0]
            except KeyError:
                raise KeyError(f"no such {self._WHAT}: {id_}") from None

    def _all(self) -> list:
        """Items in creation order (ascending id)."""
        with self._lock:
            return self._build(np.arange(self._cols.size))

    def _build(self, rows: np.ndarray) -> list:
        """Items built from ``rows`` (call with the lock held)."""
        cols = self._cols
        ids, text, x, y, z, yaw, *rest = cols.gather(rows, _HEAD + self._REST)
        texts = map(cols.texts.__getitem__, text)
        vectors = map(cols._vector, cols.uid[rows].tolist())
        return list(map(self._ITEM, ids, texts, vectors, map(Pose, x, y, z, yaw), *rest))

    def _export(self) -> tuple[dict, list[str], list[np.ndarray]]:
        """Copies of the used rows of every row column by name, the text
        table and the float32 blocks of the stored vectors, taken under one
        lock."""
        with self._lock:
            cols = self._cols
            n = cols.size
            values = {c: getattr(cols, c)[:n].copy() for c in cols.names}
            return values, cols.texts[:], cols.blocks()

    def vector_count(self) -> int:
        """Distinct stored vectors; ``len(self)`` less the rows that share one."""
        with self._lock:
            return self._cols.distinct

    def hits(self, rank: Callable, arg, k: int, hit: type) -> list:
        """``hit(id, text, pose, time, score)`` of each of the k rows
        ``rank(columns, arg, k)`` picks, in its order."""
        with self._lock:
            cols = self._cols
            rows, s = rank(cols, arg, k)
            ids, text, x, y, z, yaw, t = cols.gather(rows, (*_HEAD, "time"))
            texts = map(cols.texts.__getitem__, text)
            return list(map(hit, ids, texts, map(Pose, x, y, z, yaw), t, s.tolist()))

    @classmethod
    def restore(cls, cfg: Config, items: Iterable, next_id: int | None = None):
        """Rebuild a store from persisted items without re-ingesting.

        One pass per column takes the items' fields, and no item is kept.
        The embeddings are copied once, into one chunk, one vector per
        item. They are not hashed, so only vectors appended later are
        shared: hashing 100k rows costs as much as the rest of the restore.
        Ids and obs_count must be integers, as in a file; ``_restore``
        checks the rows and ``next_id`` as it checks a load's.
        """
        items = list(items)
        fields = [f.name for f in dataclass_fields(cls._ITEM)]
        block = _stack(list(map(attrgetter("embedding"), items)), cfg.embedding_dim, cls._WHAT)
        poses = list(map(attrgetter("pose"), items))
        values = {c: _column(poses, c, np.float64) for c in ("x", "y", "z", "yaw")}
        for f, c in ((cls._ID, "ids"), *zip(fields[4:], cls._REST)):
            dtype = column_dtype(c)
            if dtype == np.int64 and set(map(type, map(attrgetter(f), items))) - {int}:
                for value in map(attrgetter(f), items):  # refuse as a load does: 2.5, True, "3"
                    json_number(value, f, Integral)
            values[c] = _column(items, f, dtype)
        values["text"], index = _intern(map(attrgetter(fields[1]), items), len(items))
        return cls._restore(cfg, values, list(index), next_id, block)

    @classmethod
    def _restore(cls, cfg: Config, values: dict, texts: list, next_id: int | None, block):
        """The one constructor of a store built from rows (its columns by
        name in ``values`` and its text table ``texts``, as a 2.2 snapshot
        holds them), and the one place that checks them. The store adopts
        ``block``, a read-only (m, dim) float32 array, as its first chunk;
        row i holds block row ``values["uid"][i]``, or with no ``uid`` block
        row i. Rows out of id order are sorted with their ``uid``, or with
        no ``uid`` with one sorted copy of the block. ``next_id`` defaults
        to one above the largest id. The columns get as much headroom as
        rows."""
        ids = values["ids"]
        if not np.all(ids[1:] > ids[:-1]):
            order = np.argsort(ids, kind="stable")
            if "uid" not in values:
                block = block[order]
                block.flags.writeable = False
            values = {c: v[order] for c, v in values.items()}
            ids = values["ids"]
        dup = ids[1:][ids[1:] == ids[:-1]]
        if dup.size:
            raise ValueError(f"duplicate {cls._ID} {dup[0]}")
        n, m = ids.shape[0], block.shape[0]
        top = int(ids[-1]) if n else 0
        next_id = top + 1 if next_id is None else json_number(next_id, "next_id", Integral)
        if next_id < 1 or next_id <= top:
            raise ValueError(f"next_id {next_id} must be >= 1 and above the largest id {top}")
        strings = type(texts) is list and not set(map(type, texts)) - {str}
        index = dict(zip(texts, count())) if strings else {}
        if not strings or len(index) < len(texts):
            raise ValueError(f"{cls._WHAT} texts must be a list of distinct strings")
        if n and (values["text"].min() < 0 or values["text"].max() >= len(texts)):
            raise ValueError(f"{cls._WHAT} text indexes must lie in [0, {len(texts)})")
        counts = values.get("count")
        if counts is not None and n and counts.min() < 1:
            raise ValueError(f"obs_count must be >= 1, got {counts.min()}")
        uid = values.setdefault("uid", np.arange(n))
        outside = n and (uid.min() < 0 or uid.max() >= m)
        if outside or np.count_nonzero(np.bincount(uid, minlength=m)) != m:
            raise ValueError(
                f"the {cls._WHAT} uid column must use each of its {m} stored vectors and no other"
            )
        store = cls(cfg)
        store._next_id = int(next_id)
        cols = store._cols = Columns(cfg.embedding_dim, n + max(_GROW, n), cls._NAMES)
        if m:  # the block is the first chunk, neither copied nor hashed
            cols.chunks, cols.starts, cols.distinct = [block], [0], m
            cols.bound_norms(float(np.einsum("ij,ij->i", block, block).max()))
        for name in cols.names:
            getattr(cols, name)[:n] = values[name]
        cols.texts, cols._text_ids = texts, index
        cols.size = n
        return store
