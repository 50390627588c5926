"""The three benchmark workloads, driven through the public lgr API.

Each workload makes its inputs from the seed (untimed), sets up, measures
for the given number of seconds, and then checks its outputs outside the
timed region against ``reference``. It returns an :class:`Outcome` with
its end-to-end metrics, the per-layer values it can count without
tracing, and the properties of its inputs.

The tracer passed in wraps every call into lgr. With tracing off it is
``tracing.OFF`` and the same calls run in the same order. With tracing
on, the router's planner is wrapped in spans (:class:`TracedPlanner`),
and a workload also runs a few trace-only probes after its measured
phase (stage functions on the same log, a sample of routed questions,
fresh-cache embeddings); those never feed an end-to-end metric.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gen
import lgr
import reference as refmod
from lgr import (
    CallTool,
    CaptionStore,
    Config,
    HashProvider,
    MemoryGraph,
    Planner,
    Pose,
    Router,
    RuleBasedPlanner,
    SessionState,
    evaluate,
    load_log,
    load_snapshot,
    read_log_records,
    record_to_observation,
    save_snapshot,
    subsample,
    t_position,
    t_semantic,
    t_time,
    validate_observation,
)
from tracing import OFF


@dataclass(frozen=True)
class Scale:
    replay_lines: int = 40_000
    replay_eval_entities: int = 300
    recall_rows: int = 100_000
    recall_vocab: int = 2_000
    live_base_frames: int = 10_000
    live_fps: float = 100.0
    recall_write_frames: int = 2_000  # prebuilt; the write phase applies what its time allows
    checked_ops: int = 20  # reader/client calls re-checked against the reference
    traced_routes: int = 100  # routed answers kept for the traced run's counts


SCALES = {
    "full": Scale(),
    "tiny": Scale(
        replay_lines=400,
        replay_eval_entities=8,
        recall_rows=2_000,
        recall_vocab=100,
        live_base_frames=200,
        live_fps=100.0,
        recall_write_frames=40,
        checked_ops=8,
        traced_routes=10,
    ),
}

TOOL_SPANS = {
    "t_semantic": "tools.t_semantic",
    "t_position": "tools.t_position",
    "t_time": "tools.t_time",
    "captions_text": "captions.query_text",
    "captions_position": "captions.query_position",
    "captions_time": "captions.query_time",
}
K = Config().default_k
SETUP_REPS = 5  # restores or snapshot loads per run; setup_s is their median
COLD_STARTS = 9  # replay_eval's set-ups per run
SNAPSHOT_REPS = 5  # saves and loads per replay_eval iteration
LIVE_WINDOWS = 10  # live_session latency metrics: median over this many parts of the run
TOOL_CYCLES = 40  # replay_eval: client cycles of direct tool calls per snapshot turn
WRITE_SHARE = 0.4  # recall_100k: share of the run spent ingesting at full size


@dataclass
class Outcome:
    e2e: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    props: dict = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    answers: list = field(default_factory=list)  # routed answers, for the traced run's counts
    planner_s: list = field(default_factory=list)  # traced run: planner time per routed query
    parts: tuple | None = None  # (graph, captions, provider) the probes query

    def op(self, ok: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def error(self, what: str) -> None:
        """Count a failed operation and keep its traceback on stderr."""
        self.op(False)
        if self.failed <= 5:
            print(f"# error in {what}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def call_tool(graph, captions, provider, tool: str, a: dict):
    """One of the six tools through its public entry point."""
    if tool == "t_semantic":
        return t_semantic(graph, provider, a["query"], a["k"])
    if tool == "t_position":
        return t_position(graph, a["x"], a["y"], a["z"], a["k"])
    if tool == "t_time":
        return t_time(graph, a["hh"], a["mm"], a["ss"], a["k"])
    if tool == "captions_text":
        return captions.query_text(provider.embed(a["query"]), a["k"])
    if tool == "captions_position":
        return captions.query_position(Pose(a["x"], a["y"], a["z"]), a["k"])
    if tool == "captions_time":
        return captions.query_time(a["t"], a["k"])
    raise ValueError(f"unknown tool {tool!r}")


def apply_frame(graph, captions, obs, tr, out: Outcome):
    """The ingest pairing of ``lgr ingest``: graph, then caption."""
    with tr.span("graph.ingest_observation"):
        report = graph.ingest_observation(obs)
    if obs.caption is not None:
        with tr.span("captions.insert_caption"):
            captions.insert_caption(obs)
    lay = out.layer
    lay["graph.created"] = lay.get("graph.created", 0) + len(report.created)
    lay["graph.updated"] = lay.get("graph.updated", 0) + len(report.updated)
    lay["graph.labels"] = lay.get("graph.labels", 0) + report.labels_processed
    return report


class Client:
    """Seeded stream of direct tool calls and routed questions.

    Each cycle issues the six tools once, in a fixed order (an equal mix;
    ``captions_text`` alternates present and absent labels), then five
    routed questions: where and when about a present label, where and when
    about an absent one, and one ``near (x, y, z)`` question. With
    ``clock`` set, the absent "when" question is replaced by one at a
    ``hh:mm:ss`` time.
    """

    def __init__(self, seed: int, present, absent, box: tuple[float, float], span_s: float, clock: bool = False):
        self.rng = np.random.default_rng([seed, 7])
        self.present = present
        self.absent = absent
        self.box = box
        self.span_s = span_s
        self.clock = clock

    def _xyz(self) -> dict:
        x, y = self.rng.uniform(*self.box, size=2).round(1).tolist()
        return {"x": x, "y": y, "z": 0.0}

    def _hms(self) -> tuple[int, int, int]:
        s = int(self.rng.uniform(0.0, self.span_s))
        return s // 3600, s // 60 % 60, s % 60

    def _word(self, pool) -> str:
        return pool[int(self.rng.integers(len(pool)))]

    def tools(self, n: int) -> list[tuple]:
        """The six direct tool calls of cycle ``n``."""
        return [op for op in self.cycle(n) if op[0] == "tool"]

    def cycle(self, n: int) -> list[tuple]:
        hh, mm, ss = self._hms()
        text = self._word(self.present if n % 2 == 0 else self.absent)
        xyz = self._xyz()
        near = f"what is near ({xyz['x']}, {xyz['y']}, {xyz['z']})?"
        if self.clock:
            h2, m2, s2 = self._hms()
            odd = f"what did you see at {h2:02d}:{m2:02d}:{s2:02d}?"
        else:
            odd = f"when did you last see the {self._word(self.absent)}?"
        return [
            ("tool", "t_semantic", {"query": self._word(self.present), "k": K}),
            ("tool", "t_position", {**self._xyz(), "k": K}),
            ("tool", "t_time", {"hh": hh, "mm": mm, "ss": ss, "k": K}),
            ("tool", "captions_text", {"query": text, "k": K}),
            ("tool", "captions_position", {**self._xyz(), "k": K}),
            ("tool", "captions_time", {"t": float(self.rng.uniform(0.0, self.span_s)), "k": K}),
            ("route", f"where is the {self._word(self.present)}?"),
            ("route", f"where is the {self._word(self.absent)}?"),
            ("route", f"when did you last see the {self._word(self.present)}?"),
            ("route", odd),
            ("route", near),
        ]


def run_op(op, graph, captions, provider, router, tr):
    if op[0] == "tool":
        with tr.span(TOOL_SPANS[op[1]]):
            return call_tool(graph, captions, provider, op[1], op[2])
    with tr.span("router.answer_query"):
        return router.answer_query(op[1])


def check_op(ref, op, result) -> bool:
    if op[0] == "tool":
        return refmod.agrees(refmod.pairs(result), ref.expected(op[1], op[2]))
    return refmod.answer_agrees(ref, result)


def accuracy(rows, kind: str) -> float:
    """Share of evaluated items of one kind answered within the gate."""
    scored = [r for r in rows if r.kind == kind]
    return sum(1 for r in scored if r.correct) / len(scored)


def repeat_share(texts) -> float:
    texts = list(texts)
    return 1.0 - len(set(texts)) / len(texts) if texts else 0.0


def tied_row_share(rows: refmod.Rows) -> float:
    """Share of rows whose position and time repeat another row's exactly."""
    if len(rows.ids) == 0:
        return 0.0
    key = np.column_stack([rows.pos, rows.time])
    _, counts = np.unique(key, axis=0, return_counts=True)
    return float(counts[counts > 1].sum() / len(rows.ids))


class TracedPlanner(Planner):
    """Spans around a planner's ``next_action`` calls and the tool calls between them.

    The router asks the planner for an action, runs the tool it names and
    asks again, so the interval between two planner calls of one query is
    that tool call. Planner time is also summed per query, into
    ``out.planner_s``. A query cut off by the iteration limit is not summed.
    """

    def __init__(self, inner: Planner, tr, out: Outcome):
        self._inner = inner
        self._tr = tr
        self._out = out
        self._tool = None  # (name, start) of the tool call the router is running
        self._spent = 0.0

    def next_action(self, query, context):
        now = perf_counter()
        if not context:
            self._spent = 0.0
        elif self._tool is not None:
            name, start = self._tool
            self._tr.record(TOOL_SPANS[name], start, now)
        self._tool = None
        with self._tr.span("router.next_action") as span:
            action = self._inner.next_action(query, context)
        self._spent += span.end - span.start
        if isinstance(action, CallTool):
            self._tool = (action.tool, perf_counter())
        else:
            self._out.planner_s.append(self._spent)
        return action


def make_router(graph, captions, provider, cfg, tr, out: Outcome, stats=None) -> Router:
    """The CLI's router; in a traced run its planner is wrapped in spans."""
    planner = RuleBasedPlanner(k=cfg.default_k)
    if tr.enabled:
        planner = TracedPlanner(planner, tr, out)
    return Router(graph, captions, provider, planner, cfg=cfg, stats=stats)


def cold_start_s(tr, seed: int) -> float:
    """Median time for a fresh interpreter to import lgr and create a session.

    This is the set-up every ``lgr ingest`` invocation pays before its
    first frame. Creating the session alone takes microseconds, too little
    to time steadily from one process to the next.
    """
    code = f"import lgr; lgr.SessionState.new(lgr.Config(), lgr.HashProvider(seed={seed}))"
    env = dict(os.environ, PYTHONPATH=str(Path(lgr.__file__).resolve().parents[1]))
    times = []
    for _ in range(COLD_STARTS):
        t0 = perf_counter()
        with tr.span("bench.cold_start"):
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(perf_counter() - t0)
    return float(np.median(times))


# ----------------------------------------------------------------------
# replay_eval
# ----------------------------------------------------------------------


def replay_eval(seed: int, seconds: float, scale: Scale, tr, workdir: Path) -> Outcome:
    """Parse the raw log, ingest, snapshot, evaluate; repeat until time is up."""
    out = Outcome()
    # The log goes to disk, so a child process writes it and its memory
    # never enters this process's high-water mark (peak_rss_mb).
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as child:
        inp = child.submit(gen.replay_inputs, seed, workdir, scale.replay_lines, scale.replay_eval_entities).result()
    out.layer["bench.inputs_rss_mb"] = peak_rss_mb()
    cfg = Config()
    provider = HashProvider(seed=inp.provider_seed, dim=cfg.embedding_dim)
    snap = workdir / "replay.lgrsnap"

    setup = cold_start_s(tr, inp.provider_seed)
    client = Client(seed, inp.vocab.labels, inp.vocab.absent, (0.0, inp.extent), inp.span_s)
    rates, frame_lat, saves, loads, route_lat, tool_lat, checked = [], [], [], [], [], [], []
    iterations = cycles = 0
    t_end = perf_counter() + seconds
    while True:
        # Each pass starts from a heap like a fresh process's: the previous
        # pass's stores are dropped and collected before its clock starts.
        # Within a pass the collector runs as it would in the program.
        state = served = router = loaded = None
        gc.collect()
        out.layer.update({"graph.created": 0, "graph.updated": 0, "graph.labels": 0})
        state = SessionState.new(cfg, provider)
        kept = 0
        t0 = perf_counter()
        frames = load_log(inp.log_path, cfg, provider)
        while True:
            f0 = perf_counter()  # a frame's time: parsing its lines, then both stores
            with tr.span("bench.frame"):
                try:
                    with tr.span("logio.load_log.next"):
                        obs = next(frames, None)
                except Exception:
                    out.error("load_log")
                    break
                if obs is None:
                    break
                kept += 1
                try:
                    apply_frame(state.graph, state.captions, obs, tr, out)
                    out.op()
                except Exception:
                    out.error("ingest")
            frame_lat.append(perf_counter() - f0)
        rates.append(kept / (perf_counter() - t0))
        # Saves, loads, a fifth of the QA items and a batch of direct tool
        # calls take turns, so each of these short phases is sampled across
        # the iteration rather than in one burst. The first loaded snapshot
        # serves every question and tool call.
        router, rows = None, []
        for rep in range(SNAPSHOT_REPS):
            t0 = perf_counter()
            with tr.span("snapshot.save_snapshot"):
                save_snapshot(state, snap)
            saves.append(perf_counter() - t0)
            out.op()
            t0 = perf_counter()
            with tr.span("snapshot.load_snapshot"):
                loaded = load_snapshot(snap)
            loads.append(perf_counter() - t0)
            out.op()
            if router is None:
                served = loaded
                router = make_router(
                    served.graph, served.captions, served.provider, served.cfg, tr, out, served.stats
                )
            with tr.span("evalharness.evaluate"):
                rows += evaluate(router, inp.items[rep::SNAPSHOT_REPS]).rows
            for _ in range(TOOL_CYCLES):
                for op in client.tools(cycles):
                    t0 = perf_counter()
                    try:
                        res = run_op(op, served.graph, served.captions, served.provider, router, tr)
                    except Exception:
                        out.error(op[1])
                        continue
                    tool_lat.append(perf_counter() - t0)
                    out.op()
                    if len(checked) < scale.checked_ops and cycles % 7 == 0:
                        checked.append((op, res))
                cycles += 1
        route_lat += [r.latency for r in rows]
        out.attempted += len(rows)
        iterations += 1
        if perf_counter() >= t_end:
            break
    rss = peak_rss_mb()
    snap_bytes = snap.stat().st_size
    out.e2e = {
        "setup_s": setup,
        "ingest_frames_per_s": float(np.median(rates)),
        "ingest_frame_p50_ms": pct(frame_lat, 50) * 1e3,
        "ingest_frame_p99_ms": pct(frame_lat, 99) * 1e3,
        "tool_calls_per_s": len(tool_lat) / sum(tool_lat),
        "tool_p90_ms": pct(tool_lat, 90) * 1e3,
        "snapshot_save_s": float(np.median(saves)),
        "snapshot_load_s": float(np.median(loads)),
        "snapshot_mb": snap_bytes / 1e6,
        "route_p50_ms": pct(route_lat, 50) * 1e3,
        "route_p90_ms": pct(route_lat, 90) * 1e3,
        "positional_accuracy": accuracy(rows, "spatial"),
        "temporal_accuracy": accuracy(rows, "temporal"),
        "fallback_rate": router.stats.n_vector_calls / router.stats.n_queries,
        "peak_rss_mb": rss,
    }
    out.samples = {
        "ingest_frames_per_s": len(rates),
        "ingest_frame_p50_ms": len(frame_lat),
        "ingest_frame_p99_ms": len(frame_lat),
        "tool_calls_per_s": len(tool_lat),
        "tool_p90_ms": len(tool_lat),
        "snapshot_save_s": len(saves),
        "snapshot_load_s": len(loads),
        "route_p50_ms": len(route_lat),
        "route_p90_ms": len(route_lat),
    }

    # -- checks, outside the timed region ----------------------------------
    out.op(state.graph.node_count() == inp.entities_seen)  # one node per entity seen
    probe = [op for n in range(2) for op in Client(seed + 1, inp.vocab.labels, inp.vocab.absent,
                                                   (0.0, inp.extent), inp.span_s).tools(n)]
    for op in probe:  # a snapshot round trip returns identical tool results
        before = refmod.pairs(call_tool(state.graph, state.captions, provider, op[1], op[2]))
        after = refmod.pairs(call_tool(served.graph, served.captions, served.provider, op[1], op[2]))
        out.op(before == after)
    ref = refmod.Reference(
        refmod.Rows.of_nodes(served.graph.all_nodes()),
        refmod.Rows.of_records(served.captions.all_records()),
        inp.provider_seed, cfg.embedding_dim,
    )
    for op in probe:
        out.op(check_op(ref, op, call_tool(served.graph, served.captions, served.provider, op[1], op[2])))
    for op, res in checked:
        out.op(check_op(ref, op, res))
    for item in inp.items[: scale.checked_ops]:
        out.op(refmod.answer_agrees(ref, router.answer_query(item.question)))

    nodes, records = state.graph.node_count(), state.captions.record_count()
    labels = out.layer.pop("graph.labels")
    out.layer.update(
        {
            "graph.nodes": nodes,
            "graph.update_ratio": out.layer["graph.updated"] / labels if labels else 0.0,
            "captions.records": records,
            "snapshot.bytes_per_row": snap_bytes / (nodes + records),
        }
    )
    out.props = {
        "rows": {"graph": nodes, "captions": records},
        "log_lines": inp.lines,
        "kept_ratio": inp.kept / inp.lines,
        "repeated_query_text_share": repeat_share(i.question for i in inp.items),
        "tied_row_share": {"graph": tied_row_share(ref.graph), "captions": tied_row_share(ref.captions)},
        "vocabulary": inp.vocab.shares(),
        "qa_items": len(inp.items),
    }

    if tr.enabled:  # the ingest stages one by one, on the same log
        with tr.span("logio.read_log_records"):
            log_records = read_log_records(inp.log_path)
        with tr.span("logio.subsample"):
            kept_records = subsample(log_records, cfg.subsample_period)
        observations = []
        for rec in kept_records:
            with tr.span("logio.record_to_observation"):
                observations.append(record_to_observation(rec, cfg, provider))
        for obs in observations:
            with tr.span("model.validate_observation"):
                validate_observation(obs, cfg)
        out.layer["logio.lines_parsed"] = len(log_records)
        out.layer["logio.kept_ratio"] = len(kept_records) / len(log_records)
        out.layer["evalharness.evaluate_s"] = sum(tr.durations("evalharness.evaluate")) / iterations
        for item in inp.items[: scale.traced_routes]:
            with tr.span("router.answer_query"):
                out.answers.append(router.answer_query(item.question))
        out.parts = (served.graph, served.captions, served.provider)
    return out


# ----------------------------------------------------------------------
# recall_100k
# ----------------------------------------------------------------------


def recall_100k(seed: int, seconds: float, scale: Scale, tr, workdir: Path) -> Outcome:
    """Restore 100k-row stores, one closed-loop client, then ingest at that size.

    The client reads for the first ``1 - WRITE_SHARE`` of the run; the
    stores do not change while it runs. The rest of the run applies
    frames that continue the session, closed loop, so ingest is measured
    where every match scans 100k rows.
    """
    out = Outcome()
    inp = gen.recall_inputs(seed, scale.recall_rows, scale.recall_vocab, scale.recall_write_frames)
    out.layer["bench.inputs_rss_mb"] = peak_rss_mb()
    cfg = Config()
    setups = []
    for _ in range(SETUP_REPS):
        graph = captions = None
        gc.collect()
        t0 = perf_counter()
        with tr.span("bench.setup"):
            with tr.span("graph.restore"):
                graph = MemoryGraph.restore(cfg, inp.nodes)
            with tr.span("captions.restore"):
                captions = CaptionStore.restore(cfg, inp.records)
        setups.append(perf_counter() - t0)
        out.op()
    provider = HashProvider(seed=inp.provider_seed, dim=cfg.embedding_dim)
    router = make_router(graph, captions, provider, cfg, tr, out)
    client = Client(seed, inp.vocab.labels, inp.vocab.absent, (-inp.extent, inp.extent), inp.span_s)
    props = {"duplicate_row_share": inp.duplicate_share, "vocabulary": inp.vocab.shares()}
    stretch = inp.stretch
    del inp  # the stores hold what the run needs; the reference is rebuilt after it
    tool_lat, route_lat, checked, texts = [], [], [], []
    t_start = perf_counter()
    t_reads = t_start + seconds * (1.0 - WRITE_SHARE)
    n = 0
    while n == 0 or perf_counter() < t_reads:  # whole cycles keep the mix equal
        ops = client.cycle(n)
        for i, op in enumerate(ops):
            t0 = perf_counter()
            try:
                res = run_op(op, graph, captions, provider, router, tr)
            except Exception:
                out.error(op[1])
                continue
            dt = perf_counter() - t0
            out.op()
            if op[0] == "tool":
                tool_lat.append(dt)
                texts += [op[2]["query"]] if "query" in op[2] else []
            else:
                route_lat.append(dt)
                out.answers.append(res)
                texts.append(op[1])
            if (n == 0 or i == n % len(ops)) and len(checked) < scale.checked_ops:
                checked.append((op, res))
        n += 1
    frame_lat, reports = [], []
    for obs in stretch:
        if frame_lat and perf_counter() >= t_start + seconds:
            break
        t0 = perf_counter()
        with tr.span("bench.frame"):
            try:
                reports.append(apply_frame(graph, captions, obs, tr, out))
                out.op()
            except Exception:
                out.error("ingest")
                reports.append(None)
        frame_lat.append(perf_counter() - t0)
    rss = peak_rss_mb()
    out.e2e = {
        "setup_s": float(np.median(setups)),
        "ingest_frames_per_s": len(frame_lat) / sum(frame_lat),
        "ingest_frame_p50_ms": pct(frame_lat, 50) * 1e3,
        "ingest_frame_p99_ms": pct(frame_lat, 99) * 1e3,
        "tool_calls_per_s": len(tool_lat) / sum(tool_lat),
        "tool_p90_ms": pct(tool_lat, 90) * 1e3,
        "route_p50_ms": pct(route_lat, 50) * 1e3,
        "route_p90_ms": pct(route_lat, 90) * 1e3,
        "peak_rss_mb": rss,
    }
    out.samples = {
        "setup_s": len(setups),
        "ingest_frames_per_s": len(frame_lat),
        "ingest_frame_p50_ms": len(frame_lat),
        "ingest_frame_p99_ms": len(frame_lat),
        "tool_calls_per_s": len(tool_lat),
        "tool_p90_ms": len(tool_lat),
        "route_p50_ms": len(route_lat),
        "route_p90_ms": len(route_lat),
    }

    arr = gen.recall_arrays(seed, scale.recall_rows, scale.recall_vocab)  # the same seeded inputs
    ids = np.arange(1, scale.recall_rows + 1, dtype=np.int64)
    ref = refmod.Reference(
        refmod.Rows(ids, arr.graph_emb, arr.pos, arr.last),
        refmod.Rows(ids, arr.cap_emb, arr.cap_pos, arr.cap_time),
        arr.provider_seed, cfg.embedding_dim,
    )
    for op, res in checked:
        out.op(check_op(ref, op, res))
    applied = stretch[: len(reports)]
    for ok in check_stretch(ref.graph, applied, reports, cfg):
        out.op(ok)
    created = sum(len(r.created) for r in reports if r is not None)
    out.op(graph.node_count() == scale.recall_rows + created)
    out.op(captions.record_count() == scale.recall_rows + len(applied))

    labels = out.layer.pop("graph.labels", 0)
    out.layer.update(
        {
            "graph.nodes": graph.node_count(),
            "graph.update_ratio": out.layer.get("graph.updated", 0) / labels if labels else 0.0,
            "captions.records": captions.record_count(),
        }
    )
    out.props = {
        "rows": {"graph": scale.recall_rows, "captions": scale.recall_rows},
        "frames_applied": len(applied),
        "repeated_query_text_share": repeat_share(texts),
        "tied_row_share": {"graph": tied_row_share(ref.graph), "captions": tied_row_share(ref.captions)},
        **props,
    }
    if tr.enabled:
        for obs in applied:
            with tr.span("model.validate_observation"):
                validate_observation(obs, cfg)
    out.parts = (graph, captions, provider)
    return out


def check_stretch(base: refmod.Rows, frames, reports, cfg: Config) -> list[bool]:
    """Each applied frame's ingest report against a full-scan reference.

    Every stretch frame carries one label, so it updates the nearest row
    passing both gates, or creates a node when none does. Rows farther than
    ``delta_p`` from every frame pass no gate and are left out up front; the
    nodes the stretch itself creates are added as it goes. Reported ids
    must equal the reference's exactly.
    """
    if not frames:
        return []
    poses = np.array([obs.pose.position() for obs in frames])
    near = np.zeros(len(base.ids), dtype=bool)
    for p in poses:
        near |= np.linalg.norm(base.pos - p, axis=1) <= cfg.delta_p
    ids, emb, pos = list(base.ids[near]), list(base.emb[near]), list(base.pos[near])
    next_id = int(base.ids.max()) + 1
    verdicts = []
    for obs, p, report in zip(frames, poses, reports):
        label = obs.labels[0]
        rows = refmod.Rows(np.array(ids, dtype=np.int64), np.array(emb), np.array(pos), np.zeros(len(ids)))
        hit = refmod.matches(rows, label.embedding, p, cfg.delta_e, cfg.delta_p)
        want = ((), (hit[0],)) if hit else ((next_id,), ())
        if not hit:
            ids.append(next_id)
            emb.append(label.embedding)
            pos.append(p)
            next_id += 1
        verdicts.append(report is not None and (report.created, report.updated) == want)
    return verdicts


# ----------------------------------------------------------------------
# live_session
# ----------------------------------------------------------------------


def live_session(seed: int, seconds: float, scale: Scale, tr, workdir: Path) -> Outcome:
    """Load a snapshot, then a fixed-rate writer beside a closed-loop reader."""
    out = Outcome()
    fps = scale.live_fps
    # Each thread keeps to its own CPU, the reader to the highest-numbered
    # one, so a run's speed does not depend on where the scheduler put
    # them (on a small shared host the CPUs need not run at one speed).
    cpus = sorted(os.sched_getaffinity(0))
    reader_cpu, writer_cpu = cpus[-1], cpus[-2] if len(cpus) > 1 else cpus[-1]
    os.sched_setaffinity(0, {reader_cpu})  # set-up runs where the one-thread workloads run
    inp = gen.live_inputs(seed, scale.live_base_frames, max(1, round(fps * seconds)))
    out.layer["bench.inputs_rss_mb"] = peak_rss_mb()
    cfg = Config()
    snap = workdir / "live.lgrsnap"
    base = SessionState.new(cfg, HashProvider(seed=inp.provider_seed, dim=cfg.embedding_dim))
    scratch = Outcome()
    for obs in inp.base:
        apply_frame(base.graph, base.captions, obs, OFF, scratch)
    save_snapshot(base, snap)
    snap_rows = base.graph.node_count() + base.captions.record_count()
    seen = sorted({lab.text for obs in inp.base for lab in obs.labels})
    base_frames, base_end = len(inp.base), inp.base[-1].time
    del base
    inp.base.clear()  # in the snapshot now; the writer needs only the stretch

    loads = []
    for _ in range(SETUP_REPS):
        state = None
        t0 = perf_counter()
        with tr.span("snapshot.load_snapshot"):
            state = load_snapshot(snap)
        loads.append(perf_counter() - t0)
        out.op()
    graph, captions, provider = state.graph, state.captions, state.provider
    router = make_router(graph, captions, provider, state.cfg, tr, out, state.stats)
    extent = float(inp.tour.entities[: len(seen), :2].max())
    client = Client(seed, seen, inp.vocab.absent, (0.0, extent), base_end, clock=True)

    progress = [0, 0]  # frames started, frames fully applied
    stop = threading.Event()
    rd = Outcome()  # the reader's own counters; merged after join
    route_lat, tool_lat, checked, texts = [], [], [], []  # (start, seconds) each

    def reader() -> None:
        os.sched_setaffinity(0, {reader_cpu})  # this thread only, on Linux
        try:
            n = 0
            while not stop.is_set():
                ops = client.cycle(n)
                for i, op in enumerate(ops):
                    if stop.is_set():
                        return
                    lo = progress[1]
                    t0 = perf_counter()
                    try:
                        res = run_op(op, graph, captions, provider, router, tr)
                    except Exception:
                        rd.error(op[1])
                        continue
                    dt = perf_counter() - t0
                    hi = progress[0]
                    rd.op()
                    if op[0] == "tool":
                        tool_lat.append((t0, dt))
                        texts.extend([op[2]["query"]] if "query" in op[2] else [])
                    else:
                        route_lat.append((t0, dt))
                        if len(rd.answers) < scale.traced_routes:
                            rd.answers.append(res)
                        texts.append(op[1])
                    if n % 5 == 0 and i == (n // 5) % len(ops) and len(checked) < scale.checked_ops:
                        checked.append((op, res, lo, hi))
                n += 1
        except Exception:  # a dead reader must show as a failure, not as a quiet run
            rd.error("reader")

    thread = threading.Thread(target=reader, name="bench-reader")
    late, lat, busy = [], [], []
    thread.start()
    os.sched_setaffinity(0, {writer_cpu})
    t_start = perf_counter() + 0.01
    try:
        for i, obs in enumerate(inp.stretch):  # open loop: frame i is due at i / fps
            due = t_start + i / fps
            wait = due - perf_counter()
            if wait > 0:
                time.sleep(wait)
            begin = perf_counter()
            progress[0] = i + 1
            with tr.span("bench.frame"):
                try:
                    apply_frame(graph, captions, obs, tr, out)
                    out.op()
                except Exception:
                    out.error("ingest")
            progress[1] = i + 1
            end = perf_counter()
            late.append(begin - due)
            lat.append(end - due)
            busy.append(end - begin)
    finally:
        stop.set()
        thread.join(timeout=120)
        os.sched_setaffinity(0, cpus)
    if thread.is_alive():
        raise RuntimeError("reader thread did not stop")
    rss = peak_rss_mb()
    out.attempted += rd.attempted
    out.failed += rd.failed
    out.answers = rd.answers
    # Two busy threads share the interpreter lock, so a short stretch of
    # unlucky scheduling can swing a whole run's tail. Each latency metric
    # is therefore taken per window (a tenth of the run) and the median reported.
    window = (len(lat) / fps) / LIVE_WINDOWS
    frames_by = [[] for _ in range(LIVE_WINDOWS)]
    for i, x in enumerate(lat):
        frames_by[min(LIVE_WINDOWS - 1, int(i / fps / window))].append(x)

    def by_window(timed):
        groups = [[] for _ in range(LIVE_WINDOWS)]
        for t0, x in timed:
            groups[min(LIVE_WINDOWS - 1, max(0, int((t0 - t_start) / window)))].append(x)
        return groups

    routes_by, tools_by = by_window(route_lat), by_window(tool_lat)

    def windowed(groups, q: float) -> float:
        return float(np.median([pct(g, q) for g in groups])) * 1e3

    out.e2e = {
        "setup_s": float(np.median(loads)),
        # the writer's frames per second of its own busy time (it is paced)
        "ingest_frames_per_s": len(busy) / sum(busy),
        "ingest_frame_p50_ms": windowed(frames_by, 50),
        "ingest_frame_p99_ms": windowed(frames_by, 99),
        "tool_calls_per_s": len(tool_lat) / sum(x for _, x in tool_lat),
        "tool_p90_ms": windowed(tools_by, 90),
        "route_p50_ms": windowed(routes_by, 50),
        "route_p90_ms": windowed(routes_by, 90),
        "peak_rss_mb": rss,
    }
    out.samples = {
        "setup_s": len(loads),
        "ingest_frames_per_s": len(busy),
        "tool_calls_per_s": len(tool_lat),
        "tool_p90_ms": len(tool_lat),
        "ingest_frame_p50_ms": len(lat),
        "ingest_frame_p99_ms": len(lat),
        "route_p50_ms": len(route_lat),
        "route_p90_ms": len(route_lat),
    }

    # -- checks: replay the same frames on one thread ----------------------
    # A reader call ran against the stores after some frame count j between
    # the frames fully applied when it began and those begun when it ended.
    # Each checked step must equal the reference at one such j.
    steps = []  # (sample, tool, args, hits, lo, hi)
    for s, (op, res, lo, hi) in enumerate(checked):
        if op[0] == "tool":
            steps.append((s, op[1], op[2], res, lo, hi))
        else:
            steps += [(s, st.tool, st.args, st.hits, lo, hi) for st in res.trace]
    ok = [False] * len(steps)
    consistent = [op[0] == "tool" or refmod.answer_from_last_step(res) for op, res, _, _ in checked]
    replay = load_snapshot(snap)
    for j in range(len(inp.stretch) + 1):
        todo = [x for x, st in enumerate(steps) if not ok[x] and st[4] <= j <= st[5]]
        if todo:
            ref = refmod.Reference(
                refmod.Rows.of_nodes(replay.graph.all_nodes()),
                refmod.Rows.of_records(replay.captions.all_records()),
                inp.provider_seed, cfg.embedding_dim,
            )
            for x in todo:
                _, tool, args, hits, _, _ = steps[x]
                ok[x] = hits is not None and refmod.agrees(refmod.pairs(hits), ref.expected(tool, args))
        if j < len(inp.stretch):
            apply_frame(replay.graph, replay.captions, inp.stretch[j], OFF, scratch)
    for s in range(len(checked)):
        out.op(consistent[s] and all(ok[x] for x, st in enumerate(steps) if st[0] == s))
    out.op(same_nodes(graph.all_nodes(), replay.graph.all_nodes()))
    out.op(same_records(captions.all_records(), replay.captions.all_records()))

    labels = out.layer.pop("graph.labels", 0)
    out.layer.update(
        {
            "graph.nodes": graph.node_count(),
            "graph.update_ratio": out.layer.get("graph.updated", 0) / labels if labels else 0.0,
            "captions.records": captions.record_count(),
            "snapshot.bytes_per_row": snap.stat().st_size / snap_rows,
            "live.writer_late_ms.p99": pct(late, 99) * 1e3,
            "live.frames_applied": len(lat),
            "live.reader_ops": rd.attempted,
        }
    )
    rows_g = refmod.Rows.of_nodes(graph.all_nodes())
    rows_c = refmod.Rows.of_records(captions.all_records())
    out.props = {
        "rows": {"graph": graph.node_count(), "captions": captions.record_count()},
        "frames": {"snapshot": base_frames, "applied": len(inp.stretch), "fps": fps},
        "cpus": {"reader": reader_cpu, "writer": writer_cpu},
        "repeated_query_text_share": repeat_share(texts),
        "tied_row_share": {"graph": tied_row_share(rows_g), "captions": tied_row_share(rows_c)},
        "vocabulary": inp.vocab.shares(),
    }
    if tr.enabled:
        for obs in inp.stretch:
            with tr.span("model.validate_observation"):
                validate_observation(obs, cfg)
    out.parts = (graph, captions, provider)
    return out


def same_nodes(a, b) -> bool:
    return len(a) == len(b) and all(
        (x.node_id, x.label_text, x.pose, x.first_seen, x.last_seen, x.obs_count)
        == (y.node_id, y.label_text, y.pose, y.first_seen, y.last_seen, y.obs_count)
        and np.array_equal(x.embedding, y.embedding)
        for x, y in zip(a, b)
    )


def same_records(a, b) -> bool:
    return len(a) == len(b) and all(
        (x.record_id, x.text, x.pose, x.time) == (y.record_id, y.text, y.pose, y.time)
        and np.array_equal(x.embedding, y.embedding)
        for x, y in zip(a, b)
    )


WORKLOADS = {
    "replay_eval": replay_eval,
    "recall_100k": recall_100k,
    "live_session": live_session,
}


# ----------------------------------------------------------------------
# per-layer metrics of a traced run
# ----------------------------------------------------------------------


def trace_probes(out: Outcome, tr) -> dict[str, float]:
    """Counts over the routed answers, and their query texts re-embedded.

    A fresh provider embeds each text, so ``embedding.embed`` times the
    encoder and not its cache.
    """
    answers = out.answers
    texts = [step.args["query"] for a in answers for step in a.trace if "query" in step.args]
    provider = out.parts[2]
    fresh = HashProvider(seed=provider.seed, dim=provider.dimension())
    for text in texts:
        with tr.span("embedding.embed"):
            fresh.embed(text)
    n = max(1, len(answers))
    return {
        "router.self_ms.p50": pct(out.planner_s, 50) * 1e3,
        "router.tool_calls_per_query": sum(len(a.trace) for a in answers) / n,
        "router.gave_up_ratio": sum(a.gave_up for a in answers) / n,
        "router.fallback_rate": sum(any(s.vector for s in a.trace) for a in answers) / n,
        "embedding.repeat_text_ratio": repeat_share(texts),
    }


def layer_metrics(tr, out: Outcome) -> dict[str, float]:
    """The per-layer values of a traced run.

    A value is present only when the workload exercised its layer: a
    workload that never parses a log has no ``logio.*`` values.
    """
    lay = dict(out.layer)
    lay.update(trace_probes(out, tr))
    quantiles = [(f"{span}_ms", span, (50, 99)) for span in ("graph.ingest_observation", "captions.insert_caption")]
    quantiles += [(f"{span}_ms", span, (50, 99)) for span in TOOL_SPANS.values()]
    quantiles += [("router.answer_query_ms", "router.answer_query", (50, 90)), ("embedding.embed_ms", "embedding.embed", (50,))]
    for name, span, qs in quantiles:
        d = tr.durations(span)
        for q in qs if d else ():
            lay[f"{name}.p{q}"] = pct(d, q) * 1e3
    totals = {f"logio.{stage}_s": f"logio.{stage}" for stage in ("read_log_records", "subsample", "record_to_observation")}
    totals["model.validate_observation_s"] = "model.validate_observation"
    medians = {
        "graph.restore_s": "graph.restore",
        "captions.restore_s": "captions.restore",
        "snapshot.save_s": "snapshot.save_snapshot",
        "snapshot.load_s": "snapshot.load_snapshot",
    }
    for name, span in totals.items():
        if tr.durations(span):
            lay[name] = float(sum(tr.durations(span)))
    for name, span in medians.items():
        if tr.durations(span):
            lay[name] = float(np.median(tr.durations(span)))
    for layer, seconds in tr.self_seconds_by_layer().items():
        lay[f"self_s.{layer}"] = seconds
    lay["trace.spans"] = len(tr.spans)
    lay["op_error_rate"] = out.failed / max(1, out.attempted)
    return lay
