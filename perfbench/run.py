#!/usr/bin/env python3
"""Layered benchmark for lgr.

One workload, as the benchmark contract runs it::

    python3 perfbench/run.py --workload replay_eval --seed 1 --seconds 20 --trace 0

prints human-readable ``#`` lines, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` runs the workload
once untraced and once traced and reports every per-layer metric,
including the tracing overhead (traced minus untraced end-to-end values).
Spans are written to ``perfbench/out/``. Values only some workloads
measure (``WORKLOAD_ONLY``) are printed on the ``#`` lines, not in the
JSON line, which carries the same metrics for every workload.

All workloads, each in its own process, with a summary table::

    python3 perfbench/run.py --workload all --seed 1 [--trace 1] [--record FILE]

Tiny-size smoke run of every code path, checking every metric name::

    python3 perfbench/run.py --smoke

Metric names, units and directions come from ``BENCHMARK.json`` at the
repository root; the engine is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("replay_eval", "recall_100k", "live_session")
ONE_THREAD = ("replay_eval", "recall_100k")
# Workloads that run here but are not listed in BENCHMARK.json, so no
# regression bound applies to them (see README, "Why live_session is not
# gated"), with the reason each exists.
UNGATED = {
    "live_session": "one writer at a stress rate of 100 frames/s (a session keeps one per 2 s) beside one "
    "closed-loop reader with no think time: reads and writes contend for the store locks and the interpreter",
}
# Metrics whose value measures time, for the tracing-overhead report.
TIMED = (
    "setup_s", "ingest_frames_per_s", "ingest_frame_p50_ms", "ingest_frame_p99_ms",
    "snapshot_save_s", "snapshot_load_s", "tool_calls_per_s", "tool_p90_ms",
    "route_p50_ms", "route_p90_ms",
)
# Values only some workloads measure: unit and better direction. The
# result line carries exactly the metrics of BENCHMARK.json, each measured
# on every workload, so these are printed on "#" lines only.
WORKLOAD_ONLY = {
    # replay_eval, untraced
    "snapshot_save_s": ("s", "lower"),
    "snapshot_load_s": ("s", "lower"),
    "snapshot_mb": ("MB", "lower"),
    "positional_accuracy": ("fraction", "higher"),
    "temporal_accuracy": ("fraction", "higher"),
    "fallback_rate": ("fraction", "lower"),
    # replay_eval, traced
    "logio.read_log_records_s": ("s", "lower"),
    "logio.subsample_s": ("s", "lower"),
    "logio.record_to_observation_s": ("s", "lower"),
    "logio.lines_parsed": ("count", "lower"),
    "logio.kept_ratio": ("fraction", "higher"),
    "evalharness.evaluate_s": ("s", "lower"),
    "snapshot.save_s": ("s", "lower"),
    "self_s.logio": ("s", "lower"),
    "self_s.evalharness": ("s", "lower"),
    # replay_eval and live_session, traced
    "snapshot.load_s": ("s", "lower"),
    "snapshot.bytes_per_row": ("B/row", "lower"),
    "self_s.snapshot": ("s", "lower"),
    # recall_100k, traced
    "graph.restore_s": ("s", "lower"),
    "captions.restore_s": ("s", "lower"),
    # live_session, traced
    "live.writer_late_ms.p99": ("ms", "lower"),
    "live.frames_applied": ("count", "higher"),
    "live.reader_ops": ("count", "higher"),
}


def pin_threads() -> None:
    """One BLAS/OpenMP thread, so only the workload's own threads are busy."""
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
    ):
        os.environ[var] = "1"


def pin_cpu() -> int:
    """Keep a one-thread workload on one CPU, the highest-numbered usable one.

    Left to the scheduler, the process moves between CPUs that need not run
    at the same speed (CPU 0 often also serves interrupts), and each run's
    figures then depend on where it happened to land. Child processes
    inherit the pinning.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_spec() -> dict:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as fh:
        spec = json.load(fh)
    extra = {n: {"name": n, "unit": u, "better": b} for n, (u, b) in WORKLOAD_ONLY.items()}
    known = extra | {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for name in TIMED:  # overhead of a workload-only value (traced minus untraced): its unit and direction
        if name in known and f"trace_overhead.{name}" not in known:
            known[f"trace_overhead.{name}"] = dict(known[name], name=f"trace_overhead.{name}")
    return known | {"_": spec}


def machine(full: bool = False) -> dict:
    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    if full:  # reads outside the checkout; only the multi-workload report does this
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                facts["cpu_model"] = next(
                    (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                    "unknown",
                )
        except OSError:
            facts["cpu_model"] = "unknown"
        try:
            facts["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            facts["git_commit"] = "unknown"
    return facts


def fmt(name: str, value: float, spec: dict, n: int | None = None) -> str:
    m = spec.get(name, {"unit": "", "better": "?"})
    count = f" [n={n}]" if n is not None else ""
    return f"{name} = {value!r} {m['unit']} ({m['better']} is better){count}"


def run_one(args) -> int:
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import OFF, Tracer

    spec = load_spec()
    scale = workloads.SCALES[args.scale]
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = workloads.WORKLOADS[args.workload]
    print(f"# workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} scale={args.scale}")
    facts = machine()
    if args.workload in ONE_THREAD:
        facts["pinned_cpu"] = pin_cpu()
    print(f"# machine {json.dumps(facts)}")
    why = {w["name"]: w["why"] for w in spec["_"]["workloads"]} | UNGATED
    print(f"# why {why[args.workload]}")
    try:
        plain = run(args.seed, args.seconds, scale, OFF, work)
        plain.parts, plain.answers = None, []  # free the stores before the traced run
        if args.trace:
            tr = Tracer()
            traced = run(args.seed, args.seconds, scale, tr, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(f"# properties {json.dumps(plain.props, sort_keys=True)}")
    attempted, failed = plain.attempted, plain.failed
    e2e_names = [m["name"] for m in spec["_"]["end_to_end"]]
    if args.trace:
        values = workloads.layer_metrics(tr, traced)
        # A high-water mark: only the first run in this process reads its own.
        values["bench.inputs_rss_mb"] = plain.layer["bench.inputs_rss_mb"]
        # End-to-end values outside the manifest's list, from the untraced run.
        values.update({n: v for n, v in plain.e2e.items() if n not in e2e_names})
        for name in TIMED:
            if name in plain.e2e:
                values[f"trace_overhead.{name}"] = traced.e2e[name] - plain.e2e[name]
        names = [m["name"] for m in spec["_"]["per_layer"]]
        attempted += traced.attempted
        failed += traced.failed
    else:
        values, names = dict(plain.e2e), e2e_names
    for name in names + sorted(set(values) - set(names)):
        if name in values:
            print("# " + fmt(name, values[name], spec, plain.samples.get(name)))
    if "op_error_rate" not in values:
        print("# " + fmt("op_error_rate", plain.failed / plain.attempted, spec) + f" [{plain.failed}/{plain.attempted}]")
    print(f"# values {json.dumps(values, sort_keys=True)}")
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tr.write(spans)
        print(f"# spans {len(tr.spans)} written to {spans.relative_to(ROOT)}")
    missing = [n for n in names if n not in values]
    if missing:
        print(f"# FAILED: {args.workload} did not measure {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(values[n]), "unit": spec[n]["unit"]} for n in names},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is that workload's."""
    spec = load_spec()
    traces = (0, 1) if args.smoke or args.trace else (0,)
    report = {"machine": machine(full=True), "seed": args.seed, "seconds": args.seconds,
              "scale": args.scale, "workloads": {}}
    ok = True
    for w in WORKLOAD_NAMES:
        entry = report["workloads"].setdefault(w, {})
        for t in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(t), "--scale", args.scale]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write(proc.stdout if not args.smoke else "")
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"FAILED: {w} trace={t} exited {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            key = "per_layer" if t else "end_to_end"
            for line in lines:
                if line.startswith("# properties "):
                    entry["properties"] = json.loads(line[len("# properties "):])
                if line.startswith("# why "):
                    entry["why"] = line[len("# why "):]
                if line.startswith("# values "):
                    entry[key] = json.loads(line[len("# values "):])
            entry.setdefault("op_error_rate", {})[key] = result["failed"] / result["attempted"]
            ok &= result["correct"]
            if set(result["metrics"]) != {m["name"] for m in spec["_"][key]}:
                print(f"FAILED: {w} trace={t} does not report every {key} metric")
                ok = False
    if 0 in traces:
        first = [m["name"] for m in spec["_"]["end_to_end"]]
        measured = set().union(*(set(e.get("end_to_end", {})) for e in report["workloads"].values()))
        print("\n# end-to-end values (trace 0); below the line, values outside BENCHMARK.json's end-to-end list")
        print(f"# {'metric':<22} {'unit':<10} {'better':<7} " + " ".join(f"{w:>14}" for w in WORKLOAD_NAMES))
        for name in first + ["-"] + sorted(measured - set(first)) + ["op_error_rate"]:
            if name == "-":
                print("# " + "-" * (42 + 15 * len(WORKLOAD_NAMES)))
                continue
            m = spec[name]
            cells = []
            for w in WORKLOAD_NAMES:
                e = report["workloads"][w]
                v = e.get("op_error_rate", {}).get("end_to_end") if name == "op_error_rate" else e.get("end_to_end", {}).get(name)
                cells.append(f"{v:>14.6g}" if v is not None else f"{'-':>14}")
            print(f"# {name:<22} {m['unit']:<10} {m['better']:<7} " + " ".join(cells))
    if args.record:
        Path(args.record).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("smoke ok" if args.smoke and ok else ("all ok" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, both trace modes")
    p.add_argument("--record", help="with --workload all: write machine facts, properties and metrics here")
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if args.smoke:
        args.workload, args.scale, args.seconds = "all", "tiny", 1.0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
