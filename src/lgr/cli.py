"""Command-line surface: ingest a log, query a snapshot, evaluate, stats.

Only ``ingest`` takes engine parameters: built-in defaults, overridden by
the config file (--config or $LGR_CONFIG), overridden by command-line
flags. ``query``, ``eval`` and ``stats`` read them from the snapshot.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from .embedding import EmbeddingProvider, FixtureProvider, HashProvider, load_fixture_table
from .evalharness import evaluate, load_qa_items
from .logio import LogParseError
from .model import Config
from .router import Router, RuleBasedPlanner, fallback_percentage
from .snapshot import SessionState, SnapshotError, load_snapshot, save_snapshot
from .tools import TOOLS

CONFIG_ENV_VAR = "LGR_CONFIG"

_QUERY_TOOLS = {t.cli_name: t for t in TOOLS}
QUERY_TOOLS = (*_QUERY_TOOLS, "route")


def _provider_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="hash-provider seed (default 0)")
    parser.add_argument(
        "--provider",
        default=None,
        help="embedding provider: 'hash' or 'fixture:<table path>'",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgr",
        description="dual-level memory engine: entity graph + caption store",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="build both stores from a log")
    p_ingest.add_argument("log", help="observation log (JSON lines)")
    p_ingest.add_argument("--out", required=True, help="snapshot output path")
    p_ingest.add_argument("--config", help="JSON config file (also $LGR_CONFIG)")
    p_ingest.add_argument("--delta-p", type=float, help="spatial dedup radius, meters")
    p_ingest.add_argument("--delta-e", type=float, help="semantic dedup threshold")
    p_ingest.add_argument("--period", type=float, help="subsampling period, seconds")
    p_ingest.add_argument("--k", type=int, help="default top-k")
    _provider_flags(p_ingest)

    p_query = sub.add_parser("query", help="run one retrieval tool on a snapshot")
    p_query.add_argument("snapshot")
    p_query.add_argument("tool", help="one of: " + ", ".join(QUERY_TOOLS))
    text_tools = [t.cli_name for t in TOOLS if ("query", "string") in t.params]
    p_query.add_argument("--query", help=f"text query ({', '.join(text_tools)}, route)")
    p_query.add_argument("--x", type=float)
    p_query.add_argument("--y", type=float)
    p_query.add_argument("--z", type=float, default=0.0)
    p_query.add_argument("--hh", type=int)
    p_query.add_argument("--mm", type=int)
    p_query.add_argument("--ss", type=int)
    p_query.add_argument("--t", type=float, help="session seconds (captions-time)")
    p_query.add_argument(
        "--update-snapshot",
        action="store_true",
        help="persist updated session stats back into the snapshot (route only)",
    )
    p_query.add_argument("--k", type=int, help="top-k (default: the snapshot's)")
    _provider_flags(p_query)

    p_eval = sub.add_parser("eval", help="score QA items against a snapshot")
    p_eval.add_argument("snapshot")
    p_eval.add_argument("qa", help="QA items file (JSON lines)")
    p_eval.add_argument("--format", choices=("json", "table"), default="json")
    p_eval.add_argument(
        "--update-snapshot",
        action="store_true",
        help="persist updated session stats back into the snapshot",
    )
    p_eval.add_argument("--k", type=int, help="top-k (default: the snapshot's)")

    p_stats = sub.add_parser(
        "stats", help="print store sizes, distinct stored vectors and fallback rate"
    )
    p_stats.add_argument("snapshot")

    return parser


def resolve_config(args: argparse.Namespace) -> Config:
    values = Config().to_dict()
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        values.update(Config.from_dict(file_values).to_dict())
    overrides = {
        "delta_p": args.delta_p,
        "delta_e": args.delta_e,
        "subsample_period": args.period,
        "default_k": args.k,
    }
    values.update({k: v for k, v in overrides.items() if v is not None})
    return Config.from_dict(values)


def resolve_provider(spec: Optional[str], cfg: Config, seed: Optional[int]) -> EmbeddingProvider:
    spec, seed = spec or "hash", seed or 0
    if spec == "hash":
        return HashProvider(seed=seed, dim=cfg.embedding_dim)
    if spec.startswith("fixture:"):
        table_path = spec.split(":", 1)[1]
        if not table_path:
            raise ValueError("fixture provider needs a path: fixture:<table path>")
        table = load_fixture_table(table_path)
        fallback = HashProvider(seed=seed, dim=cfg.embedding_dim)
        return FixtureProvider(table, fallback=fallback, dim=cfg.embedding_dim)
    raise ValueError(f"unknown provider spec: {spec!r}")


def _print(obj: object) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    state = SessionState.new(cfg, resolve_provider(args.provider, cfg, args.seed))
    t0 = time.perf_counter()
    counts = state.ingest_log(args.log)
    save_snapshot(state, args.out)
    _print({**counts, "wall_time_s": round(time.perf_counter() - t0, 6), "snapshot": args.out})
    return 0


def _require(args: argparse.Namespace, names: Sequence[str], tool: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ValueError(f"tool {tool!r} needs --" + ", --".join(missing))


def _router(state: SessionState, provider: EmbeddingProvider, k: int) -> Router:
    """The routed-query setup ``lgr query ... route`` and ``lgr eval`` share."""
    return Router(
        state.graph,
        state.captions,
        provider,
        RuleBasedPlanner(k=k),
        cfg=state.cfg,
        stats=state.stats,
    )


def _usage_error(message: str) -> int:
    """Report an option combination the command would not act on; exit 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_query(args: argparse.Namespace) -> int:
    if args.tool not in QUERY_TOOLS:
        return _usage_error(
            f"unknown tool: {args.tool!r} (expected one of {', '.join(QUERY_TOOLS)})"
        )
    if args.update_snapshot and args.tool != "route":
        return _usage_error("--update-snapshot is read only by the route tool")
    if args.seed is not None and args.provider is None:
        return _usage_error("--seed is read only with --provider")
    state = load_snapshot(args.snapshot)
    provider = state.provider
    if args.provider is not None:
        provider = resolve_provider(args.provider, state.cfg, args.seed)
    k = args.k if args.k is not None else state.cfg.default_k
    tool = _QUERY_TOOLS.get(args.tool)
    if tool is not None:
        names = [n for n, _ in tool.params if n != "k"]
        _require(args, names, args.tool)
        hits = tool.run(
            state.graph, state.captions, provider, k=k, **{n: getattr(args, n) for n in names}
        )
        _print([h.to_dict() for h in hits])
    else:  # route
        _require(args, ("query",), args.tool)
        _print(_router(state, provider, k).answer_query(args.query).to_dict())
        if args.update_snapshot:
            save_snapshot(state, args.snapshot)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    state = load_snapshot(args.snapshot)
    items = load_qa_items(args.qa)
    k = args.k if args.k is not None else state.cfg.default_k
    report = evaluate(_router(state, state.provider, k), items)
    if args.format == "table":
        print(report.to_table())
    else:
        _print(report.to_dict())
    if args.update_snapshot:
        save_snapshot(state, args.snapshot)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    state = load_snapshot(args.snapshot)
    stats = state.stats
    _print(
        {
            "format_version": ".".join(map(str, state.format_version)),
            "nodes": state.graph.node_count(),
            "node_vectors": state.graph.vector_count(),
            "caption_records": state.captions.record_count(),
            "caption_vectors": state.captions.vector_count(),
            "n_queries": stats.n_queries,
            "n_vector_calls": stats.n_vector_calls,
            "fallback": fallback_percentage(stats) if stats.n_queries else None,
        }
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "ingest": cmd_ingest,
        "query": cmd_query,
        "eval": cmd_eval,
        "stats": cmd_stats,
    }
    try:
        return handlers[args.command](args)
    except (LogParseError, SnapshotError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
