"""Dual-level memory engine for embodied agents.

Ingests timestamped, pose-annotated observation records into a
deduplicated entity graph and an append-only caption vector store, and
answers semantic, positional, and temporal queries through low-latency
retrieval tools with routed fallback between the two stores.
"""

from .captions import CaptionHit, CaptionRecord, CaptionStore
from .embedding import (
    EmbeddingProvider,
    FixtureProvider,
    HashProvider,
    l2_normalize,
    load_fixture_table,
    save_fixture_table,
)
from .evalharness import (
    SPATIAL_GATE_M,
    TEMPORAL_GATE_S,
    EvalReport,
    EvalRow,
    QAItem,
    evaluate,
    load_qa_items,
    save_qa_items,
    spatial_error,
    temporal_error,
)
from .graph import EntityNode, IngestReport, MemoryGraph
from .logio import (
    LogParseError,
    LogRecord,
    decode_vector,
    encode_vector,
    load_log,
    read_log_records,
    record_to_observation,
    subsample,
    write_log,
)
from .model import (
    Caption,
    Config,
    Label,
    Observation,
    Pose,
    ensure_valid,
    normalize_yaw,
    validate_observation,
)
from .router import (
    Answer,
    AnswerAction,
    CallTool,
    GiveUpAction,
    Planner,
    Router,
    RuleBasedPlanner,
    SessionStats,
    ToolResult,
    fallback_percentage,
)
from .snapshot import SessionState, SnapshotError, load_snapshot, save_snapshot
from .tools import (
    RetrievalHit,
    t_position,
    t_semantic,
    t_time,
    time_components_to_seconds,
)

__version__ = "0.1.0"
