from __future__ import annotations

import math
import tracemalloc
from numbers import Integral, Real

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lgr import (
    Caption,
    Config,
    Label,
    Observation,
    Pose,
    ensure_valid,
    normalize_yaw,
    validate_observation,
)
from lgr.embedding import l2_normalize
from lgr.model import EMBEDDING_NORM_TOL, _embedding_violations, json_number
from test_eval import JSON_VALUES

DIM = 8
CFG = Config(embedding_dim=DIM)


def unit(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return l2_normalize(rng.standard_normal(DIM))


def make_obs(**overrides) -> Observation:
    fields = dict(
        frame_id="f0",
        pose=Pose(1.0, 2.0, 0.0, 0.25),
        time=3.0,
        labels=(Label("chair", unit(1)),),
        caption=Caption("a chair by the wall", unit(2)),
    )
    fields.update(overrides)
    return Observation(**fields)


class TestNormalizeYaw:
    def test_zero(self):
        assert normalize_yaw(0.0) == 0.0

    def test_three_half_pi_wraps_negative(self):
        assert normalize_yaw(3 * math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_lower_bound_stays(self):
        assert normalize_yaw(-math.pi) == -math.pi

    def test_upper_bound_folds(self):
        assert normalize_yaw(math.pi) == -math.pi

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                normalize_yaw(bad)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_range_idempotence_and_congruence(self, theta):
        out = normalize_yaw(theta)
        assert -math.pi <= out < math.pi
        assert normalize_yaw(out) == out
        turns = (theta - out) / math.tau
        assert abs(turns - round(turns)) < 1e-9


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert cfg.delta_p == 5.0
        assert cfg.delta_e == 0.75
        assert cfg.subsample_period == 2.0
        assert cfg.default_k == 5
        assert cfg.max_planner_iterations == 8
        assert cfg.embedding_dim == 384

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta_p": 0.0},
            {"delta_p": -1.0},
            {"delta_e": 0.0},
            {"delta_e": 1.5},
            {"subsample_period": 0.0},
            {"default_k": 0},
            {"max_planner_iterations": 0},
            {"embedding_dim": 0},
            {"delta_p": "x"},
            {"delta_e": None},
            {"subsample_period": [2.0]},
            {"delta_p": True},
            {"default_k": 2.5},
            {"default_k": True},
            {"max_planner_iterations": "8"},
            {"embedding_dim": 64.0},
            {"embedding_dim": np.float64(64)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Config(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"default_k": 2.5}, "default_k must be an integer, got 2.5"),
            ({"embedding_dim": False}, "embedding_dim must be an integer, got False"),
            ({"delta_p": "x"}, "delta_p must be a number, got 'x'"),
            ({"delta_p": -1.0}, "delta_p must be > 0, got -1.0"),
            ({"delta_e": 1.5}, "delta_e must be in (0, 1], got 1.5"),
            ({"subsample_period": math.inf}, "subsample_period must be > 0, got inf"),
            ({"default_k": 0}, "default_k must be >= 1, got 0"),
            ({"max_planner_iterations": 0}, "max_planner_iterations must be >= 1, got 0"),
            ({"embedding_dim": -3}, "embedding_dim must be >= 1, got -3"),
        ],
    )
    def test_bad_value_messages(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            Config(**kwargs)
        assert str(err.value) == message

    def test_accepts_numpy_scalars_and_ints_for_numbers(self):
        cfg = Config(delta_p=3, delta_e=np.float32(0.5), default_k=np.int64(2))
        assert (cfg.delta_p, cfg.delta_e, cfg.default_k) == (3, 0.5, 2)

    @pytest.mark.parametrize("doc", [[], [1, 2], "delta_p", 5.0, None])
    def test_from_dict_rejects_non_object(self, doc):
        with pytest.raises(ValueError, match="config must be a JSON object"):
            Config.from_dict(doc)

    def test_round_trip(self):
        cfg = Config(delta_p=2.5, embedding_dim=16)
        assert Config.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown config"):
            Config.from_dict({"delta_q": 1.0})

    def test_embedding_dim_is_bounded_at_65536(self):
        assert Config.from_dict({"embedding_dim": 65536}).embedding_dim == 65536
        with pytest.raises(ValueError, match=r"^embedding_dim must be >= 1, got 0$"):
            Config(embedding_dim=0)
        for dim in (65537, 10**400):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=r"^embedding_dim must be <= 65536$"):
                    Config.from_dict({"embedding_dim": dim})
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 1024  # nothing near a 65537-wide vector (256 KiB)


# ----------------------------------------------------------------------
# Config.from_dict, fuzzed against the strict reader
# ----------------------------------------------------------------------

CONFIG_DOC = {
    "delta_p": 4.0, "delta_e": 0.8, "subsample_period": 1.0,
    "default_k": 3, "max_planner_iterations": 6, "embedding_dim": 16,
}
CONFIG_MUTATIONS = ("swap", "drop", "nest", "huge", "special", "unknown", "not an object")


def mutated_config(how: str, field: str, value, special: float, flag: bool):
    """``CONFIG_DOC`` with one mutation: ``field`` swapped for ``value``,
    dropped, nested in a list or an object, set to an integer too large
    for a float (negative when ``flag``) or to ``special``; an unknown
    field added; or the whole document replaced by ``value``."""
    doc = dict(CONFIG_DOC)
    if how == "swap":
        doc[field] = value
    elif how == "drop":
        del doc[field]
    elif how == "nest":
        doc[field] = [doc[field]] if flag else {"v": doc[field]}
    elif how == "huge":
        doc[field] = -(10**400) if flag else 10**400
    elif how == "special":
        doc[field] = special
    elif how == "unknown":
        doc[field + "s"] = value
    else:
        return value
    return doc


def config_or_refusal(read, doc):
    """The fields ``read(doc)`` returns, or None when it raises ValueError,
    and no other type."""
    try:
        got = read(doc)
    except ValueError as exc:
        assert type(exc) is ValueError, exc
        return None
    return got.to_dict() if isinstance(got, Config) else got


SPECIALS = st.sampled_from((math.nan, math.inf, -math.inf, -5.0, -0.0, 0.0, 1.0, 1.5))


@settings(max_examples=400, deadline=None)
@given(
    how=st.sampled_from(CONFIG_MUTATIONS),
    field=st.sampled_from(tuple(CONFIG_DOC)),
    value=JSON_VALUES,
    special=SPECIALS,
    flag=st.booleans(),
)
def test_mutated_config_is_read_as_the_strict_reader_reads_it(how, field, value, special, flag):
    doc = mutated_config(how, field, value, special, flag)
    want = config_or_refusal(oracles.read_config_strict, doc)
    assert config_or_refusal(Config.from_dict, doc) == want


class TestValidateObservation:
    def test_clean_observation_ok(self):
        assert validate_observation(make_obs(), CFG) == ()

    def test_dimension_mismatch(self):
        bad = l2_normalize(np.ones(DIM + 1))
        result = validate_observation(
            make_obs(labels=(Label("chair", bad),)), CFG
        )
        assert result
        assert any("dimension mismatch" in v for v in result)

    def test_yaw_out_of_range(self):
        result = validate_observation(
            make_obs(pose=Pose(0.0, 0.0, 0.0, 3 * math.pi / 2)), CFG
        )
        assert any("yaw out of range" in v for v in result)

    def test_nan_pose(self):
        result = validate_observation(
            make_obs(pose=Pose(math.nan, 0.0, 0.0, 0.0)), CFG
        )
        assert any("not finite" in v for v in result)

    def test_negative_time(self):
        result = validate_observation(make_obs(time=-1.0), CFG)
        assert any("non-negative" in v for v in result)

    def test_unnormalized_embedding(self):
        vec = (unit(3) * 1.01).astype(np.float32)
        result = validate_observation(make_obs(labels=(Label("x", vec),)), CFG)
        assert any("not L2-normalized" in v for v in result)

    def test_empty_label_text(self):
        result = validate_observation(make_obs(labels=(Label("", unit(1)),)), CFG)
        assert any("empty text" in v for v in result)

    def test_missing_caption_is_fine(self):
        assert validate_observation(make_obs(caption=None), CFG) == ()

    def test_empty_labels_list_is_fine(self):
        assert validate_observation(make_obs(labels=()), CFG) == ()


TOL = EMBEDDING_NORM_TOL
INSIDE = (1.0, 1 + TOL / 2, 1 - TOL / 2, 1 + 0.999 * TOL, 1 - 0.999 * TOL,
          1 + TOL, 1 - TOL)  # the last two round to either side
OUTSIDE = (1 + 1.001 * TOL, 1 - 1.001 * TOL, 1 + 2 * TOL, 1.5, 0.0)


def _norm_reference(vec, dim: int, what: str) -> list[str]:
    """The embedding check written out component by component: every
    value finite, then ``np.linalg.norm`` of the float64 copy."""
    if not isinstance(vec, np.ndarray):
        return [f"{what}: embedding must be a numpy array"]
    if vec.ndim != 1 or vec.shape[0] != dim:
        shape = vec.shape[0] if vec.ndim == 1 else vec.shape
        return [f"{what}: dimension mismatch (expected {dim}, got {shape})"]
    v64 = vec.astype(np.float64)
    if not np.all(np.isfinite(v64)):
        return [f"{what}: non-finite embedding values"]
    norm = float(np.linalg.norm(v64))
    if abs(norm - 1.0) > EMBEDDING_NORM_TOL:
        return [f"{what}: embedding not L2-normalized (norm={norm:.8f})"]
    return []


@st.composite
def embeddings(draw):
    """Unit vectors scaled to norms at, inside and outside the tolerance,
    in float32 or float64, and values the check refuses."""
    scale = draw(st.sampled_from(INSIDE * 3 + OUTSIDE))
    vec = unit(draw(st.integers(0, 50))).astype(np.float64) * scale
    kind = draw(st.sampled_from(  # mostly well-formed, so whole observations often pass
        ("float64",) * 6 + ("float32",) * 6
        + ("non-finite", "overflow", "strided", "wrong dim", "2-d", "list", "int", "none")
    ))
    if kind == "float32":
        return vec.astype(np.float32)
    if kind == "non-finite":
        vec = vec.astype(draw(st.sampled_from((np.float32, np.float64))))
        vec[draw(st.integers(0, DIM - 1))] = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
        return vec
    if kind == "overflow":  # finite values whose sum of squares is inf
        vec[draw(st.integers(0, DIM - 1))] = draw(st.sampled_from((1e200, -1e300)))
        return vec
    if kind == "strided":  # a non-contiguous view
        return np.stack([vec, vec[::-1]], axis=1)[:, 0]
    if kind == "wrong dim":
        return l2_normalize(np.ones(draw(st.sampled_from((1, DIM - 1, DIM + 1)))))
    if kind == "2-d":
        return vec.reshape(1, DIM)
    if kind == "list":
        return vec.tolist()
    if kind == "int":
        return np.eye(DIM, dtype=np.int64)[0]  # unit length, but not floating point
    if kind == "none":
        return None
    return vec


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(vec=embeddings())
def test_embedding_check_equals_the_componentwise_reference(vec):
    assert _embedding_violations(vec, DIM, "label 0") == _norm_reference(vec, DIM, "label 0")


# each field is mostly valid, so whole observations often pass
finite = st.floats(-1e6, 1e6)
special = st.sampled_from((math.nan, math.inf, -math.inf, -0.0))
scalars = st.one_of(finite, finite, finite, st.integers(-5, 5), special)
in_range = st.floats(-math.pi, math.pi, exclude_max=True)
yaws = st.one_of(
    in_range,
    in_range,
    st.sampled_from((math.pi, -math.pi, math.nextafter(math.pi, 0), math.nextafter(-math.pi, -4),
                     4.0, math.nan, math.inf)),
)
times = st.one_of(
    st.floats(0, 1e6),
    st.floats(0, 1e6),
    st.sampled_from((0.0, -0.0, -1.0, -5e-324, math.inf, -math.inf, math.nan)),
)
texts = st.sampled_from(("chair", "a chair by the wall", "chair", ""))


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(
    pose=st.builds(Pose, scalars, scalars, scalars, yaws),
    time=times,
    labels=st.lists(st.builds(Label, texts, embeddings()), max_size=2),
    caption=st.none() | st.builds(Caption, texts, embeddings()),
)
def test_ensure_valid_raises_exactly_the_violations(pose, time, labels, caption):
    obs = Observation("f", pose, time, tuple(labels), caption)
    result = validate_observation(obs, CFG)
    if not result:
        ensure_valid(obs, CFG)
    else:
        with pytest.raises(ValueError) as err:
            ensure_valid(obs, CFG)
        assert str(err.value) == "invalid observation 'f': " + "; ".join(result)


def _with_nan(vec: np.ndarray) -> np.ndarray:
    vec = vec.copy()
    vec[3] = math.nan
    return vec


@pytest.mark.parametrize(
    "fault, ok",
    [
        (dict(pose=Pose(math.nan, 2.0, 0.0, 0.25)), False),
        (dict(pose=Pose(1.0, math.inf, 0.0, 0.25)), False),
        (dict(pose=Pose(1.0, 2.0, -math.inf, 0.25)), False),
        (dict(pose=Pose(1.0, 2.0, 0.0, math.pi)), False),
        (dict(pose=Pose(1.0, 2.0, 0.0, math.nan)), False),
        (dict(pose=Pose(0.0, 0.0, 0.0, -math.pi), time=-0.0), True),
        (dict(time=-1.0), False),
        (dict(time=math.inf), False),
        (dict(time=math.nan), False),
        (dict(labels=(Label("", unit(1)),)), False),
        (dict(caption=Caption("", unit(2))), False),
        (dict(caption=Caption("a chair", unit(2) * (1 + 1.5 * TOL))), False),
        (dict(caption=Caption("a chair", unit(2) * (1 + 0.75 * TOL))), True),
        (dict(labels=(Label("chair", _with_nan(unit(1)).astype(np.float32)),)), False),
        (dict(labels=(Label("chair", unit(1)), Label("desk", unit(3).reshape(1, DIM)))), False),
        (dict(labels=(Label("chair", unit(1)[:-1]),)), False),
        (dict(labels=(Label("chair", unit(1).tolist()),)), False),
        (dict(caption=Caption("a chair", None)), False),
        (dict(caption=Caption("a chair", np.eye(DIM, dtype=np.int64)[0])), True),
        (dict(labels=(Label("chair", unit(1).astype(np.float32)),),
              caption=Caption("a chair", unit(2).astype(np.float32))), True),
    ],
)
def test_each_single_field_decides_the_verdict(fault, ok):
    assert (validate_observation(make_obs(**fault), CFG) == ()) is ok


def test_pose_position_vector():
    p = Pose(1.0, -2.0, 3.5, 0.1)
    assert np.array_equal(p.position(), np.array([1.0, -2.0, 3.5]))
    assert Pose.from_dict(p.to_dict()) == p


@pytest.mark.parametrize(
    "d, bad",
    [
        ({"x": True, "y": 0.0}, "pose.x"),
        ({"x": 0.0, "y": "1e1"}, "pose.y"),
        ({"x": 0.0, "y": 0.0, "z": None}, "pose.z"),
        ({"x": 0.0, "y": 0.0, "yaw": [0.5]}, "pose.yaw"),
    ],
)
def test_pose_from_dict_refuses_what_is_not_a_number(d, bad):
    with pytest.raises(ValueError, match=rf"{bad} must be a number, got"):
        Pose.from_dict(d)


def test_pose_from_dict_reads_numbers_as_floats():
    pose = Pose.from_dict({"x": 1, "y": -2.5, "yaw": 3})
    assert pose == Pose(1.0, -2.5, 0.0, 3.0) and all(type(v) is float for v in vars(pose).values())


@pytest.mark.parametrize(
    "value, kind, message",
    [
        (True, Real, "v must be a number, got True"),
        (True, Integral, "v must be an integer, got True"),
        (False, Integral, "v must be an integer, got False"),
        (2.0, Integral, "v must be an integer, got 2.0"),
        (np.float64(2.0), Integral, "v must be an integer, got np.float64(2.0)"),
        ("1", Real, "v must be a number, got '1'"),
        (None, Integral, "v must be an integer, got None"),
    ],
)
def test_json_number_refuses_bools_and_non_integers(value, kind, message):
    with pytest.raises(ValueError) as err:
        json_number(value, "v", kind)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "value, kind",
    [(1.5, Real), (-0.0, Real), (math.inf, Real), (3, Real), (3, Integral), (10**400, Integral),
     (np.float64(1.5), Real), (np.float32(1.5), Real), (np.int64(3), Integral), (np.int64(3), Real)],
)
def test_json_number_accepts_numbers_of_its_kind_unchanged(value, kind):
    assert json_number(value, "v", kind) is value


def test_pose_from_dict_looks_up_every_field_before_checking_one():
    with pytest.raises(KeyError, match="'y'"):
        Pose.from_dict({"x": "not a number"})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"delta_p": True}, "delta_p must be a number, got True"),
        ({"default_k": True}, "default_k must be an integer, got True"),
        ({"embedding_dim": 64.0}, "embedding_dim must be an integer, got 64.0"),
        ({"embedding_dim": np.float64(64)}, "embedding_dim must be an integer, got np.float64(64.0)"),
        ({"max_planner_iterations": "8"}, "max_planner_iterations must be an integer, got '8'"),
    ],
)
def test_config_number_messages(kwargs, message):
    with pytest.raises(ValueError) as err:
        Config(**kwargs)
    assert str(err.value) == message


def test_config_accepts_numpy_scalars_of_each_kind():
    cfg = Config(delta_p=np.float64(1.5), default_k=np.int64(3), embedding_dim=np.int64(16))
    assert (cfg.delta_p, cfg.default_k, cfg.embedding_dim) == (1.5, 3, 16)
