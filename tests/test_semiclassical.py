from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from testspaces import corpus
from testspaces.core import TestSpace, ValidationError
from testspaces.logic import build_logic
from testspaces.metric import MetricSample, basic_open, sample_frames, vietoris_member
from testspaces.semiclassical import (
    DegenerateTestError,
    ExtractionResult,
    NotSemiclassicalError,
    auto_basis,
    disjoint_tests,
    extend_basis,
    extract_semiclassical,
    horizontal_sum_size,
    is_semiclassical,
    overlapping_tests,
    require_semiclassical,
)
from testspaces.states import hidden_variable_state, verify_state

E1, E2, E3 = np.eye(3)
DIAG = (E1 + E2) / math.sqrt(2.0)


def overlap_sample() -> MetricSample:
    """The hand-traceable overlapping collection {{a,b},{c,d},{a,c}}."""
    pts = np.vstack([E1, E2, E3, DIAG])
    return MetricSample(
        ("a", "b", "c", "d"),
        pts,
        (frozenset("ab"), frozenset("cd"), frozenset("ac")),
    )


# ---------------------------------------------------------- classification


def test_classification_on_corpus(spaces):
    assert is_semiclassical(spaces["two-disjoint"])
    assert is_semiclassical(spaces["classical-3"])  # single test
    assert is_semiclassical(spaces["mo2"])
    assert not is_semiclassical(spaces["glued-pair"])
    assert overlapping_tests(spaces["glued-pair"]) == ("c", 0, 1)
    assert overlapping_tests(spaces["two-disjoint"]) is None


def test_require_semiclassical_error_payload(spaces):
    with pytest.raises(NotSemiclassicalError) as exc:
        require_semiclassical(spaces["glued-pair"])
    assert exc.value.outcome == "c"
    assert exc.value.tests == (0, 1)
    require_semiclassical(spaces["two-disjoint"])  # no raise


# ------------------------------------------------------------- logic size


def test_horizontal_sum_sizes(spaces):
    assert horizontal_sum_size(spaces["two-disjoint"]) == 6
    assert horizontal_sum_size(spaces["mo2"]) == 6
    assert horizontal_sum_size(spaces["classical-3"]) == 8


def test_horizontal_sum_matches_brute_logic(spaces):
    for name in ("two-disjoint", "mo2", "classical-3"):
        ts = spaces[name]
        assert horizontal_sum_size(ts) == len(build_logic(ts)), name


def test_horizontal_sum_rejections(spaces):
    with pytest.raises(NotSemiclassicalError):
        horizontal_sum_size(spaces["glued-pair"])
    with pytest.raises(DegenerateTestError):
        horizontal_sum_size(TestSpace.build("abc", [{"a", "b"}, {"c"}]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=30_000))
def test_horizontal_sum_formula_on_random_spaces(seed):
    ts = corpus.random_semiclassical(random.Random(seed))
    assert is_semiclassical(ts)
    assert horizontal_sum_size(ts) == len(build_logic(ts))


# ---------------------------------------------------------- disjoint tests


def test_disjoint_tests_examples(spaces):
    ts = TestSpace.build("abcd", [{"a", "b"}, {"c", "d"}, {"a", "c"}])
    assert disjoint_tests(ts, {"a", "b"}) == [frozenset({"c", "d"})]
    td = spaces["two-disjoint"]
    assert disjoint_tests(td, {"a", "b"}) == [frozenset({"c", "d"})]
    assert disjoint_tests(td, set()) == list(td.tests)


def test_disjoint_tests_on_samples():
    frames = sample_frames(3, 4, seed=0)
    rest = disjoint_tests(frames, frames.tests[0])
    assert rest == list(frames.tests[1:])


# ------------------------------------------------------------- extraction


def test_hand_traceable_extraction():
    s = overlap_sample()
    basis = [basic_open([E1], 2.1), basic_open([E3, DIAG], 0.5)]
    result = extract_semiclassical(s, basis)
    assert result.selected == (0, 1)
    assert sorted(map(sorted, result.tests)) == [["a", "b"], ["c", "d"]]
    assert result.open_hits == (0, 1)
    assert result.failures == []
    assert result.coverage_radius == 0.0
    assert result.separation == pytest.approx(math.sqrt(2.0 - math.sqrt(2.0)))
    assert is_semiclassical(result.sub_test_space)
    assert result.hit_fraction == 1.0
    assert result.coverage_ok  # no target given


def test_adversarial_open_lands_in_failures():
    s = overlap_sample()
    basis = [
        basic_open([E1], 2.1),
        basic_open([E3, DIAG], 0.5),
        basic_open([E1, E3], 0.1),  # only {a,c}, which overlaps {a,b}
    ]
    result = extract_semiclassical(s, basis)
    assert result.open_hits == (0, 1, None)
    assert result.failures == [2]
    assert result.basis_hits == {0: 0, 1: 1}
    assert result.hit_fraction == pytest.approx(2.0 / 3.0)


def test_margin_can_forbid_close_selections():
    s = overlap_sample()
    basis = [basic_open([E1], 2.1), basic_open([E3, DIAG], 0.5)]
    result = extract_semiclassical(s, basis, margin=1.0)
    # {c,d} sits 0.765 from the first selection, below the demanded margin
    assert result.open_hits == (0, None)
    assert result.selected == (0,)


def test_extraction_input_validation():
    s = overlap_sample()
    with pytest.raises(ValidationError):
        extract_semiclassical(s, [])
    with pytest.raises(ValidationError):
        extract_semiclassical(s, [basic_open([E1], 2.1)], margin=0.0)
    with pytest.raises(ValidationError):
        extract_semiclassical(s, [object()])
    with pytest.raises(ValidationError, match="widen the basis"):
        extract_semiclassical(s, [basic_open([-E1], 0.05)])
    mixed = MetricSample(
        ("a", "b", "c"),
        np.eye(3),
        (frozenset("ab"), frozenset("c")),
    )
    with pytest.raises(ValidationError, match="common size"):
        extract_semiclassical(mixed, [basic_open([E1], 2.1)])
    flat = basic_open([[1.0, 0.0]], 2.1)
    with pytest.raises(ValidationError, match="dimension 2 for a sample of dimension 3"):
        extract_semiclassical(s, [basic_open([E1], 2.1), flat])
    with pytest.raises(ValidationError, match="dimension 2 for a sample of dimension 3"):
        extend_basis(s, [flat], 1, delta=0.5)


def test_extraction_density_target_flag():
    s = overlap_sample()
    basis = [basic_open([E1], 2.1)]
    result = extract_semiclassical(s, basis, density_target=2.0)
    assert result.coverage_ok
    tight = extract_semiclassical(s, basis, density_target=1e-3)
    assert not tight.coverage_ok  # only {a,b} selected; c sits sqrt(2) away
    assert tight.coverage_radius == pytest.approx(math.sqrt(2.0))


def test_extraction_result_invariants_on_frames():
    frames = sample_frames(3, 50, seed=5)
    basis = auto_basis(frames, 8, delta=0.9)
    result = extract_semiclassical(frames, basis, density_target=0.9)
    sub = result.sub_test_space
    assert is_semiclassical(sub)
    assert result.separation >= result.margin
    for open_index, test_index in result.basis_hits.items():
        points = frames.points_of(frames.tests[test_index])
        assert vietoris_member(points, basis[open_index])
    selected_sets = [frames.tests[k] for k in result.selected]
    for i, a in enumerate(selected_sets):
        for b in selected_sets[i + 1 :]:
            assert not (a & b)
    assert horizontal_sum_size(sub) == len(build_logic(sub))
    state = hidden_variable_state(result, seed=2)
    ok, worst = verify_state(sub, state)
    assert ok and worst == 0
    assert result.summary["selected"] == len(result.selected)


# ------------------------------------------------------------ auto basis


def test_auto_basis_is_deterministic():
    frames = sample_frames(3, 40, seed=8)
    b1 = auto_basis(frames, 6, delta=0.8)
    b2 = auto_basis(frames, 6, delta=0.8)
    assert len(b1) == 6
    for u, v in zip(b1, b2):
        assert np.array_equal(u.centers, v.centers)
        assert np.array_equal(u.radii, v.radii)


def test_auto_basis_validation():
    frames = sample_frames(3, 10, seed=0)
    with pytest.raises(ValidationError):
        auto_basis(frames, 0, delta=0.5)
    with pytest.raises(ValidationError):
        auto_basis(frames, 11, delta=0.5)
    with pytest.raises(ValidationError):
        auto_basis(frames, 3, delta=0.0)


def test_extend_basis_keeps_prefix_and_improves_coverage():
    small = sample_frames(3, 60, seed=13)
    large = sample_frames(3, 120, seed=13)
    basis = auto_basis(small, 10, delta=0.9)
    before = extract_semiclassical(small, basis, density_target=0.9)
    grown = extend_basis(large, basis, 10, delta=0.9)
    assert grown[: len(basis)] == basis  # literal prefix, same objects
    after = extract_semiclassical(large, grown, density_target=0.9)
    assert after.open_hits[: len(basis)] == before.open_hits
    assert after.coverage_radius <= before.coverage_radius
    with pytest.raises(ValidationError):
        extend_basis(large, (), 3, delta=0.9)
    with pytest.raises(ValidationError):
        extend_basis(large, basis, 0, delta=0.9)
