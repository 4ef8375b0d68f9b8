from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from testspaces import corpus
from testspaces.core import TestSpace, ValidationError, _index_rows
from testspaces.logic import build_logic
from testspaces.metric import (
    MetricSample,
    VietorisBasicOpen,
    _squared_distances,
    basic_open,
    sample_frames,
    save_sample,
    vietoris_member,
)
from testspaces.semiclassical import (
    DegenerateTestError,
    ExtractionResult,
    NotSemiclassicalError,
    _coverage_sweep,
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
    with pytest.raises(ValidationError, match="margin must be positive"):
        extract_semiclassical(s, [basic_open([E1], 2.1)], margin=math.nan)
    for target in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValidationError, match="density target must be positive and finite"):
            extract_semiclassical(s, [basic_open([E1], 2.1)], density_target=target)
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
    assert sub is result.sub_sample.to_test_space()  # one space, shared
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


def test_extraction_and_save_build_one_sub_space(tmp_path, monkeypatch):
    frames = sample_frames(11, 30, seed=6)
    basis = auto_basis(frames, 8, delta=1.0)
    built = []
    init = TestSpace.__post_init__

    def counting(ts):
        built.append(ts.outcomes)
        init(ts)

    monkeypatch.setattr(TestSpace, "__post_init__", counting)
    result = extract_semiclassical(frames, basis)
    save_sample(result.sub_sample, tmp_path / "sub.tsp")
    state = hidden_variable_state(result, seed=0)
    assert verify_state(result.sub_test_space, state) == (True, 0)
    assert built == [result.sub_sample.ids]  # sorted: f….10 before f….2


def test_one_index_per_sample_and_sub_sample_on_read(monkeypatch):
    """Each sample holds the one space built when it is made; the
    extractions read its row array, and the sub-sample is built, with its
    own single space, on first read."""
    calls, built = [], []
    init = TestSpace.__post_init__

    def counting(index, tests):
        calls.append(len(tests))
        return _index_rows(index, tests)

    def counting_init(ts):
        built.append(len(ts.tests))
        init(ts)

    monkeypatch.setattr("testspaces.metric._index_rows", counting)
    monkeypatch.setattr(TestSpace, "__post_init__", counting_init)
    small = sample_frames(3, 20, seed=4)
    kept = small._space._row_array
    basis = auto_basis(small, 5, delta=0.9)
    first = extract_semiclassical(small, basis, density_target=0.9)
    large = sample_frames(3, 40, seed=4)
    grown = extend_basis(large, basis, 5, delta=0.9)
    again = extract_semiclassical(large, grown, density_target=0.9)
    # sample_frames hands its bulk rows to the one space it builds, and the
    # extractions read that space's row array: no row build by name
    assert calls == [] and built == [20, 40]
    assert small._space._row_array is kept and kept.shape == (20, 3)
    assert small.to_test_space() is small._space
    assert "sub_sample" not in again.__dict__
    sub = again.sub_sample
    assert again.__dict__["sub_sample"] is sub
    n = len(again.selected)
    assert calls == [n] and built == [20, 40, n]  # the sub-sample's battery and space, on read
    assert again.sub_test_space is sub.to_test_space() is sub._space
    assert again.tests == sub.tests == tuple(large.tests[k] for k in again.selected)
    assert first.sample is small and again.sample is large


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
    with pytest.raises(ValidationError, match="density target must be positive"):
        auto_basis(frames, 3, delta=math.nan)
    with pytest.raises(ValidationError, match="density target must be positive"):
        extend_basis(frames, auto_basis(frames, 3, delta=0.5), 2, delta=math.nan)
    with pytest.raises(ValidationError, match="density target must be positive"):
        auto_basis(frames, 3, delta=math.inf)
    with pytest.raises(ValidationError, match="density target must be positive"):
        extend_basis(frames, auto_basis(frames, 3, delta=0.5), 2, delta=math.inf)


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
    with pytest.raises(ValidationError, match="need between 1 and 120 additional opens, got 121"):
        extend_basis(large, basis, 121, delta=0.9)
    assert len(extend_basis(large, basis, 120, delta=0.9)) == 130  # every test an anchor


# ----------------------------------------- frozen reference of the sweeps


def frozen_distances(a, b) -> np.ndarray:
    """The expression `pairwise_distances` evaluated before its column
    kernel; kept as the reference."""
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)


def frozen_frame_points(sample):
    sizes = {len(t) for t in sample.tests}
    if len(sizes) != 1:
        raise ValidationError("extraction needs tests of one common size")
    return np.stack([sample.points_of(t) for t in sample.tests])


def frozen_extract(sample, basis, margin):
    """`extract_semiclassical` before it ran on per-slot columns, reduced to
    (selected, open_hits, coverage_radius, separation); kept as reference."""
    pts = frozen_frame_points(sample)
    count, size, dim = pts.shape
    flat = pts.reshape(count * size, dim)
    mindist = np.full(count * size, np.inf)
    selected, open_hits = [], []
    separation = np.inf
    for open_ in basis:
        dist = frozen_distances(flat, open_.centers).reshape(count, size, len(open_.balls))
        inside = dist < open_.radii[None, None, :]
        member = inside.any(axis=2).all(axis=1) & inside.any(axis=1).all(axis=1)
        clearance = mindist.reshape(count, size).min(axis=1)
        ok = member & (clearance >= margin)
        if not ok.any():
            open_hits.append(None)
            continue
        k = int(np.argmax(ok))
        open_hits.append(k)
        selected.append(k)
        separation = min(separation, float(clearance[k]))
        np.minimum(mindist, frozen_distances(flat, pts[k]).min(axis=1), out=mindist)
    coverage = float(mindist.max()) if selected else np.inf
    return tuple(selected), tuple(open_hits), coverage, float(separation)


def frozen_sweep(pts, flat, mind, chosen, n_new):
    count, size, _dim = pts.shape
    anchors = []
    while len(anchors) < n_new:
        owner = int(np.argmax(mind)) // size
        if owner in chosen:
            owner = min(k for k in range(count) if k not in chosen)
        anchors.append(owner)
        chosen.add(owner)
        np.minimum(mind, frozen_distances(flat, pts[owner]).min(axis=1), out=mind)
    return anchors


def frozen_open_radius(delta, achieved):
    slack = delta - achieved
    return slack if slack > 0 else delta / 4


def frozen_auto_basis(sample, n_opens, delta):
    pts = frozen_frame_points(sample)
    count, size, _dim = pts.shape
    flat = pts.reshape(count * size, -1)
    mind = frozen_distances(flat, pts[0]).min(axis=1)
    anchors = [0] + frozen_sweep(pts, flat, mind, {0}, n_opens - 1)
    radius = frozen_open_radius(delta, float(mind.max()))
    return tuple(basic_open(pts[a], radius) for a in anchors)


def frozen_extend_basis(sample, basis, n_more, delta):
    pts = frozen_frame_points(sample)
    flat = pts.reshape(len(pts) * pts.shape[1], -1)
    mind = np.full(len(flat), np.inf)
    for open_ in basis:
        np.minimum(mind, frozen_distances(flat, open_.centers).min(axis=1), out=mind)
    anchors = frozen_sweep(pts, flat, mind, set(), n_more)
    radius = frozen_open_radius(delta, float(mind.max()))
    return tuple(basis) + tuple(basic_open(pts[a], radius) for a in anchors)


def overlapping_frames(d: int, count: int, seed: int) -> MetricSample:
    """Sampled frames plus, for about half of them, a second frame that
    shares one outcome and turns the others about it.  The new ids sort
    before or after the old ones, so the shared point sits in different
    slots of its two tests and the sweep meets exact ties across slots."""
    base = sample_frames(d, count, seed)
    rng = np.random.default_rng(seed)
    ids, coords, tests = list(base.ids), [base.coords], list(base.tests)
    for k, test in enumerate(base.tests):
        if rng.random() < 0.5:
            continue
        members = sorted(test)
        shared = members.pop(int(rng.integers(d)))
        others = np.stack([base.point(x) for x in members])
        turn, _ = np.linalg.qr(rng.standard_normal((d - 1, d - 1)))
        new = turn @ others
        new /= np.linalg.norm(new, axis=1, keepdims=True)
        names = [f"{'eg'[k % 2]}{k}.{i}" for i in range(d - 1)]
        ids += names
        coords.append(new)
        tests.append(frozenset([shared, *names]))
    return MetricSample(tuple(ids), np.vstack(coords), tuple(tests))


def random_opens(rng, sample: MetricSample, n: int):
    """Opens of 1-4 balls around perturbed sampled points, so the ball count
    differs from the test size and many tests fall partly outside; and opens
    around the perturbed points of one test whose radii put those points
    exactly on the boundary spheres, where the balls, being open, miss."""
    opens = []
    for i in range(n):
        if i % 2:
            picks = sorted(sample.index_of(x) for x in sample.tests[rng.integers(len(sample.tests))])
        else:
            picks = rng.integers(0, len(sample.ids), size=int(rng.integers(1, 5)))
        points = sample.coords[picks]
        centers = points + 0.05 * rng.standard_normal(points.shape)
        if i % 2:
            radii = frozen_distances(points, centers).diagonal()
        else:
            radii = rng.uniform(0.05, 1.2, len(picks))
        opens.append(VietorisBasicOpen(tuple((c, float(r)) for c, r in zip(centers, radii))))
    return tuple(opens)


def assert_same_basis(got, want):
    assert len(got) == len(want)
    for u, v in zip(got, want):
        assert np.array_equal(u.centers, v.centers)
        assert np.array_equal(u.radii, v.radii)


def frozen_sub_sample(sample, selected):
    """The sub-sample as extraction built it from a TestSpace of the picked
    tests, as (ids, coords, tests, ortho_tol); kept as reference."""
    tests = [sample.tests[k] for k in selected]
    space = TestSpace.build(set().union(*tests), tests)
    coords = np.stack([sample.point(x) for x in space.outcomes])
    return space.outcomes, coords, space.tests, sample.ortho_tol


def extraction_answer(sample, basis, margin):
    """(selected, open_hits, coverage_radius, separation), or None when no
    open admits a selection; the sub-sample must equal the frozen one."""
    try:
        result = extract_semiclassical(sample, basis, margin=margin)
    except ValidationError as exc:
        assert "widen the basis" in str(exc)
        return None
    sub = result.sub_sample
    ids, coords, tests, ortho_tol = frozen_sub_sample(sample, result.selected)
    assert (sub.ids, sub.tests, sub.ortho_tol) == (ids, tests, ortho_tol)
    assert np.array_equal(sub.coords, coords)
    assert result.sub_test_space is sub.to_test_space()
    return result.selected, result.open_hits, result.coverage_radius, result.separation


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([3, 4, 8, 11]),
    count=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    overlap=st.booleans(),
    delta=st.sampled_from([0.05, 0.3, 0.9, 2.5]),
    margin=st.sampled_from([1e-6, 0.05, 0.3, 1.0]),
)
# d = 11 lists f….10 before f….2, so the sample's ids are not sorted
@example(d=11, count=12, seed=3, overlap=False, delta=0.9, margin=1e-6)
@example(d=11, count=12, seed=4, overlap=True, delta=2.5, margin=0.05)
def test_sweeps_and_extraction_equal_frozen_reference(d, count, seed, overlap, delta, margin):
    sample = overlapping_frames(d, count, seed) if overlap else sample_frames(d, count, seed)
    rng = np.random.default_rng(seed)
    n_opens = int(rng.integers(1, len(sample.tests) + 1))
    basis = auto_basis(sample, n_opens, delta)
    assert_same_basis(basis, frozen_auto_basis(sample, n_opens, delta))
    basis += random_opens(rng, sample, 6)
    want = frozen_extract(sample, basis, margin)
    got = extraction_answer(sample, basis, margin)
    assert got == (want if want[0] else None)
    bigger = sample_frames(d, 2 * count, seed)
    n_more = int(rng.integers(1, count + 1))
    grown = extend_basis(bigger, basis, n_more, delta)
    assert_same_basis(grown, frozen_extend_basis(bigger, basis, n_more, delta))
    want = frozen_extract(bigger, grown, margin)
    assert extraction_answer(bigger, grown, margin) == (want if want[0] else None)


def test_extraction_equals_frozen_reference_with_forced_misses():
    sample = overlapping_frames(3, 60, 11)
    basis = auto_basis(sample, 40, 0.6)
    for margin in (1e-6, 0.2, 0.6, 1.5):
        want = frozen_extract(sample, basis, margin)
        assert extraction_answer(sample, basis, margin) == want
        if margin >= 0.2:
            assert None in want[1]  # the margin turned some opens away


# ------------------------------------ square roots taken after the reductions


def test_sweep_breaks_ties_on_the_rooted_distance():
    """Squared maxima 0.25 and its successor share the distance 0.5, so the
    sweep's first-on-ties rule picks test 0, not the larger squared value."""
    above = np.nextafter(0.25, 1)
    assert np.sqrt(above) == np.sqrt(0.25) == 0.5
    flat = np.asfortranarray(np.eye(3)[[0, 1, 2, 0]])  # 2 slots of 2 tests
    mind = np.array([0.25, above, 0.0, 0.0])  # row s * 2 + t: slot s, test t
    assert _coverage_sweep(flat, 2, mind, 1) == [0]


def test_clearance_equal_to_the_margin_after_the_root_is_clear():
    """A rotated frame whose clearance, rooted, equals the margin exactly
    while the margin squared exceeds the squared clearance: the test is
    selected, as the frozen reference selects it."""
    t = 0.07
    frame = np.eye(2)
    turned = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
    sample = MetricSample(("a0", "a1", "b0", "b1"), np.vstack([frame, turned]),
                          (frozenset({"a0", "a1"}), frozenset({"b0", "b1"})))
    squared = float(_squared_distances(frame, turned).min())
    margin = math.sqrt(squared)
    assert margin * margin > squared  # a squared comparison would turn it away
    basis = (basic_open(frame, 0.01), basic_open(turned, 0.01))
    result = extract_semiclassical(sample, basis, margin=margin)
    assert result.open_hits == (0, 1)
    assert result.separation == margin
    assert frozen_extract(sample, basis, margin)[1] == (0, 1)
    assert extract_semiclassical(sample, basis, margin=np.nextafter(margin, 1)).open_hits == (0, None)
