from __future__ import annotations

import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from testspaces import metric as metric_module
from testspaces.core import (
    EncodingError,
    TestSpace,
    UnknownOutcomeError,
    ValidationError,
    _index_rows,
    dump_test_space,
)
from testspaces.metric import (
    ConvergenceError,
    MetricSample,
    NotTotallyNonOrthogonalError,
    VietorisBasicOpen,
    basic_open,
    check_sample_invariants,
    closure_check,
    dump_basis,
    event_cardinality_locally_constant,
    hausdorff_distance,
    load_basis,
    load_sample,
    matching_distance,
    pairwise_distances,
    parse_coords,
    rank_bound,
    sample_frames,
    save_sample,
    sum_map_lipschitz,
    tno_radius,
    vietoris_member,
)
from testspaces.core import ParseError
from testspaces.semiclassical import auto_basis, extract_semiclassical

from oracles import bottleneck_oracle, hausdorff_oracle
from test_core import TRICKY_NAMES
from test_laws import assert_hausdorff_keeps_its_bits

E1, E2, E3 = np.eye(3)
ROOT2 = math.sqrt(2.0)


def rotation_z(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def seeded_points(seed: int, n: int, d: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


# ------------------------------------------------------------ basic opens


def test_vietoris_membership_examples():
    opens = basic_open([E1, E2, E3], 0.5)
    assert vietoris_member([E1, E2, E3], opens)
    assert not vietoris_member([E1, E2], opens)  # contained, misses ball 3
    stray = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    assert not vietoris_member([E1, stray], opens)  # containment fails


def test_vietoris_membership_is_strict():
    opens = basic_open([E2], ROOT2)
    assert not vietoris_member([E1], opens)  # boundary point is outside
    assert vietoris_member([E1], basic_open([E2], ROOT2 + 1e-9))


def frozen_vietoris_member(points, open_):
    """`vietoris_member` before its membership loop was shared with the
    extraction: one (points, balls) distance matrix; kept as the reference."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return False
    dist = np.sqrt(metric_module._squared_distances(open_.centers, np.atleast_2d(pts)))
    inside = dist < open_.radii[None, :]
    return bool(inside.any(axis=1).all() and inside.any(axis=0).all())


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_vietoris_member_equals_the_frozen_matrix(d, n, balls, seed):
    """Each radius is one of the exact point-to-centre distances, so a point
    on a boundary sphere decides the answer; above 7 dimensions the kernel
    sums along a stacked axis."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((balls, d))
    pts = centers[rng.integers(0, balls, n)] + 0.3 * rng.standard_normal((n, d))
    dist = np.sqrt(metric_module._squared_distances(centers, pts))
    radii = dist[rng.integers(0, n, balls), np.arange(balls)] * rng.choice([1.0, 1.5], balls)
    open_ = VietorisBasicOpen(tuple(zip(centers, radii)))
    assert vietoris_member(pts, open_) == frozen_vietoris_member(pts, open_)
    assert vietoris_member(pts[0], open_) == frozen_vietoris_member(pts[0], open_)


def test_vietoris_member_of_no_points_is_false():
    open_ = basic_open([E1], 0.5)
    assert not vietoris_member([], open_)
    assert not vietoris_member(np.empty((0, 3)), open_)


def test_basic_open_validation():
    with pytest.raises(ValidationError):
        VietorisBasicOpen(())
    with pytest.raises(ValidationError):
        basic_open([E1], 0.0)
    for radius in (math.nan, math.inf, -1.0):
        with pytest.raises(ValidationError, match="radii"):
            basic_open([E1], radius)
    for center in ([math.nan, 0.0, 0.0], [0.0, -math.inf, 0.0]):
        with pytest.raises(ValidationError, match="centers"):
            basic_open([center], 0.5)
    for balls in (((E1, 0.5), (E1[:2], 0.5)), ((1.0, 0.5),)):
        with pytest.raises(ValidationError, match="vectors of one dimension"):
            VietorisBasicOpen(balls)


def test_basis_text_roundtrip_is_exact():
    s = sample_frames(3, 9, seed=2)
    basis = auto_basis(s, 4, 0.5) + (basic_open([E1, E2], 0.1),)
    text = dump_basis(basis)
    assert text.startswith("open\nball ")
    loaded = load_basis(text)
    assert dump_basis(loaded) == text
    for a, b in zip(basis, loaded):
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.radii, b.radii)


# -------------------------------------------------------------- distances


def test_hausdorff_examples():
    assert hausdorff_distance([E1, E2], [E1, E2]) == 0.0
    assert hausdorff_distance([E1, E2], [E1, E3]) == pytest.approx(ROOT2)
    assert hausdorff_distance([E1], [E1, E2]) == pytest.approx(ROOT2)
    with pytest.raises(ValidationError):
        hausdorff_distance([], [E1])
    with pytest.raises(ValidationError, match="dimensions differ"):
        hausdorff_distance(np.eye(3), np.eye(3)[:, :2])


def test_matching_examples():
    assert matching_distance([E1, E2], [E2, E1]) == 0.0
    assert matching_distance([E1, E2], [E1, E3]) == pytest.approx(ROOT2)
    with pytest.raises(ValidationError):
        matching_distance([E1], [E1, E2])
    with pytest.raises(ValidationError, match="dimensions differ"):
        matching_distance(np.eye(3), np.eye(3)[:, :2])
    for a, b in (([], []), (np.empty((0, 3)), np.empty((0, 3))), ([], [E1])):
        with pytest.raises(ValidationError, match="needs nonempty point sets"):
            matching_distance(a, b)


def test_point_set_refusals_keep_their_order():
    with pytest.raises(ValidationError, match="^hausdorff distance needs nonempty point sets$"):
        hausdorff_distance([], [E1])
    with pytest.raises(ValidationError, match="^matching distance needs equal cardinalities, got 1 and 2$"):
        matching_distance([E1], [E1[:2], E2[:2]])
    with pytest.raises(ValidationError, match="^lipschitz check needs equal cardinalities$"):
        sum_map_lipschitz(lambda p: p[0], 1.0, [E1], [E1[:2], E2[:2]])
    with pytest.raises(ValidationError, match="^point dimensions differ: 3 and 2$"):
        pairwise_distances([E1], [E1[:2]])
    with pytest.raises(ValidationError, match="^point sets must be 2-D, got 3-D and 2-D$"):
        pairwise_distances(np.zeros((1, 1, 3)), [E1])


def test_zero_dimensional_points_are_refused():
    """Points with no coordinate are refused before any distance is taken,
    by pairwise_distances where the kernel raised a bare IndexError, and by
    the two set distances, whose empty-set check meets them first."""
    a, b = np.zeros((3, 0)), np.zeros((2, 0))
    with pytest.raises(ValidationError, match="^points need at least one coordinate$"):
        pairwise_distances(a, b)
    with pytest.raises(ValidationError, match="^hausdorff distance needs nonempty point sets$"):
        hausdorff_distance(a, b)
    with pytest.raises(ValidationError, match="^matching distance needs nonempty point sets$"):
        matching_distance(a, a)
    with pytest.raises(ValidationError, match="^points need at least one coordinate$"):
        sum_map_lipschitz(lambda p: 0.0, 1.0, a, a)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_refused(bad):
    a = np.eye(3)[:2]
    b = a.copy()
    b[1, 2] = bad
    message = "^point coordinates must be finite$"
    for call in (pairwise_distances, hausdorff_distance, matching_distance):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValidationError, match=message):
                call(x, y)
    with pytest.raises(ValidationError, match=message):
        sum_map_lipschitz(lambda p: 0.0, 1.0, a, b)
    with pytest.raises(ValidationError, match=message):
        vietoris_member(b, basic_open(a, 0.5))
    limit = np.eye(3)
    limit[0, 0] = bad
    with pytest.raises(ValidationError, match=message):
        closure_check([np.eye(3)], limit)


def frozen_threshold_bottleneck(dist: np.ndarray) -> float:
    """The recursive threshold search `matching_distance` ran above n = 8
    before its matcher became iterative; kept as the reference."""
    n = dist.shape[0]
    values = np.unique(dist)

    def feasible(t: float) -> bool:
        adj = dist <= t
        match = [-1] * n

        def augment(u: int, seen) -> bool:
            for v in range(n):
                if adj[u, v] and not seen[v]:
                    seen[v] = True
                    if match[v] == -1 or augment(match[v], seen):
                        match[v] = u
                        return True
            return False

        return all(augment(u, [False] * n) for u in range(n))

    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(float(values[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


@st.composite
def equal_point_sets(draw, min_n: int, max_n: int):
    """Two point sets of one size: independent, a permuted copy (exact or
    perturbed), drawn with repeats from a small pool, or on an integer grid
    where many distances tie."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    kind = draw(st.sampled_from(["independent", "permuted", "perturbed", "pool", "grid"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "grid":
        a, b = rng.integers(-2, 3, size=(2, n, 2)).astype(float)
    elif kind == "pool":
        pool = rng.standard_normal((max(1, n // 3), 3))
        a, b = pool[rng.integers(0, len(pool), size=(2, n))]
    else:
        a = rng.standard_normal((n, 3))
        b = a[rng.permutation(n)]
        if kind == "perturbed":
            b = b + 1e-3 * rng.standard_normal((n, 3))
        elif kind == "independent":
            b = rng.standard_normal((n, 3))
    return a, b


def checked_matching(a, b) -> float:
    got = matching_distance(a, b)
    assert got in pairwise_distances(a, b)
    assert got >= hausdorff_distance(a, b)
    return got


@settings(max_examples=80, deadline=None)
@given(equal_point_sets(1, 8))
def test_matching_agrees_with_permutation_oracle(sets):
    a, b = sets
    assert checked_matching(a, b) == pytest.approx(bottleneck_oracle(a, b), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(equal_point_sets(9, 40))
def test_matching_equals_frozen_threshold_search(sets):
    a, b = sets
    assert checked_matching(a, b) == frozen_threshold_bottleneck(pairwise_distances(a, b))


def test_matching_of_large_near_identical_sets():
    # Far above Python's recursion limit for a recursive augmenting path.
    a = seeded_points(7, 1500)
    b = a + 1e-6 * seeded_points(8, 1500)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    got = checked_matching(a, b)
    assert got <= pairwise_distances(a, b).diagonal().max()


def test_matching_of_large_independent_sets():
    a, b = seeded_points(7, 1500), seeded_points(8, 1500)
    checked_matching(a, b)


@pytest.mark.parametrize("kind", ["near-identical", "independent"])
def test_matching_of_3000_points(kind):
    """Twice the size above, with a 72 MB distance matrix: the answer is
    an entry of it and at least the Hausdorff distance."""
    a, b = seeded_points(17, 3000), seeded_points(18, 3000)
    if kind == "near-identical":
        b = a + 1e-6 * b
        b /= np.linalg.norm(b, axis=1, keepdims=True)
    checked_matching(a, b)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_bottleneck_equals_frozen_threshold_search_on_tied_entries(n, levels, seed):
    # Few distinct entries: many thresholds fail before one succeeds, so
    # the matching carried over from failed thresholds does real work.
    dist = np.random.default_rng(seed).integers(0, levels, size=(n, n)).astype(float)
    assert metric_module._bottleneck(dist) == frozen_threshold_bottleneck(dist)


def frozen_norm_distances(a, b) -> np.ndarray:
    """The expression the exact route of `pairwise_distances` evaluated
    before its column kernel; kept as the reference."""
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.one_of(st.none(), st.integers(min_value=1, max_value=2000)),
)
def test_exact_distances_equal_frozen_norm(d, n, m, scale, seed, block_elements):
    """Bit for bit at the default block budget (None) and at budgets of one
    to a few rows, under which both routes run over several blocks."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d)) * 10.0**scale
    b = np.vstack([rng.standard_normal((m, d)), a[: m // 2]])  # some exact repeats
    want = frozen_norm_distances(a, b)
    with pytest.MonkeyPatch.context() as mp:
        if block_elements is not None:
            mp.setattr(metric_module, "_BLOCK_ELEMENTS", block_elements)
        got = pairwise_distances(a, b)
        # the nearest distances take the minimum before the square root
        nearest = np.sqrt(metric_module._squared_distances(a, b).min(axis=0))
        nearest_f = np.sqrt(
            metric_module._squared_distances(np.asfortranarray(a), b).min(axis=0)
        )
        hausdorff = hausdorff_distance(a, b)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(nearest, want.min(axis=1))
    assert np.array_equal(nearest_f, want.min(axis=1))
    assert hausdorff == metric_module._hausdorff(want)


@pytest.mark.parametrize("n, d", [(900, 3), (2000, 8)])
def test_self_distances_are_exactly_zero(n, d):
    """Sizes above 2**21 elements, where distances once took a Gram route
    that put a point about 1e-8 from itself."""
    a = seeded_points(11, n, d)
    assert hausdorff_distance(a, a) == 0.0
    assert matching_distance(a, a) == 0.0


def test_matching_of_a_set_with_itself_takes_one_matching():
    """The Hausdorff value 0 is feasible, so the threshold search never starts."""
    a = seeded_points(11, 2000, 8)
    with mock.patch.object(metric_module, "_augment", wraps=metric_module._augment) as augment:
        assert matching_distance(a, a) == 0.0
    assert augment.call_count == 1


def test_hausdorff_reduces_blocks_without_the_whole_matrix():
    """A block of distances and the kernel's difference buffer share the
    budget, and each block is freed before the next is made; on both
    kernel paths."""
    for d in (3, 11):
        a, b = seeded_points(3, 2000, d), seeded_points(4, 2000, d)
        want = metric_module._hausdorff(pairwise_distances(a, b))
        tracemalloc.start()
        try:
            got = hausdorff_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2000 * 2000 * 8 // 2  # half of the float64 matrix
        assert peak < 8 * metric_module._BLOCK_ELEMENTS * 3 // 2


# hausdorff_distance before its blocks were sized by what they allocate:
# row blocks of a.size floats of the 8 MB budget, on the same kernel; frozen
# here as the reference.


def frozen_hausdorff(a, b, block_elements: int = 1 << 20) -> float:
    rows = max(1, block_elements // max(a.size, 1))
    to_b = np.full(len(a), np.inf)
    to_a = np.empty(len(b))
    for s in range(0, len(b), rows):
        block = metric_module._squared_distances(a, b[s : s + rows])
        np.minimum(to_b, block.min(axis=0), out=to_b)
        block.min(axis=1, out=to_a[s : s + rows])
    return float(max(np.sqrt(to_b).max(), np.sqrt(to_a).max()))


def laid_out(pts: np.ndarray, layout: str) -> np.ndarray:
    """pts in C order, in Fortran order, or as a view that is neither."""
    if layout == "F":
        return np.asfortranarray(pts)
    if layout == "sliced":  # every other row of a wider array
        wide = np.zeros((2 * len(pts), pts.shape[1] + 1))
        wide[::2, 1:] = pts
        return wide[::2, 1:]
    return np.ascontiguousarray(pts)


# Budgets of the blocked scans, in floats: the default, tiny ones that cut
# every band into several tiles, and three rows of n.
TILE_BUDGETS = [None, 6, 64, "3n"]


def budget_floats(budget, n: int) -> int | None:
    return 3 * n if budget == "3n" else budget


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=11),
    st.integers(min_value=1, max_value=70),
    st.integers(min_value=1, max_value=70),
    st.sampled_from(["C", "F", "sliced"]),
    st.sampled_from(["C", "F", "sliced"]),
    st.sampled_from(TILE_BUDGETS),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(3, 2000, 1999, "C", "C", None, 0)
@example(11, 301, 300, "F", "sliced", None, 1)
def test_hausdorff_equals_the_frozen_row_blocks(d, n, m, layout_a, layout_b, budget, seed):
    """To the bit, for any memory layout and on both kernel paths (d crosses
    _COLUMN_DIMS), with shared points so that some distances are 0."""
    rng = np.random.default_rng(seed)
    a = seeded_points(seed, n, d)
    b = np.vstack([seeded_points(seed + 1, m, d), a[rng.permutation(n)[: m // 3]]])
    a, b = laid_out(a, layout_a), laid_out(b, layout_b)
    want = frozen_hausdorff(a, b)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(metric_module, "_BLOCK_ELEMENTS", budget_floats(budget, n))
        got = hausdorff_distance(a, b)
    assert got == want
    assert got == metric_module._hausdorff(pairwise_distances(a, b))


def hausdorff_worst_case(case: str) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(sum(map(ord, case)))
    if case == "one cell":  # every point one of three, 1e-12 apart
        pool = E1 + 1e-12 * rng.standard_normal((3, 3))
        return pool[rng.integers(0, 3, 2500)], pool[rng.integers(0, 3, 2000)]
    if case == "one point":  # a bounding box of no extent
        return np.tile(E2, (2000, 1)), np.tile(E2, (1500, 1))
    if case == "two clusters":  # far apart, split unevenly between the sets
        def clusters(n, share):
            pts = 1e-2 * rng.standard_normal((n, 3))
            pts[: int(share * n), 0] += 1e3
            return pts
        return clusters(2000, 0.9), clusters(1800, 0.1)
    if case in ("1 x 5000", "5000 x 1"):
        one, many = seeded_points(1, 1, 3), seeded_points(2, 5000, 3)
        return (one, many) if case == "1 x 5000" else (many, one)
    if case in ("scale 1e3", "scale 1e-3"):
        scale = 1e3 if case == "scale 1e3" else 1e-3
        return scale * seeded_points(3, 2000, 3), scale * seeded_points(4, 1900, 3)
    d = int(case.split()[1])
    return rng.standard_normal((2000, d)), rng.standard_normal((1700, d))


HAUSDORFF_WORST_CASES = [
    "one cell", "one point", "two clusters", "1 x 5000", "5000 x 1", "scale 1e3",
    "scale 1e-3", "d 1", "d 2", "d 3", "d 7", "d 8", "d 11",
]


@pytest.mark.parametrize("budget", [None, 64])
@pytest.mark.parametrize("case", HAUSDORFF_WORST_CASES)
def test_hausdorff_worst_cases_equal_the_frozen_row_blocks(case, budget):
    """Inputs where the cell grid bounds badly or not at all, both ways
    round; a budget of 64 floats takes the 1 x 5000 sets past one block."""
    a, b = hausdorff_worst_case(case)
    want = frozen_hausdorff(a, b), frozen_hausdorff(b, a)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(metric_module, "_BLOCK_ELEMENTS", budget)
        got = hausdorff_distance(a, b), hausdorff_distance(b, a)
    assert got == want


def test_hausdorff_scans_few_rows_exactly():
    """On 2000 x 2000 sphere points the exact kernel reads fewer than a
    quarter of the rows of both directions: a work count, not a time."""
    a, b = seeded_points(3, 2000), seeded_points(4, 2000)
    want = frozen_hausdorff(a, b)
    kernel = metric_module._squared_distances
    with mock.patch.object(metric_module, "_squared_distances", wraps=kernel) as counted:
        assert hausdorff_distance(a, b) == want
    assert sum(len(call.args[1]) for call in counted.call_args_list) < (len(a) + len(b)) / 4


def test_hausdorff_agrees_with_oracle():
    for seed in range(30):
        n = 2 + seed % 5
        a, b = seeded_points(seed, n), seeded_points(seed + 1000, n + seed % 3)
        assert hausdorff_distance(a, b) == pytest.approx(hausdorff_oracle(a, b), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_hausdorff_metric_axioms_and_union_continuity(seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 6, size=3)
    a, b, c = (seeded_points(seed + k, int(n)) for k, n in enumerate(sizes))
    ab = hausdorff_distance(a, b)
    assert ab == hausdorff_distance(b, a)
    assert hausdorff_distance(a, a) == 0.0
    assert ab <= hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-12
    union_ab = np.vstack([a, b])
    union_ac = np.vstack([a, c])
    assert hausdorff_distance(union_ab, union_ac) <= hausdorff_distance(b, c)


# ---------------------------------------------------------------- samples


def frame_sample(theta: float = 0.0, **kwargs) -> MetricSample:
    pts = (rotation_z(theta) @ np.eye(3)).T
    return MetricSample(("a", "b", "c"), pts, (frozenset("abc"),), **kwargs)


def test_metric_sample_accessors():
    s = frame_sample()
    assert s.dim == 3
    assert s.index_of("b") == 1
    assert np.allclose(s.point("c"), E3)
    assert s.distance("a", "b") == pytest.approx(ROOT2)
    assert s.orthogonal("a", "b")
    assert not s.orthogonal("a", "a")
    with pytest.raises(UnknownOutcomeError):
        s.orthogonal("zzz", "zzz")
    assert sorted(map(tuple, s.orthogonal_pair_indices)) == [(0, 1), (0, 2), (1, 2)]
    ts = s.to_test_space()
    assert ts.outcomes == ("a", "b", "c")
    with pytest.raises(UnknownOutcomeError):
        s.index_of("zzz")


@pytest.mark.parametrize("d", [3, 11])
def test_to_test_space_is_built_once(d):
    """From d = 11 on, sample_frames lists f….10 before f….2, so the ids
    are not sorted and the space sorts them."""
    s = sample_frames(d, 5, seed=4)
    ts = s.to_test_space()
    assert s.to_test_space() is ts
    assert ts == TestSpace.build(s.ids, s.tests)
    assert (list(s.ids) == sorted(s.ids)) == (d < 11)


def test_metric_sample_rejects_bad_data():
    with pytest.raises(ValidationError):  # non-unit point
        MetricSample(("a", "b"), np.array([[2.0, 0.0], [0.0, 1.0]]), (frozenset("ab"),))
    with pytest.raises(ValidationError):  # test not orthogonal
        MetricSample(
            ("a", "b"),
            np.array([[1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)]]),
            (frozenset("ab"),),
        )
    with pytest.raises(ValidationError):  # uncovered outcome
        MetricSample(("a", "b"), np.eye(2), (frozenset("a"),))


def test_invariant_battery_rows_all_pass():
    s = sample_frames(3, 5, seed=1)
    rows = check_sample_invariants(s.ids, s.coords, s.tests, s.ortho_tol)
    assert [name for name, _, _ in rows] == [
        "shape",
        "distinct-ids",
        "unit-norm",
        "test-ids-known",
        "tests-nonempty",
        "test-size",
        "tests-distinct",
        "covering",
        "in-test-orthogonality",
    ]
    assert all(ok for _, ok, _ in rows)


def test_invariant_battery_flags_corruption():
    s = sample_frames(3, 2, seed=1)
    bad = s.coords.copy()
    bad[0] *= 1.5
    rows = {name: ok for name, ok, _ in check_sample_invariants(s.ids, bad, s.tests, s.ortho_tol)}
    assert not rows["unit-norm"]
    merged = (frozenset(s.ids),)  # one big non-orthogonal "test"
    rows = {name: ok for name, ok, _ in check_sample_invariants(s.ids, s.coords, merged, s.ortho_tol)}
    assert not rows["test-size"]
    assert not rows["in-test-orthogonality"]


def test_meaningless_ortho_tol_is_refused():
    s = sample_frames(3, 2, seed=1)
    for tol in (math.inf, -math.inf, math.nan, -1e-3, 10.0, math.pi / 2 + 1e-9):
        with pytest.raises(ValidationError, match="must be finite and >= 0"):
            check_sample_invariants(s.ids, s.coords, s.tests, tol)
        with pytest.raises(ValidationError, match="must be finite and >= 0"):
            MetricSample(s.ids, s.coords, s.tests, tol)
    rows = check_sample_invariants(s.ids, s.coords, s.tests, 0.0)
    assert rows[-1][0] == "in-test-orthogonality"


def frozen_battery(ids, coords, tests, ortho_tol):
    """`_battery` before its checks moved onto the index rows: four passes
    over the names, then the rows; kept as the reference."""
    metric_module._check_ortho_tol(ortho_tol)
    rows = []
    n, d = coords.shape if coords.ndim == 2 else (0, 0)
    rows.append(("shape", coords.ndim == 2 and n == len(ids) and d >= 2,
                 f"{len(ids)} ids, coords {coords.shape}"))
    if not rows[-1][1]:
        return rows, None, None
    rows.append(("distinct-ids", len(set(ids)) == len(ids), f"{len(ids)} ids"))
    norms = np.linalg.norm(coords, axis=1)
    dev = float(np.abs(norms - 1.0).max()) if n else 0.0
    rows.append(("unit-norm", dev <= metric_module.UNIT_NORM_TOL, f"max deviation {dev:.3e}"))
    index = {x: i for i, x in enumerate(ids)}
    known = all(x in index for t in tests for x in t)
    rows.append(("test-ids-known", known, ""))
    if not known:
        return rows, index, None
    rows.append(("tests-nonempty", bool(tests) and all(tests), f"{len(tests)} tests"))
    rows.append(("test-size", all(len(t) <= d for t in tests),
                 f"max {max((len(t) for t in tests), default=0)} <= dim {d}"))
    dup = len(set(tests)) != len(tests)
    rows.append(("tests-distinct", not dup, ""))
    covered = set().union(*tests) if tests else set()
    rows.append(("covering", covered == set(ids),
                 f"{len(set(ids) - covered)} uncovered"))
    thr = math.sin(ortho_tol)
    test_rows = tuple(tuple(index[x] for x in sorted(t)) for t in tests)
    worst = 0.0
    for k in {len(r) for r in test_rows if len(r) > 1}:
        pts = coords[np.array([r for r in test_rows if len(r) == k])]
        g = pts @ pts.transpose(0, 2, 1)
        worst = max(worst, float(np.abs(g[:, ~np.eye(k, dtype=bool)]).max()))
    rows.append(("in-test-orthogonality", worst <= thr,
                 f"max |inner| {worst:.3e} vs {thr:.3e}"))
    return rows, index, test_rows


BATTERY_FAULTS = [
    "none", "none", "duplicate id", "ndim 1", "ndim 3", "rows", "dim 1", "norm",
    "unknown", "no tests", "empty", "repeat", "uncovered", "oversize", "subsets", "tilt",
]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(BATTERY_FAULTS),
    st.randoms(use_true_random=False),
)
def test_battery_equals_the_frozen_name_passes(d, count, fault, rnd):
    """Frames renamed from TRICKY_NAMES, listed unsorted, with one drawn
    fault in the ids, the coordinates or the tests."""
    frames = sample_frames(d, count, rnd.randrange(1000))
    order = rnd.sample(range(d * count), d * count)
    rename = dict(zip(frames.ids, rnd.sample(TRICKY_NAMES, d * count)))
    ids = [rename[frames.ids[i]] for i in order]
    coords = frames.coords[order]
    tests = [frozenset(rename[x] for x in t) for t in frames.tests]
    spot = rnd.randrange(len(tests) + 1)
    if fault == "duplicate id":  # a second row for one id, so every test stays known
        k = rnd.randrange(len(ids))
        ids.append(ids[k])
        coords = np.vstack([coords, coords[k]])
    elif fault == "ndim 1":
        coords = coords.ravel()
    elif fault == "ndim 3":
        coords = coords[None]
    elif fault == "rows":
        coords = coords[1:]
    elif fault == "dim 1":
        coords = coords[:, :1]
    elif fault == "norm":
        coords[rnd.randrange(len(coords))] *= 1.5
    elif fault == "unknown":
        tests.insert(spot, frozenset([rnd.choice(ids), "q"]))
    elif fault == "no tests":
        tests = []
    elif fault == "empty":
        tests.insert(spot, frozenset())
    elif fault == "repeat":
        tests.insert(spot, rnd.choice(tests))
    elif fault == "uncovered":
        tests.pop(rnd.randrange(len(tests)))
    elif fault == "oversize":
        tests.insert(spot, frozenset(rnd.sample(ids, min(len(ids), d + 1))))
    elif fault == "subsets":
        tests = [frozenset(rnd.sample(sorted(t), rnd.randint(0, d))) for t in tests]
    elif fault == "tilt":
        coords[rnd.randrange(len(coords))] += 1e-6
    args = (tuple(ids), coords, tuple(tests), metric_module.DEFAULT_ORTHO_TOL)
    rows, index, by_size, order = metric_module._battery(*args)
    want_rows, want_index, want_test_rows = frozen_battery(*args)
    assert rows == want_rows
    if want_index is None:  # the frozen battery stopped at the shape
        return
    # the battery indexes the sorted ids; order takes a position back to ids
    back = (lambda k: k) if order is None else order.__getitem__
    assert {x: back(k) for x, k in index.items()} == want_index
    assert (by_size is None) == (want_test_rows is None)
    for k, part in (by_size or {}).items():
        got = [tuple(map(back, r)) for r in part.tolist()]
        assert got == [r for r in want_test_rows if len(r) == k]


def test_battery_stops_at_a_bad_shape_and_at_unknown_ids():
    s = sample_frames(3, 2, seed=1)
    rows = check_sample_invariants(s.ids, s.coords[:, :1], s.tests, s.ortho_tol)
    assert rows == [("shape", False, "6 ids, coords (6, 1)")]
    tests = s.tests + (frozenset([s.ids[0], "q"]),)
    rows = check_sample_invariants(s.ids, s.coords, tests, s.ortho_tol)
    assert [name for name, _, _ in rows] == ["shape", "distinct-ids", "unit-norm", "test-ids-known"]
    assert rows[-1] == ("test-ids-known", False, "")


def frozen_in_test_orthogonality(ids, coords, tests, ortho_tol):
    """The in-test orthogonality row of `check_sample_invariants` before it
    batched the tests by size: one Gram product per test; kept as reference."""
    index = {x: i for i, x in enumerate(ids)}
    thr = math.sin(ortho_tol)
    worst = 0.0
    for t in tests:
        rowsel = coords[[index[x] for x in sorted(t)]]
        g = rowsel @ rowsel.T
        if len(rowsel) > 1:
            off = np.abs(g[~np.eye(len(rowsel), dtype=bool)]).max()
            worst = max(worst, float(off))
    return ("in-test-orthogonality", worst <= thr, f"max |inner| {worst:.3e} vs {thr:.3e}")


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([0.0, 1e-13, 1e-7]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_in_test_orthogonality_equals_frozen_loop(d, count, noise, seed):
    """Tests of every size 1..d from one sample, with coordinates jittered
    so that the worst inner product varies and, at 1e-7, fails the check."""
    rng = np.random.default_rng(seed)
    s = sample_frames(d, count, seed=seed % 1000)
    coords = s.coords + noise * rng.standard_normal(s.coords.shape)
    tests = tuple(
        frozenset(rng.choice(sorted(t), size=int(rng.integers(1, d + 1)), replace=False))
        for t in s.tests
    )
    rows = check_sample_invariants(s.ids, coords, tests, s.ortho_tol)
    assert rows[-1] == frozen_in_test_orthogonality(s.ids, coords, tests, s.ortho_tol)


def test_in_test_orthogonality_reports_worst_like_frozen_loop():
    s = sample_frames(4, 50, seed=3)
    coords = s.coords.copy()
    coords[7] += 1e-6  # frame 1 loses orthogonality by about 1e-6
    tests = s.tests + (frozenset(s.ids[:2]), frozenset(s.ids[4:5]))
    rows = check_sample_invariants(s.ids, coords, tests, s.ortho_tol)
    frozen = frozen_in_test_orthogonality(s.ids, coords, tests, s.ortho_tol)
    assert rows[-1] == frozen
    assert not frozen[1]
    assert frozen[2].startswith("max |inner| 1.6")


def test_the_hausdorff_sign_flip_law_runs_on_the_grid_path(monkeypatch):
    calls = []
    scan = metric_module._farthest_nearest
    monkeypatch.setattr(metric_module, "_farthest_nearest", lambda *args: calls.append(1) or scan(*args))
    assert_hausdorff_keeps_its_bits(np.array([-1.0, 1.0, -1.0]), np.random.default_rng(0))
    assert len(calls) == 4  # both directions, both sign patterns


@pytest.mark.parametrize("value", [math.nan, math.inf, 1e200])
def test_non_finite_coordinates_fail_the_battery_without_warnings(value):
    s = sample_frames(3, 4, seed=1)
    coords = s.coords.copy()
    coords[4, 1] = value  # frame 1's second point
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning raises
        rows = check_sample_invariants(s.ids, coords, s.tests, s.ortho_tol)
        with pytest.raises(ValidationError, match="unit-norm"):
            MetricSample(s.ids, coords, s.tests)
    rows = {name: (ok, detail) for name, ok, detail in rows}
    assert not rows["unit-norm"][0]
    ok, detail = rows["in-test-orthogonality"]
    assert not ok
    if math.isnan(value):
        assert detail == "max |inner| nan vs 1.000e-09"


# -------------------------------------------------------------- tno radius


def test_tno_radius_single_frame():
    assert tno_radius(frame_sample(), "a") == pytest.approx(ROOT2)


def test_tno_radius_without_orthogonal_pairs():
    pts = np.array([[1.0, 0.0], [math.cos(0.3), math.sin(0.3)]])
    s = MetricSample(("a", "b"), pts, (frozenset("a"), frozenset("b")))
    assert tno_radius(s, "a") == math.inf


def test_tno_radius_scans_all_pairs():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    s = MetricSample(("a", "b", "c"), pts, (frozenset("ab"), frozenset("c")))
    # orthogonal pairs: (a,b) and (b,c); from c the nearer pair is (b,c)
    assert tno_radius(s, "c") == pytest.approx(ROOT2)
    assert tno_radius(s, "b") == pytest.approx(ROOT2)
    with pytest.raises(UnknownOutcomeError):
        tno_radius(s, "zzz")


def rotated_plane_frames() -> MetricSample:
    """Eight frames of the plane turned by multiples of 45 degrees, so that
    many orthogonal pairs lie across tests."""
    pts = np.vstack([(rotation_z(k * math.pi / 4) @ np.eye(3))[:2, :2].T for k in range(8)])
    ids = tuple(f"p{k}" for k in range(len(pts)))
    return MetricSample(ids, pts, tuple(frozenset(ids[k : k + 2]) for k in range(0, 16, 2)))


def brute_orthogonal_pairs(s: MetricSample) -> list[tuple[int, int]]:
    thr = math.sin(s.ortho_tol)
    n = len(s.ids)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if abs(float(s.coords[i] @ s.coords[j])) <= thr
    ]


@pytest.mark.parametrize("rows_per_block", [1, 3, None])
def test_orthogonal_pairs_match_brute_force(monkeypatch, rows_per_block):
    samples = [rotated_plane_frames(), sample_frames(3, 30, seed=5), sample_frames(4, 12, seed=6)]
    for s in samples:
        if rows_per_block is not None:  # None keeps the default budget
            monkeypatch.setattr(metric_module, "_BLOCK_ELEMENTS", rows_per_block * len(s.ids))
        pairs = s.orthogonal_pair_indices
        assert pairs.shape[1] == 2
        assert [tuple(p) for p in pairs.tolist()] == brute_orthogonal_pairs(s)


# The pair scan before it kept to the upper triangle: each row block met
# every column of the Gram matrix and a 2-D nonzero found the hits; frozen
# here as the reference.


def frozen_orthogonal_pairs(pts: np.ndarray, thr: float, block_elements: int = 1 << 20):
    n = len(pts)
    block = max(1, block_elements // max(n, 1))
    gram = np.empty((min(block, n), n))
    for s in range(0, n, block):
        g = gram[: min(block, n - s)]
        np.matmul(pts[s : s + block], pts.T, out=g)
        ii, jj = np.nonzero(np.abs(g, out=g) <= thr)
        ii = ii + s
        keep = ii < jj
        if keep.any():
            yield np.stack([ii[keep], jj[keep]], axis=1)


def concat_pairs(chunks) -> np.ndarray:
    chunks = list(chunks)
    return np.concatenate(chunks) if chunks else np.empty((0, 2), dtype=int)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=11),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=60),
    st.sampled_from([math.sin(1e-9), 0.05, 0.3]),
    st.sampled_from([1, 3, None]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_orthogonal_pairs_equal_the_frozen_full_gram_scan(d, frames, extra, thr, rows, seed):
    """Frames (exactly orthogonal pairs) mixed with random unit vectors, in
    shuffled order, at budgets of one row, three rows and the default."""
    rng = np.random.default_rng(seed)
    pts = np.vstack([sample_frames(d, frames, seed % 1000).coords, seeded_points(seed, extra, d)])
    pts = pts[rng.permutation(len(pts))]
    want = concat_pairs(frozen_orthogonal_pairs(pts, thr))
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(metric_module, "_BLOCK_ELEMENTS", rows * len(pts))
        got = concat_pairs(metric_module._orthogonal_pairs(pts, thr))
    assert got.dtype == want.dtype
    assert got.shape == want.shape and (got == want).all()


def test_orthogonal_pair_scan_keeps_to_its_block_budget():
    s = sample_frames(3, 1000, seed=8)
    want = concat_pairs(frozen_orthogonal_pairs(s.coords, math.sin(s.ortho_tol)))
    tracemalloc.start()
    try:
        got = s.orthogonal_pair_indices
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    # the float tile buffer and one boolean tile, far below the 72 MB Gram matrix
    assert peak < 8 * metric_module._BLOCK_ELEMENTS * 3 // 2


@pytest.mark.parametrize("budget", TILE_BUDGETS[1:])
@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=11),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=40),
    st.sampled_from([math.sin(1e-9), 0.05, 0.3]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(3, 13, 8, 0.3, 0)  # 47 points, a prime: no tile side divides them
def test_orthogonal_pairs_equal_the_frozen_scan_in_many_tiles(budget, d, frames, extra, thr, seed):
    """Budgets under which most bands span several tiles and the points
    fill several bands, so each band's hits come out of several tiles."""
    rng = np.random.default_rng(seed)
    pts = np.vstack([sample_frames(d, frames, seed % 1000).coords, seeded_points(seed, extra, d)])
    pts = pts[rng.permutation(len(pts))]
    want = concat_pairs(frozen_orthogonal_pairs(pts, thr))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric_module, "_BLOCK_ELEMENTS", budget_floats(budget, len(pts)))
        got = concat_pairs(metric_module._orthogonal_pairs(pts, thr))
    assert got.dtype == want.dtype
    assert got.shape == want.shape and (got == want).all()


def threshold_edge_points(d: int, thr: float, seed: int) -> np.ndarray:
    """Pairs (x, y), y = normalize(x_perp + t x), whose inner products step
    across thr in the last bits of a sum of d products, then points whose
    float32 images are subnormal (or flush to 0) in one coordinate."""
    rng = np.random.default_rng(seed)
    pts = []
    for step in range(-20, 21):
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        perp = rng.standard_normal(d)
        perp -= (perp @ x) * x
        perp /= np.linalg.norm(perp)
        t = thr + step * 2.0**-56
        y = math.sqrt(1.0 - t * t) * perp + t * x
        pts += [x, y / np.linalg.norm(y)]
    tiny = np.zeros((5, d))
    tiny[:, 0] = 1.0
    tiny[:, 1] = [1e-40, -3e-42, 1e-45, 2e-39, 1e-50]
    tiny[:, -1] -= [0.0, 0.0, 0.0, 0.0, 1e-45]
    return np.vstack(pts + [tiny / np.linalg.norm(tiny, axis=1, keepdims=True)])


@pytest.mark.parametrize("budget", TILE_BUDGETS)
@pytest.mark.parametrize("thr", [math.sin(1e-9), 1e-4, 0.3])
@pytest.mark.parametrize("d", [2, 3, 7, 8, 11])
def test_orthogonal_pairs_at_the_threshold_edge_equal_the_frozen_scan(d, thr, budget):
    """Every hit comes from the float64 product: pairs just inside thr are
    found and pairs just outside are not, whichever tiles the float32 pass
    skips, at every tile budget."""
    pts = threshold_edge_points(d, thr, seed=d)
    want = concat_pairs(frozen_orthogonal_pairs(pts, thr))
    constructed = {(i, i + 1) for i in range(0, 82, 2)}
    inside = constructed & set(map(tuple, want.tolist()))
    assert inside and inside != constructed  # the pairs straddle thr
    if thr < 0.3:  # at the default budget the tile is the whole 87 x 87 matrix
        assert metric_module._float32_limit(pts, thr, len(pts) ** 2) is not None
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(metric_module, "_BLOCK_ELEMENTS", budget_floats(budget, len(pts)))
        got = concat_pairs(metric_module._orthogonal_pairs(pts, thr))
    assert got.dtype == want.dtype
    assert got.shape == want.shape and (got == want).all()


# -------------------------------------------------------------- rank bound


def test_rank_bound_single_frame_small_caps():
    assert rank_bound(frame_sample(), 0.1) == 3


def test_rank_bound_rejects_wide_caps():
    with pytest.raises(NotTotallyNonOrthogonalError) as exc:
        rank_bound(frame_sample(), 2.5)
    assert (exc.value.center, exc.value.pair) == ("a", ("a", "b"))
    with pytest.raises(ValidationError):
        rank_bound(frame_sample(), 0.0)
    # a NaN radius covers no point, so past the guard the caps would grow forever
    with pytest.raises(ValidationError, match="cap radius must be positive"):
        rank_bound(frame_sample(), math.nan)


@pytest.mark.parametrize("d, count, seed", [(3, 300, 1), (4, 200, 2), (5, 150, 3)])
def test_rank_bound_skips_only_caps_too_small_for_an_orthogonal_pair(monkeypatch, d, count, seed):
    s = sample_frames(d, count, seed=seed)
    chord = math.sqrt(2.0 - 2.0 * math.sin(s.ortho_tol))
    radii = np.random.default_rng(seed).uniform(0.05, chord / 2, 6).tolist() + [chord / 2 - 1e-6]
    skipped = [rank_bound(s, r) for r in radii]

    def no_scan(*args):
        raise AssertionError("a cap this small cannot hold an orthogonal pair")

    with monkeypatch.context() as m:
        m.setattr(metric_module, "_orthogonal_pairs", no_scan)
        assert [rank_bound(s, r) for r in radii] == skipped
    monkeypatch.setattr(metric_module, "_CAP_CHORD_SLACK", math.inf)  # always scan
    assert [rank_bound(s, r) for r in radii] == skipped


@pytest.mark.parametrize("d, count, seed", [(3, 200, 4), (4, 120, 5), (6, 60, 6)])
def test_rank_bound_answers_like_the_frozen_scan(monkeypatch, d, count, seed):
    """The cap count, or the (center, pair) of the first cap with a pair,
    at tile budgets from tiny to the default and against the frozen scan."""
    s = sample_frames(d, count, seed=seed)
    radii = [0.3, 0.72, 0.75, 0.8, 1.0, 1.4, 2.5]

    def answers():
        out = []
        for r in radii:
            try:
                out.append(rank_bound(s, r))
            except NotTotallyNonOrthogonalError as exc:
                out.append((exc.center, exc.pair))
        return out

    got = answers()
    assert any(isinstance(x, tuple) for x in got) and any(isinstance(x, int) for x in got)
    for budget in TILE_BUDGETS[1:]:
        monkeypatch.setattr(metric_module, "_BLOCK_ELEMENTS", budget_floats(budget, len(s.ids)))
        assert got == answers()
    monkeypatch.setattr(metric_module, "_orthogonal_pairs", frozen_orthogonal_pairs)
    assert got == answers()


def test_rank_bound_under_45_degree_caps():
    s = sample_frames(3, 50, seed=3)
    cap = 2.0 * math.sin(math.radians(15.0))  # chordal radius of a 30 degree cap
    bound = rank_bound(s, cap)
    assert bound >= 3
    assert all(len(t) <= 3 for t in s.tests)


# The checks before they read squared distances measured each chord with
# np.linalg.norm of coordinate differences; frozen here as the reference.


def frozen_tno_radius(sample: MetricSample, outcome: str) -> float:
    i = sample.index_of(outcome)
    pairs = sample.orthogonal_pair_indices
    if len(pairs) == 0:
        return math.inf
    dx = np.linalg.norm(sample.coords - sample.coords[i], axis=1)
    far = np.maximum(dx[pairs[:, 0]], dx[pairs[:, 1]])
    return float(far.min())


def frozen_rank_bound(sample: MetricSample, cap_radius: float) -> int:
    pts = sample.coords
    covered = np.zeros(len(pts), dtype=bool)
    caps = []
    while not covered.all():
        c = int(np.argmax(~covered))
        inside = np.linalg.norm(pts - pts[c], axis=1) < cap_radius
        caps.append((c, np.flatnonzero(inside)))
        covered |= inside
    thr = math.sin(sample.ortho_tol)
    chord = math.sqrt(max(0.0, 2.0 - 2.0 * thr))
    if 2.0 * cap_radius < chord - metric_module._CAP_CHORD_SLACK:
        return len(caps)
    for c, idx in caps:
        for pairs in metric_module._orthogonal_pairs(pts[idx], thr):
            i, j = idx[pairs[0]]
            raise NotTotallyNonOrthogonalError(sample.ids[c], (sample.ids[i], sample.ids[j]))
    return len(caps)


def rank_answer(f, sample: MetricSample, cap_radius: float):
    """The cap count, or the (center, pair) of the first cap with a pair."""
    try:
        return f(sample, cap_radius)
    except NotTotallyNonOrthogonalError as exc:
        return (exc.center, exc.pair)


CAP_30 = 2.0 * math.sin(math.radians(15.0))  # chordal radius of a 30 degree cap
CAP_60 = 2.0 * math.sin(math.radians(30.0))


def scattered_sample(d: int, n: int, seed: int) -> MetricSample:
    """Random unit vectors, each its own test: no orthogonal pair."""
    ids = tuple(f"x{k:03d}" for k in range(n))
    return MetricSample(ids, seeded_points(seed, n, d), tuple(frozenset([x]) for x in ids))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 11]),
    st.integers(min_value=1, max_value=60),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(3, 60, False, 7)
@example(11, 20, True, 3)
def test_tno_radius_and_rank_bound_equal_the_frozen_norm(d, count, scattered, seed):
    """On frames, and on scattered points without any orthogonal pair, the
    radius around every tenth outcome and the answer at 30 and 60 degree
    caps are the frozen ones, to the bit."""
    s = scattered_sample(d, count, seed % 1000) if scattered else sample_frames(d, count, seed % 1000)
    for x in s.ids[::10]:
        got, want = tno_radius(s, x), frozen_tno_radius(s, x)
        assert got == want and type(got) is type(want)
        assert (got == math.inf) == scattered
    for cap in (CAP_30, CAP_60):
        assert rank_answer(rank_bound, s, cap) == rank_answer(frozen_rank_bound, s, cap)


def test_rank_bound_caps_at_30_and_60_degrees_answer_like_the_frozen_norm():
    """A 60 degree cap holds an orthogonal pair, named with its center as
    before; 30 degree caps are counted as before."""
    for d, count in ((2, 100), (3, 300), (11, 40)):
        s = sample_frames(d, count, seed=d)
        caps = rank_answer(rank_bound, s, CAP_30)
        assert isinstance(caps, int) and caps == frozen_rank_bound(s, CAP_30)
        pair = rank_answer(rank_bound, s, CAP_60)
        assert isinstance(pair, tuple) and pair == rank_answer(frozen_rank_bound, s, CAP_60)


def test_distance_reads_the_exact_kernel():
    """MetricSample.distance is the entry pairwise_distances gives, to the bit."""
    for d in (3, 11):
        s = sample_frames(d, 3, seed=d)
        want = pairwise_distances(s.coords, s.coords)
        got = np.array([[s.distance(x, y) for y in s.ids] for x in s.ids])
        assert np.array_equal(got, want)
    with pytest.raises(UnknownOutcomeError):
        s.distance(s.ids[0], "zzz")


# ------------------------------------------------- cardinality constancy


def two_frame_sample(theta: float) -> MetricSample:
    first = np.eye(3)
    second = (rotation_z(theta) @ np.eye(3)).T
    pts = np.vstack([first, second])
    ids = ("a", "b", "c", "d", "e", "f")
    tests = (frozenset("abc"), frozenset("def"))
    return MetricSample(ids, pts, tests)


def test_cardinality_constancy_under_small_rotation():
    s = two_frame_sample(0.01)
    assert event_cardinality_locally_constant(s, {"a", "b"}, {"d", "e"})
    assert event_cardinality_locally_constant(s, {"a"}, {"a"})


def test_cardinality_constancy_vacuous_beyond_guard():
    s = two_frame_sample(0.01)
    # d_H between {a,b} and {d} is about sqrt(2): guard not met
    assert event_cardinality_locally_constant(s, {"a", "b"}, {"d"})


def test_cardinality_constancy_rejects_non_events():
    s = two_frame_sample(0.01)
    with pytest.raises(ValidationError):
        event_cardinality_locally_constant(s, {"a", "d"}, {"b"})


def test_cardinality_constancy_builds_no_test_space(monkeypatch):
    """Events are decided on the one space the sample holds."""
    s = sample_frames(3, 40, seed=9)
    monkeypatch.setattr(TestSpace, "__post_init__", mock.Mock(side_effect=AssertionError))
    tests = [sorted(t) for t in s.tests]
    assert all(event_cardinality_locally_constant(s, a, b) for a, b in zip(tests, tests[1:]))
    with pytest.raises(ValidationError, match="is not an event of the sample"):
        event_cardinality_locally_constant(s, tests[0][:1] + tests[1][:1], tests[2])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=5_000),
    st.floats(min_value=1e-4, max_value=0.2),
)
def test_cardinality_constancy_on_rotated_frames(seed, theta):
    rng = np.random.default_rng(seed)
    base = sample_frames(3, 1, seed=seed).coords
    second = base @ rotation_z(theta).T
    ids = ("a", "b", "c", "d", "e", "f")
    s = MetricSample(ids, np.vstack([base, second]), (frozenset("abc"), frozenset("def")))
    pick = rng.integers(1, 4)
    left = ["a", "b", "c"][: int(pick)]
    right = ["d", "e", "f"][: int(pick)]
    assert event_cardinality_locally_constant(s, left, right)


# The check before it read event membership through the outcome -> tests
# index and its distances from one matrix: a scan over every test, and
# three distance matrices; frozen here as the reference.


def frozen_locally_constant(sample: MetricSample, a, b) -> bool:
    ma, mb = frozenset(a), frozenset(b)
    for m in (ma, mb):
        if not any(m <= t for t in sample.tests):
            raise ValidationError(f"{sorted(m)} is not an event of the sample")
    pa, pb = sample.points_of(ma), sample.points_of(mb)
    dist = pairwise_distances(pa, pb)
    d_h = metric_module._hausdorff(dist)

    def separation(pts):
        if len(pts) < 2:
            return math.inf
        own = pairwise_distances(pts, pts)
        return float(own[~np.eye(len(pts), dtype=bool)].min())

    guard = 0.5 * min(separation(pa), separation(pb))
    if not d_h < guard:
        return True
    if len(ma) != len(mb):
        return False
    return metric_module._bottleneck(dist) == d_h


def perturbed_frames_sample(d: int, frames: int, eps: float, seed: int) -> MetricSample:
    """Frames f<k> and, for each, a copy g<k> tilted by about eps."""
    rng = np.random.default_rng(seed)
    base = sample_frames(d, frames, seed).coords.reshape(frames, d, d)
    ids, pts, tests = [], [], []
    for k, frame in enumerate(base):
        q, r = np.linalg.qr((frame + eps * rng.standard_normal((d, d))).T)
        tilted = (q * np.sign(np.diag(r))).T
        tilted /= np.linalg.norm(tilted, axis=1, keepdims=True)
        for name, rows in (("f", frame), ("g", tilted)):
            members = [f"{name}{k}.{i}" for i in range(d)]
            ids += members
            pts.append(rows)
            tests.append(frozenset(members))
    order = np.argsort(ids)
    return MetricSample(tuple(np.array(ids)[order].tolist()), np.vstack(pts)[order], tuple(tests))


def answer_or_error(f, *args):
    try:
        return f(*args)
    except ValidationError as exc:
        return (type(exc), str(exc))


EMPTY_EVENT = (ValidationError, "the local-constancy check needs nonempty events")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=11),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([1e-9, 1e-6, 1e-3, 0.05, 0.5]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(11, 3, 1e-6, 5)
def test_locally_constant_equals_the_frozen_check(d, frames, eps, seed):
    """Matched tilted copies (the guard holds and the matching runs),
    unequal sizes, empty events, and non-events with their messages;
    d > 7 takes the stacked distance route, and d = 11 names a test's
    members so that f….10 sorts before f….2.  An empty event, which the
    frozen check met with numpy's zero-size reduction error, is refused."""
    s = perturbed_frames_sample(d, frames, eps, seed % 1000)
    rng = np.random.default_rng(seed)
    for draw in range(16):
        k = int(rng.integers(frames))
        picked = rng.choice(d, size=int(rng.integers(1, d + 1)) if draw else 0, replace=False)
        a = [f"f{k}.{i}" for i in picked]
        b = [f"g{k}.{i}" for i in picked]
        kind = int(rng.integers(4))
        if kind == 1 and len(b) < d:  # one member more
            b.append(f"g{k}.{next(i for i in range(d) if i not in picked)}")
        elif kind == 2 and b:  # one member fewer
            b.pop()
        elif kind == 3:  # a member of another test, or an unknown id
            (a, b)[draw % 2].append(str(rng.choice([f"g{k}.0", f"f{(k + 1) % frames}.0", "zz"])))
        got = answer_or_error(event_cardinality_locally_constant, s, a, b)
        events = all(any(frozenset(m) <= t for t in s.tests) for m in (a, b))
        if events and not (a and b):
            assert got == EMPTY_EVENT
            continue
        want = answer_or_error(frozen_locally_constant, s, a, b)
        assert got == want
        assert type(got) is type(want)


# ------------------------------------------------------------- generation


def test_sample_frames_reproducible_prefix():
    """From d = 11 on a frame's name order (f….10 before f….2) differs
    from its slot order; the bulk-built rows follow the names."""
    for d in (2, 3, 10, 11, 12):
        small = sample_frames(d, 10, seed=9)
        large = sample_frames(d, 20, seed=9)
        assert small.ids == large.ids[: 10 * d]
        assert np.array_equal(small.coords, large.coords[: 10 * d])
        assert small.tests == large.tests[:10]
        assert small._space._rows == large._space._rows[:10]
        for s in (small, large):  # the space names its outcomes in sorted order
            assert s.to_test_space() == TestSpace.build(s.ids, s.tests)
            assert s._space._rows == _index_rows(s._space._index, s.tests)
            assert s._space._row_array.tolist() == [list(r) for r in s._space._rows]
            assert [s.index_of(x) for x in s.ids] == list(range(len(s.ids)))
            assert np.array_equal(s._points, s.coords[list(map(s.index_of, s._space.outcomes))])
            assert (s._order is None) == (s._points is s.coords) == (d <= 10)
        again = sample_frames(d, 10, seed=9)
        assert np.array_equal(small.coords, again.coords)
        assert not np.array_equal(small.coords, sample_frames(d, 10, seed=10).coords)


def test_sample_frames_refuses_a_negative_seed():
    with pytest.raises(ValidationError, match=r"^seed must be at least 0, got -1$"):
        sample_frames(3, 2, -1)


def test_sample_frames_are_rotations():
    s = sample_frames(3, 200, seed=4)
    mats = s.coords.reshape(200, 3, 3)
    gram = np.einsum("kij,klj->kil", mats, mats)
    assert np.abs(gram - np.eye(3)).max() <= 1e-12
    assert np.allclose(np.linalg.det(mats), 1.0)
    assert s.ids[0] == "f000000.0" and s.ids[5] == "f000001.2"


def test_sample_frames_dimension_two_and_errors():
    s = sample_frames(2, 10, seed=0)
    assert all(len(t) == 2 for t in s.tests)
    with pytest.raises(ValidationError):
        sample_frames(1, 5, seed=0)
    with pytest.raises(ValidationError):
        sample_frames(3, 0, seed=0)


def test_sample_frames_rejects_sizes_over_the_memory_budget():
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="over the budget"):
            sample_frames(10**5, 10, seed=0)  # 10**11 floats
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


# ----------------------------------------------------------------- closure


def shrinking_rotations(base: np.ndarray, count: int = 12):
    return [base @ rotation_z(1.0 / (k + 1)).T for k in range(count)]


def test_closure_check_accepts_convergent_rotations():
    base = np.eye(3)
    frames = shrinking_rotations(base)
    limit = base @ rotation_z(1.0 / 12.0).T
    assert closure_check(frames, limit, tol=1e-9)


def test_closure_check_constant_sequence_zero_tolerance():
    assert closure_check([np.eye(3)] * 4, np.eye(3), tol=0.0)


def test_closure_check_flags_non_orthogonal_limit():
    tilt = np.vstack([E1, (E1 + E2) / ROOT2, E3])
    assert not closure_check([tilt] * 6, tilt, tol=1e-9)


def test_closure_check_flags_cardinality_drop():
    assert not closure_check([np.eye(3)] * 4, np.eye(3)[:2], tol=2.0)


def test_closure_check_rejects_divergence():
    frames = [np.eye(3), (rotation_z(0.5) @ np.eye(3)).T]
    with pytest.raises(ConvergenceError):
        closure_check(frames, np.eye(3), tol=1e-9)
    with pytest.raises(ValidationError):
        closure_check([], np.eye(3))


def test_closure_check_refuses_meaningless_tolerances():
    tilt = np.vstack([E1, (E1 + E2) / ROOT2, E3])
    for ortho_tol in (math.nan, 10.0, -1e-3, math.inf):
        with pytest.raises(ValidationError, match="orthogonality tolerance must be finite and >= 0"):
            closure_check([tilt] * 3, tilt, ortho_tol=ortho_tol)
    with pytest.raises(ValidationError, match="convergence tolerance must be >= 0"):
        closure_check([np.eye(3)] * 3, np.eye(3), tol=math.nan)
    with pytest.raises(ValidationError, match="convergence tolerance must be >= 0"):
        closure_check([np.eye(3)] * 3, np.eye(3), tol=-1.0)
    assert closure_check([np.eye(3)] * 3, np.eye(3), ortho_tol=math.pi / 2)
    assert closure_check([tilt] * 3, tilt, ortho_tol=math.pi / 4 + 1e-9)


# ---------------------------------------------------------- lipschitz sums


def test_sum_map_lipschitz_identity_and_constant():
    a = np.vstack([E1, E2])
    check = sum_map_lipschitz(lambda p: p[0], 1.0, a, a)
    assert check.ok and check.difference == 0.0
    check = sum_map_lipschitz(lambda p: 7.0, 0.0, a, np.vstack([E2, E3]))
    assert check.ok and check.difference == 0.0


def test_sum_map_lipschitz_first_coordinate_under_rotation():
    a = np.vstack([E1, E2])
    b = a @ rotation_z(0.3).T
    check = sum_map_lipschitz(lambda p: p[0], 1.0, a, b)
    assert check.ok
    assert check.bound == pytest.approx(2.0 * matching_distance(a, b))
    with pytest.raises(ValidationError):
        sum_map_lipschitz(lambda p: p[0], 1.0, a, np.vstack([E1]))


# ------------------------------------------------------------ persistence


def test_save_load_roundtrip_is_exact(tmp_path):
    for d in (3, 11):  # at d = 11 the ids are not sorted; the file lists them sorted
        s = sample_frames(d, 7, seed=21)
        tsp, coords = save_sample(s, tmp_path / f"frames{d}.tsp", header=f"frames dim={d}")
        want = dump_test_space(TestSpace.build(s.ids, s.tests), f"frames dim={d}")
        assert (tmp_path / f"frames{d}.tsp").read_bytes() == want.encode()
        loaded = load_sample(tsp)
        assert loaded.ids == tuple(sorted(s.ids))
        # repr() round-trips floats
        assert np.array_equal(loaded.coords, np.stack([s.point(x) for x in loaded.ids]))
        assert loaded.tests == s.tests


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=11),
    count=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    header=st.one_of(st.none(), st.text(alphabet="ab =\n", max_size=12)),
)
# d = 11 lists f….10 before f….2, so the sample's ids are not sorted
@example(d=11, count=5, seed=0, header="frames dim=11")
@example(d=11, count=5, seed=1, header=None)
def test_save_sample_writes_the_dump_of_its_space(tmp_path_factory, d, count, seed, header):
    """The .tsp is the dump of the sample's space, with no TestSpace built,
    for ids and tests in any order."""
    frames = sample_frames(d, count, seed)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(frames.ids))
    s = MetricSample(tuple(frames.ids[i] for i in order), frames.coords[order],
                     tuple(frames.tests[k] for k in rng.permutation(count)))
    path = tmp_path_factory.mktemp("save") / "s.tsp"
    with mock.patch.object(TestSpace, "__post_init__", side_effect=AssertionError):
        save_sample(s, path, header=header)
    assert path.read_text() == dump_test_space(s.to_test_space(), header)


@pytest.mark.parametrize("bad", ["a#1", "a b", "", "a\tb"])
def test_ids_that_do_not_read_back_are_not_written(tmp_path, bad):
    """An id that is empty or holds whitespace or `#` would read back as
    other ids, so neither writer takes it, and no file is opened."""
    ts = TestSpace.build((bad, "c"), [(bad, "c")])
    with pytest.raises(ValidationError, match="cannot be written"):
        dump_test_space(ts)
    s = MetricSample((bad, "c"), np.eye(2), (frozenset((bad, "c")),))
    with pytest.raises(ValidationError, match=re.escape(f"outcome id {bad!r} cannot be written")):
        save_sample(s, tmp_path / "s.tsp")
    assert list(tmp_path.iterdir()) == []


def test_load_sample_builds_one_space_and_no_rows(tmp_path, monkeypatch):
    """The space parse_sample builds is the sample's own: its battery reads
    that space's rows, builds none by name, and to_test_space() returns it."""
    tsp, _ = save_sample(sample_frames(11, 6, seed=2), tmp_path / "s.tsp")
    built, rows_built = [], []
    init, index_rows = TestSpace.__post_init__, metric_module._index_rows

    def counting_init(ts):
        built.append(ts)
        init(ts)

    def counting_rows(index, tests):
        rows_built.append(len(tests))
        return index_rows(index, tests)

    monkeypatch.setattr(TestSpace, "__post_init__", counting_init)
    monkeypatch.setattr(metric_module, "_index_rows", counting_rows)
    for _ in range(2):
        built.clear()
        loaded = load_sample(tsp)
        assert loaded.to_test_space() is built[0] and loaded._space is built[0]
        assert {"_index", "_rows", "_row_array"}.isdisjoint(vars(loaded))
        assert len(built) == 1 and rows_built == []


SAMPLE_MAKERS = ["frames d=3", "frames d=11", "load_sample", "MetricSample", "sub_sample"]


@pytest.mark.parametrize("maker", SAMPLE_MAKERS)
def test_each_sample_builds_one_space_and_no_second_index(tmp_path, monkeypatch, maker):
    """However a sample is made, it builds exactly one TestSpace and keeps
    no index or rows of its own: its positions, in either order, are read
    off that space's index."""
    frames = sample_frames(11, 6, seed=3)  # ids not sorted: f….10 before f….2
    tsp, _ = save_sample(frames, tmp_path / "s.tsp")
    result = extract_semiclassical(frames, auto_basis(frames, 3, 1.0))
    makers = {
        "frames d=3": lambda: sample_frames(3, 40, seed=3),
        "frames d=11": lambda: sample_frames(11, 6, seed=3),
        "load_sample": lambda: load_sample(tsp),
        "MetricSample": lambda: MetricSample(frames.ids[::-1], frames.coords[::-1], frames.tests),
        "sub_sample": lambda: result.sub_sample,
    }
    built = []
    init = TestSpace.__post_init__

    def counting(ts):
        built.append(ts)
        init(ts)

    monkeypatch.setattr(TestSpace, "__post_init__", counting)
    sample = makers[maker]()
    assert len(built) == 1 and sample.to_test_space() is built[0] is sample._space
    assert set(vars(sample)) == {"ids", "coords", "tests", "ortho_tol", "_space", "_order", "_points"}
    space = sample._space
    assert space.outcomes == tuple(sorted(sample.ids))
    unsorted = list(sample.ids) != list(space.outcomes)
    assert (sample._order is not None) == (sample._points is not sample.coords) == unsorted
    at = [sample.index_of(x) for x in space.outcomes]
    assert at == (sample._order.tolist() if unsorted else list(range(len(at))))
    assert np.array_equal(sample._points, sample.coords[at])
    assert len(built) == 1


COORD_FAULTS = ["none", "norm", "tilt", "dim 1"]


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=11),
    count=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    fault=st.sampled_from(COORD_FAULTS),
)
@example(d=11, count=3, seed=0, fault="none")  # ids not sorted: f….10 before f….2
def test_load_sample_equals_the_sample_of_its_parts(tmp_path_factory, d, count, seed, fault):
    """The sample, or the error, that MetricSample gives on the parsed
    outcomes, coordinates and tests, with one drawn fault in the
    coordinates; the battery's rows are those it builds itself."""
    frames = sample_frames(d, count, seed % 1000)
    coords = frames.coords.copy()
    k = seed % len(coords)
    if fault == "norm":
        coords[k] *= 1.5
    elif fault == "tilt":
        coords[k, 0] += 1e-6
    elif fault == "dim 1":
        coords = coords[:, :1]
    path = tmp_path_factory.mktemp("load") / "s.tsp"
    save_sample(frames, path)
    (path.parent / "s.coords").write_text("".join(
        f"outcome {x} {' '.join(map(repr, row))}\n" for x, row in zip(frames.ids, coords.tolist())
    ))
    ts, pts = metric_module.parse_sample(path.read_text(), (path.parent / "s.coords").read_text())
    args = (ts.outcomes, pts, ts.tests, frames.ortho_tol)
    assert metric_module._space_battery(ts, pts, frames.ortho_tol) == metric_module._battery(*args)[0]
    try:
        want = MetricSample(*args)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            load_sample(path)
        assert str(got.value) == str(exc) and fault != "none"
        return
    loaded = load_sample(path)
    assert loaded.ids == want.ids and loaded.tests == want.tests
    assert np.array_equal(loaded.coords, want.coords)
    assert loaded._space._rows == want._space._rows
    assert loaded._space._index == want._space._index
    assert loaded.to_test_space() == want.to_test_space()


def test_load_sample_reports_missing_coordinates(tmp_path):
    s = sample_frames(2, 2, seed=0)
    tsp, coords_path = save_sample(s, tmp_path / "s.tsp")
    lines = (tmp_path / "s.coords").read_text().splitlines()
    (tmp_path / "s.coords").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValidationError, match="missing"):
        load_sample(tsp)


def test_load_sample_refuses_bytes_that_are_not_utf8(tmp_path):
    tsp, coords = save_sample(sample_frames(2, 2, seed=0), tmp_path / "s.tsp")
    good = {path: (tmp_path / path).read_bytes() for path in ("s.tsp", "s.coords")}
    want = load_sample(tsp)
    for path, data in good.items():
        at = data.index(b"\n") + 3
        (tmp_path / path).write_bytes(data[:at] + b"\xfe" + data[at:])
        with pytest.raises(EncodingError) as exc:
            load_sample(tsp)
        assert str(exc.value) == f"{tmp_path / path}: not UTF-8 text at byte {at}"
        (tmp_path / path).write_bytes(data)
    # CRLF lines read as a text-mode open() reads them
    for path, data in good.items():
        (tmp_path / path).write_bytes(data.replace(b"\n", b"\r\n"))
    loaded = load_sample(tsp)
    assert (loaded.ids, loaded.tests) == (want.ids, want.tests)
    assert loaded.coords.tobytes() == want.coords.tobytes()


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("point a 1.0\n", 1, 1),
        ("outcome a\n", 1, 1),
        ("outcome a 1.0 q\n", 1, 15),
        ("outcome a 1.0 0.0\noutcome a 0.0 1.0\n", 2, 9),
        ("outcome a 1.0 0.0\noutcome b 0.0\n", 2, 11),
        ("", 1, 1),
    ],
)
def test_parse_coords_error_positions(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse_coords(text)
    assert (exc.value.line, exc.value.column) == (line, col)


def test_parse_coords_accepts_comments_and_blanks():
    got = parse_coords("# header\n\noutcome a 1.0 0.0  # trailing\noutcome b 0.0 1.0\n")
    assert got == {"a": (1.0, 0.0), "b": (0.0, 1.0)}
