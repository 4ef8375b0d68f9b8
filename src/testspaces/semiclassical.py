"""Semi-classical test spaces and their extraction from metric samples.

A test space is semi-classical when its tests are pairwise disjoint, so
each outcome belongs to exactly one test.  Such spaces always admit plenty
of dispersion-free states (pick one outcome per test), and their logics are
horizontal sums whose size depends only on the test cardinalities.

The extraction routine walks a family of basic opens of the hyperspace and
greedily selects, per open, the first sampled test lying inside it while
staying a safe margin away from everything selected before.  The selected
tests form a semi-classical subspace of the sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import TestSpace, TspError, ValidationError, _by_size
from .metric import (
    MetricSample,
    VietorisBasicOpen,
    _open_members,
    _squared_distances,
    basic_open,
)

DEFAULT_MARGIN = 1e-6


class NotSemiclassicalError(TspError):
    """Two tests overlap, so the space is not semi-classical."""

    def __init__(self, outcome: str, first: int, second: int):
        super().__init__(
            f"outcome {outcome!r} belongs to tests {first} and {second}"
        )
        self.outcome = outcome
        self.tests = (first, second)


class DegenerateTestError(ValidationError):
    """A single-outcome test: its outcome is certain and carries no choice."""


def overlapping_tests(ts: TestSpace) -> tuple[str, int, int] | None:
    """First outcome shared by two tests as (outcome, i, j), else None."""
    owner = [-1] * len(ts.outcomes)  # the first test holding each outcome
    for i, row in enumerate(ts._rows):
        for k in row:
            if owner[k] >= 0:
                return ts.outcomes[k], owner[k], i
            owner[k] = i
    return None


def is_semiclassical(ts: TestSpace) -> bool:
    return overlapping_tests(ts) is None


def require_semiclassical(ts: TestSpace) -> None:
    witness = overlapping_tests(ts)
    if witness is not None:
        raise NotSemiclassicalError(*witness)


def horizontal_sum_size(ts: TestSpace) -> int:
    """Number of logic elements of a semi-classical space.

    Each test of size k contributes its 2**k - 2 proper nonempty events as
    pairwise inequivalent classes; the empty and full events of all tests
    merge into the shared bottom and top.
    """
    require_semiclassical(ts)
    for i, test in enumerate(ts.tests):
        if len(test) < 2:
            raise DegenerateTestError(
                f"test {i} has a single outcome {sorted(test)}"
            )
    return sum(2 ** len(test) - 2 for test in ts.tests) + 2


def disjoint_tests(space, members) -> list[frozenset[str]]:
    """All tests sharing no outcome id with the given event.

    Works on combinatorial spaces and on metric samples alike; intersection
    always means a shared outcome id.
    """
    event = frozenset(members)
    return [t for t in space.tests if not (t & event)]


@dataclass(frozen=True, eq=False)
class ExtractionResult:
    """Outcome of a greedy semi-classical extraction over a basis of opens.

    The selected tests, their sub-sample and its test space all derive from
    the sample extracted from and the selection; the sub-sample is built and
    validated on first read only.
    """

    sample: MetricSample
    selected: tuple[int, ...]
    open_hits: tuple[int | None, ...]
    coverage_radius: float
    separation: float
    margin: float
    density_target: float | None

    @property
    def tests(self) -> tuple[frozenset[str], ...]:
        return tuple(self.sample.tests[k] for k in self.selected)

    @cached_property
    def sub_sample(self) -> MetricSample:
        """The selected tests with their points, ids in sorted order."""
        tests = self.tests
        ids = tuple(sorted(set().union(*tests)))
        coords = self.sample._points[[self.sample._space._index[x] for x in ids]]
        return MetricSample(ids, coords, tests, self.sample.ortho_tol)

    @property
    def sub_test_space(self) -> TestSpace:
        return self.sub_sample.to_test_space()

    @property
    def basis_hits(self) -> dict[int, int]:
        return {i: k for i, k in enumerate(self.open_hits) if k is not None}

    @property
    def failures(self) -> list[int]:
        return [i for i, k in enumerate(self.open_hits) if k is None]

    @property
    def hit_fraction(self) -> float:
        if not self.open_hits:
            return 0.0
        hits = sum(1 for h in self.open_hits if h is not None)
        return hits / len(self.open_hits)

    @property
    def coverage_ok(self) -> bool:
        if self.density_target is None:
            return True
        return self.coverage_radius <= self.density_target

    @cached_property
    def summary(self) -> dict[str, float | int]:
        return {
            "opens": len(self.open_hits),
            "selected": len(self.selected),
            "hit_fraction": self.hit_fraction,
            "coverage_radius": self.coverage_radius,
            "separation": self.separation,
        }


def _frame_points(sample: MetricSample) -> np.ndarray:
    """Sample coordinates grouped by test, shape (tests, size, dim); each
    test's points in the order of its row, read through the rows of the
    sample's space."""
    rows = sample._space._row_array
    by_size = _by_size(sample._space._rows) if rows is None else {rows.shape[1]: rows}
    if len(by_size) != 1:
        raise ValidationError("extraction needs tests of one common size")
    return sample._points[by_size.popitem()[1]]


def _slots(sample: MetricSample) -> np.ndarray:
    """All sampled points in one (size * tests, dim) array with contiguous
    coordinate columns: row s * tests + t is point s of test t, so test k's
    points are flat[k::tests]."""
    pts = _frame_points(sample)
    return pts.transpose(2, 1, 0).reshape(pts.shape[2], -1).T


def _nearest_update(flat: np.ndarray, mind: np.ndarray, points) -> None:
    """Lower mind[i] to the squared distance from flat[i] to points."""
    np.minimum(mind, _squared_distances(flat, points).min(axis=0), out=mind)


def _check_basis(basis: tuple, dim: int) -> None:
    for open_ in basis:
        if not isinstance(open_, VietorisBasicOpen):
            raise ValidationError("basis entries must be basic opens")
        if open_.centers.shape[1] != dim:
            raise ValidationError(
                f"basis open of dimension {open_.centers.shape[1]} "
                f"for a sample of dimension {dim}"
            )


def extract_semiclassical(
    sample: MetricSample,
    basis,
    density_target: float | None = None,
    margin: float = DEFAULT_MARGIN,
) -> ExtractionResult:
    """Greedily select one sampled test inside each basic open.

    Opens are visited in order; the qualifying test of lowest index wins.
    A test qualifies when it is a member of the open and all its points are
    at least `margin` away from every previously selected point, so the
    selection is pairwise disjoint and the subspace is semi-classical even
    when the sampled tests themselves overlap (a shared point sits at
    distance zero, below any margin).  The coverage radius is the largest
    distance from any sampled point to the selected ones; when a density
    target is given the result records whether the target was met; a
    target that is not positive and finite raises ValidationError.
    Distances are kept squared and rooted only where read, which is exact:
    the square root is correctly rounded and monotone.
    """
    if not margin > 0:
        raise ValidationError("margin must be positive")
    if density_target is not None:
        _check_delta(density_target)
    basis = tuple(basis)
    if not basis:
        raise ValidationError("basis must contain at least one open")
    flat = _slots(sample)
    count = len(sample.tests)
    _check_basis(basis, flat.shape[1])
    mind = np.full(len(flat), np.inf)  # squared distance to the selected points
    by_test = mind.reshape(-1, count)
    selected: list[int] = []
    open_hits: list[int | None] = []
    separation = np.inf
    for open_ in basis:
        candidates = np.flatnonzero(_open_members(flat, count, open_))
        clearance = np.sqrt(by_test[:, candidates].min(axis=0))
        clear = np.flatnonzero(clearance >= margin)
        if not clear.size:
            open_hits.append(None)
            continue
        k = int(candidates[clear[0]])
        open_hits.append(k)
        selected.append(k)
        separation = min(separation, float(clearance[clear[0]]))
        _nearest_update(flat, mind, flat[k::count])
    if not selected:
        raise ValidationError("no open admitted a selection; widen the basis")
    return ExtractionResult(
        sample=sample,
        selected=tuple(selected),
        open_hits=tuple(open_hits),
        coverage_radius=float(np.sqrt(mind.max())),
        separation=float(separation),
        margin=margin,
        density_target=density_target,
    )


def _coverage_sweep(flat, count, mind, n_new):
    """Advance the farthest-point sweep over count tests by n_new anchors,
    updating the squared distances in mind."""
    anchors: list[int] = []
    chosen: set[int] = set()
    by_test = mind.reshape(-1, count)
    while len(anchors) < n_new:
        # the first test holding a farthest point, as in test-major order;
        # rooted first, since two squared maxima can share one distance
        owner = int(np.argmax(np.sqrt(by_test.max(axis=0))))
        if owner in chosen:  # everything already at distance zero
            owner = min(k for k in range(count) if k not in chosen)
        anchors.append(owner)
        chosen.add(owner)
        _nearest_update(flat, mind, flat[owner::count])
    return anchors


def _open_radius(delta: float, achieved: float) -> float:
    """Ball radius leaving room for the target after the sweep's residue.

    Any test inside such an open stays within `radius` per point of its
    anchor, so selections cover at `achieved + radius <= delta` whenever
    the sweep got below the target; otherwise a quarter of the target keeps
    the opens meaningful and the shortfall is reported honestly.
    """
    slack = delta - achieved
    return slack if slack > 0 else delta / 4


def _sweep_opens(flat, count, seeds, n_new: int, delta: float):
    """n_new basic opens, one around each anchor of a farthest-point sweep
    over count tests that starts from the point sets in seeds."""
    mind = np.full(len(flat), np.inf)
    for points in seeds:
        _nearest_update(flat, mind, points)
    anchors = _coverage_sweep(flat, count, mind, n_new)
    radius = _open_radius(delta, float(np.sqrt(mind.max())))
    return tuple(basic_open(flat[a::count], radius) for a in anchors)


def _check_delta(delta: float) -> None:
    if not 0 < delta < math.inf:
        raise ValidationError(f"density target must be positive and finite, got {delta}")


def auto_basis(sample: MetricSample, n_opens: int, delta: float):
    """Basic opens whose anchors aim to cover the sampled points at `delta`.

    Anchors are sampled tests picked by a farthest-point sweep: starting
    from test 0, each step locates the sampled point farthest from every
    anchor point and promotes its owning test to the next anchor (first
    occurrence on ties, so the sweep is deterministic).  Each anchor
    contributes one open: balls around its points, sized so that any test
    selected inside the open keeps the overall covering radius within the
    target.
    """
    _check_delta(delta)
    flat = _slots(sample)
    count = len(sample.tests)
    if not 1 <= n_opens <= count:
        raise ValidationError(f"need between 1 and {count} opens, got {n_opens}")
    return _sweep_opens(flat, count, (), n_opens, delta)


def extend_basis(sample: MetricSample, basis, n_more: int, delta: float):
    """Continue a basis' farthest-point sweep over a (possibly larger) sample.

    The given opens are kept verbatim as a prefix; the sweep resumes from
    their anchor points, so re-extracting with the grown basis preserves
    the prefix selections when the sample itself grew by appending tests.
    """
    basis = tuple(basis)
    if not basis:
        raise ValidationError("cannot extend an empty basis")
    count = len(sample.tests)
    if not 1 <= n_more <= count:
        raise ValidationError(f"need between 1 and {count} additional opens, got {n_more}")
    _check_delta(delta)
    flat = _slots(sample)
    _check_basis(basis, flat.shape[1])
    return basis + _sweep_opens(flat, count, [o.centers for o in basis], n_more, delta)
