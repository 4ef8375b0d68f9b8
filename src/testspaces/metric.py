"""Metrically sampled test spaces on the unit sphere, and hyperspace checks.

A metric sample pins each outcome to a unit vector so that the members of
every test are pairwise orthogonal within a small angular tolerance.  Finite
collections of outcome points are compared through the Hausdorff distance
and the matching (bottleneck bijection) distance, and membership in basic
opens of the hyperspace topology is decided against finite unions of balls.

All distances are chordal (Euclidean in the ambient space).
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    ParseError,
    TestSpace,
    TspError,
    UnknownOutcomeError,
    ValidationError,
    _BULK_MIN,
    _GRID_LINES,
    _by_size,
    _error,
    _grid,
    _index_rows,
    _lines,
    _read_text,
    _repeats,
    _row_space,
    dump_test_space,
    is_event,
    load_test_space,
)

DEFAULT_ORTHO_TOL = 1e-9  # angular tolerance (radians) for test orthogonality
UNIT_NORM_TOL = 1e-12


class ConvergenceError(TspError):
    """A frame sequence does not reach its declared limit within tolerance."""


class NotTotallyNonOrthogonalError(TspError):
    """A covering cap contains an orthogonal pair, so it cannot bound rank."""

    def __init__(self, center: str, pair: tuple[str, str]):
        super().__init__(
            f"cap around {center!r} contains the orthogonal pair {pair!r}"
        )
        self.center = center
        self.pair = pair


def _check_ortho_tol(ortho_tol: float) -> None:
    """An angular tolerance means something only in [0, pi/2], where sin
    increases; anything else raises ValidationError."""
    if not 0 <= ortho_tol <= math.pi / 2:
        raise ValidationError(
            f"orthogonality tolerance must be finite and >= 0 and at most pi/2, got {ortho_tol}"
        )


def check_sample_invariants(ids, coords, tests, ortho_tol):
    """Invariant battery for sampled spaces; list of (name, ok, detail) rows.

    A tolerance outside [0, pi/2] has no meaning as an angle, so it raises
    ValidationError instead of giving a row.
    """
    return _battery(ids, coords, tests, ortho_tol)[0]


def _battery(ids, coords, tests, ortho_tol):
    """(rows, index, by_size, order): the rows of `check_sample_invariants`;
    the id -> position index of the sorted ids; each test size's rows under
    it (`_by_size`; None where a test names an unknown id); and order[k],
    the position among ids of sorted id k (None where the ids are sorted).
    Where every row passes, the index and rows are those of the sample's
    TestSpace."""
    order = None
    if not all(map(operator.le, ids, itertools.islice(ids, 1, None))):
        order = np.array(sorted(range(len(ids)), key=ids.__getitem__))
    names = ids if order is None else [ids[k] for k in order]
    index = dict(zip(names, range(len(names))))
    try:
        by_size = _by_size(_index_rows(index, tests))
    except KeyError:
        by_size = None
    rows = _rows(len(ids), len(index), coords, len(tests), by_size, ortho_tol, order)
    return rows, index, by_size, order


def _space_battery(space: TestSpace, points: np.ndarray, ortho_tol):
    """check_sample_invariants(space.outcomes, points, space.tests,
    ortho_tol), with `points` in the space's outcome order, read off the
    space's index rows."""
    array = space._row_array
    by_size = _by_size(space._rows) if array is None else {array.shape[1]: array}
    n = len(space.outcomes)
    return _rows(n, n, points, len(space.tests), by_size, ortho_tol)


@np.errstate(all="ignore")  # non-finite coordinates fail their rows, silently
def _rows(n, distinct, coords, count, by_size, ortho_tol, order=None):
    """The battery's rows for n ids, `distinct` of them distinct, their
    coordinates and `count` tests, given by size as rows of positions, which
    `order` takes to rows of coords (None: the same); by_size is None where
    a test names an unknown id.  The battery stops after a failing shape,
    and after unknown ids."""
    _check_ortho_tol(ortho_tol)
    shape = coords.ndim == 2 and coords.shape[0] == n and coords.shape[1] >= 2
    rows = [("shape", shape, f"{n} ids, coords {coords.shape}")]
    if not shape:
        return rows
    dev = float(np.abs(np.linalg.norm(coords, axis=1) - 1.0).max()) if n else 0.0
    rows.append(("distinct-ids", distinct == n, f"{n} ids"))
    rows.append(("unit-norm", dev <= UNIT_NORM_TOL, f"max deviation {dev:.3e}"))
    rows.append(("test-ids-known", by_size is not None, ""))
    if by_size is None:
        return rows
    size, d = max(by_size, default=0), coords.shape[1]
    rows.append(("tests-nonempty", count > 0 and 0 not in by_size, f"{count} tests"))
    rows.append(("test-size", size <= d, f"max {size} <= dim {d}"))
    rows.append(("tests-distinct", not any(map(_repeats, by_size.values())), ""))
    covered = np.zeros(n, dtype=bool)
    for part in by_size.values():
        covered[part] = True
    uncovered = distinct - np.count_nonzero(covered)
    rows.append(("covering", not uncovered, f"{uncovered} uncovered"))
    thr = math.sin(ortho_tol)
    worst = 0.0
    for k, part in by_size.items():  # one batch per test size
        if k > 1:
            pts = coords[part if order is None else order[part]]
            g = pts @ pts.transpose(0, 2, 1)
            # np.maximum keeps a nan product, which fails the row
            worst = float(np.maximum(worst, np.abs(g[:, ~np.eye(k, dtype=bool)]).max()))
    rows.append(("in-test-orthogonality", worst <= thr,
                 f"max |inner| {worst:.3e} vs {thr:.3e}"))
    return rows


def _raise_failed(rows) -> None:
    for name, ok, detail in rows:
        if not ok:
            raise ValidationError(f"sample invariant {name} fails: {detail}")


_BLOCK_ELEMENTS = 1 << 17  # 1 MB of float64 per temporary of a blocked scan


def _float32_limit(pts: np.ndarray, thr: float, entries: int):
    """The float32 bound that every Gram entry of pts with |float64 value|
    <= thr keeps in float32, or None where a tile of `entries` entries is
    expected to hold a hit anyway, so that a float32 pass would skip none.

    With u = 2**-24, v = 2**-53, g(n, w) = n*w / (1 - n*w) and R the largest
    squared norm, rounding the coordinates to float32 moves an inner product
    by at most (2u + u*u) R, the float32 product by g(d, u)(1 + u)**2 R more
    and the float64 one by g(d, v) R (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 3.1), in any summation order; the
    last term covers float32 underflow.  The expected hit count takes the
    inner product of two random unit vectors as uniform on [-1, 1].
    """
    d = pts.shape[1]
    r = float(np.einsum("ij,ij->i", pts, pts).max())
    u, v = 2.0**-24, 2.0**-53
    eps = (2 * u + u * u + d * u / (1 - d * u) * (1 + u) ** 2 + d * v / (1 - d * v)) * r
    bound = thr + eps + d * 2.0**-148 * (1 + math.sqrt(r))
    if not (bound * entries < 1 and d * u < 1):
        return None
    return np.nextafter(np.float32(bound), np.float32(np.inf))


def _orthogonal_pairs(pts: np.ndarray, thr: float):
    """Yield the index pairs (i < j) with |<p_i, p_j>| <= thr in row-major
    order, one array per band of rows of the Gram matrix that holds any.

    Each band meets only the columns from its first row on, tile by tile,
    in one reused buffer of at most _BLOCK_ELEMENTS floats: square tiles,
    or whole rows where n is narrower than a square.  Tiles of many rows
    keep each product a matrix product where a full-width row of a large n
    would be a matrix-vector one.  A band's hits, gathered tile by tile,
    are sorted row-major once.  pts holds at least one point.

    Where a tile is expected to hold fewer than one hit, each tile is first
    multiplied in float32 (_float32_limit), in the same buffer, and skipped
    when no entry comes within the limit; a tile that passes is computed in
    float64 as before, so every hit comes from the float64 product.
    """
    n = len(pts)
    width = min(n, math.isqrt(_BLOCK_ELEMENTS))
    rows = min(n, _BLOCK_ELEMENTS // width)
    # reused: a new tile each step page-faults anew
    buf = np.empty(rows * width)
    limit = _float32_limit(pts, thr, rows * width)
    for s in range(0, n, rows):
        band = pts[s : s + rows]
        band32 = None if limit is None else band.astype(np.float32)
        hits = []
        for c in range(s, n, width):
            size = len(band) * min(width, n - c)
            if limit is not None:
                g = buf.view(np.float32)[:size].reshape(len(band), -1)
                np.matmul(band32, pts[c : c + width].astype(np.float32).T, out=g)
                if np.abs(g, out=g).min() > limit:
                    continue
            g = buf[:size].reshape(len(band), -1)
            np.matmul(band, pts[c : c + width].T, out=g)
            ii, jj = np.divmod(np.flatnonzero(np.abs(g, out=g) <= thr), g.shape[1])
            ii += s
            jj += c
            keep = ii < jj
            if keep.any():
                hits.append((ii[keep], jj[keep]))
        if hits:
            ii, jj = (np.concatenate(x) for x in zip(*hits))
            order = np.lexsort((jj, ii))
            yield np.stack([ii[order], jj[order]], axis=1)


@dataclass(frozen=True, eq=False)
class MetricSample:
    """Outcome ids with unit-vector coordinates and near-orthogonal tests.

    A sample is its TestSpace plus coordinates.  `_space`, built once when
    the sample is made, holds the one id -> row index and the test rows
    that every reader uses, and `_points` the coordinates in its outcome
    order.  `ids` and `coords` keep the sampled order: `_order[k]` is the
    position among `ids` of the space's outcome k, None where the ids are
    sorted and `_points` is `coords` itself.
    """

    ids: tuple[str, ...]
    coords: np.ndarray
    tests: tuple[frozenset[str], ...]
    ortho_tol: float = DEFAULT_ORTHO_TOL

    def __post_init__(self):
        object.__setattr__(self, "coords", np.ascontiguousarray(self.coords, dtype=float))
        rows, index, by_size, order = _battery(self.ids, self.coords, self.tests, self.ortho_tol)
        _raise_failed(rows)
        array = next(iter(by_size.values())) if len(by_size) == 1 else None
        self._hold(_row_space(tuple(index), tuple(map(frozenset, self.tests)), array, index), order)

    @classmethod
    def _of_space(cls, space: TestSpace, coords, ortho_tol: float, ids=None, order=None):
        """The sample of a space already built, with `coords` in the order of
        `ids` (by default the space's outcomes) and `order` as `_order`;
        its battery reads the space (`_space_battery`)."""
        sample = object.__new__(cls)
        fields = (space.outcomes if ids is None else ids, coords, space.tests, ortho_tol)
        for name, value in zip(("ids", "coords", "tests", "ortho_tol"), fields):
            object.__setattr__(sample, name, value)
        sample._hold(space, order)
        _raise_failed(_space_battery(space, sample._points, ortho_tol))
        return sample

    def _hold(self, space: TestSpace, order) -> None:
        object.__setattr__(self, "_space", space)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_points", self.coords if order is None else self.coords[order])

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def index_of(self, outcome: str) -> int:
        """The outcome's row of `coords`, read off the space's index."""
        try:
            k = self._space._index[outcome]
        except KeyError:
            raise UnknownOutcomeError(f"unknown outcome {outcome!r}") from None
        return k if self._order is None else int(self._order[k])

    def point(self, outcome: str) -> np.ndarray:
        return self.coords[self.index_of(outcome)]

    def points_of(self, members) -> np.ndarray:
        return self.coords[[self.index_of(x) for x in sorted(members)]]

    def distance(self, x: str, y: str) -> float:
        i, j = self.index_of(x), self.index_of(y)
        return math.sqrt(_squared_distances(self.coords[i : i + 1], self.coords[j : j + 1])[0, 0])

    def orthogonal(self, x: str, y: str) -> bool:
        """Geometric orthogonality within the sample's angular tolerance."""
        if x == y:
            self.index_of(x)
            return False
        inner = float(self.point(x) @ self.point(y))
        return abs(inner) <= math.sin(self.ortho_tol)

    @cached_property
    def orthogonal_pair_indices(self) -> np.ndarray:
        """All index pairs (i < j) of orthogonal sampled outcomes, row-major."""
        chunks = list(_orthogonal_pairs(self.coords, math.sin(self.ortho_tol)))
        if not chunks:
            return np.empty((0, 2), dtype=int)
        return np.concatenate(chunks)

    def to_test_space(self) -> TestSpace:
        """The combinatorial side of the sample: the one space it holds."""
        return self._space


@dataclass(frozen=True, eq=False)
class VietorisBasicOpen:
    """A basic open of the hyperspace: finite sets covered by the ball union
    and meeting every ball.

    `centers` (one row a ball) and `radii` are the balls stacked once, when
    the open is checked."""

    balls: tuple[tuple[np.ndarray, float], ...]

    def __post_init__(self):
        if not self.balls:
            raise ValidationError("a basic open needs at least one ball")
        balls = tuple((np.asarray(c, dtype=float), float(r)) for c, r in self.balls)
        if len({c.shape for c, _ in balls}) != 1 or balls[0][0].ndim != 1:
            raise ValidationError("ball centers must be vectors of one dimension")
        radii = np.array([r for _, r in balls])
        if not (np.isfinite(radii) & (radii > 0)).all():
            raise ValidationError("ball radii must be finite and positive")
        centers = np.stack([c for c, _ in balls])
        if not np.isfinite(centers).all():
            raise ValidationError("ball centers must be finite")
        object.__setattr__(self, "balls", balls)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)


def basic_open(centers, radius: float) -> VietorisBasicOpen:
    """Convenience constructor: one shared radius around each center."""
    pts = np.atleast_2d(np.asarray(centers, dtype=float))
    return VietorisBasicOpen(tuple((c, radius) for c in pts))


def _floats(rec, first: int, what: str) -> tuple[float, ...]:
    """The tokens of a line record from token `first` on (1 is the first
    after the directive) as floats, read in one pass; a token that is no
    float is named at its column."""
    toks = rec[3][first - 1 :]
    try:
        return tuple(map(float, toks))
    except ValueError:
        for k, tok in enumerate(toks, start=first):
            try:
                float(tok)
            except ValueError:
                raise _error(rec, f"bad {what} {tok!r}", k) from None


def load_basis(text: str) -> tuple[VietorisBasicOpen, ...]:
    """Parse basis text: `open` starts a basic open, `ball <r> <x1> ... <xd>`
    adds a ball to the current one."""
    opens: list[tuple[tuple, list[tuple[list[float], float]]]] = []
    for rec in _lines(text, ("open", "ball")):
        _, _, key, toks = rec
        if key == "open":
            if toks:
                raise _error(rec, "open line takes no arguments", 1)
            opens.append((rec, []))
            continue
        if not opens:
            raise _error(rec, "ball before any open line")
        if len(toks) < 2:
            raise _error(rec, "ball needs a radius and coordinates")
        radius, *center = _floats(rec, 1, "number")
        opens[-1][1].append((center, radius))
    if not opens:
        raise ParseError("basis needs at least one open with balls", 1, 1)
    for rec, balls in opens:
        if not balls:
            raise _error(rec, "open without balls")
    return tuple(VietorisBasicOpen(tuple(balls)) for _, balls in opens)


def dump_basis(basis) -> str:
    """Serialize basic opens to basis text; `load_basis` reads it back exactly."""
    lines = []
    for open_ in basis:
        lines.append("open\n")
        for center, radius in open_.balls:
            coords = " ".join(repr(float(c)) for c in center)
            lines.append(f"ball {radius!r} {coords}\n")
    return "".join(lines)


# numpy's np.linalg.norm sums an axis of fewer than 8 terms in order and a
# longer one pairwise in 8 lanes; summing coordinate columns in order
# reproduces the first case bit for bit.
_COLUMN_DIMS = 7
_ONE_BLOCK_FLOATS = 512  # where the column loop's fixed cost outweighs the stacked form's


def _diff_floats(a: np.ndarray) -> int:
    """The floats of _squared_distances' difference buffer per row of b:
    one per point of a by columns, one per coordinate when stacked."""
    return a.size if a.shape[1] > _COLUMN_DIMS else len(a)


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances, shape (len(b), len(a)), from each point of b to
    each point of a, rounded exactly as np.linalg.norm rounds them before
    its square root.

    Works through row blocks of b, with one difference buffer of at most
    _BLOCK_ELEMENTS floats reused by every block.  Up to _COLUMN_DIMS
    dimensions a block sums the squared coordinate differences column by
    column, which is fastest when a's columns are contiguous; above it the
    differences are stacked along a last axis and reduced as np.linalg.norm
    reduces them.  A difference of at most _ONE_BLOCK_FLOATS floats is
    stacked and reduced in one step at any dimension: over up to
    _COLUMN_DIMS terms numpy's reduction sums in order, as the columns do,
    and on a few points its three ufunc calls beat the column loop's 3d.
    """
    if len(a) * len(b) * a.shape[1] <= _ONE_BLOCK_FLOATS:
        d = np.subtract(a[None, :, :], b[:, None, :], order="C")
        np.multiply(d, d, out=d)
        return np.add.reduce(d, axis=2)
    stacked = a.shape[1] > _COLUMN_DIMS
    rows = max(1, _BLOCK_ELEMENTS // max(_diff_floats(a), 1))
    total = np.empty((len(b), len(a)))
    diff = np.empty((min(rows, len(b)), len(a)) + ((a.shape[1],) if stacked else ()))
    for s in range(0, len(b), rows):
        out, d, part = total[s : s + rows], diff[: len(b) - s], b[s : s + rows]
        if stacked:
            np.subtract(a[None, :, :], part[:, None, :], out=d)
            np.multiply(d, d, out=d)
            np.add.reduce(d, axis=2, out=out)
        else:
            np.subtract(a[:, 0], part[:, 0, None], out=out)
            out *= out
            for k in range(1, a.shape[1]):
                np.subtract(a[:, k], part[:, k, None], out=d)
                d *= d
                out += d
    return total


def _point_sets(a, b, empty: str | None = None, unequal: str | None = None):
    """a and b as 2-D float arrays of finite points of one dimension, at
    least 1, else ValidationError; before the dimension checks, `empty`
    refuses a set with no points and `unequal` sets of two sizes (formatted
    with them)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.ndim != 2 or b.ndim != 2:
        raise ValidationError(f"point sets must be 2-D, got {a.ndim}-D and {b.ndim}-D")
    if empty and (a.size == 0 or b.size == 0):
        raise ValidationError(empty)
    if unequal and len(a) != len(b):
        raise ValidationError(unequal.format(len(a), len(b)))
    if a.shape[1] != b.shape[1]:
        raise ValidationError(f"point dimensions differ: {a.shape[1]} and {b.shape[1]}")
    if a.shape[1] == 0:
        raise ValidationError("points need at least one coordinate")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("point coordinates must be finite")
    return a, b


def pairwise_distances(a, b) -> np.ndarray:
    """Chordal distances between the rows of a and b, shape (len(a), len(b)).

    Equal bit for bit to np.linalg.norm(a[:, None] - b[None], axis=2) at
    every size, so the distance of a point to itself is exactly 0.
    """
    a, b = _point_sets(a, b)
    dist = _squared_distances(b, a)
    return np.sqrt(dist, out=dist)


def _open_members(flat: np.ndarray, count: int, open_: VietorisBasicOpen) -> np.ndarray:
    """Which of count tests lie inside the basic open, as one flag per test;
    flat[s * count + t] is point s of test t.  A test is inside when each of
    its points lies in some ball and each ball holds one of its points;
    balls are open."""
    dist = np.sqrt(_squared_distances(flat, open_.centers))
    inside = (dist < open_.radii[:, None]).reshape(len(open_.balls), -1, count)
    return inside.any(axis=0).all(axis=0) & inside.any(axis=1).all(axis=0)


def vietoris_member(points, open_: VietorisBasicOpen) -> bool:
    """Is the finite point set inside the ball union and meeting every ball?

    Balls are open: a point exactly on a boundary sphere does not count.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return False
    pts, _ = _point_sets(pts, open_.centers)
    return bool(_open_members(pts, 1, open_)[0])


def _hausdorff(dist: np.ndarray) -> float:
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


_CELL_POINTS = 8  # points of the searched set per grid cell, on average


def _cell_bounds(rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """For each point of rows an upper bound on its least squared distance
    to pts: the least over at most 2 * _CELL_POINTS points of pts that share
    its grid cell, or over one nearby point where its cell holds none.

    The grid is uniform over the bounding box of pts in its first min(d, 3)
    coordinates, with about _CELL_POINTS points of pts per cell; pts is
    sorted by cell, and each row finds its cell's run by binary search.
    Each distance is summed coordinate by coordinate as the column kernel
    of _squared_distances sums it, so it equals that kernel's entry and
    the bound is one of the distances it computes.  The work goes in
    chunks of rows whose temporaries share _BLOCK_ELEMENTS.
    """
    g = min(pts.shape[1], 3)
    k = max(1, round((len(pts) / _CELL_POINTS) ** (1 / g)))
    lo = pts[:, :g].min(axis=0)
    span = pts[:, :g].max(axis=0) - lo
    scale = np.divide(k, span, out=np.zeros(g), where=span > 0)
    place = k ** np.arange(g)

    def cells(x):
        return np.clip((x[:, :g] - lo) * scale, 0, k - 1).astype(np.intp) @ place

    cell = cells(pts)
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    by_cell = np.asfortranarray(pts[order])
    probes = np.arange(2 * _CELL_POINTS)
    # four chunk x probes temporaries (positions, gathered coordinates,
    # difference, sum) take at most half the budget
    chunk = max(1, _BLOCK_ELEMENTS // (8 * len(probes)))
    bound = np.empty(len(rows))
    for s in range(0, len(rows), chunk):
        part = rows[s : s + chunk]
        mine = cells(part)
        first = np.searchsorted(cell, mine, "left")
        last = np.maximum(np.searchsorted(cell, mine, "right") - 1, 0)
        # past a cell's last point a probe repeats it; an empty cell's
        # probes all read the point before it, or the first point
        pos = np.minimum(first[:, None] + probes, last[:, None])
        acc = np.subtract(by_cell[:, 0][pos], part[:, 0, None])
        acc *= acc
        for j in range(1, pts.shape[1]):
            diff = np.subtract(by_cell[:, j][pos], part[:, j, None])
            diff *= diff
            acc += diff
        acc.min(axis=1, out=bound[s : s + chunk])
    return bound


def _farthest_nearest(rows: np.ndarray, pts: np.ndarray, best: float) -> float:
    """max(best, the largest least squared distance from a point of rows to
    pts), for d <= _COLUMN_DIMS.

    Rows go through the exact kernel in blocks, largest cell bound first;
    once a bound is at most the running maximum, neither its row nor any
    later one can raise it, and the scan stops.  The result is the maximum
    of kernel entries that the full scan also computes, so it equals the
    full scan's to the bit."""
    bound = _cell_bounds(rows, pts)
    order = np.argsort(-bound, kind="stable")
    bound = bound[order]
    pts = np.asfortranarray(pts)  # the kernel reads pts column by column
    step = max(1, _BLOCK_ELEMENTS // (len(pts) + _diff_floats(pts)))
    s = 0
    while s < len(order) and bound[s] > best:
        live = order[s : s + step][bound[s : s + step] > best]
        best = max(best, float(_squared_distances(pts, rows[live]).min(axis=1).max()))
        s += len(live)
    return best


def hausdorff_distance(a, b) -> float:
    """_hausdorff(pairwise_distances(a, b)), from the least squared distances
    of each row block of b, without holding the whole matrix; a block of
    distances and the kernel's difference buffer fit _BLOCK_ELEMENTS
    together.

    Where that takes more than one block and d <= _COLUMN_DIMS, each
    direction scans only the rows whose grid-cell bound exceeds the
    largest least distance found so far (_farthest_nearest)."""
    a, b = _point_sets(a, b, empty="hausdorff distance needs nonempty point sets")
    rows = max(1, _BLOCK_ELEMENTS // (len(a) + _diff_floats(a)))
    if a.shape[1] <= _COLUMN_DIMS:
        if len(b) > rows:
            return math.sqrt(_farthest_nearest(b, a, _farthest_nearest(a, b, -math.inf)))
        a = np.asfortranarray(a)  # the kernel reads a column by column
    to_b = np.full(len(a), np.inf)  # from each point of a to b
    to_a = np.empty(len(b))  # from each point of b to a
    for s in range(0, len(b), rows):
        block = _squared_distances(a, b[s : s + rows])
        np.minimum(to_b, block.min(axis=0), out=to_b)
        block.min(axis=1, out=to_a[s : s + rows])
        del block  # so the next block's buffers take its place
    return float(max(np.sqrt(to_b).max(), np.sqrt(to_a).max()))


def _augment(adj: np.ndarray, row_of: np.ndarray, col_of: np.ndarray) -> bool:
    """Grow the matching (row_of, col_of) in place to a perfect one of the
    square boolean adjacency; False when some row has no augmenting path.

    Each free row in turn is matched along an augmenting path that a
    breadth-first search finds a layer at a time: the columns that the
    frontier's rows reach first, then the rows matched to them; a free
    column adjacent to the root itself is taken before any layer is built.
    Nothing recurses.  Augmenting keeps every matched row matched, so on
    failure the matching holds every row matched so far, and it stays a
    matching of any graph with more edges.
    """
    n = len(adj)
    for root in np.flatnonzero(col_of < 0):
        free = np.flatnonzero(adj[root] & (row_of < 0))
        if free.size:
            row_of[free[0]], col_of[root] = root, free[0]
            continue
        via = np.full(n, -1)  # the row each column was reached from
        frontier, end = np.array([root]), -1
        while end < 0:
            reach = adj[frontier] & (via < 0)
            cols = np.flatnonzero(reach.any(axis=0))
            if not cols.size:
                return False
            via[cols] = frontier[reach[:, cols].argmax(axis=0)]
            free = cols[row_of[cols] < 0]
            if free.size:
                end = int(free[0])
            frontier = row_of[cols]
        while end >= 0:  # flip the path back to the root
            u = via[end]
            row_of[end], col_of[u], end = u, end, col_of[u]
    return True


def _bottleneck(dist: np.ndarray) -> float:
    """The least entry of `dist` whose threshold graph has a perfect matching.

    No such entry lies below the Hausdorff value h, itself an entry, so h
    is tried first.  Every threshold the binary search over the larger
    entries tries above an infeasible one starts from the matching found
    there, which is valid at any larger threshold; a free row without an
    augmenting path rules out a perfect matching whatever matching it
    starts from, so the answer does not depend on it.
    """
    n = len(dist)
    row_of = np.full(n, -1)  # the row matched to each column
    col_of = np.full(n, -1)  # the column matched to each row
    h = _hausdorff(dist)
    if _augment(dist <= h, row_of, col_of):
        return h
    values = np.unique(dist[dist > h])
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        rows, cols = row_of.copy(), col_of.copy()
        if _augment(dist <= values[mid], rows, cols):
            hi = mid
        else:
            lo = mid + 1
            row_of, col_of = rows, cols
    return float(values[lo])


def matching_distance(a, b) -> float:
    """Minimum over bijections of the largest paired distance (bottleneck)."""
    a, b = _point_sets(a, b, empty="matching distance needs nonempty point sets",
                       unequal="matching distance needs equal cardinalities, got {} and {}")
    return _bottleneck(pairwise_distances(a, b))


def tno_radius(sample: MetricSample, outcome: str) -> float:
    """Largest ball radius around the outcome containing no orthogonal pair.

    Computed as the minimum over sampled orthogonal pairs of the farther
    endpoint's distance; infinity when the sample has no orthogonal pair.
    The minimum and maximum are taken over squared distances, with one
    square root at the end.
    """
    i = sample.index_of(outcome)
    pairs = sample.orthogonal_pair_indices
    if len(pairs) == 0:
        return math.inf
    sq = _squared_distances(sample.coords, sample.coords[i : i + 1])[0]
    return math.sqrt(np.maximum(sq[pairs[:, 0]], sq[pairs[:, 1]]).min())


_CAP_CHORD_SLACK = 1e-6


def rank_bound(sample: MetricSample, cap_radius: float) -> int:
    """Bound test cardinalities by a greedy cover with small caps.

    Covers the sampled points with open balls of the given radius centered
    on sample points (first uncovered point becomes the next center).  Every
    cap is then validated to contain no orthogonal pair; since a pairwise
    orthogonal set meets each such cap at most once, the number of caps
    bounds the size of every pairwise orthogonal subset.
    """
    if not cap_radius > 0:
        raise ValidationError("cap radius must be positive")
    pts = sample.coords
    covered = np.zeros(len(pts), dtype=bool)
    caps: list[tuple[int, np.ndarray]] = []  # (center, member indices)
    while not covered.all():
        c = int(np.argmax(~covered))
        # the root before comparing keeps the rounding of the distances;
        # comparing squares with cap_radius**2 would round differently
        inside = np.sqrt(_squared_distances(pts, pts[c : c + 1])[0]) < cap_radius
        caps.append((c, np.flatnonzero(inside)))
        covered |= inside
    thr = math.sin(sample.ortho_tol)
    # Two points of a cap lie less than 2r apart; two unit vectors orthogonal
    # within ortho_tol lie at least this chord apart.  The slack covers the
    # unit-norm tolerance and rounding, so a skipped scan could find nothing.
    chord = math.sqrt(max(0.0, 2.0 - 2.0 * thr))
    if 2.0 * cap_radius < chord - _CAP_CHORD_SLACK:
        return len(caps)
    for c, idx in caps:
        for pairs in _orthogonal_pairs(pts[idx], thr):
            i, j = idx[pairs[0]]
            raise NotTotallyNonOrthogonalError(sample.ids[c], (sample.ids[i], sample.ids[j]))
    return len(caps)


def event_cardinality_locally_constant(sample: MetricSample, a, b) -> bool:
    """Nearby events of well-separated points must pair up one to one.

    When the Hausdorff distance is below half the smaller internal
    separation, the check requires equal cardinalities and exact agreement
    of matching and Hausdorff distances; otherwise it holds vacuously.
    Both arguments must be nonempty events of the sample's space.  Both
    separations and the cross distances are read from one matrix of squared
    distances over the points of a followed by those of b, whose diagonal
    is set to infinity, reduced once to each row's least entry among a's
    points and among b's; each answer takes its square root once.
    """
    ma, mb = frozenset(a), frozenset(b)
    for m in (ma, mb):
        if not is_event(sample._space, m):
            raise ValidationError(f"{sorted(m)} is not an event of the sample")
    if not (ma and mb):
        raise ValidationError("the local-constancy check needs nonempty events")
    k = len(ma)
    index = sample._space._index
    pts = sample._points.take([index[x] for m in (ma, mb) for x in m], axis=0)
    full = _squared_distances(pts, pts)
    full.flat[:: len(full) + 1] = np.inf  # a one-point event is infinitely separated
    # each row's least entry among a's columns and among b's
    near = np.minimum.reduceat(full, [0, k], axis=1).tolist()
    own_a, cross_a = zip(*near[:k])
    cross_b, own_b = zip(*near[k:])
    d_h = math.sqrt(max(cross_a + cross_b))
    guard = 0.5 * math.sqrt(min(own_a + own_b))
    if not d_h < guard:
        return True
    if len(ma) != len(mb):
        return False
    return _bottleneck(np.sqrt(full[:k, k:])) == d_h


MAX_FRAME_COUNT = 10**6  # keeps generated ids at a fixed width
MAX_FRAME_FLOATS = 2**25  # count * d * d, about 270 MB for one copy of the frames


def _frame_vectors(d: int, count: int, seed: int) -> np.ndarray:
    """The unit vectors of sample_frames, frame after frame."""
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((count, d, d))
    q, r = np.linalg.qr(mats)
    diag = np.einsum("kii->ki", r)
    q = q * np.where(diag < 0, -1.0, 1.0)[:, None, :]
    dets = np.linalg.det(q)
    q[dets < 0, :, -1] *= -1.0
    # contiguous at every count: one frame's transpose would otherwise stay a
    # strided view, whose norms numpy sums in another order from d = 8 on
    pts = np.ascontiguousarray(np.transpose(q, (0, 2, 1))).reshape(count * d, d)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def sample_frames(d: int, count: int, seed: int) -> MetricSample:
    """Seeded orthonormal frames: rotations applied to the standard basis.

    Draws one Gaussian matrix per frame from a single generator (so a longer
    run extends a shorter one with the same seed), orthonormalizes by QR
    with the usual sign fix, and flips one column where needed to land in
    the rotation group.  Frame k contributes outcomes f<k>.0 .. f<k>.(d-1).
    """
    if seed < 0:
        raise ValidationError(f"seed must be at least 0, got {seed}")
    if d < 2:
        raise ValidationError("frame dimension must be at least 2")
    if not 1 <= count <= MAX_FRAME_COUNT:
        raise ValidationError(f"frame count must be in 1..{MAX_FRAME_COUNT}")
    if count * d * d > MAX_FRAME_FLOATS:
        raise ValidationError(
            f"{count} frames of dimension {d} need {count * d * d} floats, "
            f"over the budget of {MAX_FRAME_FLOATS}"
        )
    pts = _frame_vectors(d, count, seed)  # its temporaries are gone before the ids are built
    width = len(str(MAX_FRAME_COUNT - 1))
    digits = [str(i) for i in range(d)]
    ids = tuple([p + i for p in [f"f{k:0{width}d}." for k in range(count)] for i in digits])
    tests = tuple(map(frozenset, zip(*[iter(ids)] * d)))
    # each frame holds one block of positions in both orders, so its row is
    # the block; the names within it sort as their suffixes: f….10 before f….2
    rows = np.arange(count * d).reshape(count, d)
    by_name = sorted(range(d), key=digits.__getitem__)
    order = None if by_name == list(range(d)) else rows[:, by_name].ravel()
    names = ids if order is None else tuple(map(ids.__getitem__, order.tolist()))
    space = _row_space(names, tests, rows)
    return MetricSample._of_space(space, pts, DEFAULT_ORTHO_TOL, ids, order)


def closure_check(
    frames,
    limit,
    tol: float = 1e-9,
    ortho_tol: float = DEFAULT_ORTHO_TOL,
) -> bool:
    """Validate the limit of a convergent frame sequence.

    Raises ConvergenceError when the tail frame is farther than `tol` from
    the limit.  Returns True iff the limit is pairwise orthogonal within
    `ortho_tol` and keeps the tail cardinality.
    """
    if not tol >= 0:
        raise ValidationError(f"convergence tolerance must be >= 0, got {tol}")
    _check_ortho_tol(ortho_tol)
    seqs = [np.atleast_2d(np.asarray(f, dtype=float)) for f in frames]
    if not seqs:
        raise ValidationError("empty frame sequence")
    lim = np.atleast_2d(np.asarray(limit, dtype=float))
    gap = hausdorff_distance(seqs[-1], lim)
    if gap > tol:
        raise ConvergenceError(
            f"tail frame is {gap:.6g} from the limit, tolerance {tol:.6g}"
        )
    if len(lim) != len(seqs[-1]):
        return False
    g = lim @ lim.T
    off = g[~np.eye(len(lim), dtype=bool)]
    if off.size and np.abs(off).max() > math.sin(ortho_tol):
        return False
    return True


@dataclass(frozen=True)
class LipschitzCheck:
    difference: float
    bound: float
    ok: bool


FLOAT_SLACK = 1e-12  # absolute slack for float-evaluated inequalities


def sum_map_lipschitz(f, lipschitz_constant: float, a, b) -> LipschitzCheck:
    """Check |sum f(A) - sum f(B)| <= n * L * matching_distance(A, B)."""
    a, b = _point_sets(a, b, unequal="lipschitz check needs equal cardinalities")
    sa = float(sum(f(p) for p in a))
    sb = float(sum(f(p) for p in b))
    diff = abs(sa - sb)
    bound = a.shape[0] * lipschitz_constant * matching_distance(a, b)
    return LipschitzCheck(diff, bound, diff <= bound + FLOAT_SLACK)


def sidecar_path(tsp_path: str) -> str:
    """The coordinate sidecar of a space file: `X.tsp` -> `X.coords`."""
    base = tsp_path[:-4] if tsp_path.endswith(".tsp") else tsp_path
    return base + ".coords"


_WRITE_ROWS = 1024  # coordinate lines formatted and written at a time
_COORD_LINE = "outcome {} {}\n"


def save_sample(sample: MetricSample, tsp_path, coords_path=None, header: str | None = None):
    """Write the combinatorial file, the dump of the sample's space, plus the
    coordinate sidecar, in blocks of lines; returns paths.  Ids that cannot
    be written (see `dump_test_space`) raise before either file is opened."""
    tsp_path = os.fspath(tsp_path)
    if coords_path is None:
        coords_path = sidecar_path(tsp_path)
    text = dump_test_space(sample._space, header)
    with open(tsp_path, "w") as fh:
        fh.write(text)
    with open(coords_path, "w") as fh:
        for s in range(0, len(sample.ids), _WRITE_ROWS):
            block = sample.coords[s : s + _WRITE_ROWS]
            columns = [map(repr, block[:, j].tolist()) for j in range(block.shape[1])]
            coords = map(" ".join, zip(*columns))
            fh.write("".join(map(_COORD_LINE.format, sample.ids[s : s + _WRITE_ROWS], coords)))
    return tsp_path, coords_path


def _coords_grid(text: str) -> tuple[list[str], np.ndarray] | None:
    """(ids, points) of sidecar text of at least _BULK_MIN line ends whose
    lines are all `outcome <id> <c1> ... <cd>` with single spaces
    (core._grid), with distinct ids and coordinates that `float` reads,
    each column of a block of lines read in one pass; None for any other
    text, which the per-line parser reads and, if it must, refuses."""
    if text.count("\n") < _BULK_MIN:
        return None
    lines = text.splitlines()
    size = len(lines[0].split()) - 1
    if size < 2:
        return None
    ids: list[str] = []
    points = np.empty((len(lines), size - 1))
    for b, tokens in enumerate(_grid(lines, "outcome", size)):
        if tokens is None:
            return None
        ids += tokens[::size]
        block = points[b * _GRID_LINES : (b + 1) * _GRID_LINES]
        try:
            for j in range(1, size):
                block[:, j - 1] = np.fromiter(map(float, tokens[j::size]), float, len(block))
        except ValueError:
            return None
    if len(set(ids)) != len(ids):
        return None
    return ids, points


def parse_coords(text: str) -> dict[str, tuple[float, ...]]:
    """Parse sidecar lines `outcome <id> <c1> ... <cd>`."""
    ids, points = _coords_grid(text) or _parse_coord_lines(text)
    return dict(zip(ids, zip(*points.T.tolist())))


def _parse_coord_lines(text: str) -> tuple[list[str], np.ndarray]:
    """The (ids, points) of `_coords_grid`, one line at a time: the only
    reporter of a sidecar's errors."""
    rows: dict[str, tuple[float, ...]] = {}
    for rec in _lines(text, ("outcome",)):
        toks = rec[3]
        if len(toks) < 2:
            raise _error(rec, "outcome line needs an id and coordinates")
        if toks[0] in rows:
            raise _error(rec, f"duplicate coordinates for {toks[0]!r}", 1)
        vals = _floats(rec, 2, "coordinate")
        if rows and len(vals) != dim:  # the first line sets dim
            raise _error(rec, f"expected {dim} coordinates, got {len(vals)}", 2)
        dim = len(vals)
        rows[toks[0]] = vals
    if not rows:
        raise ParseError("no outcome lines", 1, 1)
    return list(rows), np.array(list(rows.values()), dtype=float)


def parse_sample(tsp_text: str, coords_text: str) -> tuple[TestSpace, np.ndarray]:
    """Parse a space and its sidecar; coordinate rows follow the outcome order.

    Every outcome needs coordinates, and every coordinate line a known
    outcome.  The sidecar is read once, and its rows are placed through the
    space's index in one step.
    """
    ts = load_test_space(tsp_text)
    ids, points = _coords_grid(coords_text) or _parse_coord_lines(coords_text)
    at = np.fromiter(map(ts._index.get, ids, itertools.repeat(-1)), np.intp, len(ids))
    known = at[at >= 0]  # distinct positions: the sidecar names each id once
    if len(known) < len(ts.outcomes):
        missing = [ts.outcomes[k] for k in np.setdiff1d(np.arange(len(ts.outcomes)), known)[:5]]
        raise ValidationError(f"coordinates missing for outcomes {missing}")
    if len(known) < len(ids):
        extra = sorted(itertools.compress(ids, (at < 0).tolist()))
        raise ValidationError(f"coordinates for unknown outcomes {extra[:5]}")
    out = np.empty_like(points)
    out[at] = points
    return ts, out


def load_sample(tsp_path, coords_path=None, ortho_tol: float = DEFAULT_ORTHO_TOL) -> MetricSample:
    """Load a sampled space from a combinatorial file plus coordinate sidecar."""
    tsp_path = os.fspath(tsp_path)
    if coords_path is None:
        coords_path = sidecar_path(tsp_path)
    ts, points = parse_sample(_read_text(tsp_path), _read_text(coords_path))
    return MetricSample._of_space(ts, points, ortho_tol)
