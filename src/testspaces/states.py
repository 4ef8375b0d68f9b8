"""States on test spaces: probability weights summing to one on every test.

Exact rational states are found (or refuted, with a checkable certificate)
by a fraction-free phase-one simplex: its rows are sparse integer rows with
one denominator each, and Fractions are built only for the values and
duals it returns.  Dispersion-free states are the 0/1 weights; a space is
unital/dispersion-free-complete when every outcome gets weight 1 under some
such state.  Both are solved once per connected component of the space and
kept on the TestSpace instance.  Density matrices induce float states on
metrically sampled spaces through the quadratic form x -> <Wx, x>.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import (
    CapExceededError,
    EventLike,
    TestSpace,
    UnknownOutcomeError,
    ValidationError,
    member_set,
)

DEFAULT_FLOAT_TOL = 1e-9
DEFAULT_DF_CAP = 24  # outcome-count bound for dispersion-free search

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_TOL = 1e-12

_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class State:
    """A map outcome id -> weight; exact (Fraction) or float with a tolerance."""

    values: Mapping[str, Fraction] | Mapping[str, float]
    kind: str
    tolerance: float = DEFAULT_FLOAT_TOL

    def __post_init__(self):
        if self.kind not in ("exact", "float"):
            raise ValidationError("state kind must be 'exact' or 'float'")

    @staticmethod
    def exact(values: Mapping[str, int | Fraction]) -> "State":
        return State({x: Fraction(v) for x, v in values.items()}, "exact")

    @staticmethod
    def approx(values: Mapping[str, float], tolerance: float = DEFAULT_FLOAT_TOL) -> "State":
        return State({x: float(v) for x, v in values.items()}, "float", tolerance)

    def __getitem__(self, outcome: str):
        try:
            return self.values[outcome]
        except KeyError:
            raise UnknownOutcomeError(f"state has no value for {outcome!r}") from None


def verify_state(ts: TestSpace, state: State, tol: float | None = None):
    """Check range and per-test sums; returns (ok, worst violation).

    Exact states must hit [0, 1] and per-test sums of one on the nose;
    float states within `tol` (defaulting to the state's own tolerance).
    Every outcome must carry a value.  Tests are summed in row order, not in
    the hash-dependent order of their sets.
    """
    worst = Fraction(0) if state.kind == "exact" else 0.0
    values = [state[x] for x in ts.outcomes]
    for v in values:
        if v < 0:
            worst = max(worst, -v)
        elif v > 1:
            worst = max(worst, v - 1)
    for row in ts._rows:
        worst = max(worst, abs(sum(values[k] for k in row) - 1))
    if state.kind == "exact":
        return worst == 0, worst
    limit = state.tolerance if tol is None else tol
    return worst <= limit, worst


def extend_to_event(state: State, event: EventLike):
    """The induced weight of an event: the sum over its members."""
    members = member_set(event)
    zero = Fraction(0) if state.kind == "exact" else 0.0
    return sum((state[x] for x in sorted(members)), zero)


def _phase1_simplex(n: int, tests: Sequence[Sequence[int]]):
    """Exact phase-one simplex for {w >= 0, per-test sums = 1} on one component.

    The columns are the n outcome variables, then one artificial per test,
    then the right-hand side; row i < m holds test i, given as its outcome
    columns, and row m the phase-one reduced costs.  The tableau is
    fraction-free, as in Bareiss's integer-preserving elimination (Math.
    Comp. 22, 1968), but with one denominator per row: each row is a sparse
    map from column to a nonzero int over one positive int denominator,
    divided through by the gcd of its entries after every change.  A
    column-to-rows index of the nonzeros lets the ratio test and the
    elimination visit only the rows that meet the entering column.  Pivots
    follow Bland's rule (Math. Oper. Res. 2, 1977) with the ratios compared
    by cross multiplication, so they are the pivots of the same simplex
    over Fractions; Fractions are built only for the output.

    Returns (values, duals): the n outcome values when the phase-one
    optimum is zero (else None), and per test its phase-one dual
    y_i = 1 - (reduced cost of its artificial).  On an infeasible component
    y satisfies sum(y over tests containing x) <= 0 for every outcome x
    while sum(y) > 0, which refutes feasibility over exact arithmetic.
    """
    m = len(tests)
    rhs = n + m
    # The reduced costs are 1 on the artificials minus the column sums;
    # obj[rhs] is minus the objective value, the sum of the artificials.
    obj: dict[int, int] = {rhs: -m}
    rows: list[dict[int, int]] = []
    for i, test in enumerate(tests):
        row = dict.fromkeys(test, 1)
        row[n + i] = row[rhs] = 1
        rows.append(row)
        for j in test:
            obj[j] = obj.get(j, 0) - 1
    rows.append(obj)
    den = [1] * (m + 1)
    meets: list[set[int]] = [set() for _ in range(rhs + 1)]  # column -> rows
    for i, row in enumerate(rows):
        for j in row:
            meets[j].add(i)
    basis = list(range(n, rhs))

    while True:
        # Bland's rule: lowest-index negative reduced cost; anti-cycling.
        enter = min((j for j, v in obj.items() if v < 0 and j != rhs), default=None)
        if enter is None:
            break
        # Ratio test: least b_i / a_i over a_i > 0 (never the objective row,
        # whose entry is negative), ties to the smaller basis index.  The
        # denominators cancel, so b_i * a_r is compared with b_r * a_i.
        r = -1
        for i in meets[enter]:
            row = rows[i]
            a = row[enter]
            if a > 0:
                b = row.get(rhs, 0)
                if r < 0 or (b * ar, basis[i]) < (br * a, basis[r]):
                    r, ar, br = i, a, b
        if r < 0:  # cannot happen: phase-one objective is bounded
            raise AssertionError("unbounded phase-one simplex")
        # The pivot row keeps its integers, over the pivot as denominator.
        prow = rows[r]
        g = gcd(*prow.values())
        if g > 1:
            for j in prow:
                prow[j] //= g
        piv = den[r] = prow[enter]
        # Every other row meeting the column: (row * piv - f * prow) / (d * piv).
        for i in list(meets[enter]):
            if i == r:
                continue
            row = rows[i]
            f = row[enter]
            if piv != 1:
                for j in row:
                    row[j] *= piv
            for j, v in prow.items():
                v *= f
                old = row.get(j)
                if old is None:
                    row[j] = -v
                    meets[j].add(i)
                elif old != v:
                    row[j] = old - v
                else:
                    del row[j]
                    meets[j].remove(i)
            d = den[i] * piv
            g = gcd(d, *row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
                d //= g
            den[i] = d
        basis[r] = enter

    d = den[m]
    duals = [Fraction(d - obj.get(n + i, 0), d) for i in range(m)]
    if rhs in obj:
        return None, duals
    x = [_ZERO] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(rows[i].get(rhs, 0), den[i])
    return x, duals


def _solve_states(ts: TestSpace):
    """(state values, None) or (None, certificate), one simplex per component.

    The tableau of the whole space is block-diagonal over its components,
    and each component's columns keep their relative order, so Bland's rule
    makes the same pivots as on the whole space.  The certificate holds
    every component's duals, feasible components included.
    """
    values = [_ZERO] * len(ts.outcomes)
    duals = [_ZERO] * len(ts.tests)
    column = [0] * len(ts.outcomes)  # each outcome's column in its component
    feasible = True
    for out_idx, test_idx in ts._components:
        for j, k in enumerate(out_idx):
            column[k] = j
        x, y = _phase1_simplex(len(out_idx), [[column[k] for k in ts._rows[i]] for i in test_idx])
        feasible = feasible and x is not None
        for k, v in zip(out_idx, x or ()):
            values[k] = v
        for i, v in zip(test_idx, y):
            duals[i] = v
    if feasible:
        return dict(zip(ts.outcomes, values)), None
    return None, dict(enumerate(duals))


def find_state(ts: TestSpace) -> State | None:
    """An exact rational state, or None when none exists."""
    values, _cert = ts._state_solution
    if values is None:
        return None
    state = State(dict(values), "exact")  # copied: the solve is cached, State.values is mutable
    ok, worst = verify_state(ts, state)
    if not ok:  # the solver guarantees feasibility; treat failure as a bug
        raise AssertionError(f"solver returned an invalid state (off by {worst})")
    return state


def infeasibility_certificate(ts: TestSpace) -> dict[int, Fraction] | None:
    """The refutation certificate when no state exists, else None."""
    _values, cert = ts._state_solution
    if cert is None:
        return None
    cert = dict(cert)
    if not check_certificate(ts, cert):
        raise AssertionError("solver produced an invalid certificate")
    return cert


def check_certificate(ts: TestSpace, cert: Mapping[int, Fraction]) -> bool:
    """Re-check an infeasibility certificate with exact arithmetic only."""
    y = [Fraction(cert.get(i, 0)) for i in range(len(ts.tests))]
    indptr, holders = ts._incidence
    for a, b in zip(indptr, indptr[1:]):  # the tests holding each outcome
        if sum(y[i] for i in holders[a:b]) > 0:
            return False
    return sum(y) > 0


def _df_masks(rows: Sequence[tuple[int, ...]], n: int) -> list[int]:
    """The 0/1 states of one component, each as the sum of its ones' bits.

    `rows` are its tests' rows in a space of n outcomes; outcome k owns bit
    n-1-k.  Backtracking over the tests, always branching on the currently
    most constrained test: the fewest candidates, then the lowest index.
    The outcomes decided so far are two bitmasks, `ones` and `zeros`.
    """
    bits = [[1 << (n - 1 - k) for k in row] for row in rows]
    tmask = [sum(b) for b in bits]
    undecided = set(range(len(rows)))
    masks: list[int] = []
    ones = zeros = 0

    def allowed(i: int) -> int:
        """The bits of the candidates of test i: its one outcome of value 1
        if it has exactly one, else its undecided outcomes if it has none."""
        hit = tmask[i] & ones
        if hit:
            return 0 if hit & (hit - 1) else hit
        return tmask[i] & ~zeros

    # One frame per branched test: (test, its remaining candidate bits, the
    # masks before it was branched on).  The explicit stack visits the
    # states in the order a depth-first recursion would.
    stack: list[tuple[int, Iterator[int], int, int]] = []
    while True:
        if undecided:
            i = min(undecided, key=lambda t: (allowed(t).bit_count(), t))
            undecided.discard(i)
            cand = allowed(i)
            stack.append((i, iter([b for b in bits[i] if b & cand]), ones, zeros))
        else:
            masks.append(ones)
        while stack:  # move to the next candidate of the deepest open test
            i, todo, ones, zeros = stack[-1]
            b = next(todo, None)
            if b is not None:
                zeros |= tmask[i] & ~(ones | zeros | b)
                ones |= b
                break
            stack.pop()
            undecided.add(i)
        if not stack:
            return masks


def _search_components(ts: TestSpace) -> list[list[int]]:
    """Per component, the bitmasks of its 0/1 states.

    Outcome k of the space owns bit n-1-k, so comparing the sums of one
    mask per component compares the value tuples over `ts.outcomes`.
    """
    n = len(ts.outcomes)
    return [_df_masks([ts._rows[i] for i in tests], n) for _outs, tests in ts._components]


def _check_df_cap(ts: TestSpace, cap: int) -> None:
    if len(ts.outcomes) > cap:
        raise CapExceededError(
            "dispersion-free search over too many outcomes", len(ts.outcomes), cap
        )


def dispersion_free_states(ts: TestSpace, cap: int = DEFAULT_DF_CAP) -> list[State]:
    """All 0/1 states: exactly one outcome of weight one per test.

    The product of the per-component states, in a deterministic order
    (sorted value tuples over `ts.outcomes`).  `cap` bounds the outcome
    count of the whole space.
    """
    _check_df_cap(ts, cap)
    zero = dict.fromkeys(ts.outcomes, _ZERO)
    names = ts.outcomes[::-1]  # names[b] owns bit b
    out = []
    for mask in sorted(map(sum, itertools.product(*ts._df_components))):
        values = zero.copy()
        while mask:
            low = mask & -mask
            values[names[low.bit_length() - 1]] = _ONE
            mask ^= low
        out.append(State(values, "exact"))
    return out


def is_udf(ts: TestSpace, cap: int = DEFAULT_DF_CAP) -> tuple[bool, str | None]:
    """Is every outcome assigned weight one by some dispersion-free state?

    Returns (True, None) or (False, first uncovered outcome).  A component
    without 0/1 states leaves the space with none, so nothing is covered.
    """
    _check_df_cap(ts, cap)
    per_component = ts._df_components
    hit = 0
    if all(per_component):
        for masks in per_component:
            for mask in masks:
                hit |= mask
    n = len(ts.outcomes)
    for k, x in enumerate(ts.outcomes):
        if not hit >> (n - 1 - k) & 1:
            return False, x
    return True, None


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A positive semidefinite matrix of unit trace (entries may be complex)."""

    entries: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.entries)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError("density matrix must be square")
        object.__setattr__(self, "entries", w)
        if np.abs(w - w.conj().T).max() > HERMITIAN_TOL:
            raise ValidationError("density matrix must be Hermitian")
        if abs(np.trace(w).real - 1.0) > TRACE_TOL or abs(np.trace(w).imag) > TRACE_TOL:
            raise ValidationError("density matrix must have unit trace")
        if np.linalg.eigvalsh(w).min() < -EIGENVALUE_TOL:
            raise ValidationError("density matrix must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def maximally_mixed(d: int) -> "DensityMatrix":
        return DensityMatrix(np.eye(d) / d)

    @staticmethod
    def pure(vector) -> "DensityMatrix":
        v = np.asarray(vector, dtype=complex).ravel()
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValidationError("cannot build a pure state from the zero vector")
        v = v / nrm
        return DensityMatrix(np.outer(v, v.conj()))

    @staticmethod
    def random(d: int, rng: np.random.Generator, complex_entries: bool = False) -> "DensityMatrix":
        a = rng.standard_normal((d, d))
        if complex_entries:
            a = a + 1j * rng.standard_normal((d, d))
        w = a @ a.conj().T
        return DensityMatrix(w / np.trace(w).real)


def gleason_state(sample, density: DensityMatrix) -> State:
    """The float state x -> <Wx, x> on a metrically sampled space."""
    if density.dim != sample.dim:
        raise ValidationError(
            f"density matrix dimension {density.dim} != sample dimension {sample.dim}"
        )
    pts = sample.coords
    vals = np.einsum("ij,jk,ik->i", pts, density.entries, pts).real
    return State.approx(dict(zip(sample.ids, vals.tolist())))


def perp_separating(ts: TestSpace, states: Sequence[State]) -> bool:
    """Does the family witness exactly the non-orthogonal outcome pairs?

    For every distinct non-orthogonal pair some state must give the pair a
    total weight above one, and no state may do so for an orthogonal pair.
    """
    perp = {pair for row in ts._rows for pair in itertools.combinations(row, 2)}
    for (i, x), (j, y) in itertools.combinations(enumerate(ts.outcomes), 2):
        if any([st[x] + st[y] > 1 for st in states]) == ((i, j) in perp):
            return False
    return True


def hidden_variable_state(result, seed: int = 0) -> State:
    """A dispersion-free state on an extracted pairwise-disjoint selection.

    One outcome per selected test is chosen by a seeded generator; because
    the selection is disjoint the choices never conflict.
    """
    if not result.tests:
        raise ValidationError("extraction selected no tests")
    selection = result.sub_test_space
    rng = random.Random(seed)
    values: dict[str, Fraction] = {}
    for row in selection._rows:
        pick = row[rng.randrange(len(row))]
        for k in row:
            values[selection.outcomes[k]] = _ONE if k == pick else _ZERO
    return State(values, "exact")
