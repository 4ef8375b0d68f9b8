"""Perspectivity logics of algebraic test spaces, and abstract orthoalgebra tables.

The logic of an algebraic test space is the set of perspectivity classes of
its events, carrying a partial orthogonal sum (class of A) (+) (class of B) =
class of A | B for disjoint events whose union is again an event, an
orthocomplement through complementary events, 0 = class of the empty event
and 1 = class of any full test.

A space is algebraic when perspectivity of A and B forces every event
complementary to B to be complementary to A as well; only then is the class
structure well defined.  Builders here verify the orthoalgebra axioms
exhaustively before returning, so AxiomViolationError signals a library bug
rather than bad input, except when loading user-supplied tables.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable

import numpy as np

from .core import (
    DEFAULT_EVENT_CAP,
    DENSE_TABLE_CAP,
    CapExceededError,
    Event,
    ParseError,
    TestSpace,
    TspError,
    ValidationError,
    _by_size,
    _check_event_cap,
    _error,
    _lines,
    _name_error,
    event_key,
    member_set,
)


class NotAlgebraicError(TspError):
    """Raised when a logic is requested for a non-algebraic space."""

    def __init__(self, counterexample):
        a, b, c = counterexample
        super().__init__(
            "space is not algebraic: "
            f"{sorted(a.members)} ~ {sorted(b.members)}, "
            f"{sorted(b.members)} partitions a test with {sorted(c.members)}, "
            f"but {sorted(a.members)} does not"
        )
        self.counterexample = counterexample


class AxiomViolationError(TspError):
    """An orthoalgebra axiom fails (bad input table, or an internal bug)."""


_BLOCK = 1 << 16  # elements per temporary array in the vectorised sweeps


def _blocks(count: int, width: int):
    """Slices over `count` rows of `width` elements, about _BLOCK elements each."""
    step = max(1, _BLOCK // max(width, 1))
    for start in range(0, count, step):
        yield slice(start, start + step)


def _events_and_complements(ts: TestSpace):
    """(by_test, fibre, witness) over the events of ts, kept as ts._event_structure.

    by_test[i][mask] is the position in ts._enumeration of the sub-event of
    test i that `mask` picks from its row, so its complement in that test
    sits at the reversed position.  fibre[k] numbers the set of events
    complementary to event k among the distinct ones, in order of first
    appearance.  The witness is is_algebraic's.
    """
    by_test = ts._enumeration[2]
    # comp[k]: the one event complementary to event k, or the frozenset of them
    comp: list = [None] * len(ts._enumeration[0])
    more: dict[int, set[int]] = {}
    for ids in by_test:
        for k, c in zip(ids, reversed(ids)):
            ck = comp[k]
            if ck is None:
                comp[k] = c
            elif ck != c:
                more.setdefault(k, {ck}).add(c)
    for k, cs in more.items():
        comp[k] = frozenset(cs)
    numbers: dict = {}
    fibre = [numbers.setdefault(c, len(numbers)) for c in comp]
    return by_test, fibre, _algebraic_witness(ts, list(numbers), fibre)


def _algebraic_witness(ts: TestSpace, complements, fibre):
    """The events (A, B, C) of the first failure of algebraicity, or None.

    complements[f] is the event complementary to the events of fibre f, or
    the frozenset of them when there are more.  The space is algebraic
    exactly when all events that share a complement have the same
    complement set, that is when the fibres' complement sets are disjoint.
    The witness is the first A in event order, the first B perspective to it
    whose complements are not all complements of A, and the least such C.
    """
    seen: set[int] = set()
    bad: set[int] = set()  # the complements of more than one fibre
    for cs in complements:
        if isinstance(cs, frozenset):
            bad |= seen & cs
            seen |= cs
        elif cs in seen:
            bad.add(cs)
        else:
            seen.add(cs)
    if not bad:
        return None
    sets = [cs if isinstance(cs, frozenset) else frozenset((cs,)) for cs in complements]
    comp = [sets[f] for f in fibre]
    # Only events sharing a mixed complement can take part in a failure.
    sharing = defaultdict(list)
    for k, ck in enumerate(comp):
        for c in ck & bad:
            sharing[c].append(k)
    for a in sorted({k for c in bad for k in sharing[c]}):
        ca = comp[a]
        for b in sorted({k for c in ca & bad for k in sharing[c]}):
            extra = comp[b] - ca
            if extra:
                return ts._events_at((a, b, min(extra)))
    raise AssertionError("mixed complement without a failing pair")


def is_algebraic(
    ts: TestSpace, cap: int = DEFAULT_EVENT_CAP
) -> tuple[bool, tuple[Event, Event, Event] | None]:
    """Check algebraicity; on failure return a witnessing triple (A, B, C).

    The witness satisfies: A perspective to B, B complementary to C, but A
    not complementary to C.
    """
    _check_event_cap(ts, cap)  # on every call, before the stored result is read
    witness = ts._event_structure[2]
    return witness is None, witness


def _check_table_size(n: int) -> None:
    if n > DENSE_TABLE_CAP:
        raise CapExceededError("too many elements for a dense sum table", n, DENSE_TABLE_CAP)


def _association_failure(table, triples):
    """First (p, q, r) with q + r and p + (q + r) defined but (p + q) + r not equal.

    `triples` holds the arrays (p, q, p + q) of every defined sum in
    row-major (p, q) order, as _verify_table builds them.  Every defined pair
    (p, s) is checked against every decomposition s = q + r, so the work is
    the number of such triples, taken in blocks.
    """
    n = len(table)
    ps, ss, sums = triples
    by_sum = np.argsort(sums, kind="stable")
    dec_q, dec_r = ps[by_sum], ss[by_sum]
    count = np.bincount(sums, minlength=n)
    first = np.cumsum(count) - count
    weight = count[ss]
    ends = np.cumsum(weight)
    lo = 0
    while lo < len(ps):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - weight[lo] + _BLOCK, "right")))
        w = weight[lo:hi]
        p = np.repeat(ps[lo:hi], w)
        left = np.repeat(sums[lo:hi], w)
        at = np.repeat(first[ss[lo:hi]] - (np.cumsum(w) - w), w) + np.arange(w.sum())
        q, r = dec_q[at], dec_r[at]
        pq = table[p, q]
        bad = (pq < 0) | (table[pq, r] != left)
        if bad.any():
            k = int(bad.argmax())
            return int(p[k]), int(q[k]), int(r[k])
        lo = hi
    return None


def _verify_table(table, zero, one, what, names=None):
    """Check the four orthoalgebra axioms, each once; derive order and complement.

    `table[p, q]` is p + q, or -1 where undefined.  Returns the complement
    array, the order matrix (p <= q iff p + r = q for some r) and the sum
    list (p, q, p + q) that both the association sweep and the order read;
    raises AxiomViolationError on the first failing axiom.  `names` maps
    indices to display labels in error messages.

    The axioms, in the order checked: + is commutative; p + 0 = p, and only
    0 is summable with itself; if q + r and p + (q + r) are defined, so is
    (p + q) + r, with the same value (one sweep: by commutativity it also
    turns (p + q) + r = r + (q + p) into (r + q) + p); every p has exactly
    one p' with p + p' = 1.  The rest follows (Foulis, Greechie & Ruettimann,
    Int. J. Theor. Phys. 31, 1992; Foulis & Bennett, Found. Phys. 24, 1994):
    p'' = p as p' + p = 1; 0 <= p <= p <= 1; p + c = q and t + q = s give
    (t + c) + p = s, so <= is transitive; 1 + x needs (x' + x) + x, so x = 0,
    and p + (a + b) = p gives 1 + (a + b), then 1 + b, so <= is
    antisymmetric; p + c = q gives q' + p, and s = p + q' gives s' + p = q.
    """
    n = len(table)
    label = (lambda i: names[i]) if names is not None else str
    every = np.arange(n)

    def fail(msg):
        raise AxiomViolationError(f"{what}: {msg}")

    defined = table >= 0
    bad = np.argwhere(defined & (table != table.T))
    if len(bad):
        p, q = bad[0]
        fail(f"sum not commutative at ({label(p)}, {label(q)})")
    self_sum = defined[every, every] & (every != zero)
    bad = np.flatnonzero(self_sum | (table[:, zero] != every))
    if len(bad):
        p = bad[0]
        if self_sum[p]:
            fail(f"element {label(p)} summable with itself")
        fail(f"{label(p)} + 0 != {label(p)}")
    ps, qs = np.nonzero(defined)
    triples = ps, qs, table[ps, qs]
    triple = _association_failure(table, triples)
    if triple:
        fail("association mismatch at ({}, {}, {})".format(*map(label, triple)))
    is_one = table == one
    count = is_one.sum(axis=1)
    bad = np.flatnonzero(count != 1)
    if len(bad):
        p = bad[0]
        fail(f"element {label(p)} has {count[p]} complements, want exactly 1")
    ocomp = is_one.argmax(axis=1)
    leq = np.zeros((n, n), dtype=bool)
    leq[triples[0], triples[2]] = True
    return ocomp, leq, triples


class _SumTable:
    """A finite orthoalgebra on the indices 0..n-1, verified on construction.

    `_table[p, q]` is p + q, or -1 where undefined; `_ocomp` and `_leq` are
    the orthocomplement and the natural order that _verify_table returns,
    with `_triples`, the arrays (p, q, p + q) of every defined sum in
    row-major (p, q) order: the one sum list that every reader takes.
    """

    def __init__(self, table, zero: int, one: int, what: str, names=None):
        self._ocomp, self._leq, self._triples = _verify_table(table, zero, one, what, names)
        self._table: np.ndarray = table
        self.zero = zero
        self.one = one

    def __len__(self) -> int:
        return len(self._table)

    def osum_defined(self, p: int, q: int) -> bool:
        return bool(self._table[p, q] >= 0)

    def osum_of(self, p: int, q: int) -> int | None:
        r = int(self._table[p, q])
        return None if r < 0 else r

    def ocomp_of(self, p: int) -> int:
        return int(self._ocomp[p])

    def leq(self, p: int, q: int) -> bool:
        """p <= q in the natural order: some r has p + r = q."""
        return bool(self._leq[p, q])

    def sum_items(self) -> list[tuple[tuple[int, int], int]]:
        """Every defined sum as ((p, q), p + q), in (p, q) order."""
        ps, qs, rs = (a.tolist() for a in self._triples)
        return list(zip(zip(ps, qs), rs))


class Logic(_SumTable):
    """Immutable orthoalgebra of perspectivity classes; query-only.

    build_logic makes it on an algebraic space ts; `classes` is read off ts on first use."""

    def __init__(self, ts: TestSpace, zero: int, one: int, table):
        super().__init__(table, zero, one, "logic construction")
        self._space = ts

    @cached_property
    def classes(self) -> tuple[tuple[frozenset[str], ...], ...]:
        """The member sets of each class, in event order within a class."""
        ts = self._space
        names = ts.outcomes
        members: list[list[frozenset[str]]] = [[] for _ in range(len(self))]
        for s, c in zip(ts._enumeration[0], ts._event_structure[1]):
            members[c].append(frozenset([names[k] for k in s]))
        return tuple(map(tuple, members))

    @cached_property
    def _class_of(self) -> dict[frozenset[str], int]:
        return {m: i for i, grp in enumerate(self.classes) for m in grp}

    def class_of(self, members) -> int:
        m = member_set(members)
        try:
            return self._class_of[m]
        except KeyError:
            raise ValidationError(f"{sorted(m)} is not an event of this space") from None

    def table_digest(self) -> str:
        """sha256 over the canonical serialization of the sum table."""
        flat = np.column_stack(self._triples).ravel().tolist()
        sums = ("%d,%d->%d;" * (len(flat) // 3) % tuple(flat))[:-1]
        payload = f"n={len(self)};zero={self.zero};one={self.one};" + sums
        return hashlib.sha256(payload.encode()).hexdigest()


@cache
def _disjoint_pairs(k: int):
    """Masks (a, b) of every ordered pair of disjoint subsets of k positions,
    built once per k and read-only: 3**k entries each, which every
    _sum_table call with a test of k outcomes reads in full anyway."""
    a = b = np.zeros(1, dtype=np.int64)
    for bit in (1 << i for i in range(k)):
        a, b = np.concatenate((a, a | bit, a)), np.concatenate((b, b, b | bit))
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _sum_table(n, test_classes):
    """Dense sum table: class(A) + class(B) = class(A | B) for disjoint A, B in a test.

    `test_classes[2**k][i, mask]` is the class of the sub-event picked by
    `mask` of the i-th test of k outcomes.  Raises AxiomViolationError when
    a sum depends on the representatives chosen.
    """
    writes = []
    for width, rows in test_classes.items():
        a, b = _disjoint_pairs(width.bit_length() - 1)
        writes.append((rows[:, a].ravel(), rows[:, b].ravel(), rows[:, a | b].ravel()))
    i, j, t = (np.concatenate(x) for x in zip(*writes))
    table = np.full((n, n), -1, dtype=np.int32)
    table[i, j] = t
    bad = table[i, j] != t
    if bad.any():
        lo, hi = np.minimum(i, j)[bad], np.maximum(i, j)[bad]
        k = np.lexsort((hi, lo))[0]
        p, q = int(lo[k]), int(hi[k])
        targets = sorted(set(t[(i == p) & (j == q)].tolist()))
        raise AxiomViolationError(
            f"sum of classes {p}, {q} depends on representatives: targets {targets}"
        )
    return table


def build_logic(ts: TestSpace, cap: int = DEFAULT_EVENT_CAP) -> Logic:
    """Construct the perspectivity-class logic of an algebraic space.

    Raises NotAlgebraicError (with a witnessing triple) if the space is not
    algebraic, and CapExceededError if it has more than DENSE_TABLE_CAP
    classes.  The partial sum is computed over every orthogonal pair of
    events and checked for representative independence, and the four
    orthoalgebra axioms are verified exhaustively.
    """
    _check_event_cap(ts, cap)
    by_test, fibre, witness = ts._event_structure
    if witness is not None:
        raise NotAlgebraicError(witness)

    # On an algebraic space two events are perspective exactly when their
    # complement sets coincide, so classes are the fibres of the complement
    # map, numbered in order of their least member.
    cls = np.array(fibre)
    n = int(cls.max()) + 1
    _check_table_size(n)
    zero = int(cls[0])  # the empty event comes first
    one = int(cls[by_test[0][-1]])

    test_classes = {width: cls[rows] for width, rows in _by_size(by_test).items()}
    return Logic(ts, zero, one, _sum_table(n, test_classes))


@dataclass(frozen=True)
class Prop04Result:
    orthocoherent: bool
    osum_is_join: bool
    omp: bool

    def all_equal(self) -> bool:
        return self.orthocoherent == self.osum_is_join == self.omp


# _LEADING[b]: position of the first set bit of byte b as packed by np.packbits.
_LEADING = np.array([0] + [8 - b.bit_length() for b in range(1, 256)])


class _Bounds:
    """Least elements of the intersections of rows of an order matrix.

    Row x of `rel` is the set of elements above x.  Columns are kept packed
    eight to a byte and sorted by decreasing row size, so the candidate
    least element of an intersection is its first member, and it is the
    least element exactly when its own row contains the whole intersection.
    """

    def __init__(self, rel):
        self.order = np.argsort(-rel.sum(axis=1), kind="stable")
        self.bits = np.packbits(rel[:, self.order], axis=1)

    def least(self, ps, qs):
        """Least element of rel[p] & rel[q] for each pair, or -1 where none."""
        out = np.empty(len(ps), dtype=np.int64)
        for sl in _blocks(len(ps), self.bits.shape[1]):
            common = self.bits[ps[sl]] & self.bits[qs[sl]]
            byte = (common != 0).argmax(axis=1)
            lead = common[np.arange(len(byte)), byte]
            cand = self.order[8 * byte + _LEADING[lead]]
            ok = (lead != 0) & ~(common & ~self.bits[cand]).any(axis=1)
            out[sl] = np.where(ok, cand, -1)
        return out


def check_prop04(logic: _SumTable) -> Prop04Result:
    """Evaluate three classically equivalent properties, independently.

    orthocoherent: every pairwise summable triple has a total sum.
    osum_is_join: on summable pairs the sum is the least upper bound.
    omp: (L, <=, ') is an orthomodular poset, computed purely order-wise.
    """
    ps, qs, pqs = logic._triples
    upper = ps <= qs
    ps, qs, pqs = ps[upper], qs[upper], pqs[upper]
    bits = np.packbits(logic._table >= 0, axis=1)
    orthocoherent = not any(
        (bits[ps[sl]] & bits[qs[sl]] & ~bits[pqs[sl]]).any()
        for sl in _blocks(len(ps), bits.shape[1])
    )
    up = _Bounds(logic._leq)
    osum_is_join = bool((up.least(ps, qs) == pqs).all())
    omp = _is_orthomodular_poset(logic, up, _Bounds(logic._leq.T))
    return Prop04Result(orthocoherent, osum_is_join, omp)


def _is_orthomodular_poset(logic: _SumTable, up: _Bounds, down: _Bounds) -> bool:
    """Do orthogonal joins exist, and does the orthomodular identity hold?

    The other orthomodular-poset conditions are theorems of the four axioms
    that _verify_table has checked, so they are not tested (p <= q iff p + q'
    is defined, as _verify_table derives): p'' = p, as p' + p = 1; p <= q
    gives q' <= p', since p + c = q makes (q' + c) + p = q' + q = 1, so
    p' = q' + c; and p v p' = 1, p ^ p' = 0, since a lower bound d of p and
    p' has d + p defined and p = d + c, so d + (d + c) gives d + d and d = 0,
    while an upper bound u has u' <= p and u' <= p', so u' = 0 and u = 1.
    """
    leq = logic._leq
    oc = logic._ocomp
    # Orthogonal joins must exist, and the orthomodular identity must hold:
    # p <= q gives p v (q ^ p') = q.
    ps, qs = np.nonzero(leq[:, oc])
    if (up.least(ps, qs) < 0).any():
        return False
    ps, qs = np.nonzero(leq)
    ms = down.least(qs, oc[ps])
    return bool((ms >= 0).all() and (up.least(ps, ms) == qs).all())


class OrthoalgebraTable:
    """A finite orthoalgebra given by an explicit partial sum table.

    Sums with zero and the symmetric closure are filled in automatically;
    the axioms are verified on construction.  The table is held by index,
    and the queries here translate element names through `elements`.
    """

    def __init__(self, elements: Iterable[str], zero: str, one: str,
                 sums: Iterable[tuple[str, str, str]]):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise ValidationError("duplicate element names")
        idx = {e: i for i, e in enumerate(elements)}
        for name in (zero, one):
            if name not in idx:
                raise ValidationError(f"unknown element {name!r}")
        if zero == one:
            raise ValidationError("degenerate table: zero equals one")
        n = len(elements)
        _check_table_size(n)
        table = np.full((n, n), -1, dtype=np.int32)
        for p, q, r in sums:
            for name in (p, q, r):
                if name not in idx:
                    raise ValidationError(f"unknown element {name!r} in sum")
            a, b, c = idx[p], idx[q], idx[r]
            if table[a, b] not in (-1, c):
                raise AxiomViolationError(f"conflicting sums for pair ({p}, {q})")
            table[a, b] = table[b, a] = c
        z = idx[zero]
        every = np.arange(n)
        bad = np.flatnonzero((table[:, z] >= 0) & (table[:, z] != every))
        if len(bad):
            raise AxiomViolationError(
                f"sum with zero must be the identity at {elements[bad[0]]!r}"
            )
        table[:, z] = table[z, :] = every
        self._bind(elements, _SumTable(table, z, idx[one], "orthoalgebra table", elements))

    def _bind(self, elements: tuple[str, ...], sums: _SumTable) -> None:
        """Hold the verified table `sums` under the given element names."""
        self.elements = elements
        self.zero = elements[sums.zero]
        self.one = elements[sums.one]
        self._sums = sums
        self._idx = {e: i for i, e in enumerate(elements)}

    @property
    def size(self) -> int:
        return len(self.elements)

    def osum_of(self, p: str, q: str) -> str | None:
        r = self._sums.osum_of(self._idx[p], self._idx[q])
        return None if r is None else self.elements[r]

    def ocomp_of(self, p: str) -> str:
        return self.elements[self._sums.ocomp_of(self._idx[p])]

    def sum_triples(self) -> list[tuple[str, str, str]]:
        els = self.elements
        ps, qs, rs = (a.tolist() for a in self._sums._triples)
        return sorted([(els[p], els[q], els[r]) for p, q, r in zip(ps, qs, rs)])


def loads_oa(text: str) -> OrthoalgebraTable:
    """Parse an orthoalgebra table: elements, zero, one, and sum lines."""
    elements: list[str] | None = None
    known: set[str] = set()
    bound: dict[str, str] = {}  # the zero and one lines
    sums: list[tuple[str, str, str]] = []
    stated: set[frozenset[str]] = set()
    for rec in _lines(text, ("elements", "zero", "one", "sum")):
        _, _, key, names = rec
        if key == "elements":
            if elements is not None:
                raise _error(rec, "second elements line")
            if not names:
                raise _error(rec, "elements line lists no names")
            known = set(names)
            if len(known) != len(names):
                raise _error(rec, "duplicate element name")
            elements = names
            continue
        if elements is None:
            raise _error(rec, f"{key} line before elements line")
        if key == "sum" and len(names) != 3:
            raise _error(rec, "sum line needs three names: p q r")
        if key != "sum" and len(names) != 1:
            raise _error(rec, f"{key} line needs exactly one name")
        if not known.issuperset(names):
            raise _name_error(rec, known, "unknown element {!r}")
        if key != "sum":
            if key in bound:
                raise _error(rec, f"second {key} line")
            bound[key] = names[0]
            continue
        pair = frozenset(names[:2])  # singleton key for p == p lines
        if pair in stated:
            raise _error(rec, f"duplicate sum for pair ({names[0]}, {names[1]})")
        stated.add(pair)
        sums.append((names[0], names[1], names[2]))
    if elements is None:
        raise ParseError("missing elements line", 1, 1)
    for key in ("zero", "one"):
        if key not in bound:
            raise ParseError(f"missing {key} line", 1, 1)
    return OrthoalgebraTable(elements, bound["zero"], bound["one"], sums)


def boolean_oa(n_atoms: int) -> OrthoalgebraTable:
    """The Boolean orthoalgebra on atoms named 1..n; subsets named by digits."""
    if not 1 <= n_atoms <= 9:
        raise ValidationError("boolean_oa supports 1..9 atoms")
    atoms = [str(i + 1) for i in range(n_atoms)]

    def name(sub: frozenset[str]) -> str:
        return "".join(a for a in atoms if a in sub) or "0"

    subsets = [
        frozenset(c)
        for r in range(n_atoms + 1)
        for c in itertools.combinations(atoms, r)
    ]
    sums = []
    for a, b in itertools.combinations_with_replacement(subsets, 2):
        if a.isdisjoint(b):
            sums.append((name(a), name(b), name(a | b)))
    return OrthoalgebraTable(
        [name(s) for s in subsets], "0", name(frozenset(atoms)), sums
    )


def mo2_oa() -> OrthoalgebraTable:
    """The six-element orthoalgebra with two incomparable complement pairs."""
    return OrthoalgebraTable(
        ["0", "a", "a'", "b", "b'", "1"],
        "0",
        "1",
        [("a", "a'", "1"), ("b", "b'", "1")],
    )


def logic_to_oa(logic: Logic, prefix: str = "c") -> OrthoalgebraTable:
    """Re-present a constructed logic as an abstract table (elements c0, c1, ...).

    The table is the logic's own, verified when the logic was built.
    """
    oa = OrthoalgebraTable.__new__(OrthoalgebraTable)
    oa._bind(tuple(f"{prefix}{i}" for i in range(len(logic))), logic)
    return oa


def oa_to_test_space(oa: OrthoalgebraTable) -> TestSpace:
    """Outcomes are the nonzero elements; tests are the subsets summing to one.

    Subsets are folded in element order on the index-level table; by the
    verified associativity and commutativity the result does not depend on
    the order chosen.
    """
    sums = oa._sums
    zero, one = sums.zero, sums.one
    # Per element p, the defined sums p + q over nonzero q, in index order.
    plus: list[list[tuple[int, int]]] = [[] for _ in range(len(sums))]
    for p, q, r in zip(*(a.tolist() for a in sums._triples)):
        if q != zero:
            plus[p].append((q, r))
    found: list[tuple[int, ...]] = []

    def extend(acc: int, last: int, chosen: tuple[int, ...]):
        if acc == one:
            found.append(chosen)
            return  # nothing nonzero can be added past one
        for q, r in plus[acc]:
            if q > last:
                extend(r, q, chosen + (q,))

    extend(zero, -1, ())
    els = oa.elements
    tests = [frozenset(els[p] for p in chosen) for chosen in found]
    return TestSpace.build(
        sorted(e for e in els if e != oa.zero),
        sorted(tests, key=event_key),
    )


def _fold(sums: _SumTable, elements: Iterable[int]) -> int:
    """Sum the element indices in the order given; -1 where undefined."""
    plus = sums._table.item
    acc = sums.zero
    for e in elements:
        acc = plus(acc, e)
        if acc < 0:
            break
    return acc


def fold_osum(oa: OrthoalgebraTable, members: Iterable[str]) -> str | None:
    """Sum a set of elements in sorted order; None when undefined."""
    r = _fold(oa._sums, [oa._idx[e] for e in sorted(members)])
    return None if r < 0 else oa.elements[r]


def roundtrip_logic(oa: OrthoalgebraTable) -> dict[int, str] | None:
    """Rebuild the logic of oa_to_test_space(oa) and exhibit the isomorphism.

    Returns a map from class index to element name, or None if no structure
    preserving bijection arises from folding class representatives.
    """
    return _roundtrip(oa, oa_to_test_space(oa))


def _roundtrip(oa: OrthoalgebraTable, ts: TestSpace) -> dict[int, str] | None:
    """roundtrip_logic(oa), given its induced space ts = oa_to_test_space(oa)."""
    logic = build_logic(ts)
    if len(logic) != oa.size:
        return None
    sums = oa._sums
    # Fold every event of each class; the outcomes of ts are oa's element
    # names in sorted order, so an event's index tuple is in name order.
    at = [oa._idx[x] for x in ts.outcomes]
    folds: list[set[int]] = [set() for _ in range(len(logic))]
    for s, c in zip(ts._enumeration[0], ts._event_structure[1]):
        folds[c].add(_fold(sums, [at[j] for j in s]))
    phi: list[int] = []
    for vals in folds:
        if len(vals) != 1 or -1 in vals:
            return None
        phi.append(vals.pop())
    f = np.array(phi, dtype=np.int32)
    if len(set(phi)) != len(phi) or f[logic.zero] != sums.zero or f[logic.one] != sums.one:
        return None
    # One comparison: phi(p + q) = phi(p) + phi(q) with both sides undefined
    # together, and phi(p') = phi(p)' in the last column.
    t = logic._table
    mapped = np.column_stack((np.where(t >= 0, f[t], -1), f[logic._ocomp]))
    target = np.column_stack((sums._table[np.ix_(f, f)], sums._ocomp[f]))
    if not np.array_equal(mapped, target):
        return None
    return {c: oa.elements[p] for c, p in enumerate(phi)}
