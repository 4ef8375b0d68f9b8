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
from typing import Iterable, Mapping

import numpy as np

from .core import (
    DEFAULT_EVENT_CAP,
    Event,
    ParseError,
    TestSpace,
    TspError,
    ValidationError,
    _lines,
    as_event,
    enumerate_events,
    event_key,
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


def _complement_map(ts, events):
    return {
        e.members: frozenset(t - e.members for t in ts.tests if e.members <= t)
        for e in events
    }


def is_algebraic(
    ts: TestSpace, cap: int = DEFAULT_EVENT_CAP
) -> tuple[bool, tuple[Event, Event, Event] | None]:
    """Check algebraicity; on failure return a witnessing triple (A, B, C).

    The witness satisfies: A perspective to B, B complementary to C, but A
    not complementary to C.
    """
    events = enumerate_events(ts, cap)
    comp = _complement_map(ts, events)
    for a in events:
        for b in events:
            ca, cb = comp[a.members], comp[b.members]
            if ca & cb and cb - ca:
                c = min(cb - ca, key=event_key)
                return False, (a, b, as_event(ts, c))
    return True, None


def _verify_orthoalgebra(n, zero, one, osum, what, names=None):
    """Exhaustively check axioms over an integer-indexed partial sum table.

    Returns the complement list; raises AxiomViolationError on any failure.
    Definedness is symmetric by construction of the callers, so commutativity
    reduces to the associativity sweep below.  `names` maps indices to
    display labels in error messages.
    """
    label = (lambda i: names[i]) if names is not None else str

    def fail(msg):
        raise AxiomViolationError(f"{what}: {msg}")

    for (p, q), r in osum.items():
        if osum.get((q, p)) != r:
            fail(f"sum not commutative at ({label(p)}, {label(q)})")
    for p in range(n):
        if (p, p) in osum and p != zero:
            fail(f"element {label(p)} summable with itself")
        if osum.get((p, zero)) != p:
            fail(f"{label(p)} + 0 != {label(p)}")
    # Associativity, with one side defined iff the other.  Sweep each defined
    # pair against every third element, in both association orders.
    for (q, r), qr in list(osum.items()):
        for p in range(n):
            left = osum.get((p, qr))
            if left is not None:
                pq = osum.get((p, q))
                if pq is None or osum.get((pq, r)) != left:
                    fail(f"association mismatch at ({label(p)}, {label(q)}, {label(r)})")
    for (p, q), pq in list(osum.items()):
        for r in range(n):
            right = osum.get((pq, r))
            if right is not None:
                qr = osum.get((q, r))
                if qr is None or osum.get((p, qr)) != right:
                    fail(f"association mismatch at ({label(p)}, {label(q)}, {label(r)})")
    ocomp = []
    for p in range(n):
        comps = [q for q in range(n) if osum.get((p, q)) == one]
        if len(comps) != 1:
            fail(f"element {label(p)} has {len(comps)} complements, want exactly 1")
        ocomp.append(comps[0])
    for p in range(n):
        if ocomp[ocomp[p]] != p:
            fail(f"orthocomplement not involutive at {label(p)}")
    return ocomp


def _order_matrix(n, zero, one, osum, ocomp, what):
    """Natural order p <= q iff p + r = q for some r; verified a partial order."""

    def fail(msg):
        raise AxiomViolationError(f"{what}: {msg}")

    leq = np.zeros((n, n), dtype=bool)
    for (p, _r), t in osum.items():
        leq[p, t] = True
    for p in range(n):
        if not leq[p, p]:
            fail(f"order not reflexive at {p}")
        if not leq[zero, p] or not leq[p, one]:
            fail(f"bounds fail at {p}")
    for p in range(n):
        for q in range(n):
            if leq[p, q]:
                if leq[q, p] and p != q:
                    fail(f"order not antisymmetric at ({p}, {q})")
                for r in range(n):
                    if leq[q, r] and not leq[p, r]:
                        fail(f"order not transitive at ({p}, {q}, {r})")
    # Cross-check: p <= q iff p is summable with the complement of q.
    for p in range(n):
        for q in range(n):
            if leq[p, q] != ((p, ocomp[q]) in osum):
                fail(f"order disagrees with the complement criterion at ({p}, {q})")
    return leq


class Logic:
    """Immutable orthoalgebra of perspectivity classes; query-only."""

    def __init__(self, classes, zero, one, osum, ocomp, leq):
        self.classes: tuple[tuple[frozenset[str], ...], ...] = classes
        self.zero: int = zero
        self.one: int = one
        self._osum: dict[tuple[int, int], int] = osum
        self._ocomp: tuple[int, ...] = ocomp
        self._leq = leq
        self._class_of = {m: i for i, grp in enumerate(classes) for m in grp}

    def __len__(self) -> int:
        return len(self.classes)

    @property
    def reps(self) -> tuple[frozenset[str], ...]:
        """One canonical (minimal) representative event per class."""
        return tuple(grp[0] for grp in self.classes)

    def class_of(self, members) -> int:
        from .core import member_set

        m = member_set(members)
        try:
            return self._class_of[m]
        except KeyError:
            raise ValidationError(f"{sorted(m)} is not an event of this space") from None

    def osum_defined(self, p: int, q: int) -> bool:
        return (p, q) in self._osum

    def osum_of(self, p: int, q: int) -> int | None:
        return self._osum.get((p, q))

    def ocomp_of(self, p: int) -> int:
        return self._ocomp[p]

    def leq(self, p: int, q: int) -> bool:
        return bool(self._leq[p, q])

    def join(self, p: int, q: int) -> int | None:
        ub = np.flatnonzero(self._leq[p] & self._leq[q])
        if len(ub) == 0:
            return None
        least = ub[self._leq[np.ix_(ub, ub)].all(axis=1)]
        return int(least[0]) if len(least) == 1 else None

    def meet(self, p: int, q: int) -> int | None:
        col = self._leq[:, p] & self._leq[:, q]
        lb = np.flatnonzero(col)
        if len(lb) == 0:
            return None
        greatest = lb[self._leq[np.ix_(lb, lb)].all(axis=0)]
        return int(greatest[0]) if len(greatest) == 1 else None

    def sum_items(self):
        return self._osum.items()

    def table_digest(self) -> str:
        """sha256 over the canonical serialization of the sum table."""
        payload = ";".join(
            f"{p},{q}->{r}" for (p, q), r in sorted(self._osum.items())
        )
        payload = f"n={len(self)};zero={self.zero};one={self.one};" + payload
        return hashlib.sha256(payload.encode()).hexdigest()


def build_logic(ts: TestSpace, cap: int = DEFAULT_EVENT_CAP) -> Logic:
    """Construct the perspectivity-class logic of an algebraic space.

    Raises NotAlgebraicError (with a witnessing triple) if the space is not
    algebraic.  The partial sum is computed over every orthogonal pair of
    representatives and checked for representative independence, and the
    orthoalgebra axioms plus order properties are verified exhaustively.
    """
    ok, witness = is_algebraic(ts, cap)
    if not ok:
        raise NotAlgebraicError(witness)
    events = enumerate_events(ts, cap)
    comp = _complement_map(ts, events)

    # On an algebraic space two events are perspective exactly when their
    # complement sets coincide, so classes are the fibers of the complement map.
    groups = defaultdict(list)
    for e in events:
        groups[comp[e.members]].append(e.members)
    ordered = sorted(groups.values(), key=lambda ms: min(event_key(m) for m in ms))
    classes = tuple(tuple(sorted(g, key=event_key)) for g in ordered)
    class_of = {m: i for i, grp in enumerate(classes) for m in grp}
    n = len(classes)
    zero = class_of[frozenset()]
    one = class_of[ts.tests[0]]

    osum: dict[tuple[int, int], int] = {}
    for i in range(n):
        for j in range(i, n):
            targets = set()
            for a in classes[i]:
                for b in classes[j]:
                    if a.isdisjoint(b):
                        t = class_of.get(a | b)
                        if t is not None:
                            targets.add(t)
            if targets:
                if len(targets) > 1:
                    raise AxiomViolationError(
                        f"sum of classes {i}, {j} depends on representatives: "
                        f"targets {sorted(targets)}"
                    )
                t = targets.pop()
                osum[(i, j)] = t
                osum[(j, i)] = t

    ocomp = _verify_orthoalgebra(n, zero, one, osum, "logic construction")
    # The orthocomplement must agree with the complement sets themselves.
    for i, grp in enumerate(classes):
        comp_classes = {class_of[c] for m in grp for c in comp[m]}
        if comp_classes != {ocomp[i]}:
            raise AxiomViolationError(
                f"complements of class {i} scatter over {sorted(comp_classes)}"
            )
    leq = _order_matrix(n, zero, one, osum, ocomp, "logic construction")
    return Logic(classes, zero, one, osum, tuple(ocomp), leq)


def natural_order(logic: Logic, p: int, q: int) -> bool:
    """p <= q in the natural order: some r has p + r = q."""
    return logic.leq(p, q)


@dataclass(frozen=True)
class Prop04Result:
    orthocoherent: bool
    osum_is_join: bool
    omp: bool

    def all_equal(self) -> bool:
        return self.orthocoherent == self.osum_is_join == self.omp


def check_prop04(logic: Logic) -> Prop04Result:
    """Evaluate three classically equivalent properties, independently.

    orthocoherent: every pairwise summable triple has a total sum.
    osum_is_join: on summable pairs the sum is the least upper bound.
    omp: (L, <=, ') is an orthomodular poset, computed purely order-wise.
    """
    n = len(logic)
    osum = dict(logic.sum_items())

    orthocoherent = True
    for (p, q), pq in osum.items():
        if p > q:
            continue
        for r in range(q, n):
            if (p, r) in osum and (q, r) in osum and (pq, r) not in osum:
                orthocoherent = False
                break
        if not orthocoherent:
            break

    osum_is_join = True
    for (p, q), pq in osum.items():
        if p > q:
            continue
        if logic.join(p, q) != pq:
            osum_is_join = False
            break

    omp = _is_orthomodular_poset(logic)
    return Prop04Result(orthocoherent, osum_is_join, omp)


def _is_orthomodular_poset(logic: Logic) -> bool:
    n = len(logic)
    oc = [logic.ocomp_of(p) for p in range(n)]
    for p in range(n):
        if oc[oc[p]] != p:
            return False
        for q in range(n):
            if logic.leq(p, q) and not logic.leq(oc[q], oc[p]):
                return False
    for p in range(n):
        if logic.meet(p, oc[p]) != logic.zero or logic.join(p, oc[p]) != logic.one:
            return False
    # Orthogonal joins must exist, and the orthomodular identity must hold.
    for p in range(n):
        for q in range(n):
            if logic.leq(p, oc[q]) and logic.join(p, q) is None:
                return False
            if logic.leq(p, q):
                m = logic.meet(q, oc[p])
                if m is None or logic.join(p, m) != q:
                    return False
    return True


class OrthoalgebraTable:
    """A finite orthoalgebra given by an explicit partial sum table.

    Sums with zero and the symmetric closure are filled in automatically;
    the axioms are verified on construction.
    """

    def __init__(self, elements: Iterable[str], zero: str, one: str,
                 sums: Iterable[tuple[str, str, str]]):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValidationError("duplicate element names")
        idx = {e: i for i, e in enumerate(self.elements)}
        for name in (zero, one):
            if name not in idx:
                raise ValidationError(f"unknown element {name!r}")
        if zero == one:
            raise ValidationError("degenerate table: zero equals one")
        self.zero = zero
        self.one = one
        table: dict[tuple[int, int], int] = {}
        for p, q, r in sums:
            for name in (p, q, r):
                if name not in idx:
                    raise ValidationError(f"unknown element {name!r} in sum")
            a, b, c = idx[p], idx[q], idx[r]
            for key in ((a, b), (b, a)):
                if key in table and table[key] != c:
                    raise AxiomViolationError(
                        f"conflicting sums for pair ({p}, {q})"
                    )
                table[key] = c
        z = idx[zero]
        for p in range(len(self.elements)):
            for key in ((p, z), (z, p)):
                if key in table and table[key] != p:
                    raise AxiomViolationError(
                        f"sum with zero must be the identity at {self.elements[p]!r}"
                    )
                table[key] = p
        self._idx = idx
        self._table = table
        ocomp = _verify_orthoalgebra(
            len(self.elements), z, idx[one], table, "orthoalgebra table",
            names=self.elements,
        )
        self._ocomp = tuple(ocomp)

    @property
    def size(self) -> int:
        return len(self.elements)

    def osum_of(self, p: str, q: str) -> str | None:
        r = self._table.get((self._idx[p], self._idx[q]))
        return None if r is None else self.elements[r]

    def ocomp_of(self, p: str) -> str:
        return self.elements[self._ocomp[self._idx[p]]]

    def sum_triples(self) -> list[tuple[str, str, str]]:
        els = self.elements
        return sorted(
            (els[p], els[q], els[r]) for (p, q), r in self._table.items()
        )


def loads_oa(text: str) -> OrthoalgebraTable:
    """Parse an orthoalgebra table: elements, zero, one, and sum lines."""
    elements: list[str] | None = None
    known: set[str] = set()
    zero = one = None
    sums: list[tuple[str, str, str]] = []
    stated: set[frozenset[str]] = set()
    for lineno, col, key, toks in _lines(text):
        names = [t for t, _ in toks]
        if key == "elements":
            if elements is not None:
                raise ParseError("second elements line", lineno, col)
            if not names:
                raise ParseError("elements line lists no names", lineno, col)
            known = set(names)
            if len(known) != len(names):
                raise ParseError("duplicate element name", lineno, col)
            elements = names
            continue
        if key not in ("zero", "one", "sum"):
            raise ParseError(f"unknown directive {key!r}", lineno, col)
        if elements is None:
            raise ParseError(f"{key} line before elements line", lineno, col)
        if key == "sum" and len(names) != 3:
            raise ParseError("sum line needs three names: p q r", lineno, col)
        if key != "sum" and len(names) != 1:
            raise ParseError(f"{key} line needs exactly one name", lineno, col)
        for tok, tcol in toks:
            if tok not in known:
                raise ParseError(f"unknown element {tok!r}", lineno, tcol)
        if key == "zero":
            if zero is not None:
                raise ParseError("second zero line", lineno, col)
            zero = names[0]
        elif key == "one":
            if one is not None:
                raise ParseError("second one line", lineno, col)
            one = names[0]
        else:
            pair = frozenset(names[:2])  # singleton key for p == p lines
            if pair in stated:
                raise ParseError(
                    f"duplicate sum for pair ({names[0]}, {names[1]})", lineno, col
                )
            stated.add(pair)
            sums.append((names[0], names[1], names[2]))
    if elements is None:
        raise ParseError("missing elements line", 1, 1)
    if zero is None:
        raise ParseError("missing zero line", 1, 1)
    if one is None:
        raise ParseError("missing one line", 1, 1)
    return OrthoalgebraTable(elements, zero, one, sums)


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
    """Re-present a constructed logic as an abstract table (elements c0, c1, ...)."""
    els = [f"{prefix}{i}" for i in range(len(logic))]
    sums = [
        (els[p], els[q], els[r])
        for (p, q), r in logic.sum_items()
        if p <= q and logic.zero not in (p, q)
    ]
    return OrthoalgebraTable(els, els[logic.zero], els[logic.one], sums)


def oa_to_test_space(oa: OrthoalgebraTable) -> TestSpace:
    """Outcomes are the nonzero elements; tests are the subsets summing to one.

    Subsets are folded in element order; by the verified associativity and
    commutativity the result does not depend on the order chosen.
    """
    xs = [e for e in oa.elements if e != oa.zero]
    tests: list[frozenset[str]] = []

    def extend(start: int, acc: str, chosen: tuple[str, ...]):
        if acc == oa.one:
            tests.append(frozenset(chosen))
            return  # nothing nonzero can be added past one
        for i in range(start, len(xs)):
            nxt = oa.osum_of(acc, xs[i])
            if nxt is not None:
                extend(i + 1, nxt, chosen + (xs[i],))

    extend(0, oa.zero, ())
    return TestSpace.build(
        sorted(xs), sorted(tests, key=lambda t: (len(t), tuple(sorted(t))))
    )


def fold_osum(oa: OrthoalgebraTable, members: Iterable[str]) -> str | None:
    """Sum a set of elements in sorted order; None when undefined."""
    acc = oa.zero
    for e in sorted(members):
        acc = oa.osum_of(acc, e)
        if acc is None:
            return None
    return acc


def roundtrip_logic(oa: OrthoalgebraTable) -> dict[int, str] | None:
    """Rebuild the logic of oa_to_test_space(oa) and exhibit the isomorphism.

    Returns a map from class index to element name, or None if no structure
    preserving bijection arises from folding class representatives.
    """
    ts = oa_to_test_space(oa)
    logic = build_logic(ts)
    if len(logic) != oa.size:
        return None
    phi: dict[int, str] = {}
    for c, grp in enumerate(logic.classes):
        vals = {fold_osum(oa, m) for m in grp}
        if len(vals) != 1 or None in vals:
            return None
        phi[c] = vals.pop()
    if set(phi.values()) != set(oa.elements):
        return None
    if phi[logic.zero] != oa.zero or phi[logic.one] != oa.one:
        return None
    for p in range(len(logic)):
        if oa.ocomp_of(phi[p]) != phi[logic.ocomp_of(p)]:
            return None
        for q in range(len(logic)):
            t = logic.osum_of(p, q)
            s = oa.osum_of(phi[p], phi[q])
            if (t is None) != (s is None):
                return None
            if t is not None and phi[t] != s:
                return None
    return phi
