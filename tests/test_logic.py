from __future__ import annotations

import random
import tracemalloc
from collections import defaultdict
from functools import cached_property
from unittest import mock
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import testspaces.logic as logic_module
from testspaces import corpus
from testspaces.core import (
    DEFAULT_EVENT_CAP,
    DENSE_TABLE_CAP,
    CapExceededError,
    ParseError,
    TestSpace,
    ValidationError,
    enumerate_events,
    load_test_space,
)
from testspaces.logic import (
    AxiomViolationError,
    Logic,
    NotAlgebraicError,
    OrthoalgebraTable,
    boolean_oa,
    build_logic,
    check_prop04,
    fold_osum,
    is_algebraic,
    loads_oa,
    logic_to_oa,
    mo2_oa,
    oa_to_test_space,
    roundtrip_logic,
)

from testspaces.metric import sample_frames

from oracles import (
    algebraic_oracle,
    complementary_oracle,
    oa_isomorphic,
    orthoalgebra_oracle,
    perspective_oracle,
    perspectivity_classes,
    prop04_oracle,
    sum_table_oracle,
)

# Class counts frozen after agreeing with the union-find closure oracle.
# "stateless" is deliberately absent: it is not algebraic, so it carries
# no logic (see test_stateless_is_not_algebraic).
LOGIC_SIZES = {
    "classical-3": 8,
    "two-disjoint": 6,
    "glued-pair": 12,
    "triangle": 14,
    "mo2": 6,
}

# (orthocoherent, osum-is-join, orthomodular-poset) per corpus logic.
PROP04_FLAGS = {
    "classical-3": True,
    "two-disjoint": True,
    "glued-pair": True,
    "triangle": False,
    "mo2": True,
}

PATH5 = TestSpace.build(
    "abcde", [{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}]
)


def random_space(seed):
    return corpus.random_test_space(random.Random(seed))


def test_corpus_class_counts_match_oracle(spaces):
    for name, expected in LOGIC_SIZES.items():
        logic = build_logic(spaces[name])
        oracle = perspectivity_classes(spaces[name])
        assert len(logic) == len(oracle) == expected, name
        assert sorted(map(frozenset, logic.classes)) == sorted(oracle), name


def test_logic_bounds_and_complement(spaces):
    logic = build_logic(spaces["glued-pair"])
    assert logic.class_of(frozenset()) == logic.zero
    assert logic.class_of({"a", "b", "c"}) == logic.one
    assert logic.class_of({"c", "d", "e"}) == logic.one
    p = logic.class_of({"a", "b"})
    assert logic.ocomp_of(p) == logic.class_of({"c"})
    assert logic.osum_of(p, logic.class_of({"c"})) == logic.one
    with pytest.raises(ValidationError, match=r"\['a', 'd'\] is not an event of this space"):
        logic.class_of({"a", "d"})


def test_mo2_order_is_trivial_between_sides(spaces):
    logic = build_logic(spaces["mo2"])
    a = logic.class_of({"a"})
    b = logic.class_of({"b"})
    assert not logic.leq(a, b)
    assert not logic.leq(b, a)
    assert logic.leq(logic.zero, a)
    assert logic.leq(a, logic.one)
    assert logic.leq(a, a)


def test_osum_undefined_for_non_orthogonal(spaces):
    logic = build_logic(spaces["classical-3"])
    a = logic.class_of({"a"})
    ab = logic.class_of({"a", "b"})
    assert not logic.osum_defined(a, ab)
    assert logic.osum_of(a, logic.class_of({"b"})) == ab


def test_prop04_flags_agree_per_corpus(spaces):
    for name, expected in PROP04_FLAGS.items():
        flags = check_prop04(build_logic(spaces[name]))
        assert flags.all_equal(), name
        assert flags.orthocoherent == expected, name


def test_triangle_breaks_orthocoherence(spaces):
    # the three corner atoms are pairwise summable but have no joint sum
    logic = build_logic(spaces["triangle"])
    a, b, c = (logic.class_of({k}) for k in "abc")
    assert logic.osum_defined(a, b)
    assert logic.osum_defined(b, c)
    assert logic.osum_defined(a, c)
    assert not logic.osum_defined(logic.osum_of(a, b), c)
    flags = check_prop04(logic)
    assert not flags.orthocoherent
    assert not flags.omp


def test_is_algebraic_matches_oracle_on_corpus(spaces):
    for name in LOGIC_SIZES:
        ok, witness = is_algebraic(spaces[name])
        oracle_ok, _ = algebraic_oracle(spaces[name])
        assert ok and oracle_ok, name
        assert witness is None


def test_stateless_is_not_algebraic(spaces):
    ok, witness = is_algebraic(spaces["stateless"])
    assert not ok
    assert [sorted(e.members) for e in witness] == [
        ["u1", "u3"],
        ["u6"],
        ["u2", "u4"],
    ]
    with pytest.raises(NotAlgebraicError):
        build_logic(spaces["stateless"])


def test_path5_is_not_algebraic():
    ok, witness = is_algebraic(PATH5)
    assert not ok
    a, b, c = witness
    assert (a.members, b.members, c.members) == (
        frozenset({"a"}),
        frozenset({"c"}),
        frozenset({"d"}),
    )
    oracle_ok, _ = algebraic_oracle(PATH5)
    assert not oracle_ok


def test_build_logic_rejects_path5():
    with pytest.raises(NotAlgebraicError) as exc:
        build_logic(PATH5)
    a, b, c = exc.value.counterexample
    assert a.members == frozenset({"a"})


def test_table_digest_is_stable_and_discriminating(spaces):
    d1 = build_logic(spaces["mo2"]).table_digest()
    d2 = build_logic(spaces["mo2"]).table_digest()
    d3 = build_logic(spaces["classical-3"]).table_digest()
    assert d1 == d2
    assert d1 != d3
    assert len(d1) == 64


def assert_witness_is_oracles(ts):
    ok, witness = is_algebraic(ts)
    oracle_ok, oracle_witness = algebraic_oracle(ts)
    assert ok == oracle_ok
    if not ok:
        a, b, c = (e.members for e in witness)
        # the witness must violate the defining implication, and be the
        # oracle's first triple in its own scan order
        assert perspective_oracle(ts, a, b)
        assert complementary_oracle(ts, b, c)
        assert not complementary_oracle(ts, a, c)
        assert (a, b, c) == oracle_witness


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=20_000))
def test_random_spaces_algebraicity_agrees_with_oracle(seed):
    assert_witness_is_oracles(random_space(seed))


def test_named_non_algebraic_witnesses_match_oracle(spaces):
    for ts in (PATH5, spaces["stateless"]):
        assert_witness_is_oracles(ts)


def logic_prop04_oracle(logic):
    return prop04_oracle(range(len(logic)), logic.zero, logic.one,
                         [(p, q, r) for (p, q), r in logic.sum_items()])


# Vectorised sweeps run in blocks of _BLOCK elements; a block of 3 makes
# every block boundary show up on these small inputs.
BLOCKS = st.sampled_from([3, logic_module._BLOCK])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=20_000), BLOCKS)
def test_random_algebraic_spaces_match_closure_oracle(seed, block):
    ts = random_space(seed)
    if not is_algebraic(ts)[0]:
        return
    with mock.patch.object(logic_module, "_BLOCK", block):
        logic = build_logic(ts)
        flags = check_prop04(logic)
    assert sorted(map(frozenset, logic.classes)) == sorted(perspectivity_classes(ts))
    assert dict(logic.sum_items()) == sum_table_oracle(ts)
    assert flags.all_equal()
    assert (flags.orthocoherent, flags.osum_is_join, flags.omp) == logic_prop04_oracle(logic)


def test_prop04_matches_oracle_on_corpus_and_tables(spaces):
    for name, expected in PROP04_FLAGS.items():
        logic = build_logic(spaces[name])
        flags = check_prop04(logic)
        got = (flags.orthocoherent, flags.osum_is_join, flags.omp)
        assert got == logic_prop04_oracle(logic) == (expected,) * 3, name
    for oa in (boolean_oa(3), mo2_oa()):
        flags = check_prop04(build_logic(oa_to_test_space(oa)))
        got = (flags.orthocoherent, flags.osum_is_join, flags.omp)
        assert got == prop04_oracle(oa.elements, oa.zero, oa.one, oa.sum_triples())


# ------------------------------------------------------------ sum tables


def test_boolean_tables_roundtrip():
    for n in range(1, 5):
        oa = boolean_oa(n)
        assert oa.size == 2**n
        assert roundtrip_logic(oa) is not None


def test_mo2_table_shape_and_roundtrip():
    oa = mo2_oa()
    assert oa.size == 6
    assert oa.ocomp_of("a") == "a'"
    assert oa.osum_of("a", "b") is None
    assert roundtrip_logic(oa) is not None


def test_roundtrip_agrees_with_backtracking_oracle(spaces):
    for name in ("two-disjoint", "mo2", "classical-3"):
        oa = logic_to_oa(build_logic(spaces[name]))
        rebuilt = logic_to_oa(build_logic(oa_to_test_space(oa)))
        assert oa_isomorphic(oa, rebuilt) is not None, name
        assert roundtrip_logic(oa) is not None, name


def test_oa_to_test_space_boolean3():
    ts = oa_to_test_space(boolean_oa(3))
    # seven nonzero elements; tests are the subsets folding to the top
    assert len(ts.outcomes) == 7
    assert frozenset({"1", "2", "3"}) in set(ts.tests)
    assert frozenset({"123"}) in set(ts.tests)


def frozen_oa_to_test_space(oa):
    """oa_to_test_space when it folded through the name-level osum_of; kept
    as the reference."""
    xs = [e for e in oa.elements if e != oa.zero]
    tests = []

    def extend(start, acc, chosen):
        if acc == oa.one:
            tests.append(frozenset(chosen))
            return
        for i in range(start, len(xs)):
            nxt = oa.osum_of(acc, xs[i])
            if nxt is not None:
                extend(i + 1, nxt, chosen + (xs[i],))

    extend(0, oa.zero, ())
    return TestSpace.build(
        sorted(xs), sorted(tests, key=lambda t: (len(t), tuple(sorted(t))))
    )


def test_oa_to_test_space_equals_the_name_level_fold(spaces):
    tables = [boolean_oa(n) for n in range(1, 7)] + [mo2_oa()]
    tables += [logic_to_oa(build_logic(spaces[name])) for name in LOGIC_SIZES]
    for oa in tables:
        assert oa_to_test_space(oa) == frozen_oa_to_test_space(oa)


def test_fold_osum_is_order_independent():
    oa = boolean_oa(3)
    members = ("1", "2", "3")
    folds = {fold_osum(oa, perm) for perm in permutations(members)}
    assert folds == {"123"}
    assert fold_osum(oa, ()) == "0"
    assert fold_osum(oa, ("1", "1")) is None  # repeated summand undefined


def test_loads_oa_accepts_partial_table():
    text = """
    elements 0 a a' 1
    zero 0
    one 1
    sum a a' 1
    """
    oa = loads_oa(text)
    assert oa.size == 4
    assert oa.ocomp_of("a") == "a'"
    assert oa.osum_of("a", "0") == "a"  # zero sums filled in


def test_loads_oa_rejects_conflicting_duplicate():
    text = """
    elements 0 a a' 1
    zero 0
    one 1
    sum a a' 1
    sum a' a 0
    """
    with pytest.raises(ParseError, match="duplicate sum"):
        loads_oa(text)


def test_loads_oa_rejects_self_sum():
    text = """
    elements 0 a b 1
    zero 0
    one 1
    sum a a 1
    sum b b 1
    """
    with pytest.raises(AxiomViolationError) as exc:
        loads_oa(text)
    assert "summable with itself" in str(exc.value)


def test_loads_oa_fills_unique_complements():
    # a/b complement each other through the single stated sum: this is 2^2
    oa = loads_oa("elements 0 a b 1\nzero 0\none 1\nsum a b 1\n")
    assert oa.ocomp_of("a") == "b"
    assert oa_isomorphic(oa, boolean_oa(2)) is not None


def test_loads_oa_rejects_missing_complement():
    with pytest.raises(AxiomViolationError, match="0 complements"):
        loads_oa("elements 0 a 1\nzero 0\none 1\n")


def test_table_rejects_unknown_and_degenerate():
    with pytest.raises(ParseError, match="unknown element"):
        loads_oa("elements 0 1\nzero 0\none 1\nsum 0 q 1\n")
    with pytest.raises((ParseError, ValidationError)):
        loads_oa("elements 0\nzero 0\none 0\n")
    for atoms in (0, 10):
        with pytest.raises(ValidationError, match="boolean_oa supports 1..9 atoms"):
            boolean_oa(atoms)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("elements 0 1\n  elements 0 1\n", "second elements line", 2, 3),
        ("# no names yet\n  zero 0\nelements 0 1\n", "zero line before elements line", 2, 3),
        ("# nothing but a comment\n", "missing elements line", 1, 1),
        ("elements 0 a b 1\nzero 0\nsum a b 1\n", "missing one line", 1, 1),
    ],
)
def test_loads_oa_refuses_misplaced_and_missing_lines(text, message, line, column):
    with pytest.raises(ParseError) as exc:
        loads_oa(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == (message, line, column)


@pytest.mark.parametrize(
    "elements, zero, sums, message",
    [
        (("0", "a", "a", "1"), "0", [], "duplicate element names"),
        (("0", "a", "b", "1"), "q", [], "unknown element 'q'"),
        (("0", "a", "b", "1"), "0", [("a", "q", "1")], "unknown element 'q' in sum"),
    ],
)
def test_table_refusals_built_directly(elements, zero, sums, message):
    with pytest.raises(ValidationError) as exc:
        OrthoalgebraTable(elements, zero, "1", sums)
    assert str(exc.value) == message


def test_corpus_logics_roundtrip(spaces):
    for name in LOGIC_SIZES:
        oa = logic_to_oa(build_logic(spaces[name]))
        assert roundtrip_logic(oa) is not None, name


TABLE_EDITS = st.lists(
    st.tuples(st.sampled_from(["drop", "retarget", "add"]),
              st.integers(0, 63), st.integers(0, 63), st.integers(0, 63)),
    min_size=1, max_size=3,
)


def edited_sums(oa, edits):
    """The stated sums of `oa` (no zero, p <= q) after the drawn edits."""
    els = oa.elements
    sums = [t for t in oa.sum_triples() if oa.zero not in t[:2] and t[0] <= t[1]]
    for kind, i, j, k in edits:
        if kind == "drop" and sums:
            sums.pop(i % len(sums))
        elif kind == "retarget" and sums:
            p, q, _ = sums[i % len(sums)]
            sums[i % len(sums)] = (p, q, els[k % len(els)])
        elif kind == "add":
            sums.append((els[i % len(els)], els[j % len(els)], els[k % len(els)]))
    return sums


@settings(max_examples=150, deadline=None)
@given(base=st.sampled_from(["boolean-3", "mo2"]), edits=TABLE_EDITS)
def test_table_verification_matches_axiom_oracle(base, edits):
    oa = boolean_oa(3) if base == "boolean-3" else mo2_oa()
    els = oa.elements
    sums = edited_sums(oa, edits)
    # The first violation reported must not depend on the block size.
    verdicts = set()
    for block in (3, logic_module._BLOCK):
        try:
            with mock.patch.object(logic_module, "_BLOCK", block):
                OrthoalgebraTable(els, oa.zero, oa.one, sums)
            verdicts.add(None)
        except AxiomViolationError as exc:
            verdicts.add(str(exc))
    assert len(verdicts) == 1
    assert (verdicts == {None}) == orthoalgebra_oracle(els, oa.zero, oa.one, sums)


def test_dense_table_cap_is_checked_before_allocating():
    ts = sample_frames(3, 700, 0).to_test_space()  # 2 + 6 * 700 classes
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError) as exc:
            build_logic(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.needed == 2 + 6 * 700
    assert exc.value.cap == DENSE_TABLE_CAP
    assert peak < exc.value.needed ** 2  # a quarter of the int32 table
    els = [f"e{i}" for i in range(DENSE_TABLE_CAP + 1)]
    with pytest.raises(CapExceededError):
        OrthoalgebraTable(els, els[0], els[1], [])


# ------------------------------------- the four axioms, each checked once


def test_disjoint_pairs_are_built_once_per_k():
    a, b = logic_module._disjoint_pairs(3)
    assert logic_module._disjoint_pairs(3)[0] is a and logic_module._disjoint_pairs(3)[1] is b
    assert len(a) == 3**3 and not (a & b).any()
    assert not (a.flags.writeable or b.flags.writeable)


def sum_list(table):
    """(p, q, p + q) of every defined sum of the table, row-major."""
    ps, qs = np.nonzero(table >= 0)
    return ps, qs, table[ps, qs]


def frozen_verify_table(table, zero, one, what, names=None):
    """_verify_table with its mirrored association sweep and its checks of
    the involution and the order; kept as the reference.  It returns the
    sum list as _verify_table now does, so it can stand in for it."""
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
    triple = logic_module._association_failure(table, sum_list(table))
    mirrored = None if triple else logic_module._association_failure(table.T, sum_list(table.T))
    if mirrored:
        triple = mirrored[::-1]
    if triple:
        fail("association mismatch at ({}, {}, {})".format(*map(label, triple)))
    is_one = table == one
    count = is_one.sum(axis=1)
    bad = np.flatnonzero(count != 1)
    if len(bad):
        p = bad[0]
        fail(f"element {label(p)} has {count[p]} complements, want exactly 1")
    ocomp = is_one.argmax(axis=1)
    bad = np.flatnonzero(ocomp[ocomp] != every)
    if len(bad):
        fail(f"orthocomplement not involutive at {label(bad[0])}")

    leq = np.zeros((n, n), dtype=bool)
    rows, cols = np.nonzero(defined)
    leq[rows, table[rows, cols]] = True
    bad = np.flatnonzero(~leq[every, every])
    if len(bad):
        fail(f"order not reflexive at {label(bad[0])}")
    bad = np.flatnonzero(~leq[zero] | ~leq[:, one])
    if len(bad):
        fail(f"bounds fail at {label(bad[0])}")
    bad = np.argwhere(leq & leq.T & ~np.eye(n, dtype=bool))
    if len(bad):
        p, q = bad[0]
        fail(f"order not antisymmetric at ({label(p)}, {label(q)})")
    ps, qs = np.nonzero(leq)
    bits = np.packbits(leq, axis=1)
    for sl in logic_module._blocks(len(ps), bits.shape[1]):
        bad = (bits[qs[sl]] & ~bits[ps[sl]]).any(axis=1)
        if bad.any():
            k = sl.start + int(bad.argmax())
            p, q = ps[k], qs[k]
            r = np.flatnonzero(leq[q] & ~leq[p])[0]
            fail(f"order not transitive at ({label(p)}, {label(q)}, {label(r)})")
    for sl in logic_module._blocks(n, n):
        bad = np.argwhere((table[sl][:, ocomp] >= 0) != leq[sl])
        if len(bad):
            p, q = bad[0]
            fail(
                "order disagrees with the complement criterion at "
                f"({label(sl.start + p)}, {label(q)})"
            )
    return ocomp, leq, sum_list(table)


def frozen_build_logic(ts):
    """build_logic with the frozen verifier and its complement cross-check;
    kept as the reference."""
    with mock.patch.object(logic_module, "_verify_table", frozen_verify_table):
        logic = build_logic(ts)
    by_test, fibre, _witness = ts._event_structure
    cls = np.array(fibre)
    test_classes = [cls[row] for row in by_test]
    own = np.concatenate(test_classes)
    other = np.concatenate([row[::-1] for row in test_classes])
    bad = other != logic._ocomp[own]
    if bad.any():
        i = own[bad].min()
        raise AxiomViolationError(
            f"complements of class {i} scatter over {sorted(set(other[own == i].tolist()))}"
        )
    return logic


def verdict(verify, *args):
    """The error text, or the complement, the order and the sum list as lists."""
    try:
        ocomp, leq, triples = verify(*args)
    except AxiomViolationError as exc:
        return str(exc)
    return ocomp.tolist(), leq.tolist(), [a.tolist() for a in triples]


def assert_verifies_as_frozen(*args):
    want = verdict(frozen_verify_table, *args)
    assert verdict(logic_module._verify_table, *args) == want
    return want


def test_axiom_check_equals_frozen_on_every_four_element_table():
    """Zero 0, no self-sums, each of the three pairs of nonzero elements
    undefined or summing to any element, and every nonzero one."""
    pairs = [(1, 2), (1, 3), (2, 3)]
    accepted = checked = 0
    for targets in product(range(-1, 4), repeat=len(pairs)):
        table = np.full((4, 4), -1, dtype=np.int32)
        table[:, 0] = table[0, :] = np.arange(4)
        for (p, q), r in zip(pairs, targets):
            table[p, q] = table[q, p] = r
        for one in (1, 2, 3):
            got = assert_verifies_as_frozen(table, 0, one, "t")
            accepted += not isinstance(got, str)
            checked += 1
    assert checked == 375
    assert accepted  # both branches are compared


def random_table(rng):
    """MO2 (six elements) under a random relabelling, after up to three
    random edits, mostly symmetric, and at times with another `one`."""
    mo2 = mo2_oa()._sums
    perm = np.array(rng.sample(range(6), 6))
    table = np.full((6, 6), -1, dtype=np.int32)
    table[np.ix_(perm, perm)] = np.where(mo2._table >= 0, perm[mo2._table], -1)
    for _ in range(rng.randrange(4)):
        p, q, r = rng.randrange(6), rng.randrange(6), rng.randrange(-1, 6)
        table[p, q] = r
        if rng.random() < 0.9:
            table[q, p] = r
    one = perm[mo2.one] if rng.random() < 0.8 else rng.randrange(6)
    return table, int(perm[mo2.zero]), int(one)


def test_axiom_check_equals_frozen_on_random_six_element_tables():
    kinds = ("not commutative", "with itself", "+ 0 !=", "association", "complements")
    rng = random.Random(0)
    seen = set()
    for _ in range(3000):
        got = assert_verifies_as_frozen(*random_table(rng), "t")
        seen.add(next(k for k in kinds if k in got) if isinstance(got, str) else None)
    assert seen == {*kinds, None}  # every check fails somewhere, and some tables pass


@settings(max_examples=150, deadline=None)
@given(base=st.sampled_from(["boolean-3", "mo2"]), edits=TABLE_EDITS)
def test_axiom_check_equals_frozen_on_edited_tables(base, edits):
    oa = boolean_oa(3) if base == "boolean-3" else mo2_oa()
    calls = []
    real = logic_module._verify_table

    def recording(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(logic_module, "_verify_table", recording):
        try:
            OrthoalgebraTable(oa.elements, oa.zero, oa.one, edited_sums(oa, edits))
        except AxiomViolationError:
            pass
    for args in calls:
        assert_verifies_as_frozen(*args)


# ------------------------------------ class rows grouped by test size

# build_logic and _sum_table as they took one class row per test (one
# `cls[row]` each) and regrouped the rows by width in _sum_table; kept as
# the reference for the table that the rows grouped once by _by_size give.


def frozen_sum_table(n, test_classes):
    by_size = defaultdict(list)
    for row in test_classes:
        by_size[len(row)].append(row)
    writes = []
    for width, rows in by_size.items():
        rows = np.array(rows)
        a, b = logic_module._disjoint_pairs(width.bit_length() - 1)
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


def frozen_per_test_build_logic(ts):
    logic_module._check_event_cap(ts, DEFAULT_EVENT_CAP)
    by_test, fibre, witness = ts._event_structure
    if witness is not None:
        raise NotAlgebraicError(witness)
    cls = np.array(fibre)
    n = int(cls.max()) + 1
    logic_module._check_table_size(n)
    zero = int(cls[0])
    one = int(cls[by_test[0][-1]])
    return Logic(ts, zero, one, frozen_sum_table(n, [cls[row] for row in by_test]))


def logic_arrays(logic):
    """The table, complement, order and sum list, with dtypes, and the digest."""
    arrays = (logic._table, logic._ocomp, logic._leq, *logic._triples)
    return [(a.dtype, a.tolist()) for a in arrays], logic.table_digest()


def mixed_algebraic_spaces(rng, count):
    """Algebraic draws with tests of 1 to 6 outcomes, at least two sizes each."""
    while count:
        ts = corpus.random_test_space(rng, max_universe=10, max_tests=5, min_size=1, max_size=6)
        if len(set(map(len, ts.tests))) > 1 and is_algebraic(ts)[0]:
            count -= 1
            yield ts


def sum_table_verdict(sum_table, n, rows):
    try:
        return sum_table(n, rows).tolist()
    except AxiomViolationError as exc:
        return str(exc)


def test_grouped_sum_table_refuses_as_frozen():
    """Class rows of algebraic spaces with one entry changed, which mostly
    makes a sum depend on its representatives; both tables are built
    directly from the rows."""
    rng = random.Random(0)
    refused = 0
    for ts in mixed_algebraic_spaces(rng, 300):
        by_test, fibre, _witness = ts._event_structure
        cls = np.array(fibre)
        n = int(cls.max()) + 1
        rows = [cls[row] for row in by_test]
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = rng.randrange(n)
        want = sum_table_verdict(frozen_sum_table, n, rows)
        grouped = logic_module._by_size(rows)
        assert sum_table_verdict(logic_module._sum_table, n, grouped) == want
        refused += isinstance(want, str)
    assert 0 < refused < 300  # both branches are compared


def assert_logic_as_frozen(ts):
    want = frozen_build_logic(ts)
    got = build_logic(ts)
    assert np.array_equal(got._ocomp, want._ocomp)
    assert np.array_equal(got._leq, want._leq)
    assert got.table_digest() == want.table_digest()
    assert logic_arrays(got) == logic_arrays(frozen_per_test_build_logic(ts))


def test_logic_equals_frozen_on_corpus(spaces):
    for name in LOGIC_SIZES:
        assert_logic_as_frozen(spaces[name])
    for name in ("classical-1", "classical-6", "classical-7"):
        assert_logic_as_frozen(load_test_space(corpus.gen(name)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=20_000))
def test_logic_equals_frozen_on_random_algebraic_spaces(seed):
    """Draws with tests of 2 to 5 outcomes, of 1 to 6, and disjoint ones."""
    rng = random.Random(seed)
    for ts in (
        random_space(seed),
        corpus.random_semiclassical(rng),
        corpus.random_test_space(rng, max_universe=10, max_tests=5, min_size=1, max_size=6),
    ):
        if is_algebraic(ts)[0]:
            assert_logic_as_frozen(ts)


# ------------------------------------------------ one sum-table type


def frozen_roundtrip(oa, ts):
    """roundtrip_logic with its old pair loop, on the induced space `ts`;
    kept as the reference."""
    logic = build_logic(ts)
    if len(logic) != oa.size:
        return None
    phi = {}
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


def frozen_logic_to_oa(logic, prefix="c"):
    """logic_to_oa when it wrote out name triples for a second check; kept
    as the reference."""
    els = [f"{prefix}{i}" for i in range(len(logic))]
    sums = [
        (els[p], els[q], els[r])
        for (p, q), r in logic.sum_items()
        if p <= q and logic.zero not in (p, q)
    ]
    return OrthoalgebraTable(els, els[logic.zero], els[logic.one], sums)


def table_facts(oa):
    return (oa.elements, oa.zero, oa.one, oa.size, oa.sum_triples(),
            [oa.ocomp_of(e) for e in oa.elements])


def relabelled(ts, rng):
    """ts with its outcome names permuted, so that folding the classes of
    its logic may give a map that is not an isomorphism, or no map."""
    names = list(ts.outcomes)
    if rng.random() < 0.5:
        rng.shuffle(names)
    else:  # one swap keeps most of the map
        i, j = rng.randrange(len(names)), rng.randrange(len(names))
        names[i], names[j] = names[j], names[i]
    rename = dict(zip(ts.outcomes, names))
    return TestSpace.build(names, [{rename[x] for x in t} for t in ts.tests])


def assert_roundtrip_as_frozen(oa, ts=None):
    """roundtrip_logic(oa) == the frozen loop, on the induced space or on `ts`."""
    want = frozen_roundtrip(oa, oa_to_test_space(oa) if ts is None else ts)
    if ts is None:
        got = roundtrip_logic(oa)
    else:
        with mock.patch.object(logic_module, "oa_to_test_space", lambda _oa: ts):
            got = roundtrip_logic(oa)
    assert got == want
    return got


def reference_tables(spaces):
    tables = [logic_to_oa(build_logic(spaces[name])) for name in LOGIC_SIZES]
    return tables + [boolean_oa(n) for n in range(1, 6)] + [mo2_oa()]


def test_roundtrip_equals_frozen_loop_on_reference_tables(spaces):
    rng = random.Random(0)
    found = set()
    for oa in reference_tables(spaces):
        assert assert_roundtrip_as_frozen(oa) is not None
        for _ in range(6):
            got = assert_roundtrip_as_frozen(oa, relabelled(oa_to_test_space(oa), rng))
            found.add(got is None)
    assert found == {True, False}  # both answers are compared


@settings(max_examples=150, deadline=None)
@given(
    base=st.sampled_from(["boolean-3", "mo2"]),
    edits=TABLE_EDITS,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_roundtrip_equals_frozen_loop_on_edited_tables(base, edits, seed):
    oa = boolean_oa(3) if base == "boolean-3" else mo2_oa()
    try:
        oa = OrthoalgebraTable(oa.elements, oa.zero, oa.one, edited_sums(oa, edits))
    except AxiomViolationError:
        return
    assert_roundtrip_as_frozen(oa)
    assert_roundtrip_as_frozen(oa, relabelled(oa_to_test_space(oa), random.Random(seed)))


@settings(max_examples=60, deadline=None)
@given(base=st.sampled_from(["boolean-3", "mo2"]), edits=TABLE_EDITS)
def test_oa_to_test_space_equals_the_name_level_fold_on_edited_tables(base, edits):
    oa = boolean_oa(3) if base == "boolean-3" else mo2_oa()
    try:
        oa = OrthoalgebraTable(oa.elements, oa.zero, oa.one, edited_sums(oa, edits))
    except AxiomViolationError:
        return
    assert oa_to_test_space(oa) == frozen_oa_to_test_space(oa)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=20_000))
def test_logic_to_oa_equals_frozen_path(seed):
    ts = random_space(seed)
    if not is_algebraic(ts)[0]:
        return
    logic = build_logic(ts)
    assert table_facts(logic_to_oa(logic)) == table_facts(frozen_logic_to_oa(logic))
    assert table_facts(logic_to_oa(logic, "x")) == table_facts(frozen_logic_to_oa(logic, "x"))


def test_logic_to_oa_equals_frozen_path_on_corpus(spaces):
    for name in LOGIC_SIZES:
        logic = build_logic(spaces[name])
        assert table_facts(logic_to_oa(logic)) == table_facts(frozen_logic_to_oa(logic)), name


def counted_enumeration(calls):
    """TestSpace._enumeration, recording each space it enumerates."""
    enumerate_once = TestSpace._enumeration.func
    counted = cached_property(lambda ts: calls.append(ts) or enumerate_once(ts))
    counted.__set_name__(TestSpace, "_enumeration")
    return mock.patch.object(TestSpace, "_enumeration", counted)


def test_is_algebraic_then_build_logic_enumerate_the_events_once(spaces):
    """The events, and their complements and witness, once per space."""
    calls = []
    structure = mock.patch.object(
        logic_module, "_events_and_complements", wraps=logic_module._events_and_complements
    )
    with counted_enumeration(calls), structure as complements:
        ts = load_test_space(corpus.gen("glued-pair"))
        assert is_algebraic(ts) == (True, None)
        logic = build_logic(ts)
        events = enumerate_events(ts)
        assert is_algebraic(ts) == (True, None)
        bad = TestSpace.build(PATH5.outcomes, PATH5.tests)
        _ok, witness = is_algebraic(bad)
        with pytest.raises(NotAlgebraicError) as exc:
            build_logic(bad)
    assert calls == [ts, bad]
    assert [c.args for c in complements.call_args_list] == [(ts,), (bad,)]
    assert exc.value.counterexample == witness
    assert len(events) == len(enumerate_events(spaces["glued-pair"]))
    assert logic.table_digest() == build_logic(spaces["glued-pair"]).table_digest()


def test_smaller_cap_after_larger_still_raises():
    ts = load_test_space(corpus.gen("classical-3"))  # 2**3 = 8 events to enumerate
    assert is_algebraic(ts, cap=8)[0]
    build_logic(ts, cap=8)
    for call in (is_algebraic, build_logic, enumerate_events):
        with pytest.raises(CapExceededError) as exc:
            call(ts, cap=7)
        assert (exc.value.needed, exc.value.cap) == (8, 7)
