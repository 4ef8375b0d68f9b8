from __future__ import annotations

import itertools
import random
from collections import defaultdict
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from testspaces import corpus, logic as logic_module
from testspaces.core import (
    CapExceededError,
    Event,
    ParseError,
    TestSpace,
    UnknownOutcomeError,
    ValidationError,
    _column,
    _lines,
    _tests_containing,
    as_event,
    complementary,
    complements_of,
    components,
    dump_test_space,
    enumerate_events,
    event_key,
    is_event,
    load_test_space,
    member_set,
    orthogonal,
    orthogonal_events,
    perspective,
    redundant_test_pairs,
)
from testspaces.metric import MetricSample, sample_frames
from testspaces.semiclassical import _frame_points, overlapping_tests
from testspaces.states import check_certificate, infeasibility_certificate

from oracles import brute_events

# Events per corpus instance, frozen after agreeing with brute_events.
EVENT_COUNTS = {
    "classical-3": 8,
    "two-disjoint": 7,
    "glued-pair": 14,
    "triangle": 19,
    "mo2": 7,
    "stateless": 18,
}


def spaces_strategy():
    return st.integers(min_value=0, max_value=10_000).map(
        lambda s: corpus.random_test_space(random.Random(s))
    )


def test_build_sorts_and_validates():
    ts = TestSpace.build(["b", "a", "c"], [{"c", "a", "b"}])
    assert ts.outcomes == ("a", "b", "c")
    assert ts.rank == 3
    assert ts.containing("b") == frozenset({0})


def test_build_rejects_uncovered_outcome():
    with pytest.raises(ValidationError):
        TestSpace.build(["a", "b", "c"], [{"a", "b"}])


def test_build_rejects_unknown_test_member():
    with pytest.raises(ValidationError):
        TestSpace.build(["a", "b"], [{"a", "b"}, {"a", "q"}])


def test_build_rejects_duplicate_tests():
    with pytest.raises(ValidationError):
        TestSpace.build(["a", "b"], [{"a", "b"}, {"b", "a"}])


def test_corpus_event_counts(spaces):
    for name, ts in spaces.items():
        events = enumerate_events(ts)
        assert len(events) == EVENT_COUNTS[name], name
        assert {e.members for e in events} == brute_events(ts), name


def test_enumerate_events_is_sorted_and_deduped(spaces):
    ts = spaces["glued-pair"]
    events = enumerate_events(ts)
    keys = [event_key(e) for e in events]
    assert keys == sorted(keys)
    assert len(set(e.members for e in events)) == len(events)
    # the witness test is the lowest test containing the event
    for e in events:
        hosts = [i for i, t in enumerate(ts.tests) if e.members <= t]
        assert e.witness_test == hosts[0]


def test_event_cap_enforced(spaces):
    with pytest.raises(CapExceededError) as exc:
        enumerate_events(spaces["glued-pair"], cap=5)
    assert exc.value.needed > exc.value.cap == 5


def test_member_set_rejects_bare_strings():
    with pytest.raises(TypeError):
        member_set("ab")
    assert member_set({"a"}) == frozenset({"a"})


def test_as_event_unknown_subset(spaces):
    ts = spaces["two-disjoint"]
    with pytest.raises(ValidationError):
        as_event(ts, {"a", "c"})  # spans two tests, not an event


def test_orthogonal_requires_shared_test(spaces):
    ts = spaces["two-disjoint"]
    assert orthogonal(ts, "a", "b")
    assert not orthogonal(ts, "a", "c")  # distinct but never co-tested
    assert not orthogonal(ts, "a", "a")
    with pytest.raises(UnknownOutcomeError):
        orthogonal(ts, "a", "zz")


def test_orthogonal_events_disjoint_union(spaces):
    ts = spaces["glued-pair"]
    assert orthogonal_events(ts, {"a"}, {"b", "c"})
    assert not orthogonal_events(ts, {"a"}, {"a", "b"})  # overlap
    assert not orthogonal_events(ts, {"a", "b"}, {"d"})  # union not an event


def test_complementary_and_perspective(spaces):
    ts = spaces["glued-pair"]
    assert complementary(ts, {"a", "b"}, {"c"})
    assert complementary(ts, {"d", "e"}, {"c"})
    assert perspective(ts, {"a", "b"}, {"d", "e"})
    assert not complementary(ts, {"a"}, {"b"})  # union is not a full test


def test_redundant_test_pairs_reports_containment():
    ts = TestSpace.build("abc", [{"a", "b", "c"}, {"a", "b"}])
    assert redundant_test_pairs(ts) == ((1, 0),)
    clean = TestSpace.build("abcd", [{"a", "b"}, {"c", "d"}])
    assert redundant_test_pairs(clean) == ()


# ---------------------------------------------------------------- parsing


def test_load_minimal():
    ts = load_test_space("outcomes a b\ntest a b\n")
    assert ts.outcomes == ("a", "b")
    assert ts.tests == (frozenset({"a", "b"}),)


def test_load_ignores_comments_and_blank_lines():
    text = "# heading\n\noutcomes a b  # trailing\n\ntest a b\n"
    assert load_test_space(text).outcomes == ("a", "b")


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("test a b\n", 1, 1),  # test before outcomes
        ("outcomes a a\ntest a\n", 1, 12),  # duplicate outcome id
        ("outcomes a b\noutcomes c\ntest a b\n", 2, 1),  # second outcomes line
        ("outcomes a b\ntest a q\n", 2, 8),  # unknown id in test
        ("outcomes a b\ntest a a\n", 2, 8),  # repeated id in test
        ("outcomes a b\ntest a b\ntest b a\n", 3, 1),  # duplicate test
        ("outcomes a b\ntest\ntest a b\n", 2, 1),  # empty test
        ("outcomes a b\nfoo a\n", 2, 1),  # unknown directive
        ("outcomes\ntest a\n", 1, 1),  # outcomes without ids
    ],
)
def test_parse_errors_carry_positions(text, line, col):
    with pytest.raises(ParseError) as exc:
        load_test_space(text)
    assert (exc.value.line, exc.value.column) == (line, col)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab #\t\n\r\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029\u3000"))
def test_lexer_matches_per_line_reference(text):
    # the reading every format used before they shared one lexer
    expected = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        toks = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", content)]
        if toks:
            expected.append((lineno, toks))
    directives = {toks[0][0] for _, toks in expected}
    got = [
        (lineno, [(tok, _column(line, k)) for k, tok in enumerate([key, *toks])])
        for lineno, line, key, toks in _lines(text, directives)
    ]
    assert got == expected


def test_load_requires_outcomes_and_tests():
    with pytest.raises(ParseError):
        load_test_space("# nothing\n")
    with pytest.raises(ParseError):
        load_test_space("outcomes a b\n")


def test_dump_load_roundtrip_corpus(spaces):
    for name, ts in spaces.items():
        assert load_test_space(dump_test_space(ts)) == ts, name


def test_corpus_texts_are_byte_stable():
    for name in corpus.names():
        probe = "classical-4" if name == "classical-N" else name
        assert corpus.gen(probe) == corpus.gen(probe)


def test_corpus_unknown_name():
    with pytest.raises(ValidationError):
        corpus.gen("classical-0")
    with pytest.raises(ValidationError):
        corpus.gen("nope")


@settings(max_examples=60, deadline=None)
@given(spaces_strategy())
def test_random_space_dump_roundtrip(ts):
    assert load_test_space(dump_test_space(ts)) == ts


@settings(max_examples=60, deadline=None)
@given(spaces_strategy())
def test_random_space_events_match_oracle(ts):
    events = enumerate_events(ts)
    assert {e.members for e in events} == brute_events(ts)
    for e in events:
        assert any(e.members <= t for t in ts.tests)


def test_components_of_corpus_and_interleaved_spaces(spaces):
    assert components(spaces["stateless"]) == [((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4))]
    assert components(spaces["two-disjoint"]) == [((0, 1), (0,)), ((2, 3), (1,))]
    ts = load_test_space("outcomes a b c d e\ntest b d\ntest a c\ntest e c\n")
    assert components(ts) == [((1, 3), (0,)), ((0, 2, 4), (1, 2))]


@settings(max_examples=60, deadline=None)
@given(st.lists(spaces_strategy(), min_size=1, max_size=3), st.randoms(use_true_random=False))
def test_components_match_closure_of_shared_outcomes(draws, rnd):
    tests = [frozenset(f"{k}.{x}" for x in t) for k, ts in enumerate(draws) for t in ts.tests]
    rnd.shuffle(tests)
    ts = TestSpace.build(set().union(*tests), tests)
    # Grow each test's group until no test outside it shares an outcome.
    expected = []
    for i in range(len(ts.tests)):
        if any(i in group for group in expected):
            continue
        group, outs = {i}, set(ts.tests[i])
        while grow := {j for j, t in enumerate(ts.tests) if j not in group and t & outs}:
            group |= grow
            outs.update(*(ts.tests[j] for j in grow))
        expected.append(group)
    got = components(ts)
    assert [set(t) for _o, t in got] == expected
    for out_idx, test_idx in got:
        assert list(out_idx) == sorted(out_idx) and list(test_idx) == sorted(test_idx)
        assert {ts.outcomes[k] for k in out_idx} == set().union(*(ts.tests[i] for i in test_idx))


@settings(max_examples=60, deadline=None)
@given(spaces_strategy(), st.randoms(use_true_random=False))
def test_orthogonality_is_symmetric_and_irreflexive(ts, rnd):
    xs = list(ts.outcomes)
    for _ in range(10):
        x, y = rnd.choice(xs), rnd.choice(xs)
        assert orthogonal(ts, x, y) == orthogonal(ts, y, x)
    for x in xs:
        assert not orthogonal(ts, x, x)


# ------------------------------------------------ event containment

# The containment rule as a scan over every test, before the queries read
# the outcome -> tests index; kept as the reference.


def frozen_is_event(ts, m):
    return any(m <= test for test in ts.tests)


def frozen_as_event(ts, m):
    for i, test in enumerate(ts.tests):
        if m <= test:
            return Event(m, i)
    raise ValidationError(f"{sorted(m)} is not a subset of any test")


def frozen_complements_of(ts, m):
    return frozenset(test - m for test in ts.tests if m <= test)


def outcome_or_error(f, *args):
    try:
        return f(*args)
    except (ValidationError, UnknownOutcomeError) as exc:
        return (type(exc), str(exc))


@settings(max_examples=80, deadline=None)
@given(spaces_strategy(), st.randoms(use_true_random=False))
def test_containment_queries_equal_the_frozen_scan(ts, rnd):
    """Subsets of tests, unions across tests, unknown ids and the empty set,
    on a small space and on one of up to 40 tests."""
    assert_containment_as_frozen(ts, rnd)
    assert_containment_as_frozen(
        corpus.random_test_space(rnd, max_universe=12, max_tests=40, max_size=4), rnd
    )


def assert_containment_as_frozen(ts, rnd):
    xs = list(ts.outcomes)
    draws = [frozenset(), frozenset({"zz"}), frozenset({xs[0], "zz"})]
    for _ in range(12):
        test = sorted(rnd.choice(ts.tests))
        draws.append(frozenset(rnd.sample(test, rnd.randint(1, len(test)))))
        draws.append(frozenset(rnd.sample(xs, rnd.randint(1, min(4, len(xs))))))
    for m in draws:
        assert is_event(ts, m) == frozen_is_event(ts, m)
        assert outcome_or_error(as_event, ts, m) == outcome_or_error(frozen_as_event, ts, m)
        assert complements_of(ts, m) == frozen_complements_of(ts, m)


# ------------------------------------------------ name-level layouts

# Events, their complements, components, the overlap scan and the frame
# points as they were computed from outcome names, before every layer read
# each test as its row of outcome indices; kept as the reference.


def frozen_events(ts):
    seen = {}
    for i, test in enumerate(ts.tests):
        members = sorted(test)
        for r in range(len(members) + 1):
            for combo in itertools.combinations(members, r):
                seen.setdefault(frozenset(combo), i)
    return tuple(Event(m, w) for m, w in sorted(seen.items(), key=lambda kv: event_key(kv[0])))


def frozen_events_and_complements(ts):
    events = frozen_events(ts)
    index = {e.members: k for k, e in enumerate(events)}
    comp = [set() for _ in events]
    by_test = []
    for test in ts.tests:
        subsets = [frozenset()]
        for x in sorted(test):
            subsets += [s | {x} for s in subsets]
        ids = [index[s] for s in subsets]
        for k, c in zip(ids, reversed(ids)):
            comp[k].add(c)
        by_test.append(ids)
    comp = [frozenset(c) for c in comp]
    numbers = {}
    fibre = [numbers.setdefault(c, len(numbers)) for c in comp]
    return by_test, fibre, frozen_algebraic_witness(events, comp, fibre)


def frozen_algebraic_witness(events, comp, fibre):
    """The first failure of algebraicity as events (A, B, C), searched over
    the event list: the first A in event order, the first B sharing a
    complement with A whose complements are not all A's, the least such C."""
    seen = {}
    bad = set()
    for ck, f in zip(comp, fibre):
        for c in ck:
            if seen.setdefault(c, f) != f:
                bad.add(c)
    if not bad:
        return None
    sharing = defaultdict(list)
    for k, ck in enumerate(comp):
        for c in ck & bad:
            sharing[c].append(k)
    for a in sorted({k for c in bad for k in sharing[c]}):
        ca = comp[a]
        for b in sorted({k for c in ca & bad for k in sharing[c]}):
            extra = comp[b] - ca
            if extra:
                return events[a], events[b], events[min(extra)]
    raise AssertionError("mixed complement without a failing pair")


def frozen_components(ts):
    parent = list(range(len(ts.tests)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first = {}
    for i, test in enumerate(ts.tests):
        for x in test:
            a, b = find(first.setdefault(x, i)), find(i)
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups = {}
    for i in range(len(ts.tests)):
        groups.setdefault(find(i), ([], []))[1].append(i)
    for k, x in enumerate(ts.outcomes):
        groups[find(first[x])][0].append(k)
    return [(tuple(outs), tuple(tests)) for outs, tests in groups.values()]


def frozen_overlapping_tests(ts):
    owner = {}
    for i, test in enumerate(ts.tests):
        for x in sorted(test):
            if x in owner:
                return x, owner[x], i
            owner[x] = i
    return None


def frozen_frame_points(sample):
    sizes = {len(t) for t in sample.tests}
    if len(sizes) != 1:
        raise ValidationError("extraction needs tests of one common size")
    index = {x: i for i, x in enumerate(sample.ids)}
    rows = np.array([index[x] for t in sample.tests for x in sorted(t)], dtype=np.intp)
    return sample.coords[rows.reshape(len(sample.tests), sizes.pop())]


# Names whose sorted order differs from the order they are drawn in, and
# from their numeric order: "a10" < "a9", "B" < "a" < "b", "_" between cases.
TRICKY_NAMES = [p + k for p in ("a", "A", "b", "B") for k in ("1", "2", "9", "10", "11", "100")]
TRICKY_NAMES += ["Z", "z", "_"]


def renamed(ts, rnd):
    """ts with its outcomes renamed from TRICKY_NAMES, listed unsorted, and
    its tests in a shuffled order."""
    names = rnd.sample(TRICKY_NAMES, len(ts.outcomes))
    rename = dict(zip(ts.outcomes, names))
    tests = [frozenset(rename[x] for x in t) for t in ts.tests]
    rnd.shuffle(tests)
    return TestSpace.build(names, tests)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_row_layout_equals_the_name_level_reference(rnd):
    """Overlapping and disjoint spaces, and a sample whose ids are neither
    sorted nor in test order."""
    for ts in (
        renamed(corpus.random_test_space(rnd, max_universe=12, max_tests=6), rnd),
        renamed(corpus.random_semiclassical(rnd), rnd),
    ):
        assert tuple(enumerate_events(ts)) == frozen_events(ts)
        assert logic_module._events_and_complements(ts) == frozen_events_and_complements(ts)
        assert components(ts) == frozen_components(ts)
        assert overlapping_tests(ts) == frozen_overlapping_tests(ts)
    d, count = rnd.randint(2, 4), rnd.randint(1, 5)
    frames = sample_frames(d, count, rnd.randrange(1000))
    rename = dict(zip(frames.ids, rnd.sample(TRICKY_NAMES, d * count)))
    order = rnd.sample(range(d * count), d * count)
    sample = MetricSample(
        tuple(rename[frames.ids[i]] for i in order),
        frames.coords[order],
        tuple(frozenset(rename[x] for x in t) for t in frames.tests),
    )
    assert np.array_equal(_frame_points(sample), frozen_frame_points(sample))


# ------------------------------------------- the outcome -> tests incidence

# The membership readers as they ran on `TestSpace._containing`, a dict from
# outcome name to the tuple of its tests (outcomes held by the same tests
# sharing one tuple), and `redundant_test_pairs` over every ordered pair of
# tests, before both read the one incidence; kept as the reference, with
# `frozen_components`, the union-find, above.


def frozen_containing_index(ts):
    idx = [[] for _ in ts.outcomes]
    for i, row in enumerate(ts._rows):
        for k in row:
            idx[k].append(i)
    shared = {}
    return {x: shared.setdefault(t, t) for x, t in zip(ts.outcomes, map(tuple, idx))}


def frozen_tests_containing(ts, m):
    if not m:
        return list(range(len(ts.tests)))
    containing = frozen_containing_index(ts)
    try:
        fewest = min((containing[x] for x in m), key=len)
    except KeyError:
        return []
    return [i for i in fewest if m <= ts.tests[i]]


def frozen_containing(ts, x):
    try:
        return frozenset(frozen_containing_index(ts)[x])
    except KeyError:
        raise UnknownOutcomeError(f"unknown outcome {x!r}") from None


def frozen_orthogonal(ts, x, y):
    if x == y:
        frozen_containing(ts, x)
        return False
    return bool(frozen_containing(ts, x) & frozen_containing(ts, y))


def frozen_check_certificate(ts, cert):
    containing = frozen_containing_index(ts)
    y = [Fraction(cert.get(i, 0)) for i in range(len(ts.tests))]
    for x in ts.outcomes:
        if sum(y[i] for i in containing[x]) > 0:
            return False
    return sum(y) > 0


def frozen_redundant_test_pairs(ts):
    out = []
    for i, j in itertools.permutations(range(len(ts.tests)), 2):
        if ts.tests[i] < ts.tests[j]:
            out.append((i, j))
    return tuple(sorted(out))


def with_nested_tests(ts, rnd):
    """ts plus proper subsets of some of its tests, in shuffled test order."""
    tests = set(ts.tests)
    for test in rnd.sample(ts.tests, rnd.randint(0, len(ts.tests))):
        if len(test) > 1:
            tests.add(frozenset(rnd.sample(sorted(test), rnd.randint(1, len(test) - 1))))
    tests = sorted(tests, key=sorted)
    rnd.shuffle(tests)
    return TestSpace.build(ts.outcomes, tests)


def assert_incidence_as_frozen(ts, rnd):
    xs = [*ts.outcomes, "zz"]
    for x in xs:
        assert outcome_or_error(ts.containing, x) == outcome_or_error(frozen_containing, ts, x)
    for _ in range(12):
        x, y = rnd.choice(xs), rnd.choice(xs)
        assert outcome_or_error(orthogonal, ts, x, y) == outcome_or_error(frozen_orthogonal, ts, x, y)
    draws = [frozenset(), frozenset({"zz"}), *ts.tests[:3]]
    for _ in range(12):
        test = sorted(rnd.choice(ts.tests))
        draws.append(frozenset(rnd.sample(test, rnd.randint(1, len(test)))))
        draws.append(frozenset(rnd.sample(xs, rnd.randint(1, min(4, len(xs))))))
    for m in draws:
        found = frozen_tests_containing(ts, m)
        assert list(_tests_containing(ts, m)) == found
        assert is_event(ts, m) == bool(found)
        assert outcome_or_error(as_event, ts, m) == (
            Event(m, found[0]) if found else (ValidationError, f"{sorted(m)} is not a subset of any test")
        )
        assert complements_of(ts, m) == frozenset(ts.tests[i] - m for i in found)
    assert components(ts) == frozen_components(ts)
    assert redundant_test_pairs(ts) == frozen_redundant_test_pairs(ts)
    certs = [{}, {i: Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)) for i in range(len(ts.tests))}]
    refutation = infeasibility_certificate(ts) if len(ts.tests) < 60 else None
    if refutation is not None:
        nudged = dict(refutation)
        nudged[rnd.randrange(len(ts.tests))] += Fraction(rnd.choice([-1, 1]), 7)
        certs += [refutation, nudged]
    for cert in certs:
        assert check_certificate(ts, cert) == frozen_check_certificate(ts, cert)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_incidence_readers_equal_the_frozen_containing_dict(rnd):
    """Mixed sizes and shared outcomes, names whose sort order is not their
    drawn order (a10 < a9), nested tests, one size over at least 32 tests
    (the row array), and frame samples for d = 3 and d = 11."""
    mixed = corpus.random_test_space(rnd, max_universe=12, max_tests=8, min_size=1, max_size=5)
    assert_incidence_as_frozen(renamed(with_nested_tests(mixed, rnd), rnd), rnd)
    assert_incidence_as_frozen(renamed(corpus.random_semiclassical(rnd), rnd), rnd)
    assert_incidence_as_frozen(with_nested_tests(load_test_space(corpus.gen("stateless")), rnd), rnd)
    names = rnd.sample(TRICKY_NAMES, 12)
    tests = rnd.sample(list(itertools.combinations(names, 3)), rnd.randint(32, 60))
    uniform = TestSpace.build(set().union(*tests), tests)
    assert uniform._row_array is not None
    assert_incidence_as_frozen(uniform, rnd)
    for d, count in ((3, rnd.randint(1, 40)), (11, rnd.randint(1, 4))):
        assert_incidence_as_frozen(sample_frames(d, count, rnd.randrange(1000)).to_test_space(), rnd)


# ------------------------------------------- the one checking pass of a space


def frozen_test_space(outcomes, tests):
    """`TestSpace.__post_init__` and its `_index`/`_rows` before the checks
    moved onto the rows: name-set checks, then the rows in a second pass.
    Returns the refusal's text, or (index, rows); kept as the reference."""
    if not outcomes:
        return "a test space needs at least one outcome"
    if len(set(outcomes)) != len(outcomes):
        return "duplicate outcome ids"
    if list(outcomes) != sorted(outcomes):
        return "outcomes must be lexicographically sorted"
    if not tests:
        return "a test space needs at least one test"
    known = set(outcomes)
    seen = {}
    for i, test in enumerate(tests):
        if not test:
            return f"test {i} is empty"
        extra = test - known
        if extra:
            return f"test {i} uses unknown outcomes {sorted(extra)}"
        if test in seen:
            return f"test {i} duplicates test {seen[test]}"
        seen[test] = i
    covered = set().union(*tests)
    if covered != known:
        return f"outcomes not covered by any test: {sorted(known - covered)}"
    index = {x: k for k, x in enumerate(outcomes)}
    return index, tuple(tuple(index[x] for x in sorted(t)) for t in tests)


@st.composite
def space_inputs(draw):
    """Outcomes and tests for `TestSpace(...)`, valid or with one drawn
    fault: empty, duplicate or unsorted ids, or no, empty, unknown,
    repeated or uncovering tests; over names whose sort order is not their
    drawn order."""
    names = draw(st.lists(st.sampled_from(TRICKY_NAMES), unique=True, max_size=8))
    outcomes = sorted(names)
    fault = draw(st.sampled_from(
        ["none"] * 4 + ["duplicate", "unsorted", "no tests", "empty", "unknown", "repeat", "uncovered"]
    ))
    if fault == "duplicate" and outcomes:
        outcomes.insert(draw(st.integers(0, len(outcomes))), draw(st.sampled_from(outcomes)))
    elif fault == "unsorted":
        outcomes = names
    tests = []
    if names:
        member = st.sampled_from(names)
        tests = draw(st.lists(st.frozensets(member, min_size=1, max_size=4), unique=True, max_size=5))
    rest = frozenset(names).difference(*tests)
    if rest and fault != "uncovered":
        tests.insert(draw(st.integers(0, len(tests))), rest)
    spot = draw(st.integers(0, len(tests)))
    if fault == "no tests":
        tests = []
    elif fault == "empty":
        tests.insert(spot, frozenset())
    elif fault == "unknown":
        tests.insert(spot, frozenset(draw(st.lists(st.sampled_from(names + ["q", "a3"]), min_size=1))))
    elif fault == "repeat" and tests:
        tests.insert(spot, draw(st.sampled_from(tests)))
    return tuple(outcomes), tuple(tests)


@settings(max_examples=400, deadline=None)
@given(space_inputs())
def test_space_checks_equal_the_frozen_name_passes(inputs):
    try:
        ts = TestSpace(*inputs)
        got = (ts._index, ts._rows)
    except ValidationError as exc:
        got = str(exc)
    assert got == frozen_test_space(*inputs)


@pytest.mark.parametrize(
    "outcomes, tests, message",
    [
        ((), (frozenset("a"),), "a test space needs at least one outcome"),
        (("a", "a"), (frozenset("a"),), "duplicate outcome ids"),
        (("b", "a"), (frozenset("ab"),), "outcomes must be lexicographically sorted"),
        (("a",), (), "a test space needs at least one test"),
        (("a",), (frozenset("a"), frozenset()), "test 1 is empty"),
        (("a", "b"), (frozenset("ab"), frozenset("bqc")), "test 1 uses unknown outcomes ['c', 'q']"),
        (("a", "b"), (frozenset("a"), frozenset("ab"), frozenset("ba")), "test 2 duplicates test 1"),
        (("a", "b", "c"), (frozenset("b"),), "outcomes not covered by any test: ['a', 'c']"),
    ],
)
def test_space_refusals_built_directly(outcomes, tests, message):
    with pytest.raises(ValidationError) as exc:
        TestSpace(outcomes, tests)
    assert str(exc.value) == message
