"""Laws of the logic and sampling layers, checked through the public API only.

The disjoint union A + B of two spaces (their outcomes renamed apart) has
one shared empty event and glues the logics at 0 and 1: e(A + B) = e(A) +
e(B) - 1; A + B is algebraic exactly when A and B are; and then
|L(A + B)| = |L(A)| + |L(B)| - 2 (the horizontal sum).

The states of A + B are those of A beside those of B: a state exists
exactly when A and B both have one, the 0/1 states number the product of
theirs, and the components of A + B are A's, then B's, shifted past A's
outcomes and tests.

A longer frame draw extends a shorter one with the same seed, which
`tsp extract --resample-factor` relies on: the first n frames of
sample_frames(d, 2n, s) are sample_frames(d, n, s), bit for bit.

Shuffling the test lines of a space file keeps every byte of `tsp info`
and `tsp logic` (the algebraicity witness and the table digest included),
and keeps whether a state exists; the state found may change, since the
phase-one simplex breaks ties in the order of the tests, but it verifies.
Prefixing every outcome id with one string keeps their sorted order, so
`tsp info`, `tsp logic` and `tsp states --dispersion-free` print the same
bytes once the prefix is taken off again.

Flipping the sign of coordinate axes changes no product of coordinates and
no difference's square, so the geometry reads the same floats: orthogonal
pairs, TNO radii, rank bounds and their refusals, and the Hausdorff distance
on its grid path come out bit for bit as before.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS_NAMES
from testspaces import (
    Event,
    MetricSample,
    NotTotallyNonOrthogonalError,
    TestSpace,
    build_logic,
    check_prop04,
    corpus,
    dump_test_space,
    dispersion_free_states,
    enumerate_events,
    find_state,
    hausdorff_distance,
    is_algebraic,
    load_test_space,
    rank_bound,
    sample_frames,
    tno_radius,
    verify_state,
)
from testspaces.cli import main
from testspaces.core import components
from testspaces.states import DEFAULT_DF_CAP


def disjoint_union(a: TestSpace, b: TestSpace) -> TestSpace:
    """a + b, with a's outcomes renamed `a.x` and b's `b.x`."""
    tests = [frozenset(f"{tag}.{x}" for x in t) for tag, ts in (("a", a), ("b", b)) for t in ts.tests]
    outcomes = [f"a.{x}" for x in a.outcomes] + [f"b.{x}" for x in b.outcomes]
    return TestSpace.build(outcomes, tests)


def assert_union_laws(a: TestSpace, b: TestSpace) -> None:
    ab = disjoint_union(a, b)
    assert len(enumerate_events(ab)) == len(enumerate_events(a)) + len(enumerate_events(b)) - 1
    algebraic = is_algebraic(a)[0] and is_algebraic(b)[0]
    assert is_algebraic(ab)[0] == algebraic
    if algebraic:
        assert len(build_logic(ab)) == len(build_logic(a)) + len(build_logic(b)) - 2


def test_disjoint_union_laws_on_corpus_pairs(spaces):
    for x, y in itertools.combinations_with_replacement(CORPUS_NAMES, 2):
        assert_union_laws(spaces[x], spaces[y])


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(CORPUS_NAMES))
def test_disjoint_union_laws_on_random_draws(rnd, name):
    a = corpus.random_test_space(rnd, max_universe=9, max_tests=4, max_size=4)
    b = corpus.random_test_space(rnd, max_universe=9, max_tests=4, max_size=4)
    assert_union_laws(a, b)
    assert_union_laws(a, load_test_space(corpus.gen(name)))


def assert_union_state_laws(a: TestSpace, b: TestSpace) -> None:
    ab = disjoint_union(a, b)
    assert (find_state(ab) is not None) == (find_state(a) is not None and find_state(b) is not None)
    shift = [
        (tuple(k + len(a.outcomes) for k in outs), tuple(i + len(a.tests) for i in tests))
        for outs, tests in components(b)
    ]
    assert components(ab) == components(a) + shift
    if len(ab.outcomes) <= DEFAULT_DF_CAP:
        count = len(dispersion_free_states(a)) * len(dispersion_free_states(b))
        assert len(dispersion_free_states(ab)) == count


def test_disjoint_union_state_laws_on_corpus_pairs(spaces):
    for x, y in itertools.product(CORPUS_NAMES, repeat=2):
        assert_union_state_laws(spaces[x], spaces[y])


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(CORPUS_NAMES))
def test_disjoint_union_state_laws_on_random_draws(rnd, name):
    a = corpus.random_test_space(rnd, max_universe=9, max_tests=5, min_size=1, max_size=4)
    b = corpus.random_test_space(rnd, max_universe=9, max_tests=5, min_size=1, max_size=4)
    assert_union_state_laws(a, b)
    assert_union_state_laws(load_test_space(corpus.gen(name)), b)


def frozen_table_digest(logic) -> str:
    """The f-string payload table_digest hashed when it was written per sum;
    kept as the reference for its bytes."""
    payload = ";".join(f"{p},{q}->{r}" for (p, q), r in logic.sum_items())
    payload = f"n={len(logic)};zero={logic.zero};one={logic.one};" + payload
    return hashlib.sha256(payload.encode()).hexdigest()


def random_algebraic_spaces(seed: int, count: int):
    rng = random.Random(seed)
    while count:
        ts = corpus.random_test_space(rng, max_universe=12, max_tests=5, max_size=6)
        if is_algebraic(ts)[0]:
            count -= 1
            yield ts


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_table_digest_equals_the_frozen_payload_on_random_logics(seed):
    for ts in random_algebraic_spaces(seed, 3):
        logic = build_logic(ts)
        assert logic.table_digest() == frozen_table_digest(logic)


@pytest.mark.parametrize("name", ["classical-1", "classical-7", *CORPUS_NAMES])
def test_table_digest_equals_the_frozen_payload_on_corpus(name):
    ts = load_test_space(corpus.gen(name))
    if is_algebraic(ts)[0]:
        logic = build_logic(ts)
        assert logic.table_digest() == frozen_table_digest(logic)


def test_logic_of_an_algebraic_space_builds_no_event(monkeypatch):
    # drawn first: the draws refused as non-algebraic build their witnesses
    texts = [dump_test_space(ts) for ts in random_algebraic_spaces(0, 20)]
    texts.append(corpus.gen("glued-pair"))
    built = []
    init = Event.__init__
    monkeypatch.setattr(Event, "__init__", lambda e, *a: built.append(a) or init(e, *a))
    for ts in map(load_test_space, texts):
        assert is_algebraic(ts) == (True, None)
        logic = build_logic(ts)
        check_prop04(logic)
        logic.table_digest()
    assert built == []
    # the guard sees an Event when one is built
    enumerate_events(ts)
    assert built


def tsp(text: str, *argv: str) -> tuple[int, str, str]:
    """`tsp <argv> -` with `text` on stdin: the exit code, stdout and stderr."""
    stdin = io.TextIOWrapper(io.BytesIO(text.encode()))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "-"])
    return code, out.getvalue(), err.getvalue()


def shuffled_tests(text: str, rnd: random.Random) -> str:
    """The space file `text` with its test lines in a shuffled order."""
    lines = text.splitlines(keepends=True)
    tests = [line for line in lines if line.startswith("test ")]
    rnd.shuffle(tests)
    return "".join(line for line in lines if not line.startswith("test ")) + "".join(tests)


def assert_shuffle_laws(ts: TestSpace, rnd: random.Random) -> None:
    text = dump_test_space(ts)
    again = shuffled_tests(text, rnd)
    for command in ("info", "logic"):
        assert tsp(again, command) == tsp(text, command)
    shuffled = load_test_space(again)
    state = find_state(shuffled)
    assert (state is None) == (find_state(ts) is None)
    if state is not None:
        assert verify_state(shuffled, state)[0]


def test_shuffled_tests_keep_info_logic_and_feasibility_on_corpus(spaces):
    rnd = random.Random(0)
    for name in ("classical-1", "classical-7", *CORPUS_NAMES):
        for _ in range(5):
            assert_shuffle_laws(load_test_space(corpus.gen(name)), rnd)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_shuffled_tests_keep_info_logic_and_feasibility_on_random_draws(rnd):
    assert_shuffle_laws(
        corpus.random_test_space(rnd, max_universe=9, max_tests=5, min_size=1, max_size=6), rnd
    )


def test_shuffled_tests_may_change_the_state_found():
    """Phase one breaks ties in test order: the same space, two states."""
    tests = ["o2 o4 o6", "o0 o3 o4 o5 o7 o8", "o0 o1 o2 o4 o8", "o0 o2 o6 o8", "o0 o7"]
    found = []
    for order in ((0, 1, 2, 3, 4), (4, 3, 0, 1, 2)):
        ts = TestSpace.build([f"o{i}" for i in range(9)], [tests[i].split() for i in order])
        state = find_state(ts)
        assert verify_state(ts, state)[0]
        found.append({x for x in ts.outcomes if state[x] == 1})
    assert found == [{"o2", "o7"}, {"o1", "o6", "o7"}]


PREFIX = "zz_"  # in no keyword, number or digest that tsp prints


def assert_renaming_law(ts: TestSpace) -> None:
    renamed = TestSpace.build(
        [PREFIX + x for x in ts.outcomes], [[PREFIX + x for x in t] for t in ts.tests]
    )
    assert renamed.outcomes == tuple(PREFIX + x for x in ts.outcomes)  # the same order
    text, again = dump_test_space(ts), dump_test_space(renamed)
    for argv in (["info"], ["logic"], ["states", "--dispersion-free"]):
        code, out, err = tsp(again, *argv)
        assert (code, out.replace(PREFIX, ""), err.replace(PREFIX, "")) == tsp(text, *argv)


def test_prefixed_ids_keep_every_byte_on_corpus():
    for name in ("classical-1", "classical-7", *CORPUS_NAMES):
        assert_renaming_law(load_test_space(corpus.gen(name)))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_prefixed_ids_keep_every_byte_on_random_draws(rnd):
    assert_renaming_law(
        corpus.random_test_space(rnd, max_universe=9, max_tests=5, min_size=1, max_size=6)
    )


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([3, 11]),  # from d = 11 on the ids are not sorted (f….10 before f….2)
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_longer_frame_draw_extends_a_shorter_one(d, n, seed):
    short, long = sample_frames(d, n, seed), sample_frames(d, 2 * n, seed)
    assert short.ids == long.ids[: n * d]
    assert short.tests == long.tests[:n]
    assert short.coords.tobytes() == long.coords[: n * d].tobytes()


def flipped(sample: MetricSample, signs: np.ndarray) -> MetricSample:
    return MetricSample(sample.ids, sample.coords * signs, sample.tests, sample.ortho_tol)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 11]),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sign_flips_of_axes_keep_the_geometry_bit_identical(d, n, seed):
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=d)
    signs[rng.integers(d)] = -1.0  # at least one axis flips
    s = sample_frames(d, n, seed)
    f = flipped(s, signs)
    assert f.orthogonal_pair_indices.tobytes() == s.orthogonal_pair_indices.tobytes()
    for x in rng.choice(s.ids, size=5).tolist():
        assert tno_radius(f, x) == tno_radius(s, x)
    for radius in (0.3, 0.7, 1.5):  # the widest caps hold orthogonal pairs
        got = []
        for sample in (s, f):
            try:
                got.append(rank_bound(sample, radius))
            except NotTotallyNonOrthogonalError as exc:
                got.append((exc.center, exc.pair))
        assert got[0] == got[1]
    if d <= 5:
        assert_hausdorff_keeps_its_bits(signs, rng)


def assert_hausdorff_keeps_its_bits(signs: np.ndarray, rng: np.random.Generator) -> None:
    pts = rng.standard_normal((1200, len(signs)))
    a, b = pts[:500], pts[500:]
    assert hausdorff_distance(a * signs, b * signs) == hausdorff_distance(a, b)
