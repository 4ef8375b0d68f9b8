from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import testspaces
from testspaces import corpus, states as states_module
from testspaces.core import (
    CapExceededError,
    TestSpace,
    ValidationError,
    components,
    load_test_space,
    orthogonal,
)
from testspaces.metric import sample_frames
from testspaces.states import (
    DEFAULT_DF_CAP,
    DensityMatrix,
    State,
    UnknownOutcomeError,
    check_certificate,
    dispersion_free_states,
    extend_to_event,
    find_state,
    gleason_state,
    hidden_variable_state,
    infeasibility_certificate,
    is_udf,
    perp_separating,
    verify_state,
)

from oracles import certificate_refutes, df_states_oracle
from test_cli import STATELESS_AND_TRIANGLE

F = Fraction

# find_state output is pinned byte-for-byte: the solver is deterministic.
FEASIBLE_STATES = {
    "classical-3": {"a": F(1), "b": F(0), "c": F(0)},
    "two-disjoint": {"a": F(1), "b": F(0), "c": F(1), "d": F(0)},
    "glued-pair": {"a": F(0), "b": F(0), "c": F(1), "d": F(0), "e": F(0)},
    "triangle": {
        "a": F(1, 2),
        "b": F(1, 2),
        "c": F(1, 2),
        "x": F(0),
        "y": F(0),
        "z": F(0),
    },
    "mo2": {"a": F(1), "a'": F(0), "b": F(1), "b'": F(0)},
}

DF_SUPPORTS = {
    "classical-3": [{"a"}, {"b"}, {"c"}],
    "two-disjoint": [{"a", "c"}, {"a", "d"}, {"b", "c"}, {"b", "d"}],
    "glued-pair": [{"a", "d"}, {"a", "e"}, {"b", "d"}, {"b", "e"}, {"c"}],
    "triangle": [{"a", "y"}, {"b", "z"}, {"c", "x"}, {"x", "y", "z"}],
    "mo2": [{"a", "b"}, {"a", "b'"}, {"a'", "b"}, {"a'", "b'"}],
    "stateless": [],
}

STATELESS_CERT = {0: F(1), 1: F(1), 2: F(1), 3: F(-1), 4: F(-1)}


def support(state):
    return {x for x, v in state.values.items() if v == 1}


def test_find_state_matches_frozen_solutions(spaces):
    for name, expected in FEASIBLE_STATES.items():
        state = find_state(spaces[name])
        assert state is not None and state.kind == "exact", name
        assert dict(state.values) == expected, name
        ok, worst = verify_state(spaces[name], state)
        assert ok and worst == 0, name


def test_stateless_space_has_no_state(spaces):
    ts = spaces["stateless"]
    assert find_state(ts) is None
    cert = infeasibility_certificate(ts)
    assert cert == STATELESS_CERT
    assert check_certificate(ts, cert)
    assert certificate_refutes(ts, cert)


def test_certificate_rejects_junk(spaces):
    ts = spaces["stateless"]
    assert not check_certificate(ts, {i: F(0) for i in range(len(ts.tests))})
    assert infeasibility_certificate(spaces["classical-3"]) is None


def test_dispersion_free_supports_frozen_and_oracle_checked(spaces):
    for name, expected in DF_SUPPORTS.items():
        ts = spaces[name]
        states = dispersion_free_states(ts)
        got = sorted(sorted(support(s)) for s in states)
        assert got == sorted(sorted(e) for e in expected), name
        assert got == [sorted(e) for e in df_states_oracle(ts)], name
        for s in states:
            ok, worst = verify_state(ts, s)
            assert ok and worst == 0


def test_unital_dispersion_free_classification(spaces):
    for name in FEASIBLE_STATES:
        assert is_udf(spaces[name]) == (True, None), name
    assert is_udf(spaces["stateless"]) == (False, "u1")


def test_extend_to_event(spaces):
    c3 = find_state(spaces["classical-3"])
    assert extend_to_event(c3, {"a", "b"}) == 1
    assert extend_to_event(c3, {"b", "c"}) == 0
    tri = find_state(spaces["triangle"])
    assert extend_to_event(tri, {"a", "y"}) == F(1, 2)
    assert extend_to_event(tri, frozenset()) == 0


# ----------------------------------------------------------- State basics


def test_state_lookup_and_kind():
    s = State.exact({"a": 1, "b": 0})
    assert s["a"] == F(1)
    with pytest.raises(UnknownOutcomeError):
        s["zzz"]
    with pytest.raises(ValidationError):
        State({"a": 1.0}, "fuzzy")


def test_float_state_tolerance(spaces):
    ts = spaces["classical-3"]
    drift = 2e-10
    s = State.approx({"a": 1.0 - drift, "b": 0.0, "c": 0.0})
    ok, worst = verify_state(ts, s)
    assert ok and worst == pytest.approx(drift)
    ok2, _ = verify_state(ts, s, tol=1e-11)
    assert not ok2
    loose = State.approx({"a": 0.9, "b": 0.0, "c": 0.0}, tolerance=0.2)
    assert verify_state(ts, loose)[0]


def test_verify_state_flags_negative_weights(spaces):
    s = State.exact({"a": F(3, 2), "b": F(-1, 2), "c": 0})
    ok, worst = verify_state(spaces["classical-3"], s)
    assert not ok
    assert worst == F(1, 2)


# ------------------------------------------------------- density matrices


def test_density_matrix_validation():
    with pytest.raises(ValidationError, match="square"):
        DensityMatrix(np.ones((2, 3)))
    with pytest.raises(ValidationError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValidationError, match="unit trace"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValidationError, match="positive semidefinite"):
        DensityMatrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValidationError, match="zero vector"):
        DensityMatrix.pure([0.0, 0.0, 0.0])


def test_density_matrix_constructors():
    mm = DensityMatrix.maximally_mixed(3)
    assert mm.dim == 3
    assert np.trace(mm.entries) == pytest.approx(1.0)
    p = DensityMatrix.pure([3.0, 4.0])
    assert p.entries[0, 0] == pytest.approx(0.36)
    rng = np.random.default_rng(7)
    for complex_entries in (False, True):
        w = DensityMatrix.random(3, rng, complex_entries=complex_entries)
        assert np.trace(w.entries).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(w.entries).min() >= -1e-12


def test_gleason_state_sums_to_one_per_test():
    sample = sample_frames(3, 4, seed=11)
    rng = np.random.default_rng(0)
    for _ in range(5):
        state = gleason_state(sample, DensityMatrix.random(3, rng, complex_entries=True))
        ok, worst = verify_state(sample.to_test_space(), state, tol=1e-9)
        assert ok, worst


# The worst per-test sum of a float state on 10 000 outcomes, printed exactly.
HASH_SEED_PROBE = """
import numpy as np
from testspaces.metric import sample_frames
from testspaces.states import DensityMatrix, gleason_state, verify_state
sample = sample_frames(5, 2000, 0)
state = gleason_state(sample, DensityMatrix.random(5, np.random.default_rng(0)))
print(repr(verify_state(sample.to_test_space(), state)[1]))
"""


def test_float_verify_state_does_not_depend_on_the_hash_seed():
    """Each test is summed in one member order, whatever order its set keeps."""
    package_root = os.path.dirname(os.path.dirname(testspaces.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    worst = [
        subprocess.run(
            [sys.executable, "-c", HASH_SEED_PROBE],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for seed in ("0", "1")
    ]
    assert worst[0] == worst[1]


def test_gleason_state_dimension_mismatch():
    sample = sample_frames(3, 2, seed=0)
    with pytest.raises(ValidationError, match="dimension"):
        gleason_state(sample, DensityMatrix.maximally_mixed(2))


# ------------------------------------------------------------- separation


def test_dispersion_free_family_is_perp_separating(spaces):
    for name in ("classical-3", "two-disjoint"):
        ts = spaces[name]
        assert perp_separating(ts, dispersion_free_states(ts)), name


def test_perp_separating_fails_without_coverage(spaces):
    ts = spaces["two-disjoint"]
    kept = [s for s in dispersion_free_states(ts) if support(s) != {"a", "c"}]
    # nothing left to push a+c above one
    assert not perp_separating(ts, kept)


def frozen_perp_separating(ts, states):
    """perp_separating before it read orthogonality from the rows; kept as
    the reference."""
    for x, y in itertools.combinations(ts.outcomes, 2):
        sums = [st[x] + st[y] for st in states]
        if orthogonal(ts, x, y):
            if any(s > 1 for s in sums):
                return False
        else:
            if not any(s > 1 for s in sums):
                return False
    return True


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=30_000))
def test_perp_separating_equals_the_frozen_pair_scan(seed):
    """Overlapping and disjoint spaces, with all their 0/1 states, half of
    them, and one random state."""
    rng = random.Random(seed)
    for ts in (corpus.random_test_space(rng, max_universe=8, max_tests=5),
               corpus.random_semiclassical(rng, max_tests=3, max_size=3)):
        family = dispersion_free_states(ts)
        weights = State.exact({x: F(rng.randint(0, 2), 2) for x in ts.outcomes})
        for states in (family, rng.sample(family, len(family) // 2), [weights]):
            assert perp_separating(ts, states) == frozen_perp_separating(ts, states)


# ------------------------------------------------------- hidden variables


def test_hidden_variable_state_is_deterministic():
    tests = (frozenset({"a", "b"}), frozenset({"c", "d", "e"}))
    result = SimpleNamespace(tests=tests, sub_test_space=TestSpace.build("abcde", tests))
    s1 = hidden_variable_state(result, seed=3)
    s2 = hidden_variable_state(result, seed=3)
    assert s1.values == s2.values
    for test in result.tests:
        assert sum(s1[x] for x in test) == 1
    seen = {frozenset(support(hidden_variable_state(result, seed=k))) for k in range(40)}
    assert len(seen) > 1  # the seed really steers the choice
    with pytest.raises(ValidationError):
        hidden_variable_state(SimpleNamespace(tests=()))


# --------------------------------------------------------------- property


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=30_000))
def test_state_or_certificate_dichotomy(seed):
    ts = corpus.random_test_space(random.Random(seed))
    state = find_state(ts)
    cert = infeasibility_certificate(ts)
    if state is None:
        assert cert is not None
        assert check_certificate(ts, cert)
        assert certificate_refutes(ts, cert)
    else:
        assert cert is None
        ok, worst = verify_state(ts, state)
        assert ok and worst == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=30_000))
def test_dispersion_free_states_match_exhaustive_scan(seed):
    ts = corpus.random_test_space(random.Random(seed))
    got = sorted(sorted(support(s)) for s in dispersion_free_states(ts))
    assert got == [sorted(e) for e in df_states_oracle(ts)]


# ------------------------------------------- reference: the Fraction simplex

# The per-component phase-one simplex as it ran over Fractions before the
# tableau became fraction-free, frozen here as the reference the integer
# solver must equal, pivot for pivot: same values, same duals.

F0, F1 = Fraction(0), Fraction(1)


def frozen_fraction_simplex(n: int, tests: Sequence[Sequence[int]]):
    m = len(tests)
    cols = n + m  # the right-hand side sits in column `cols`
    rows = []
    for i, test in enumerate(tests):
        row = [F0] * (cols + 1)
        for j in test:
            row[j] = F1
        row[n + i] = row[cols] = F1
        rows.append(row)
    basis = list(range(n, cols))
    # Phase-one reduced costs (1 on artificials minus the column sums); the
    # last entry is minus the objective value, the sum of the artificials.
    obj = [F0] * (cols + 1)
    for test in tests:
        for j in test:
            obj[j] -= 1
    obj[cols] = Fraction(-m)

    while True:
        # Bland's rule: lowest-index negative reduced cost; anti-cycling.
        enter = next((j for j in range(cols) if obj[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                key = (rows[i][cols] / a, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:  # cannot happen: phase-one objective is bounded
            raise AssertionError("unbounded phase-one simplex")
        r = best[1]
        pivot_row = rows[r]
        piv = pivot_row[enter]
        nonzero = [j for j in range(cols + 1) if pivot_row[j]]
        for j in nonzero:
            pivot_row[j] /= piv
        for i in range(m):
            f = rows[i][enter]
            if i != r and f:
                row = rows[i]
                for j in nonzero:
                    row[j] -= f * pivot_row[j]
        f = obj[enter]
        for j in nonzero:
            obj[j] -= f * pivot_row[j]
        basis[r] = enter

    duals = [F1 - obj[n + i] for i in range(m)]
    if obj[cols]:
        return None, duals
    x = [F0] * cols
    for i in range(m):
        x[basis[i]] = rows[i][cols]
    return x[:n], duals


def component_problems(ts):
    """(outcome count, tests as outcome columns) per component, as _solve_states builds them."""
    outs = ts.outcomes
    for out_idx, test_idx in components(ts):
        column = {outs[k]: j for j, k in enumerate(out_idx)}
        yield len(out_idx), [[column[x] for x in ts.tests[i]] for i in test_idx]


def assert_simplex_matches_frozen(ts):
    for n, tests in component_problems(ts):
        values, duals = states_module._phase1_simplex(n, tests)
        frozen_values, frozen_duals = frozen_fraction_simplex(n, tests)
        assert values == frozen_values
        assert duals == frozen_duals
        assert all(type(v) is Fraction for v in (values or []) + duals)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=30_000))
def test_integer_simplex_equals_the_frozen_fraction_simplex(seed):
    rng = random.Random(seed)
    ts = corpus.random_test_space(rng, max_universe=28, max_tests=20, min_size=3, max_size=7)
    assert_simplex_matches_frozen(ts)


def test_integer_simplex_on_fixed_spaces(spaces):
    # The simplex's state on triangle is not integral (1/2 on a, b and c);
    # stateless is infeasible, so only its duals are returned.
    for name in ("triangle", "stateless", "glued-pair", "mo2"):
        assert_simplex_matches_frozen(spaces[name])
    (n, tests), = component_problems(spaces["triangle"])
    values, _duals = states_module._phase1_simplex(n, tests)
    assert values == [F(1, 2), F(1, 2), F(1, 2), F0, F0, F0]


# ------------------------------------------- reference: whole-space solvers

# The exact simplex and the 0/1 search as they ran on the whole space before
# states were solved per component, frozen here as the reference the
# per-component results must equal.


def reference_phase1_simplex(ts):
    outs = ts.outcomes
    n, m = len(outs), len(ts.tests)
    F0, F1 = Fraction(0), Fraction(1)
    cols = n + m
    rows = []
    for i, test in enumerate(ts.tests):
        row = [F1 if outs[j] in test else F0 for j in range(n)]
        row.extend(F1 if k == i else F0 for k in range(m))
        row.append(F1)
        rows.append(row)
    cost = [F0] * n + [F1] * m
    basis = list(range(n, cols))
    obj = [cost[j] - sum(rows[i][j] for i in range(m)) for j in range(cols)]
    while True:
        enter = next((j for j in range(cols) if obj[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                key = (rows[i][-1] / a, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        r = best[1]
        piv = rows[r][enter]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [v - f * w for v, w in zip(obj, rows[r][:-1])]
        basis[r] = enter
    value = sum(cost[basis[i]] * rows[i][-1] for i in range(m))
    if value == 0:
        x = [F0] * cols
        for i in range(m):
            x[basis[i]] = rows[i][-1]
        return {outs[j]: x[j] for j in range(n)}, None
    return None, {i: F1 - obj[n + i] for i in range(m)}


def reference_df_states(ts):
    tests = [tuple(sorted(t)) for t in ts.tests]
    value = {x: None for x in ts.outcomes}
    undecided = set(range(len(tests)))
    solutions = []

    def candidates(i):
        return [
            x for x in tests[i]
            if value[x] != 0 and not any(value[y] == 1 for y in tests[i] if y != x)
        ]

    def recurse():
        if not undecided:
            solutions.append({x: value[x] for x in ts.outcomes})
            return
        i = min(undecided, key=lambda t: (len(candidates(t)), t))
        undecided.discard(i)
        for x in candidates(i):
            changed = []
            for y in tests[i]:
                if value[y] is None:
                    value[y] = 1 if y == x else 0
                    changed.append(y)
            recurse()
            for y in changed:
                value[y] = None
        undecided.add(i)

    recurse()
    solutions.sort(key=lambda sol: tuple(sol[x] for x in ts.outcomes))
    return solutions


def reference_is_udf(ts, solutions):
    hit = {x for sol in solutions for x in ts.outcomes if sol[x] == 1}
    return next(((False, x) for x in ts.outcomes if x not in hit), (True, None))


def disjoint_union(draws, rnd):
    """The draws side by side, ids renamed so they interleave, tests shuffled."""
    total = sum(len(ts.outcomes) for ts in draws)
    ids = iter(f"x{k:02d}" for k in rnd.sample(range(total), total))
    tests = []
    for ts in draws:
        rename = {x: next(ids) for x in ts.outcomes}
        tests += [frozenset(rename[x] for x in t) for t in ts.tests]
    rnd.shuffle(tests)
    return TestSpace.build(set().union(*tests), tests)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=30_000), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
def test_per_component_solve_equals_whole_space_reference(seeds, rnd):
    draws = [
        corpus.random_test_space(random.Random(s), max_universe=6, max_tests=6) for s in seeds
    ]
    ts = disjoint_union(draws, rnd)
    assert len(ts.outcomes) <= DEFAULT_DF_CAP
    values, cert = reference_phase1_simplex(ts)
    state = find_state(ts)
    assert (None if state is None else dict(state.values)) == values
    assert infeasibility_certificate(ts) == cert
    solutions = reference_df_states(ts)
    assert [dict(s.values) for s in dispersion_free_states(ts)] == solutions
    assert is_udf(ts) == reference_is_udf(ts, solutions)



def test_dispersion_free_search_deeper_than_the_recursion_limit():
    # One component of 1100 tests: the search goes one level per test.
    others = [f"o{k:02d}" for k in range(23)]
    subsets = [c for r in (1, 2, 3) for c in itertools.combinations(others, r)]
    chosen = random.Random(0).sample(subsets, 1100)
    ts = TestSpace.build(["s", *others], [("s", *c) for c in chosen])
    assert len(ts.tests) == 1100
    (only,) = dispersion_free_states(ts)
    assert only.values == {x: F(x == "s") for x in ts.outcomes}
    assert is_udf(ts) == (False, "o00")
    # The exact simplex on the same component: find_state verifies its state.
    assert find_state(ts) is not None
    assert infeasibility_certificate(ts) is None

# ------------------------------------ reference: the dict-valued 0/1 search

# The dispersion-free search and listing as they ran before the search kept
# its decided outcomes in bitmasks and the listing filled a copied all-zero
# dict; frozen here as the reference.


def frozen_df_masks(tests, bit):
    value = {x: None for x in bit}
    undecided = set(range(len(tests)))
    masks = []

    def candidates(i):
        out = []
        for x in tests[i]:
            if value[x] == 0:
                continue
            if any(value[y] == 1 for y in tests[i] if y != x):
                continue
            out.append(x)
        return out

    stack = []
    while True:
        if undecided:
            i = min(undecided, key=lambda t: (len(candidates(t)), t))
            undecided.discard(i)
            stack.append((i, iter(candidates(i)), []))
        else:
            masks.append(sum(b for x, b in bit.items() if value[x]))
        while stack:
            i, todo, changed = stack[-1]
            for y in changed:
                value[y] = None
            changed.clear()
            x = next(todo, None)
            if x is not None:
                for y in tests[i]:
                    if value[y] is None:
                        value[y] = 1 if y == x else 0
                        changed.append(y)
                break
            stack.pop()
            undecided.add(i)
        if not stack:
            return masks


def df_problems(ts):
    """Per component, the (tests, bit) arguments of the search."""
    n = len(ts.outcomes)
    return [
        ([tuple(sorted(ts.tests[i])) for i in test_idx],
         {ts.outcomes[k]: 1 << (n - 1 - k) for k in out_idx})
        for out_idx, test_idx in components(ts)
    ]


def frozen_df_listing(ts):
    n = len(ts.outcomes)
    weight = {"0": states_module._ZERO, "1": states_module._ONE}
    per_component = [frozen_df_masks(tests, bit) for tests, bit in df_problems(ts)]
    return [
        {x: weight[b] for x, b in zip(ts.outcomes, format(mask, f"0{n}b"))}
        for mask in sorted(map(sum, itertools.product(*per_component)))
    ]


def assert_df_matches_frozen(ts):
    n = len(ts.outcomes)
    for (tests, bit), (_out_idx, test_idx) in zip(df_problems(ts), components(ts)):
        rows = [ts._rows[i] for i in test_idx]
        assert states_module._df_masks(rows, n) == frozen_df_masks(tests, bit)
    got = [list(s.values.items()) for s in dispersion_free_states(ts)]
    assert got == [list(values.items()) for values in frozen_df_listing(ts)]
    shared = (states_module._ZERO, states_module._ONE)
    assert all(any(v is w for w in shared) for items in got for _, v in items)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=30_000))
def test_bitmask_search_equals_the_frozen_dict_search(seed):
    rng = random.Random(seed)
    draws = [corpus.random_test_space(rng, max_universe=10, max_tests=8, min_size=2, max_size=5)
             for _ in range(2)]
    assert_df_matches_frozen(draws[0])
    assert_df_matches_frozen(disjoint_union(draws, rng))


def test_bitmask_search_on_fixed_spaces(spaces):
    for ts in spaces.values():
        assert_df_matches_frozen(ts)
    assert_df_matches_frozen(sample_frames(3, 8, seed=0).to_test_space())  # 6561 states


def test_bitmask_search_on_the_1100_test_component():
    others = [f"o{k:02d}" for k in range(23)]
    subsets = [c for r in (1, 2, 3) for c in itertools.combinations(others, r)]
    chosen = random.Random(0).sample(subsets, 1100)
    ts = TestSpace.build(["s", *others], [("s", *c) for c in chosen])
    assert_df_matches_frozen(ts)


def frozen_byte_table_listing(ts):
    """`dispersion_free_states` as it listed the states through per-byte
    tables of the outcomes each byte value sets to one, before it set the
    mask's bits one by one; kept as the reference."""
    n = len(ts.outcomes)
    tables = [[None] * 256 for _ in range(0, n, 8)]
    zero = dict.fromkeys(ts.outcomes, states_module._ZERO)
    out = []
    for mask in sorted(map(sum, itertools.product(*ts._df_components))):
        values = zero.copy()
        for lo, table in zip(range(0, n, 8), tables):
            byte = mask >> lo & 255
            ones = table[byte]
            if ones is None:
                ones = table[byte] = {
                    ts.outcomes[n - 1 - lo - k]: states_module._ONE for k in range(8) if byte >> k & 1
                }
            values.update(ones)
        out.append(State(values, "exact"))
    return out


def test_listing_by_set_bits_equals_the_frozen_byte_tables():
    """400 draws of up to 24 outcomes, up to three components, interleaved ids."""
    rng = random.Random(27)
    for _ in range(400):
        draws = [corpus.random_test_space(rng, max_universe=8, max_tests=5, min_size=1, max_size=4)
                 for _ in range(rng.randint(1, 3))]
        ts = disjoint_union(draws, rng)
        got, want = dispersion_free_states(ts), frozen_byte_table_listing(ts)
        assert [list(s.values.items()) for s in got] == [list(s.values.items()) for s in want]
        assert all(s.kind == "exact" for s in got)


def test_a_space_builds_its_components_once(monkeypatch):
    builds = []
    walk = TestSpace._components.func
    counted = cached_property(lambda ts: builds.append(ts) or walk(ts))
    counted.__set_name__(TestSpace, "_components")
    monkeypatch.setattr(TestSpace, "_components", counted)
    for ts in (load_test_space(STATELESS_AND_TRIANGLE), sample_frames(3, 5, seed=0).to_test_space()):
        builds.clear()
        find_state(ts)
        infeasibility_certificate(ts)
        dispersion_free_states(ts)
        is_udf(ts)
        assert components(ts) == components(ts)
        assert builds == [ts]


# ------------------------------------------------------------------ memo


def test_certificate_copy_does_not_leak_into_the_memo():
    ts = load_test_space(corpus.gen("stateless"))
    cert = infeasibility_certificate(ts)
    cert[0] = F(-7)
    del cert[1]
    assert infeasibility_certificate(ts) == STATELESS_CERT


def test_equal_spaces_each_run_their_own_solve(monkeypatch):
    calls = []
    solve = states_module._phase1_simplex

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(states_module, "_phase1_simplex", counting)
    first, second = (load_test_space(corpus.gen("stateless")) for _ in range(2))
    assert first == second and first is not second
    for ts in (first, second):
        for _ in range(2):
            assert find_state(ts) is None
            assert infeasibility_certificate(ts) == STATELESS_CERT
    assert len(calls) == 2  # one component each, solved once per instance


def test_dispersion_free_cap_counts_all_outcomes(monkeypatch):
    ts = load_test_space(corpus.gen("two-disjoint"))  # two components, two outcomes each

    def no_search(_ts):
        raise AssertionError("searched before checking the cap")

    with monkeypatch.context() as m:
        m.setattr(states_module, "_search_components", no_search)
        for call in (dispersion_free_states, is_udf):
            with pytest.raises(CapExceededError):
                call(ts, cap=3)
    assert len(dispersion_free_states(ts, cap=4)) == 4
    assert is_udf(ts, cap=4) == (True, None)
