"""Finite test spaces: outcomes, tests, events, orthogonality.

A test space is a nonempty set of outcome ids together with a covering
family of nonempty tests (the outcome sets of the available experiments).
Two outcomes are orthogonal when they are distinct and share a test.  An
event is any subset of a test; two events are complementary when they are
disjoint and partition a test, and perspective when they are complementary
to a common third event.

Everything here is immutable and deterministic: outcomes are kept in
lexicographic order, tests in input order, and events are ordered by
(size, sorted member tuple).  Each test is also kept as its row, the
ascending indices of its members: the one member order every layer reads.
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

import numpy as np

DEFAULT_EVENT_CAP = 1 << 20  # bound on sum of 2**len(test) before enumerating
DENSE_TABLE_CAP = 4096  # most elements of a logic or sum table, stored as a dense n-by-n table

class TspError(Exception):
    """Base class for all library errors."""


class ParseError(TspError):
    """Malformed textual input, with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class ValidationError(TspError):
    """A structural invariant of the input does not hold."""


class UnknownOutcomeError(TspError):
    """An outcome id is not part of the space."""


class EncodingError(TspError):
    """The bytes of an input are not UTF-8 text."""


class CapExceededError(TspError):
    """An exhaustive enumeration would exceed its configured cap."""

    def __init__(self, message: str, needed: int, cap: int):
        super().__init__(f"{message} (needed {needed}, cap {cap})")
        self.needed = needed
        self.cap = cap


_TOKEN = re.compile(r"\S+")


def _read_text(path, data: bytes | None = None) -> str:
    """The file at path, or the bytes `data` read from it, as UTF-8 text with
    universal newlines, as a text-mode read gives it; bytes that are not
    UTF-8 raise EncodingError naming the file and the offset."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{os.fspath(path)}: not UTF-8 text at byte {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _lines(text: str, directives):
    """Yield a line record, `(line number, line, directive, [token, ...])`,
    per line of a text whose directives are `directives`.

    The shared lexer of every text format: lines are those of
    str.splitlines(), `#` starts a comment anywhere, tokens are separated by
    whitespace, and lines left without tokens are skipped.  `line` is the
    line without its comment, on which `_error` places an error.  A line
    whose directive is not one of `directives` is refused when it is
    reached.  The record is a plain tuple: a NamedTuple one made lexing
    about a third slower.
    """
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        toks = line.split()
        if toks:
            rec = lineno, line, toks[0], toks[1:]
            if toks[0] not in directives:
                raise _error(rec, f"unknown directive {toks[0]!r}")
            yield rec


def _error(rec, message: str, k: int = 0) -> ParseError:
    """A ParseError at token k of a line record (0 is the directive)."""
    return ParseError(message, rec[0], _column(rec[1], k))


def _name_error(rec, known, unknown: str = "", repeated: str = "") -> ParseError:
    """The error at the first token of a line record that is not in `known`
    (unless known is None) or, when `repeated` is given, repeats an earlier
    token; the messages format that token.  Called only on a line that has
    one."""
    seen: set[str] = set()
    for k, tok in enumerate(rec[3], start=1):
        if known is not None and tok not in known:
            return _error(rec, unknown.format(tok), k)
        if repeated and tok in seen:
            return _error(rec, repeated.format(tok), k)
        seen.add(tok)


_GRID_LINES = 128  # lines lexed at a time by the one-pass readers
# the fewest tests (or lines) for the array checks and the one-pass reads:
# below about 30 their fixed numpy and join costs lose to the per-item passes
_BULK_MIN = 32


def _grid(lines: list[str], key: str, size: int):
    """Yield the tokens after `key` of each _GRID_LINES lines, as one flat
    list a block, where every line is `key` and `size` more tokens joined by
    single spaces, with no `#`: `_lines` lexes such lines to this directive
    and these very tokens, so a reader may take them in one pass.  At the
    first block of any other shape yield None and stop; the per-line
    parsers read such text."""
    width = size + 1
    for s in range(0, len(lines), _GRID_LINES):
        block = lines[s : s + _GRID_LINES]
        body = "\n".join(block)
        tokens = body.split()
        if (
            len(tokens) != width * len(block)
            or "#" in body
            or tokens[::width].count(key) != len(block)
            or "\n".join(map(" ".join, zip(*[iter(tokens)] * width))) != body
        ):
            yield None
            return
        del tokens[::width]
        yield tokens


def _column(line: str, k: int) -> int:
    """The 1-based column of token k of a lexed line (0 is the directive)."""
    return next(itertools.islice(_TOKEN.finditer(line), k, None)).start() + 1


def _index_rows(index: dict[str, int], tests) -> tuple[tuple[int, ...], ...]:
    """Each test as the indices of its members in name order, for ids in any
    order; a KeyError names an unknown member."""
    return tuple([tuple([index[x] for x in sorted(t)]) for t in tests])


def _repeats(rows: np.ndarray) -> bool:
    """Do two rows of the 2-D int array hold the same entries in the same
    order?  Sorted lexicographically, such rows are neighbours."""
    if not rows.shape[1]:
        return len(rows) > 1
    rows = rows[np.lexsort(rows.T[::-1])]
    return bool((rows[1:] == rows[:-1]).all(axis=1).any())


def _uniform_rows(index: dict[str, int], tests) -> np.ndarray | None:
    """The tests as one (tests, size) array of ascending indices, when there
    are at least _BULK_MIN of them, they share one size and name only ids of
    the index; None otherwise, and the per-test pass decides."""
    if len(tests) < _BULK_MIN:
        return None
    sizes = set(map(len, tests))
    if len(sizes) != 1 or 0 in sizes:
        return None
    size = sizes.pop()
    try:
        members = itertools.chain.from_iterable(tests)
        flat = np.fromiter(map(index.__getitem__, members), np.intp, size * len(tests))
    except KeyError:
        return None
    # each test's indices ascending, by one sort of the (test, index) pairs
    return flat[np.lexsort((flat, np.arange(len(flat)) // size))].reshape(-1, size)


def _row_space(outcomes, tests, rows, index=None) -> TestSpace:
    """TestSpace(outcomes, tests), for tests already read as `rows`, one
    (tests, size) int array of ascending indices into the sorted outcomes
    (or None), and `index`, the outcome -> position dict (or None): the
    space takes both as its own instead of looking the names up, and checks
    the rows with the array checks of every space; rows they refuse go
    through the per-test pass, which names the first fault."""
    ts = object.__new__(TestSpace)
    object.__setattr__(ts, "_index", index)
    object.__setattr__(ts, "_row_array", rows)
    ts.__init__(outcomes, tests)
    return ts


def _tests_containing(ts: TestSpace, m: frozenset[str]):
    """Yield, ascending, the indices of the tests of ts that contain all of m.

    Only the tests that contain the member held by the fewest tests are
    tried; an unknown member is in no test, and the empty set is in all.
    """
    if not m:
        yield from range(len(ts.tests))
        return
    indptr, holders = ts._incidence
    try:
        k = min([ts._index[x] for x in m], key=lambda k: indptr[k + 1] - indptr[k])
    except KeyError:
        return
    for i in holders[indptr[k] : indptr[k + 1]]:
        if m <= ts.tests[i]:
            yield i


@dataclass(frozen=True)
class TestSpace:
    """Outcome ids in lexicographic order plus the covering test family.

    `_index` maps an outcome to its position; `_rows` holds each test as its
    members' ascending positions, the one member order every layer reads.
    Both come from the one pass that checks the tests.  When the tests share
    one size, that pass runs on one (tests, size) array of the rows, kept as
    `_row_array` (None for mixed sizes), and `_rows` is read off it on first
    use; a space it refuses goes through the per-test pass, which names the
    first fault.  `_row_space` hands in an index and a row array already
    built, which the same checks then read.  The transpose of the rows,
    `_incidence`, and the components read off it are built on first read.
    """

    outcomes: tuple[str, ...]
    tests: tuple[frozenset[str], ...]

    def __post_init__(self):
        if not self.outcomes:
            raise ValidationError("a test space needs at least one outcome")
        given = self.__dict__  # `_row_space` sets `_index` and `_row_array` first
        index = given.get("_index") or dict(zip(self.outcomes, range(len(self.outcomes))))
        if len(index) != len(self.outcomes):
            raise ValidationError("duplicate outcome ids")
        if list(self.outcomes) != sorted(self.outcomes):
            raise ValidationError("outcomes must be lexicographically sorted")
        if not self.tests:
            raise ValidationError("a test space needs at least one test")
        # outcomes are sorted, so a row's ascending indices are its name order
        array = given.get("_row_array")
        if array is None:
            array = _uniform_rows(index, self.tests)
        # one array check: the rows cover every outcome and are distinct
        covered = array is not None and np.bincount(array.ravel(), minlength=len(index)).all()
        array = array if covered and not _repeats(array) else None
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_row_array", array)
        if array is not None:
            return
        first: dict[tuple[int, ...], int] = {}
        for i, test in enumerate(self.tests):
            if not test:
                raise ValidationError(f"test {i} is empty")
            try:
                row = tuple(sorted([index[x] for x in test]))
            except KeyError:
                raise ValidationError(
                    f"test {i} uses unknown outcomes {sorted(test - index.keys())}"
                ) from None
            if first.setdefault(row, i) != i:
                raise ValidationError(f"test {i} duplicates test {first[row]}")
        covered = set().union(*first)
        if len(covered) != len(index):
            uncovered = [x for k, x in enumerate(self.outcomes) if k not in covered]
            raise ValidationError(f"outcomes not covered by any test: {uncovered}")
        object.__setattr__(self, "_rows", tuple(first))

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows of `_row_array`, as tuples of the index's own int objects,
        so that the tuples hold no ints of their own (the per-test pass sets
        `_rows` itself)."""
        rows = self._row_array
        flat = np.array(list(self._index.values()), dtype=object)[rows.ravel()].tolist()
        return tuple(zip(*[iter(flat)] * rows.shape[1]))

    @staticmethod
    def build(outcomes: Iterable[str], tests: Iterable[Iterable[str]]) -> "TestSpace":
        return TestSpace(tuple(sorted(outcomes)), tuple(frozenset(t) for t in tests))

    @cached_property
    def _incidence(self) -> tuple[list[int], list[int]]:
        """(indptr, holders): the tests holding outcome k are
        holders[indptr[k] : indptr[k + 1]], ascending; the transpose of the
        rows, built on first read by one stable argsort of them laid flat."""
        array = self._row_array
        if array is None:
            flat = np.fromiter(itertools.chain.from_iterable(self._rows), np.intp)
            test = np.repeat(np.arange(len(self._rows)), list(map(len, self._rows)))
        else:
            flat = array.ravel()
            test = np.arange(flat.size) // array.shape[1]
        indptr = np.concatenate(([0], np.bincount(flat, minlength=len(self.outcomes)).cumsum()))
        return indptr.tolist(), test[np.argsort(flat, kind="stable")].tolist()

    @cached_property
    def test_set(self) -> frozenset[frozenset[str]]:
        return frozenset(self.tests)

    @cached_property
    def _components(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """core.components, once per instance: a walk over the incidence from
        each test that no walk has reached yet, in test order."""
        indptr, holders = self._incidence
        reached, seen = bytearray(len(self.tests)), bytearray(len(self.outcomes))
        found = []
        for start in range(len(self.tests)):
            if not reached[start]:
                reached[start], tests, outs = 1, [start], []
                for i in tests:  # grows as the walk reaches tests
                    for k in self._rows[i]:
                        if not seen[k]:
                            seen[k] = 1
                            outs.append(k)
                            for j in holders[indptr[k] : indptr[k + 1]]:
                                if not reached[j]:
                                    reached[j] = 1
                                    tests.append(j)
                found.append((tuple(sorted(outs)), tuple(sorted(tests))))
        return tuple(found)

    @cached_property
    def _state_solution(self):
        """The exact state-or-certificate solve of `states`, done once per instance."""
        from .states import _solve_states

        return _solve_states(self)

    @cached_property
    def _enumeration(self) -> tuple[list[tuple[int, ...]], list[int], list[list[int]]]:
        """(subsets, witnesses, by_test) from one pass over the rows, once per instance.

        Test i's subsets are index tuples in mask order, bit j picking row
        member j.  Sorted by (size, tuple), the distinct ones are the events
        in event_key order, kept as their index tuples; witnesses[k] is the
        lowest test holding subsets[k], and by_test[i][mask] is the position
        among them of the one mask picks.  Events are built by `_events_at`."""
        first: dict[tuple[int, ...], int] = {}
        per_test = []
        for i, row in enumerate(self._rows):
            subsets = [()]
            for k in row:
                subsets += [s + (k,) for s in subsets]
            for s in subsets:
                first.setdefault(s, i)
            per_test.append(subsets)
        keys = sorted(first)
        keys.sort(key=len)  # stable: (size, tuple) order
        witnesses = list(map(first.__getitem__, keys))
        number = first  # reused in place: each subset's position among the keys
        number.update(zip(keys, range(len(keys))))
        return keys, witnesses, [list(map(number.__getitem__, subsets)) for subsets in per_test]

    def _events_at(self, positions: Iterable[int]) -> tuple[Event, ...]:
        """The events at the given positions of the enumeration, built from
        their index tuples and witnesses."""
        keys, witnesses, _ = self._enumeration
        names = self.outcomes
        return tuple([Event(frozenset([names[j] for j in keys[k]]), witnesses[k]) for k in positions])

    @cached_property
    def _event_structure(self):
        """logic._events_and_complements, once per instance; readers check the event cap first."""
        from .logic import _events_and_complements

        return _events_and_complements(self)

    @cached_property
    def _df_components(self):
        """The dispersion-free states of each component, searched once per instance."""
        from .states import _search_components

        return _search_components(self)

    @property
    def rank(self) -> int:
        return max(len(t) for t in self.tests)

    def containing(self, outcome: str) -> frozenset[int]:
        """Indices of the tests that contain the given outcome."""
        try:
            k = self._index[outcome]
        except KeyError:
            raise UnknownOutcomeError(f"unknown outcome {outcome!r}") from None
        indptr, holders = self._incidence
        return frozenset(holders[indptr[k] : indptr[k + 1]])


@dataclass(frozen=True)
class Event:
    """A subset of some test, with one witnessing test index."""

    members: frozenset[str]
    witness_test: int


EventLike = Union[Event, Iterable[str]]


def member_set(obj: EventLike) -> frozenset[str]:
    """Normalize an Event or an iterable of outcome ids to a frozenset."""
    if isinstance(obj, Event):
        return obj.members
    if isinstance(obj, str):
        raise TypeError("pass an iterable of outcome ids, not a bare string")
    return frozenset(obj)


def event_key(obj: EventLike) -> tuple[int, tuple[str, ...]]:
    """Deterministic sort key for events: size, then sorted member tuple."""
    m = member_set(obj)
    return (len(m), tuple(sorted(m)))


def is_event(ts: TestSpace, members: EventLike) -> bool:
    m = member_set(members)
    return next(_tests_containing(ts, m), None) is not None


def as_event(ts: TestSpace, members: EventLike) -> Event:
    """Wrap a member set as an Event, witnessed by the lowest containing test."""
    m = member_set(members)
    i = next(_tests_containing(ts, m), None)
    if i is None:
        raise ValidationError(f"{sorted(m)} is not a subset of any test")
    return Event(m, i)


def orthogonal(ts: TestSpace, x: str, y: str) -> bool:
    """Outcomes are orthogonal iff distinct and contained in a common test."""
    tests = ts.containing(x)  # validates x also where y is x
    return x != y and not tests.isdisjoint(ts.containing(y))


def components(ts: TestSpace) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The connected components: tests joined whenever they share an outcome.

    Each component is (outcome indices, test indices), both ascending, and
    the components come in the order of their first tests; a space finds
    them once."""
    return list(ts._components)


def _by_size(rows) -> dict[int, np.ndarray]:
    """Each test size's rows, in test order, as one (tests, size) int array."""
    sizes = set(map(len, rows))
    if len(sizes) == 1:
        size = sizes.pop()
        flat = np.fromiter(itertools.chain.from_iterable(rows), np.intp, size * len(rows))
        return {size: flat.reshape(len(rows), size)}
    groups = {k: [r for r in rows if len(r) == k] for k in sizes}
    return {k: np.array(g, dtype=np.intp).reshape(len(g), k) for k, g in groups.items()}


def _check_event_cap(ts: TestSpace, cap: int) -> None:
    needed = sum(2 ** len(test) for test in ts.tests)
    if needed > cap:
        raise CapExceededError("event enumeration too large", needed, cap)


def enumerate_events(ts: TestSpace, cap: int = DEFAULT_EVENT_CAP) -> list[Event]:
    """All events (subsets of tests), deduplicated, in deterministic order.

    The pre-enumeration work bound is sum(2**len(test)); if it exceeds
    `cap` a CapExceededError is raised, on every call, before the events
    are read; a space enumerates them once and builds the Events on each call.
    """
    _check_event_cap(ts, cap)
    return list(ts._events_at(range(len(ts._enumeration[0]))))


def complementary(ts: TestSpace, a: EventLike, b: EventLike) -> bool:
    """True iff the two events are disjoint and their union is a test."""
    ma, mb = member_set(a), member_set(b)
    return ma.isdisjoint(mb) and (ma | mb) in ts.test_set


def orthogonal_events(ts: TestSpace, a: EventLike, b: EventLike) -> bool:
    """True iff the two events are disjoint and their union is again an event."""
    ma, mb = member_set(a), member_set(b)
    return ma.isdisjoint(mb) and is_event(ts, ma | mb)


def complements_of(ts: TestSpace, a: EventLike) -> frozenset[frozenset[str]]:
    """All events complementary to `a`: the test remainders over tests containing it."""
    m = member_set(a)
    return frozenset(ts.tests[i] - m for i in _tests_containing(ts, m))


def perspective(ts: TestSpace, a: EventLike, b: EventLike) -> bool:
    """True iff the two events are complementary to a common third event."""
    return bool(complements_of(ts, a) & complements_of(ts, b))


def redundant_test_pairs(ts: TestSpace) -> tuple[tuple[int, int], ...]:
    """Diagnostic: pairs (i, j) where test i is a proper subset of test j.

    The tests are distinct, so every other test holding all of test i is one."""
    return tuple(
        (i, j) for i, test in enumerate(ts.tests) for j in _tests_containing(ts, test) if j != i
    )


def load_test_space(text: str) -> TestSpace:
    """Parse test-space text: one `outcomes` line, then one `test` line per test.

    `#` starts a comment anywhere; blank lines are ignored.  Errors carry
    1-based line/column positions.  A text that `_uniform_space` does not
    take is read line by line, and only that parser reports errors.
    """
    ts = _uniform_space(text)
    return _parse_space_lines(text) if ts is None else ts


def _uniform_space(text: str) -> TestSpace | None:
    """The space of a text in the shape that `dump_test_space` writes: `#`
    lines first, then one `outcomes` line and `test` lines of one size, each
    of single-space-separated tokens, at least _BULK_MIN lines after the
    header (a shorter text is read line by line at once); the lines lex as
    `_lines` lexes them.
    None for any other text, and for one that the per-line parser refuses
    (a repeated id, an unknown or repeated member, a duplicate test) or
    whose space refuses it, which is left to the per-line parser to report.
    """
    if text.count("\n") < _BULK_MIN:
        return None
    lines = text.splitlines()
    h = 0
    while h < len(lines) and lines[h].startswith("#"):
        h += 1
    if h + 1 >= len(lines) or len(lines) - h < _BULK_MIN:
        return None
    ids = lines[h].split()[1:]
    size = len(lines[h + 1].split()) - 1
    if not ids or size < 1 or len(set(ids)) != len(ids):
        return None
    if next(_grid(lines[h : h + 1], "outcomes", len(ids))) is None:
        return None
    tests: list[frozenset[str]] = []
    for members in _grid(lines[h + 1 :], "test", size):
        if members is None:
            return None
        tests += map(frozenset, zip(*[iter(members)] * size))
    if sum(map(len, tests)) != size * len(tests):  # an id repeated within a test
        return None
    try:
        return TestSpace(tuple(sorted(ids)), tuple(tests))
    except ValidationError:
        return None


def _parse_space_lines(text: str) -> TestSpace:
    """load_test_space, one line at a time."""
    outcomes: set[str] | None = None
    test_lines: dict[frozenset[str], int] = {}  # each test, in file order, to its line
    for rec in _lines(text, ("outcomes", "test")):
        lineno, _, key, toks = rec
        if key == "outcomes":
            if outcomes is not None:
                raise _error(rec, "second outcomes line")
            if not toks:
                raise _error(rec, "outcomes line lists no ids")
            outcomes = set(toks)
            if len(outcomes) != len(toks):
                raise _name_error(rec, None, repeated="duplicate outcome id {!r}")
            continue
        if outcomes is None:
            raise _error(rec, "test line before outcomes line")
        if not toks:
            raise _error(rec, "empty test")
        fs = frozenset(toks)
        if len(fs) != len(toks) or not fs <= outcomes:
            raise _name_error(
                rec, outcomes, "unknown outcome id {!r}", "outcome id {!r} repeated within a test"
            )
        if fs in test_lines:
            raise _error(rec, f"duplicate test (same outcome set as line {test_lines[fs]})")
        test_lines[fs] = lineno
    if outcomes is None:
        raise ParseError("missing outcomes line", 1, 1)
    if not test_lines:
        raise ParseError("no test lines", 1, 1)
    return TestSpace(tuple(sorted(outcomes)), tuple(test_lines))


def dump_test_space(ts: TestSpace, header: str | None = None) -> str:
    """Serialize a test space back to its textual form (deterministic).

    An outcome id that is empty or holds whitespace or `#` would read back
    as other ids, so it raises ValidationError."""
    head = "outcomes " + " ".join(ts.outcomes)
    if head.split() != ["outcomes", *ts.outcomes] or "#" in head:
        bad = next(x for x in ts.outcomes if x.split() != [x] or "#" in x)
        raise ValidationError(
            f"outcome id {bad!r} cannot be written: an id needs at least one "
            "character and no whitespace or '#'"
        )
    names = ts.outcomes
    lines = [f"# {h}" for h in (header or "").splitlines()]
    lines.append(head)
    lines += ["test " + " ".join([names[k] for k in row]) for row in ts._rows]
    return "\n".join(lines) + "\n"
