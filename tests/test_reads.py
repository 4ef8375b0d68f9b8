"""The one-pass `.tsp` and `.coords` reads against the per-line parsers.

`load_test_space`, `parse_coords` and `parse_sample` read a text in the
shape that the writers produce in one pass, and leave every other text,
and every error, to their per-line parsers.  The frozen copies below are
those parsers as they were before the one-pass reads; every answer and
every error must be theirs.  The one-pass reads and a space's array checks
start at `_BULK_MIN` lines or tests; these tests lower it to 1, so that
small texts take them too.
"""

from __future__ import annotations

import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from testspaces import core, metric
from testspaces.core import ParseError, TestSpace, TspError, ValidationError, load_test_space
from testspaces.metric import parse_coords, parse_sample, sample_frames, save_sample

from test_cli import EDITS, mutate
from test_core import frozen_test_space, space_inputs


@pytest.fixture(scope="module", autouse=True)
def bulk_from_one():
    with mock.patch.object(core, "_BULK_MIN", 1), mock.patch.object(metric, "_BULK_MIN", 1):
        yield


def frozen_lines(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        toks = line.split()
        if toks:
            yield lineno, line, toks[0], toks[1:]


def frozen_column(line: str, k: int) -> int:
    return next(itertools.islice(re.finditer(r"\S+", line), k, None)).start() + 1


def frozen_load_test_space(text: str) -> TestSpace:
    """`load_test_space` with one pass per line; kept as the reference."""
    outcomes: set[str] | None = None
    tests: list[frozenset[str]] = []
    test_lines: dict[frozenset[str], int] = {}
    for lineno, line, key, toks in frozen_lines(text):
        if key == "outcomes":
            if outcomes is not None:
                raise ParseError("second outcomes line", lineno, frozen_column(line, 0))
            if not toks:
                raise ParseError("outcomes line lists no ids", lineno, frozen_column(line, 0))
            outcomes = set(toks)
            if len(outcomes) != len(toks):
                seen: set[str] = set()
                for k, tok in enumerate(toks, start=1):
                    if tok in seen:
                        raise ParseError(
                            f"duplicate outcome id {tok!r}", lineno, frozen_column(line, k)
                        )
                    seen.add(tok)
        elif key == "test":
            if outcomes is None:
                raise ParseError("test line before outcomes line", lineno, frozen_column(line, 0))
            if not toks:
                raise ParseError("empty test", lineno, frozen_column(line, 0))
            fs = frozenset(toks)
            if len(fs) != len(toks) or not fs <= outcomes:
                members: set[str] = set()
                for k, tok in enumerate(toks, start=1):
                    if tok not in outcomes:
                        raise ParseError(
                            f"unknown outcome id {tok!r}", lineno, frozen_column(line, k)
                        )
                    if tok in members:
                        raise ParseError(
                            f"outcome id {tok!r} repeated within a test",
                            lineno,
                            frozen_column(line, k),
                        )
                    members.add(tok)
            if fs in test_lines:
                raise ParseError(
                    f"duplicate test (same outcome set as line {test_lines[fs]})",
                    lineno,
                    frozen_column(line, 0),
                )
            test_lines[fs] = lineno
            tests.append(fs)
        else:
            raise ParseError(f"unknown directive {key!r}", lineno, frozen_column(line, 0))
    if outcomes is None:
        raise ParseError("missing outcomes line", 1, 1)
    if not tests:
        raise ParseError("no test lines", 1, 1)
    return TestSpace.build(outcomes, tests)


def frozen_parse_coords(text: str) -> dict[str, tuple[float, ...]]:
    """`parse_coords` with one pass per line; kept as the reference."""
    out: dict[str, tuple[float, ...]] = {}
    dim = None
    for lineno, line, key, toks in frozen_lines(text):
        if key != "outcome":
            raise ParseError(f"unknown directive {key!r}", lineno, frozen_column(line, 0))
        if len(toks) < 2:
            raise ParseError(
                "outcome line needs an id and coordinates", lineno, frozen_column(line, 0)
            )
        ident, *values = toks
        if ident in out:
            raise ParseError(
                f"duplicate coordinates for {ident!r}", lineno, frozen_column(line, 1)
            )
        vals = []
        for k, tok in enumerate(values, start=2):
            try:
                vals.append(float(tok))
            except ValueError:
                raise ParseError(
                    f"bad coordinate {tok!r}", lineno, frozen_column(line, k)
                ) from None
        if dim is None:
            dim = len(vals)
        elif len(vals) != dim:
            raise ParseError(
                f"expected {dim} coordinates, got {len(vals)}", lineno, frozen_column(line, 2)
            )
        out[ident] = tuple(vals)
    if not out:
        raise ParseError("no outcome lines", 1, 1)
    return out


def frozen_parse_sample(tsp_text: str, coords_text: str):
    """`parse_sample` on the two frozen parsers; kept as the reference."""
    ts = frozen_load_test_space(tsp_text)
    coords = frozen_parse_coords(coords_text)
    missing = [x for x in ts.outcomes if x not in coords]
    if missing:
        raise ValidationError(f"coordinates missing for outcomes {missing[:5]}")
    extra = sorted(set(coords) - set(ts.outcomes))
    if extra:
        raise ValidationError(f"coordinates for unknown outcomes {extra[:5]}")
    return ts, np.array([coords[x] for x in ts.outcomes], dtype=float)


def outcome(f, *args):
    """A comparable outcome: the space, the sidecar's repr (which tells nan,
    -0.0 and 1e-320 apart), or the error's type name and text."""
    try:
        got = f(*args)
    except TspError as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(got, TestSpace):
        return ("space", got, got._rows)
    if isinstance(got, dict):
        return ("coords", repr(got))
    ts, pts = got
    return ("sample", ts, ts._rows, pts.shape, pts.tobytes())


def same(f, frozen, *args):
    assert outcome(f, *args) == outcome(frozen, *args)


@pytest.fixture(scope="module")
def texts(tmp_path_factory):
    """The .tsp and .coords texts of a small sample at d = 3, with a frames
    header, and at d = 11, whose ids are not sorted (f….10 before f….2)."""
    path = tmp_path_factory.mktemp("reads")
    out = {}
    for d, header in ((3, "frames dim=3 count=4 seed=5"), (11, None)):
        save_sample(sample_frames(d, 4, 5), path / f"s{d}.tsp", header=header)
        out[d] = ((path / f"s{d}.tsp").read_text(), (path / f"s{d}.coords").read_text())
    return out


COORD_CASES = [
    "outcome a 1 0\noutcome b 0 1\n",
    "outcome a 1 2 3 outcome\nb 4 5 6\n",  # passes a stride check, refused per line
    "outcome a 1 0 outcome\noutcome b 0 1\n",
    "outcome a 1 0 0\noutcome b 0\n",  # a token long, then a token short
    "outcome a 1 0\noutcome b 0 1 2\noutcome c 1\n",
    "outcome a 1 0\noutcome b 0 1 outcome\nc 1 0\n",  # keywords where a stride puts them
    "outcome outcome 1 0\noutcome test 0 1\n",  # ids equal to the directives
    "outcome outcome 1 0\noutcome outcome 0 1\n",
    "outcome a 1 0\r\noutcome b 0 1\r\n",
    "outcome\ta 1 0\noutcome b\t0 1\n",
    "outcome a 1 0 \noutcome b 0 1\n",
    "outcome a 1 0\n\noutcome b 0 1\n",
    "# head\noutcome a 1 0\noutcome b 0 1 # tail\n",
    "outcome a#1 1 0\n",
    "outcome a 1 0\noutcome b 0 1",  # no final newline
    "outcome a 1_0 nan\noutcome b -0.0 1e-320\n",
    "outcome a 1 0\noutcome a 0 1\n",
    "outcome a 1 q\n",
    "outcome a\noutcome b\n",
    "point a 1 0\n",
    "outcome a 1 0\x0boutcome b 0 1\n",
    "outcome a 1 0\x85outcome b 0 1\n",
    "outcome a 1 0\n",
    "",
    "\n",
]

SPACE_CASES = [
    "outcomes a b c d\ntest a b\ntest c d\n",
    "outcomes a b c d\ntest a b test\nc d\n",  # a token long, then a token short
    "outcomes a b c d e f\ntest a b\ntest c d test\ne f\n",
    "outcomes a b c d test\ntest a b\ntest c d\n",
    "outcomes outcomes test\ntest outcomes test\n",  # ids equal to the directives
    "outcomes test a\ntest test a\n",
    "outcomes a b\ntest a b\r\n",
    "outcomes a b\r\ntest a b\r\n",
    "outcomes a\tb\ntest a b\n",
    "outcomes a b \ntest a b\n",
    "outcomes a b\n\ntest a b\n",
    "# head\n# more\noutcomes a b\ntest a b\n",
    "# head\routcomes a b\ntest a b\n",
    "outcomes a b\n# mid\ntest a b\n",
    "outcomes a b\ntest a b # tail\n",
    "outcomes a b\ntest a b",  # no final newline
    "outcomes a b c d\ntest a b\ntest b a\n",  # a duplicate test
    "outcomes a b c d\ntest a b\ntest c e\n",  # an unknown id
    "outcomes a b c d\ntest a a\ntest c d\n",  # an id repeated within a test
    "outcomes a b\ntest a b\ntest b b\n",  # ... where the sets would make a space
    "outcomes a b c d\ntest a b\n",  # uncovered outcomes
    "outcomes a b a\ntest a b\n",
    "outcomes a b c\ntest a b\ntest c\n",  # tests of two sizes
    "outcomes\ntest a\n",
    "test a b\noutcomes a b\n",
    "outcomes a b\noutcomes a b\ntest a b\n",
    "outcomes a b\ntest\n",
    "outcomes a b\n",
    "",
]


@pytest.mark.parametrize("text", COORD_CASES)
def test_parse_coords_hand_cases_equal_the_per_line_parser(text):
    same(parse_coords, frozen_parse_coords, text)


@pytest.mark.parametrize("text", SPACE_CASES)
def test_load_test_space_hand_cases_equal_the_per_line_parser(text):
    same(load_test_space, frozen_load_test_space, text)


def shifted(text: str, shifts) -> str:
    """Move the first token of each named line to the end of the line
    before it: one line a token long, the next a token short, and the
    tokens in the same order."""
    lines = [line.split(" ") for line in text.splitlines()]
    for i in shifts:
        k = 1 + i % max(len(lines) - 1, 1)
        if k < len(lines) and lines[k]:
            lines[k - 1].append(lines[k].pop(0))
    return "".join(" ".join(line) + "\n" for line in lines)


@settings(max_examples=200, deadline=None)
@given(
    d=st.sampled_from([3, 11]),
    which=st.sampled_from(["tsp", "coords"]),
    edits=EDITS,
    shifts=st.lists(st.integers(0, 40), max_size=2),
)
@example(d=3, which="coords", edits=[], shifts=[])
@example(d=11, which="tsp", edits=[], shifts=[])
@example(d=3, which="coords", edits=[], shifts=[2])
@example(d=3, which="tsp", edits=[], shifts=[3])
@example(d=3, which="coords", edits=[("set", 2, 1, "outcome")], shifts=[])
@example(d=3, which="tsp", edits=[("set", 1, 1, "test")], shifts=[])
def test_mutated_reads_equal_the_per_line_parsers(texts, d, which, edits, shifts):
    tsp, coords = texts[d]
    if which == "tsp":
        tsp = shifted(mutate(tsp, edits), shifts)
        same(load_test_space, frozen_load_test_space, tsp)
    else:
        coords = shifted(mutate(coords, edits), shifts)
        same(parse_coords, frozen_parse_coords, coords)
    same(parse_sample, frozen_parse_sample, tsp, coords)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([3, 11]), seed=st.integers(0, 2**32 - 1))
def test_sidecar_rows_in_any_order_are_placed_by_the_space(texts, d, seed):
    """Sidecar lines shuffled, dropped or doubled: the rows follow the
    outcome order, or the error is the per-line reader's."""
    tsp, coords = texts[d]
    rng = np.random.default_rng(seed)
    lines = coords.splitlines(keepends=True)
    picked = rng.choice(len(lines), size=len(lines) + int(rng.integers(-1, 2)))
    if seed % 2:
        picked = rng.permutation(len(lines))
    same(parse_sample, frozen_parse_sample, tsp, "".join(lines[k] for k in picked))


def test_written_texts_take_the_one_pass_reads(texts):
    """What the writers produce is read in one pass, at both dimensions, as
    are CRLF line ends and the float spellings of the hand cases."""
    for tsp, coords in texts.values():
        assert core._uniform_space(tsp) == frozen_load_test_space(tsp)
        ids, points = metric._coords_grid(coords)
        assert dict(zip(ids, map(tuple, points.tolist()))) == frozen_parse_coords(coords)
    assert core._uniform_space("outcomes a b\r\ntest a b\r\n") is not None
    assert metric._coords_grid("outcome a 1 0\r\noutcome b 0 1\r\n") is not None
    assert metric._coords_grid("outcome a 1_0 nan\noutcome b -0.0 1e-320\n") is not None


@settings(max_examples=400, deadline=None)
@given(space_inputs())
def test_space_array_checks_equal_the_frozen_name_passes(inputs):
    """`test_space_checks_equal_the_frozen_name_passes` with the array
    checks on at every size: spaces of one test size take them."""
    try:
        ts = TestSpace(*inputs)
        got = (ts._index, ts._rows)
    except ValidationError as exc:
        got = str(exc)
    assert got == frozen_test_space(*inputs)


def test_small_texts_and_spaces_keep_the_per_item_passes(texts):
    """At the default _BULK_MIN a 4-frame text is read line by line and its
    space checked test by test; a 40-frame one takes the one-pass read and
    the array checks."""
    with mock.patch.object(core, "_BULK_MIN", 32), mock.patch.object(metric, "_BULK_MIN", 32):
        tsp, coords = texts[3]
        assert core._uniform_space(tsp) is None and metric._coords_grid(coords) is None
        assert load_test_space(tsp)._row_array is None
        s = sample_frames(3, 40, 1)
        text = core.dump_test_space(s.to_test_space())
        assert core._uniform_space(text)._row_array.shape == (40, 3)
        rows = zip(s.ids, s.coords.tolist())
        sidecar = "".join(f"outcome {x} {' '.join(map(repr, p))}\n" for x, p in rows)
        assert metric._coords_grid(sidecar) is not None
