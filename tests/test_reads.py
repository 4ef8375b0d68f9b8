"""The four text readers against frozen copies of their per-line parsers.

`load_test_space`, `parse_coords` and `parse_sample` read a text in the
shape that the writers produce in one pass, and leave every other text,
and every error, to their per-line parsers.  Those parsers, `loads_oa` and
`load_basis` share one line reader.  The frozen copies below are the four
parsers as they were before either change; every answer and every error,
with its type, message, line and column, must be theirs.  The one-pass
reads and a space's array checks start at `_BULK_MIN` lines or tests;
these tests lower it to 1, so that small texts take them too.
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
from testspaces.logic import OrthoalgebraTable, boolean_oa, loads_oa
from testspaces.metric import (
    VietorisBasicOpen,
    load_basis,
    parse_coords,
    parse_sample,
    sample_frames,
    save_sample,
)

from test_cli import EDITS, FUZZ_BASIS, mutate, oa_file_text
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


def frozen_loads_oa(text: str) -> OrthoalgebraTable:
    """`loads_oa` with its own checks on each line; kept as the reference."""
    elements: list[str] | None = None
    known: set[str] = set()
    bound: dict[str, str] = {}
    sums: list[tuple[str, str, str]] = []
    stated: set[frozenset[str]] = set()
    for lineno, line, key, names in frozen_lines(text):
        if key == "elements":
            if elements is not None:
                raise ParseError("second elements line", lineno, frozen_column(line, 0))
            if not names:
                raise ParseError("elements line lists no names", lineno, frozen_column(line, 0))
            known = set(names)
            if len(known) != len(names):
                raise ParseError("duplicate element name", lineno, frozen_column(line, 0))
            elements = names
            continue
        if key not in ("zero", "one", "sum"):
            raise ParseError(f"unknown directive {key!r}", lineno, frozen_column(line, 0))
        if elements is None:
            raise ParseError(f"{key} line before elements line", lineno, frozen_column(line, 0))
        if key == "sum" and len(names) != 3:
            raise ParseError("sum line needs three names: p q r", lineno, frozen_column(line, 0))
        if key != "sum" and len(names) != 1:
            raise ParseError(f"{key} line needs exactly one name", lineno, frozen_column(line, 0))
        for k, tok in enumerate(names, start=1):
            if tok not in known:
                raise ParseError(f"unknown element {tok!r}", lineno, frozen_column(line, k))
        if key != "sum":
            if key in bound:
                raise ParseError(f"second {key} line", lineno, frozen_column(line, 0))
            bound[key] = names[0]
            continue
        pair = frozenset(names[:2])
        if pair in stated:
            raise ParseError(
                f"duplicate sum for pair ({names[0]}, {names[1]})", lineno, frozen_column(line, 0)
            )
        stated.add(pair)
        sums.append((names[0], names[1], names[2]))
    if elements is None:
        raise ParseError("missing elements line", 1, 1)
    for key in ("zero", "one"):
        if key not in bound:
            raise ParseError(f"missing {key} line", 1, 1)
    return OrthoalgebraTable(elements, bound["zero"], bound["one"], sums)


def frozen_load_basis(text: str) -> tuple[VietorisBasicOpen, ...]:
    """`load_basis` with its own float reads per token; kept as the reference."""
    opens: list[tuple[int, str, list[tuple[list[float], float]]]] = []
    for lineno, line, key, toks in frozen_lines(text):
        if key == "open":
            if toks:
                raise ParseError("open line takes no arguments", lineno, frozen_column(line, 1))
            opens.append((lineno, line, []))
        elif key == "ball":
            if not opens:
                raise ParseError("ball before any open line", lineno, frozen_column(line, 0))
            if len(toks) < 2:
                raise ParseError(
                    "ball needs a radius and coordinates", lineno, frozen_column(line, 0)
                )
            vals = []
            for k, tok in enumerate(toks, start=1):
                try:
                    vals.append(float(tok))
                except ValueError:
                    raise ParseError(
                        f"bad number {tok!r}", lineno, frozen_column(line, k)
                    ) from None
            radius, *center = vals
            opens[-1][2].append((center, radius))
        else:
            raise ParseError(f"unknown directive {key!r}", lineno, frozen_column(line, 0))
    if not opens:
        raise ParseError("basis needs at least one open with balls", 1, 1)
    for lineno, line, balls in opens:
        if not balls:
            raise ParseError("open without balls", lineno, frozen_column(line, 0))
    return tuple(VietorisBasicOpen(tuple(balls)) for _, _, balls in opens)


def outcome(f, *args):
    """A comparable outcome: the space, the sidecar's repr (which tells nan,
    -0.0 and 1e-320 apart), the table's names and sums, the basis's balls
    bit for bit, or the error's type, text, line and column."""
    try:
        got = f(*args)
    except TspError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))
    if isinstance(got, TestSpace):
        return ("space", got, got._rows)
    if isinstance(got, dict):
        return ("coords", repr(got))
    if isinstance(got, OrthoalgebraTable):
        return ("oa", got.elements, got.zero, got.one, got.sum_triples())
    if isinstance(got, tuple) and all(isinstance(o, VietorisBasicOpen) for o in got):
        return ("basis", [[(c.tobytes(), repr(r)) for c, r in o.balls] for o in got])
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
    tsp_edits=EDITS,
    coords_edits=EDITS,
    shifts=st.lists(st.integers(0, 40), max_size=2),
)
@example(d=3, tsp_edits=[], coords_edits=[], shifts=[])
@example(d=11, tsp_edits=[], coords_edits=[], shifts=[])
@example(d=3, tsp_edits=[], coords_edits=[], shifts=[2])
@example(d=3, tsp_edits=[], coords_edits=[], shifts=[3])
@example(d=3, tsp_edits=[("set", 1, 1, "test")], coords_edits=[("set", 2, 1, "outcome")], shifts=[])
def test_mutated_reads_equal_the_per_line_parsers(texts, d, tsp_edits, coords_edits, shifts):
    """A mutated .tsp and a mutated .coords text each example: each read on
    its own, and each beside the other file unmutated."""
    tsp, coords = texts[d]
    bad_tsp = shifted(mutate(tsp, tsp_edits), shifts)
    bad_coords = shifted(mutate(coords, coords_edits), shifts)
    same(load_test_space, frozen_load_test_space, bad_tsp)
    same(parse_coords, frozen_parse_coords, bad_coords)
    same(parse_sample, frozen_parse_sample, bad_tsp, coords)
    same(parse_sample, frozen_parse_sample, tsp, bad_coords)


OA_CASES = [
    "elements 0 a b 1\nzero 0\none 1\nsum a b 1\n",
    "elements 0 a b 1 # names\r\nzero 0\r\n\none 1\nsum a b 1 # the one sum\n",
    "elements 0 a a' 1\nzero 0\none 1\nsum a a' 1\nsum a' a 0\n",  # a duplicate sum
    "elements 0 a b 1\nzero 0\none 1\nsum a a 1\nsum b b 1\n",  # summable with itself
    "elements 0 a 1\nzero 0\none 1\n",  # a has no complement
    "elements 0\nzero 0\none 0\n",
    "elements 0 1\n  elements 0 1\n",
    "# no names yet\n  zero 0\nelements 0 1\n",
    "# nothing but a comment\n",
    "elements 0 a b 1\nzero 0\nsum a b 1\n",
    "elements\nzero 0\n",
    "elements 0 a a 1\n",
    "elements 0 1\nfoo 0\n",
    "elements 0 1\nzero 0 1\n",
    "elements 0 1\nzero q\n",
    "elements 0 a b 1\nzero 0\none 1\nsum a q z\n",  # the first unknown name
    "elements 0 a b 1\nzero 0\none 1\nsum a b\n",
    "elements 0 a b 1\nzero 0\nzero 0\n",
    "elements sum zero one\nzero zero\none one\nsum sum sum one\n",  # names equal to the directives
    "sum a b c\n",
    "",
]

BASIS_CASES = [
    "open\nball 0.5 1 0 0\n",
    FUZZ_BASIS,
    "open\r\nball 0.5 1 0 0\r\n",
    "open\nball 1_0 1e-320 -0.0\n",  # float spellings
    "open\nball nan 1 0 0\n",
    "open\nball 0.5 1 0 zz\n",
    "open\nball 0.5 zz 0 yy\n",  # the first bad number
    "open\n  ball\n",
    "open\n  ball 0.5\n",
    "open 2\nball 0.5 1 0 0\n",
    "open\nball 0.5 1 0 0\n\n  open  # empty\n",
    "# no opens\n",
    "ball 0.5 1 0\n",
    "open\nbal 0.5 1 0\n",
    "open\nball 0.5 1 0\nball 0.5 1 0 0\n",  # balls of two dimensions
    "",
]

FROZEN = {
    "oa": (loads_oa, frozen_loads_oa, oa_file_text(boolean_oa(2))),
    "basis": (load_basis, frozen_load_basis, FUZZ_BASIS),
}


@pytest.mark.parametrize(
    "fmt, text", [("oa", t) for t in OA_CASES] + [("basis", t) for t in BASIS_CASES]
)
def test_table_and_basis_hand_cases_equal_the_frozen_parsers(fmt, text):
    f, frozen, _ = FROZEN[fmt]
    same(f, frozen, text)


@pytest.mark.parametrize("fmt", ["oa", "basis"])
@settings(max_examples=200, deadline=None)
@given(edits=EDITS)
def test_mutated_tables_and_bases_equal_the_frozen_parsers(fmt, edits):
    f, frozen, base = FROZEN[fmt]
    same(f, frozen, mutate(base, edits))


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


@pytest.mark.parametrize("head", ["", "# read line by line\n"])
def test_missing_and_extra_coordinates_are_named_as_before(texts, head):
    """More than five outcomes without coordinates, and more than five
    unknown ids out of name order: each error names the first five, the
    missing in outcome order and the unknown sorted, and missing ids are
    found first."""
    for tsp, coords in texts.values():
        lines = coords.splitlines(keepends=True)
        unknown = [line.replace("outcome f", f"outcome {c}", 1) for c, line in zip("zyxwvu", lines)]
        for sidecar in (lines[7:], lines + unknown, lines[2:] + unknown):
            same(parse_sample, frozen_parse_sample, tsp, head + "".join(sidecar))


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
