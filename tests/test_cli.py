from __future__ import annotations

import contextlib
import hashlib
import io
import re
import warnings
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CORPUS_NAMES
from testspaces import cli, core, corpus, logic
from testspaces.cli import main
from testspaces.core import ValidationError
from testspaces.logic import AxiomViolationError, boolean_oa, loads_oa
from testspaces.metric import load_sample, sample_frames, save_sample

MO2_DIGEST = "9a129d0256736bd8399387e0c2b5d3d316ca33a1f62b35cb5e23d1e50b1a7db8"

PATH5 = "outcomes a b c d e\ntest a b\ntest b c\ntest c d\ntest d e\n"

# `stateless` (u1..u6 -> b d f h j l) beside `triangle` (a b c x y z ->
# a c e g i k): two components with interleaved ids and shuffled tests.
STATELESS_AND_TRIANGLE = (
    "outcomes a b c d e f g h i j k l\n"
    "test b d\ntest a g c\ntest f h\ntest c i e\n"
    "test j l\ntest b f j\ntest e k a\ntest d h l\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdin_of(data: bytes):
    """A stand-in for sys.stdin over `data`: a text stream with the bytes
    under it, as at a console."""
    return io.TextIOWrapper(io.BytesIO(data))


def machine_rows(out: str) -> dict[str, str]:
    rows = {}
    for line in out.splitlines():
        key, sep, value = line.partition("\t")
        assert sep == "\t", f"machine line without a tab: {line!r}"
        rows[key] = value
    return rows


def oa_file_text(oa) -> str:
    lines = [
        f"elements {' '.join(oa.elements)}",
        f"zero {oa.zero}",
        f"one {oa.one}",
    ]
    seen = set()
    for p, q, r in oa.sum_triples():
        if p == oa.zero or q == oa.zero or frozenset((p, q)) in seen:
            continue
        seen.add(frozenset((p, q)))
        lines.append(f"sum {p} {q} {r}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- gen


def test_gen_list(capsys):
    code, out, _ = run(capsys, "gen", "--list")
    assert code == 0
    names = out.split()
    for expected in ("classical-N", "two-disjoint", "glued-pair", "triangle", "mo2"):
        assert expected in names


def test_gen_emits_corpus_bytes(capsys):
    code, out, _ = run(capsys, "gen", "triangle")
    assert code == 0
    assert out == corpus.gen("triangle")


def test_gen_error_paths(capsys):
    code, _, err = run(capsys, "gen", "no-such-space")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "gen")
    assert code == 2


# ------------------------------------------------------------------ info


def space_file(tmp_path, name: str):
    path = tmp_path / f"{name}.tsp"
    path.write_text(corpus.gen(name))
    return str(path)


def test_info_triangle_machine(capsys, tmp_path):
    code, out, _ = run(
        capsys, "--format", "machine", "info", space_file(tmp_path, "triangle")
    )
    assert code == 0
    rows = machine_rows(out)
    assert rows["outcomes"] == "6"
    assert rows["tests"] == "3"
    assert rows["rank"] == "3"
    assert rows["events"] == "19"
    assert rows["algebraic"] == "yes"
    assert rows["semiclassical"] == "no"


def test_info_non_algebraic_witness_and_strict(capsys, tmp_path):
    path = tmp_path / "path5.tsp"
    path.write_text(PATH5)
    code, out, _ = run(capsys, "--format", "machine", "info", str(path))
    assert code == 0
    rows = machine_rows(out)
    assert rows["algebraic"] == "no"
    assert rows["witness"] == "a|c|d"
    code, _, _ = run(capsys, "--strict", "info", str(path))
    assert code == 1


def test_info_enumerates_events_once(capsys, tmp_path, monkeypatch):
    """One enumeration, and no Event built for an algebraic space."""
    calls, built = [], []
    enumerate_once = core.TestSpace._enumeration.func
    counted = cached_property(lambda ts: calls.append(ts) or enumerate_once(ts))
    counted.__set_name__(core.TestSpace, "_enumeration")
    monkeypatch.setattr(core.TestSpace, "_enumeration", counted)
    init = core.Event.__init__
    monkeypatch.setattr(core.Event, "__init__", lambda e, *a: built.append(a) or init(e, *a))
    code, out, _ = run(capsys, "info", space_file(tmp_path, "triangle"))
    assert code == 0 and "events: 19" in out and "algebraic: yes" in out
    assert len(calls) == 1
    assert built == []


def test_info_over_the_event_cap_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "info", "--cap", "4", space_file(tmp_path, "classical-3"))
    assert (code, out) == (2, "")
    assert err == "error: event enumeration too large (needed 8, cap 4)\n"


def test_info_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of(corpus.gen("mo2").encode()))
    code, out, _ = run(capsys, "--format", "machine", "info", "-")
    assert code == 0
    assert machine_rows(out)["outcomes"] == "4"


# ----------------------------------------------------------------- logic


def test_logic_triangle_rows(capsys, tmp_path):
    code, out, _ = run(
        capsys, "--format", "machine", "logic", space_file(tmp_path, "triangle")
    )
    assert code == 0
    rows = machine_rows(out)
    assert rows["size"] == "14"
    assert rows["orthocoherent"] == "no"
    assert rows["osum_is_join"] == "no"
    assert rows["omp"] == "no"
    assert rows["flags_agree"] == "yes"
    assert len(rows["digest"]) == 64


def test_logic_mo2_digest_is_stable(capsys, tmp_path):
    code, out, _ = run(
        capsys, "--format", "machine", "logic", space_file(tmp_path, "mo2")
    )
    assert code == 0
    assert machine_rows(out)["digest"] == MO2_DIGEST


def test_logic_rejects_non_algebraic_space(capsys, tmp_path):
    path = tmp_path / "path5.tsp"
    path.write_text(PATH5)
    code, _, err = run(capsys, "logic", str(path))
    assert code == 2
    assert "not algebraic" in err


def test_logic_over_dense_table_cap_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "frames.tsp"
    save_sample(sample_frames(3, 700, 0), str(path))  # 4202 classes
    code, out, err = run(capsys, "logic", str(path))
    assert code == 2
    assert out == ""
    assert "too many elements for a dense sum table (needed 4202, cap 4096)" in err


# ---------------------------------------------------------------- states


def test_states_triangle_with_dispersion_free(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of(corpus.gen("triangle").encode()))
    code, out, _ = run(
        capsys, "--format", "machine", "--strict", "states", "--dispersion-free", "-"
    )
    assert code == 0
    rows = machine_rows(out)
    assert rows["feasible"] == "yes"
    assert rows["state a"] == "1/2"
    assert rows["state x"] == "0"
    assert rows["dispersion_free"] == "4"
    assert rows["df 0"] == "x,y,z"
    assert rows["unital"] == "yes"


def test_states_infeasible_strict_exit(capsys, tmp_path):
    path = space_file(tmp_path, "stateless")
    code, out, _ = run(capsys, "--format", "machine", "states", path)
    assert code == 0  # reporting is not an error
    rows = machine_rows(out)
    assert rows["feasible"] == "no"
    assert rows["weight 0"] == "1"
    assert rows["weight 3"] == "-1"
    code, _, _ = run(capsys, "--strict", "states", path)
    assert code == 1


def test_states_over_the_dispersion_free_cap_exits_2(capsys, tmp_path):
    tsp_path, _ = save_sample(sample_frames(3, 8, 0), tmp_path / "df.tsp")
    code, out, err = run(capsys, "states", "--dispersion-free", "--df-cap", "3", tsp_path)
    assert (code, out) == (2, "")
    assert err == "error: dispersion-free search over too many outcomes (needed 24, cap 3)\n"


# -------------------------------------------------------------------- oa


def test_oa_roundtrip_report(capsys, tmp_path):
    path = tmp_path / "bool3.oa"
    path.write_text(oa_file_text(boolean_oa(3)))
    code, out, _ = run(
        capsys, "--format", "machine", "--strict", "oa", "--roundtrip", str(path)
    )
    assert code == 0
    rows = machine_rows(out)
    assert rows["elements"] == "8"
    assert rows["sums"] == "27"
    assert rows["induced_outcomes"] == "7"
    assert rows["induced_tests"] == "5"
    assert rows["roundtrip"] == "yes"


def test_oa_roundtrip_builds_the_induced_space_once(capsys, tmp_path, monkeypatch):
    calls = []
    induce = logic.oa_to_test_space

    def counting(oa):
        calls.append(oa)
        return induce(oa)

    for module in (cli, logic):
        monkeypatch.setattr(module, "oa_to_test_space", counting)
    path = tmp_path / "bool3.oa"
    path.write_text(oa_file_text(boolean_oa(3)))
    code, out, _ = run(capsys, "--strict", "oa", "--roundtrip", str(path))
    assert code == 0 and "roundtrip" in out
    assert len(calls) == 1


def test_oa_rejects_broken_table(capsys, tmp_path):
    path = tmp_path / "bad.oa"
    path.write_text("elements 0 a 1\nzero 0\none 1\n")
    code, _, err = run(capsys, "oa", str(path))
    assert code == 2
    assert "complements" in err


@pytest.mark.parametrize("sums, message", [
    ("sum a b c\nsum a c 1", "association mismatch at (a, a, b)"),
    ("", "element a has 0 complements"),
    ("sum a b 1\nsum a c 1", "element a has 2 complements"),
    ("sum a a 1\nsum b c 1", "element a summable with itself"),
    ("sum a b 1\nsum 0 a b", "sum with zero must be the identity at 'a'"),
])
def test_oa_rejects_each_axiom_failure(capsys, tmp_path, sums, message):
    text = f"elements 0 a b c 1\nzero 0\none 1\n{sums}\n"
    with pytest.raises(AxiomViolationError, match=re.escape(message)):
        loads_oa(text)
    path = tmp_path / "bad.oa"
    path.write_text(text)
    code, out, err = run(capsys, "oa", str(path))
    assert code == 2
    assert out == ""
    assert message in err


# ---------------------------------------------------------------- metric


def frames_file(capsys, tmp_path, n=6, seed=3):
    path = str(tmp_path / "frames.tsp")
    code, _, _ = run(
        capsys, "sample-frames", "-d", "3", "-n", str(n), "--seed", str(seed), "-o", path
    )
    assert code == 0
    return path


def test_metric_check_battery_ok(capsys, tmp_path):
    path = frames_file(capsys, tmp_path)
    code, out, _ = run(capsys, "--format", "machine", "metric", "check", path)
    assert code == 0
    rows = machine_rows(out)
    assert set(rows.values()) == {"ok"}
    assert "in-test-orthogonality" in rows


def test_space_from_stdin_needs_coords(capsys, tmp_path, monkeypatch):
    path = frames_file(capsys, tmp_path)
    text = Path(path).read_text()
    for argv in (["metric", "check", "-"], ["extract", "-", "--basis", "auto:2"]):
        monkeypatch.setattr("sys.stdin", stdin_of(text.encode()))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "a space read from stdin needs --coords" in err
    coords = str(tmp_path / "frames.coords")
    monkeypatch.setattr("sys.stdin", stdin_of(text.encode()))
    code, out, _ = run(capsys, "--format", "machine", "metric", "check", "-", "--coords", coords)
    assert code == 0
    assert set(machine_rows(out).values()) == {"ok"}


def test_metric_check_flags_corruption(capsys, tmp_path):
    path = frames_file(capsys, tmp_path)
    coords = tmp_path / "frames.coords"
    text = coords.read_text().splitlines()
    first = text[0].split()
    first[2] = repr(float(first[2]) * 1.4)  # stretch one coordinate
    text[0] = " ".join(first)
    coords.write_text("\n".join(text) + "\n")
    code, out, _ = run(capsys, "--format", "machine", "metric", "check", path)
    assert code == 0
    rows = machine_rows(out)
    assert rows["unit-norm"].startswith("fail")
    code, _, _ = run(capsys, "--strict", "metric", "check", path)
    assert code == 1


def test_sample_frames_deterministic_output(capsys, tmp_path):
    a = tmp_path / "a.tsp"
    b = tmp_path / "b.tsp"
    for path in (a, b):
        code, _, _ = run(
            capsys, "sample-frames", "-d", "2", "-n", "5", "--seed", "7", "-o", str(path)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.coords").read_bytes() == (tmp_path / "b.coords").read_bytes()
    head = a.read_text().splitlines()[0]
    assert head == "# frames dim=2 count=5 seed=7"


# --------------------------------------------------------------- extract


def test_extract_auto_basis_and_saved_basis_agree(capsys, tmp_path):
    path = frames_file(capsys, tmp_path, n=30, seed=1)
    basis_path = str(tmp_path / "b.basis")
    code, first, _ = run(
        capsys, "--format", "machine", "extract", path,
        "--basis", "auto:5", "--delta", "0.9", "--save-basis", basis_path,
    )
    assert code == 0
    rows = machine_rows(first)
    assert rows["opens"] == "5"
    assert rows["hidden_state_valid"] == "yes"
    assert rows["coverage_ok"] == "yes"
    code, second, _ = run(
        capsys, "--format", "machine", "extract", path,
        "--basis", f"file:{basis_path}", "--delta", "0.9",
    )
    assert code == 0
    assert first == second


def test_extract_resample_reports_preserved_hits(capsys, tmp_path):
    path = frames_file(capsys, tmp_path, n=20, seed=2)
    code, out, _ = run(
        capsys, "--format", "machine", "--strict", "extract", path,
        "--basis", "auto:4", "--delta", "0.9", "--resample-factor", "2",
    )
    assert code == 0
    rows = machine_rows(out)
    assert rows["resampled_opens"] == "8"
    assert rows["hits_preserved"] == "yes"
    assert float(rows["resampled_coverage_radius"]) <= float(rows["coverage_radius"])


def test_extract_resample_needs_header(capsys, tmp_path):
    path = frames_file(capsys, tmp_path, n=8, seed=4)
    text = (tmp_path / "frames.tsp").read_text().splitlines()
    (tmp_path / "frames.tsp").write_text("\n".join(text[1:]) + "\n")
    code, _, err = run(
        capsys, "extract", path, "--basis", "auto:2", "--delta", "0.9",
        "--resample-factor", "2",
    )
    assert code == 2
    assert "header" in err


def test_negative_seed_is_an_input_error(capsys, tmp_path):
    out_path = tmp_path / "neg.tsp"
    code, out, err = run(capsys, "sample-frames", "-n", "3", "--seed", "-1", "-o", str(out_path))
    assert (code, out) == (2, "")
    assert err == "error: seed must be at least 0, got -1\n"
    assert not out_path.exists()
    # a hand-edited header that _FRAME_HEADER reads: the resample refuses it
    path = frames_file(capsys, tmp_path, n=8, seed=4)
    text = (tmp_path / "frames.tsp").read_text()
    (tmp_path / "frames.tsp").write_text(text.replace("seed=4", "seed=-1", 1))
    code, out, err = run(capsys, "extract", path, "--basis", "auto:2", "--delta", "0.9",
                         "--resample-factor", "2")
    assert (code, out) == (2, "")
    assert err == "error: seed must be at least 0, got -1\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("factor", ["0", "-2"])
def test_resample_factor_below_one_is_refused_before_reading(capsys, tmp_path, factor):
    missing = str(tmp_path / "missing.tsp")  # no file is read
    code, out, err = run(capsys, "extract", missing, "--basis", "auto:2",
                         "--resample-factor", factor)
    assert (code, out) == (2, "")
    assert err == f"error: --resample-factor must be at least 1, got {factor}\n"


def test_extract_saves_loadable_subspace(capsys, tmp_path):
    path = frames_file(capsys, tmp_path, n=12, seed=5)
    out_path = str(tmp_path / "sub.tsp")
    code, out, _ = run(
        capsys, "--format", "machine", "extract", path,
        "--basis", "auto:3", "--delta", "0.9", "--out", out_path,
    )
    assert code == 0
    rows = machine_rows(out)
    sub = load_sample(out_path)
    assert len(sub.tests) == int(rows["selected"])
    code, check_out, _ = run(capsys, "--format", "machine", "metric", "check", out_path)
    assert code == 0
    assert set(machine_rows(check_out).values()) == {"ok"}


def test_extract_rejects_bad_basis_spec(capsys, tmp_path):
    path = frames_file(capsys, tmp_path, n=4, seed=6)
    for spec in ("auto:zap", "foo:1"):
        code, _, err = run(capsys, "extract", path, "--basis", spec)
        assert code == 2
        assert f"bad basis spec {spec!r}" in err


@pytest.mark.parametrize(
    "basis, message",
    [
        ("open\nball nan 1 0 0\n", "radii must be finite and positive"),
        ("open\nball inf 1 0 0\n", "radii must be finite and positive"),
        ("open\nball 0 1 0 0\n", "radii must be finite and positive"),
        ("open\nball -0.5 1 0 0\n", "radii must be finite and positive"),
        ("open\nball 0.5 nan 0 0\n", "centers must be finite"),
        ("open\nball 0.5 1 -inf 0\n", "centers must be finite"),
        ("open\nball 0.5 1 0 zz\n", "line 2, column 14: bad number 'zz'"),
        ("open\n  ball\n", "line 2, column 3: ball needs a radius"),
        ("open 2\nball 0.5 1 0 0\n", "line 1, column 6: open line takes no arguments"),
        ("open\nball 0.5 1 0 0\n\n  open  # empty\n", "line 4, column 3: open without balls"),
        ("# no opens\n", "line 1, column 1: basis needs at least one open"),
        ("open\nball 0.5 1 0\n", "basis open of dimension 2 for a sample of dimension 3"),
    ],
)
def test_extract_rejects_bad_basis_file(capsys, tmp_path, basis, message):
    path = frames_file(capsys, tmp_path, n=4, seed=6)
    (tmp_path / "b.basis").write_text(basis)
    code, out, err = run(capsys, "extract", path, "--basis", f"file:{tmp_path / 'b.basis'}")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("tol", ["inf", "nan", "-1e-3", "10"])
def test_meaningless_ortho_tol_is_an_input_error(capsys, tmp_path, tol):
    path = frames_file(capsys, tmp_path, n=4, seed=6)
    for argv in (["metric", "check", path], ["extract", path, "--basis", "auto:2"]):
        code, out, err = run(capsys, *argv, f"--ortho-tol={tol}")
        assert (code, out) == (2, "")
        assert err.startswith("error: orthogonality tolerance must be finite and >= 0")
        assert "Traceback" not in err


@pytest.mark.parametrize("delta", ["nan", "inf", "-1"])
def test_meaningless_density_target_is_an_input_error(capsys, tmp_path, delta):
    path = frames_file(capsys, tmp_path, n=4, seed=6)
    basis = str(tmp_path / "b.basis")
    assert run(capsys, "extract", path, "--basis", "auto:4", "--save-basis", basis)[0] == 0
    for argv in (
        ["extract", path, "--basis", f"file:{basis}"],
        ["--strict", "extract", path, "--basis", f"file:{basis}"],
        ["extract", path, "--basis", "auto:2"],
    ):
        code, out, err = run(capsys, *argv, f"--delta={delta}")
        assert (code, out) == (2, "")
        assert err == f"error: density target must be positive and finite, got {float(delta)}\n"
        assert "Traceback" not in err


def test_resample_with_a_basis_larger_than_the_sample_is_an_input_error(capsys, tmp_path):
    big = str(tmp_path / "thirty.tsp")
    assert run(capsys, "sample-frames", "-n", "30", "--seed", "1", "-o", big)[0] == 0
    basis = str(tmp_path / "thirty.basis")
    assert run(capsys, "extract", big, "--basis", "auto:30", "--save-basis", basis)[0] == 0
    small = str(tmp_path / "ten.tsp")
    assert run(capsys, "sample-frames", "-n", "10", "--seed", "1", "-o", small)[0] == 0
    code, out, err = run(capsys, "extract", small, "--basis", f"file:{basis}", "--resample-factor", "2")
    assert (code, out) == (2, "")
    assert err == "error: need between 1 and 20 additional opens, got 30\n"


def test_extract_nan_margin_is_refused_as_such(capsys, tmp_path):
    path = frames_file(capsys, tmp_path, n=4, seed=6)
    code, out, err = run(capsys, "extract", path, "--basis", "auto:2", "--margin", "nan")
    assert (code, out) == (2, "")
    assert err == "error: margin must be positive\n"


def test_metric_check_and_load_sample_reject_extra_coordinates(capsys, tmp_path):
    path = frames_file(capsys, tmp_path)
    coords = tmp_path / "frames.coords"
    coords.write_text(coords.read_text() + "outcome zzz 1.0 0.0 0.0\n")
    code, out, err = run(capsys, "metric", "check", path)
    assert code == 2
    assert "coordinates for unknown outcomes ['zzz']" in err
    with pytest.raises(ValidationError, match="unknown outcomes"):
        load_sample(path)


# ------------------------------------------------------------ exit codes


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "info", "/no/such/file.tsp")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "frames.tsp", "--basis", "auto:2", "--out", ""],
        ["extract", "frames.tsp", "--basis", "auto:2", "--save-basis", ""],
        ["extract", "frames.tsp", "--basis", "auto:2", "--coords", ""],
        ["metric", "check", "frames.tsp", "--coords", ""],
        ["metric", "check", "-", "--coords", ""],
        ["sample-frames", "-n", "2", "-o", ""],
    ],
)
def test_empty_paths_are_opened_and_refused(capsys, tmp_path, monkeypatch, argv):
    """An empty path is a path, not "no path": it fails to open, so the
    command exits 2 with nothing on stdout and no file written."""
    monkeypatch.chdir(tmp_path)
    frames_file(capsys, tmp_path)
    before = sorted(tmp_path.iterdir())
    monkeypatch.setattr("sys.stdin", stdin_of(Path("frames.tsp").read_bytes()))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: ''\n"
    assert sorted(tmp_path.iterdir()) == before


def test_parse_errors_carry_positions(capsys, tmp_path):
    path = tmp_path / "broken.tsp"
    path.write_text("test a b\n")
    code, _, err = run(capsys, "info", str(path))
    assert code == 2
    assert "line 1" in err


# 18 bytes of UTF-8 (é takes two), then byte 18, which no UTF-8 text holds
NOT_UTF8 = "outcomes a b # é\n".encode() + b"\xff test a b\n"


def test_non_utf8_files_are_input_errors_naming_file_and_byte(capsys, tmp_path):
    sample = frames_file(capsys, tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    readers = [
        ["info", str(bad)],
        ["logic", str(bad)],
        ["states", str(bad)],
        ["oa", str(bad)],
        ["metric", "check", str(bad), "--coords", str(tmp_path / "frames.coords")],
        ["metric", "check", sample, "--coords", str(bad)],  # the sidecar
        ["extract", sample, "--basis", f"file:{bad}"],
    ]
    for argv in readers:
        for strict in ([], ["--strict"]):
            code, out, err = run(capsys, *strict, *argv)
            assert (code, out, err) == (2, "", f"error: {bad}: not UTF-8 text at byte 18\n"), argv


def test_non_utf8_stdin_is_an_input_error(capsys, tmp_path, monkeypatch):
    sample = frames_file(capsys, tmp_path)
    coords = str(tmp_path / "frames.coords")
    for argv in (["info", "-"], ["oa", "-"], ["metric", "check", "-", "--coords", coords]):
        monkeypatch.setattr("sys.stdin", stdin_of(NOT_UTF8))
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: stdin: not UTF-8 text at byte 18\n"), argv
    # stdin's bytes read as a file's text: UTF-8, with universal newlines
    text = Path(sample).read_text()
    monkeypatch.setattr("sys.stdin", stdin_of(text.replace("\n", "\r\n").encode()))
    assert run(capsys, "metric", "check", "-", "--coords", coords) == run(capsys, "metric", "check", sample)


@pytest.mark.parametrize("value", ["nan", "inf", "1e200"])
def test_metric_check_fails_non_finite_coordinates_without_warnings(capsys, tmp_path, value):
    path = frames_file(capsys, tmp_path)
    coords = tmp_path / "frames.coords"
    lines = coords.read_text().splitlines()
    first = lines[0].split()
    first[2] = value
    lines[0] = " ".join(first)
    coords.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning raises
        code, out, err = run(capsys, "--format", "machine", "metric", "check", path)
        assert (code, err) == (0, "")
        assert run(capsys, "--strict", "metric", "check", path)[0] == 1
    rows = machine_rows(out)
    assert rows["unit-norm"].startswith("fail")
    assert rows["in-test-orthogonality"].startswith("fail (max |inner| ")
    if value == "nan":
        assert rows["in-test-orthogonality"] == "fail (max |inner| nan vs 1.000e-09)"


# ---------------------------------------------------------------- golden

# (exit code, sha256 of stdout) per command, and sha256 of each written
# file: CLI output bytes are part of the behaviour contract.
GOLDEN = {
    "info classical-3": "0 2395526d13599084093b5fdcdc758f2395723047cbfcc75b44260aa100ab6ffa",
    "logic classical-3": "0 6784bc013f0599c053895710d7c7a27aebffc4c7c0e2342984782eec22d441c7",
    "states classical-3": "0 92ff1abd665382b4f3c4fad1bd63a618df98e67fc26cab7499e0009076571937",
    "info two-disjoint": "0 4abb1fe4b4999d419318c5ac1904fd014906dc1c4680882c315ac626d01accd2",
    "logic two-disjoint": "0 02481cb59e0fb05f5567b61eb8bb671f9a42478aeac52179cb0ad053865459d9",
    "states two-disjoint": "0 2b26ece680f14fe12b6538bf36898ac7d0102a25f964ef5279b56d5737be45e6",
    "info glued-pair": "0 1de9b8f69238aad1ccac5d74df73c0546f18077d93523682216a90d0ff0177ed",
    "logic glued-pair": "0 76f2166efce6cd8007cab214017a5ca718f8c2d7c13dc6174945e257666db1a9",
    "states glued-pair": "0 c80335954836d6d43dcab97923f61dc3132062db23f2e18280136db5cdfdd8c4",
    "info triangle": "0 97d4117dfa8b0be46452a890fd8ba164420d96f98bfada6c87f267234fd5a2ed",
    "logic triangle": "0 5de7fb30b98a166be6f9dc14a0db9d44ba3da515a9262c65390dffbb573a831c",
    "states triangle": "0 2d68ddac515d7f11db0b65c6ff6d6d2925115651f301dfc12319016291c52c38",
    "info mo2": "0 4abb1fe4b4999d419318c5ac1904fd014906dc1c4680882c315ac626d01accd2",
    "logic mo2": "0 02481cb59e0fb05f5567b61eb8bb671f9a42478aeac52179cb0ad053865459d9",
    "states mo2": "0 688bf1a8a469d1ab73496d0cf60bf2b072d7f971cbdd273b66f4d4ab2d3ab50e",
    "info stateless": "0 9ea9f04b1e0e8bb04a266ff72a5fa748224695c30ae8922dbade4098873bafc5",
    "logic stateless": "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "states stateless": "0 03ee8cff30216000640650972ab18efbff66d13486ed34cb9ce75fc6dcfd59ec",
    "states stateless+triangle": "0 d7ea4ff53490608641a20001e7609465dd474503616b20cf86b2f05c72a1241d",
    "oa bool3": "0 954f33bbb2aed6c05fa3761173fd482dc53cd8e8fe63430cc8303f71c7493021",
    "sample-frames": "0 1a4909c947545e9ae58731fe57497dff84b6634f9eb4b203553ed3c13d8d26ab",
    "metric check": "0 05c0adc8a4392f25d9de8d415993420569faa25de199715b52aeccb3caa971cd",
    "extract": "0 dbdf7f89469742e96a862430084159e85a44cb1cc0d3285e707d6f2231821b0a",
    "file s.tsp": "83009566b3b68a3f1a5b83f77247a273ae1dff07837b7ef1f156471d2b5eb8df",
    "file s.coords": "48b0ff90dac1860d24c184f8320db0b6bfdc8bef1aa4daf6ca39389faf408019",
    "file B.basis": "12df31ebeb01a336a7fc6501c4d4c36c9c3caea37ec4a69fc414d5f050cab8a7",
    "file O.tsp": "3c4c2217e14b1f9f202d7ce34d0300b852c23d6978dea7a2aed03ea9703018a7",
    "file O.coords": "9df10ca2fd537ce12f1cf80e2bad55e65329417a444f4b8db59a5ca807a96401",
}


def sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def golden_outputs(capsys, tmp_path, monkeypatch) -> dict[str, str]:
    monkeypatch.chdir(tmp_path)  # relative paths keep the reports path-free
    got = {}

    def record(name, *argv):
        code, out, _ = run(capsys, *argv)
        got[name] = f"{code} {sha(out)}"

    for name in CORPUS_NAMES:
        Path(f"{name}.tsp").write_text(corpus.gen(name))
        record(f"info {name}", "info", f"{name}.tsp")
        record(f"logic {name}", "logic", f"{name}.tsp")
        record(f"states {name}", "states", "--dispersion-free", f"{name}.tsp")
    Path("split.tsp").write_text(STATELESS_AND_TRIANGLE)
    record("states stateless+triangle", "states", "--dispersion-free", "split.tsp")
    Path("bool3.oa").write_text(oa_file_text(boolean_oa(3)))
    record("oa bool3", "oa", "--roundtrip", "bool3.oa")
    record("sample-frames", "sample-frames", "-n", "200", "--seed", "0", "-o", "s.tsp")
    record("metric check", "metric", "check", "s.tsp")
    record(
        "extract", "extract", "s.tsp", "--basis", "auto:10", "--resample-factor", "2",
        "--save-basis", "B.basis", "--out", "O.tsp",
    )
    for name in ("s.tsp", "s.coords", "B.basis", "O.tsp", "O.coords"):
        got[f"file {name}"] = sha(Path(name).read_text())
    return got


def test_cli_output_matches_golden_digests(capsys, tmp_path, monkeypatch):
    assert golden_outputs(capsys, tmp_path, monkeypatch) == GOLDEN


# ------------------------------------------------------------------ fuzz

FUZZ_BASIS = "open\nball 0.9 1 0 0\nopen  # two balls\nball 1.2 0 0 1\nball 1.2 0 1 0\n"
ODD_TOKENS = ("nan", "inf", "-inf", "0", "-0", "-1", "-2.5", "1e400", "zz", "#", "a#b", "")
EDITS = st.lists(
    st.tuples(
        st.sampled_from(("set", "add", "drop", "line", "dup")),
        st.integers(0, 40),
        st.integers(0, 8),
        st.sampled_from(ODD_TOKENS),
    ),
    max_size=4,
)


def mutate(text: str, edits) -> str:
    """Apply token and line edits: replace, insert or drop a token, insert
    a line (blank when the token is empty), or duplicate a line."""
    lines = [line.split() for line in text.splitlines()]
    for op, i, j, tok in edits:
        if op == "line":
            lines.insert(i % (len(lines) + 1), [tok] if tok else [])
            continue
        if not lines:
            continue
        row = lines[i % len(lines)]
        if op == "dup":
            lines.insert(i % len(lines), list(row))
        elif op == "add":
            row.insert(j % (len(row) + 1), tok)
        elif row and op == "set":
            row[j % len(row)] = tok
        elif row:
            del row[j % len(row)]
    return "".join(" ".join(row) + "\n" for row in lines)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    save_sample(sample_frames(3, 6, 3), path / "s.tsp")
    return path


@pytest.mark.parametrize("fmt", ["tsp", "oa", "coords", "basis"])
@settings(max_examples=40, deadline=None)
@given(edits=EDITS)
@example(edits=[("drop", 1, 4, "")])  # 2-D ball against the 3-D sample
@example(edits=[("set", 1, 1, "nan")])
def test_mutated_inputs_keep_the_exit_code_contract(fuzz_dir, fmt, edits):
    sample = str(fuzz_dir / "s.tsp")
    base = {
        "tsp": corpus.gen("triangle"),
        "oa": oa_file_text(boolean_oa(2)),
        "coords": (fuzz_dir / "s.coords").read_text(),
        "basis": FUZZ_BASIS,
    }[fmt]
    path = fuzz_dir / f"mutated.{fmt}"
    path.write_text(mutate(base, edits))
    argv = {
        "tsp": ["info", str(path)],
        "oa": ["oa", "--roundtrip", str(path)],
        "coords": ["metric", "check", sample, "--coords", str(path)],
        "basis": ["extract", sample, "--basis", f"file:{path}", "--delta", "0.9"],
    }[fmt]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--strict", *argv])
    assert code in (0, 1, 2)


# Every numeric and path option of `tsp`, on small inputs in {d}: {v} is the value.
NUMERIC_OPTION_RUNS = (
    "info --cap {v} {d}/t.tsp",
    "logic --cap {v} {d}/t.tsp",
    "states --dispersion-free --df-cap {v} {d}/t.tsp",
    "metric check {d}/s.tsp --ortho-tol {v}",
    "sample-frames -n {v} -o {d}/n.tsp",
    "sample-frames -n 1 -d {v} -o {d}/d.tsp",
    "sample-frames -n 2 --seed {v} -o {d}/seed.tsp",
    "extract {d}/s.tsp --basis auto:{v}",
    "extract {d}/s.tsp --basis auto:3 --delta {v}",
    "extract {d}/s.tsp --basis auto:3 --margin {v}",
    "extract {d}/s.tsp --basis auto:3 --ortho-tol {v}",
    "extract {d}/s.tsp --basis auto:3 --seed {v}",
    "extract {d}/s.tsp --basis auto:3 --resample-factor {v}",
)
PATH_OPTION_RUNS = (
    "metric check {d}/s.tsp --coords {v}",
    "sample-frames -n 2 -o {v}",
    "extract {d}/s.tsp --basis auto:3 --coords {v}",
    "extract {d}/s.tsp --basis auto:3 --save-basis {v}",
    "extract {d}/s.tsp --basis auto:3 --out {v}",
)
# A budget meets only values that it refuses before allocating: 1000001
# frames, frames of dimension 1000001, and 6 * 1000001 resampled frames.
OPTION_VALUES = ("nan", "inf", "-inf", "-1", "-0", "0", "1e308", "1000001", str(10**30))


@pytest.fixture(scope="module")
def option_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("options")
    (path / "t.tsp").write_text(corpus.gen("triangle"))
    save_sample(sample_frames(3, 6, 3), path / "s.tsp", header="frames dim=3 count=6 seed=3")
    return path


@settings(max_examples=200, deadline=None)
@given(
    command=st.one_of(
        st.tuples(st.sampled_from(NUMERIC_OPTION_RUNS), st.sampled_from(OPTION_VALUES)),
        st.tuples(st.sampled_from(PATH_OPTION_RUNS), st.just("")),
    ),
    strict=st.booleans(),
)
@example(command=("sample-frames -n 1 -d {v} -o {d}/d.tsp", "6000"), strict=False)
def test_options_keep_the_exit_code_contract(option_dir, command, strict):
    template, value = command
    argv = [a.format(d=option_dir, v=value) for a in template.split()]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(["--strict", *argv] if strict else argv)
        except SystemExit as exc:  # argparse refuses a value of the wrong type
            code = exc.code
    assert code in ((0, 1, 2) if strict else (0, 2))
    assert "Traceback" not in err.getvalue()
