"""Command line front end.

Every command reads plain-text files (`-` for stdin where a file is
expected) and prints a deterministic report.  Exit codes: 0 on success, 2
on usage or input errors (bad files, unknown names, spaces outside a
command's domain), and 1 only under ``--strict`` when an analysis returns
a negative answer (no state exists, a space is not algebraic, an open was
missed, and so on).  ``--format machine`` switches the report to
tab-separated ``key<TAB>value`` lines meant for scripts; the bytes are
stable across runs for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import corpus
from .core import (
    DEFAULT_EVENT_CAP,
    TestSpace,
    TspError,
    _read_text,
    load_test_space,
)
from .logic import (
    _roundtrip,
    build_logic,
    check_prop04,
    is_algebraic,
    loads_oa,
    oa_to_test_space,
)
from .metric import (
    DEFAULT_ORTHO_TOL,
    MetricSample,
    _space_battery,
    dump_basis,
    load_basis,
    parse_sample,
    sample_frames,
    save_sample,
    sidecar_path,
)
from .semiclassical import (
    DEFAULT_MARGIN,
    auto_basis,
    extend_basis,
    extract_semiclassical,
    is_semiclassical,
)
from .states import (
    DEFAULT_DF_CAP,
    dispersion_free_states,
    find_state,
    hidden_variable_state,
    infeasibility_certificate,
    is_udf,
    verify_state,
)

_FRAME_HEADER = re.compile(
    r"^#\s*frames\s+dim=(\d+)\s+count=(\d+)\s+seed=(-?\d+)\s*$", re.MULTILINE
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _emit(rows, fmt: str) -> None:
    """The report, one `key: value` (or tab-separated) line a row, in one write."""
    sep = "\t" if fmt == "machine" else ": "
    sys.stdout.write("".join([f"{key}{sep}{_fmt(value)}\n" for key, value in rows]))


def _read(path: str) -> str:
    return _read_text(path) if path != "-" else _read_text("stdin", sys.stdin.buffer.read())


def _load_space(path: str) -> TestSpace:
    return load_test_space(_read(path))


def _cmd_gen(args) -> int:
    if args.list:
        for name in corpus.names():
            print(name)
        return 0
    if not args.name:
        print("error: gen needs a name (or --list)", file=sys.stderr)
        return 2
    sys.stdout.write(corpus.gen(args.name))
    return 0


def _cmd_info(args) -> int:
    ts = _load_space(args.file)
    # Over the cap this raises CapExceededError: exit 2, nothing on stdout.
    # The events are counted on the enumeration; only a witness is built.
    algebraic, witness = is_algebraic(ts, args.cap)
    rows = [
        ("outcomes", len(ts.outcomes)),
        ("tests", len(ts.tests)),
        ("rank", ts.rank),
        ("events", len(ts._enumeration[0])),
        ("algebraic", algebraic),
    ]
    if not algebraic:
        a, b, c = witness
        rows.append(("witness", "|".join(
            ",".join(sorted(e.members)) for e in (a, b, c)
        )))
    rows.append(("semiclassical", is_semiclassical(ts)))
    _emit(rows, args.format)
    if args.strict and not algebraic:
        return 1
    return 0


def _cmd_logic(args) -> int:
    ts = _load_space(args.file)
    logic = build_logic(ts, cap=args.cap)
    flags = check_prop04(logic)
    rows = [
        ("size", len(logic)),
        ("orthocoherent", flags.orthocoherent),
        ("osum_is_join", flags.osum_is_join),
        ("omp", flags.omp),
        ("flags_agree", flags.all_equal()),
        ("digest", logic.table_digest()),
    ]
    _emit(rows, args.format)
    return 0


def _cmd_states(args) -> int:
    ts = _load_space(args.file)
    state = find_state(ts)
    rows = []
    if state is not None:
        rows.append(("feasible", True))
        for x in ts.outcomes:
            rows.append((f"state {x}", state[x]))
    else:
        rows.append(("feasible", False))
        cert = infeasibility_certificate(ts)
        for i in sorted(cert):
            rows.append((f"weight {i}", cert[i]))
    udf_failed = False
    if args.dispersion_free:
        dfs = dispersion_free_states(ts, cap=args.df_cap)
        rows.append(("dispersion_free", len(dfs)))
        for k, df in enumerate(dfs):
            ones = [x for x in ts.outcomes if df[x] == 1]
            rows.append((f"df {k}", ",".join(ones)))
        covered, uncovered = is_udf(ts, cap=args.df_cap)
        rows.append(("unital", covered))
        if not covered:
            rows.append(("uncovered", uncovered))
            udf_failed = True
    _emit(rows, args.format)
    if args.strict and (state is None or udf_failed):
        return 1
    return 0


def _cmd_oa(args) -> int:
    oa = loads_oa(_read(args.file))
    rows = [
        ("elements", oa.size),
        ("sums", len(oa.sum_triples())),
    ]
    ok = True
    if args.roundtrip:
        ts = oa_to_test_space(oa)
        rows.append(("induced_outcomes", len(ts.outcomes)))
        rows.append(("induced_tests", len(ts.tests)))
        mapping = _roundtrip(oa, ts)
        ok = mapping is not None
        rows.append(("roundtrip", ok))
    _emit(rows, args.format)
    return 1 if args.strict and not ok else 0


def _read_sample(path: str, coords: str | None) -> tuple[str, str]:
    """The texts of a sampled space and of its coordinates."""
    if coords is None and path == "-":
        raise TspError("a space read from stdin needs --coords")
    return _read(path), _read(sidecar_path(path) if coords is None else coords)


def _cmd_metric_check(args) -> int:
    ts, pts = parse_sample(*_read_sample(args.file, args.coords))
    rows = _space_battery(ts, pts, args.ortho_tol)
    _emit([(name, "ok" if ok else f"fail ({detail})" if detail else "fail")
           for name, ok, detail in rows], args.format)
    return 1 if args.strict and not all(ok for _, ok, _ in rows) else 0


def _cmd_sample_frames(args) -> int:
    sample = sample_frames(args.dim, args.count, args.seed)
    header = f"frames dim={args.dim} count={args.count} seed={args.seed}"
    tsp_path, coords_path = save_sample(sample, args.out, header=header)
    _emit(
        [
            ("outcomes", len(sample.ids)),
            ("tests", len(sample.tests)),
            ("file", tsp_path),
            ("coords", coords_path),
        ],
        args.format,
    )
    return 0


def _resolve_basis(spec: str, sample: MetricSample, delta: float):
    kind, _, rest = spec.partition(":")
    if kind == "auto":
        try:
            n = int(rest)
        except ValueError:
            raise TspError(f"bad basis spec {spec!r}; want auto:N or file:PATH") from None
        return auto_basis(sample, n, delta)
    if kind == "file":
        return load_basis(_read(rest))
    raise TspError(f"bad basis spec {spec!r}; want auto:N or file:PATH")


def _extraction_rows(result, prefix: str = ""):
    rows = [
        (prefix + "opens", len(result.open_hits)),
        (prefix + "selected", len(result.selected)),
        (prefix + "hit_fraction", result.hit_fraction),
        (prefix + "coverage_radius", result.coverage_radius),
        (prefix + "separation", result.separation),
        (prefix + "coverage_ok", result.coverage_ok),
    ]
    for i, hit in enumerate(result.open_hits):
        rows.append((f"{prefix}open {i}", "miss" if hit is None else hit))
    return rows


def _cmd_extract(args) -> int:
    if args.resample_factor < 1:
        raise TspError(f"--resample-factor must be at least 1, got {args.resample_factor}")
    text, coords_text = _read_sample(args.file, args.coords)
    sample = MetricSample._of_space(*parse_sample(text, coords_text), args.ortho_tol)
    basis = _resolve_basis(args.basis, sample, args.delta)
    if args.save_basis is not None:
        with open(args.save_basis, "w") as fh:
            fh.write(dump_basis(basis))
    result = extract_semiclassical(
        sample, basis, density_target=args.delta, margin=args.margin
    )
    rows = _extraction_rows(result)
    preserved = True
    if args.resample_factor > 1:
        match = _FRAME_HEADER.search(text)
        if match is None:
            raise TspError(
                "resampling needs a '# frames dim=.. count=.. seed=..' header"
            )
        dim, count, seed = (int(g) for g in match.groups())
        bigger = sample_frames(dim, count * args.resample_factor, seed)
        grown = extend_basis(
            bigger, basis, (args.resample_factor - 1) * len(basis), args.delta
        )
        again = extract_semiclassical(
            bigger, grown, density_target=args.delta, margin=args.margin
        )
        rows.extend(_extraction_rows(again, prefix="resampled_"))
        preserved = all(
            b is not None
            for a, b in zip(result.open_hits, again.open_hits)
            if a is not None
        )
        rows.append(("hits_preserved", preserved))
    state = hidden_variable_state(result, seed=args.seed)
    ok, _worst = verify_state(result.sub_test_space, state)
    rows.append(("hidden_state_valid", ok))
    for x in result.sub_test_space.outcomes:
        rows.append((f"state {x}", state[x]))
    if args.out is not None:
        tsp_path, coords_path = save_sample(result.sub_sample, args.out)
        rows.append(("file", tsp_path))
        rows.append(("coords", coords_path))
    _emit(rows, args.format)
    negative = (
        not ok
        or result.hit_fraction < 1.0
        or not preserved
        or not result.coverage_ok
    )
    return 1 if args.strict and negative else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsp",
        description="inspect test spaces, their logics, states, and metric samples",
    )
    parser.add_argument(
        "--format", choices=("plain", "machine"), default="plain",
        help="report style (machine prints tab-separated key/value lines)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 on negative answers, not only on errors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="print a bundled example space")
    p.add_argument("name", nargs="?", help="example name, e.g. classical-3")
    p.add_argument("--list", action="store_true", help="list example names")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("info", help="basic facts about a space")
    p.add_argument("file", help="space file, or - for stdin")
    p.add_argument("--cap", type=int, default=DEFAULT_EVENT_CAP)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("logic", help="build the logic and report its shape")
    p.add_argument("file", help="space file, or - for stdin")
    p.add_argument("--cap", type=int, default=DEFAULT_EVENT_CAP)
    p.set_defaults(func=_cmd_logic)

    p = sub.add_parser("states", help="solve for a state or certify none exists")
    p.add_argument("file", help="space file, or - for stdin")
    p.add_argument("--dispersion-free", action="store_true",
                   help="also enumerate dispersion-free states")
    p.add_argument("--df-cap", type=int, default=DEFAULT_DF_CAP,
                   help="outcome limit for the dispersion-free search")
    p.set_defaults(func=_cmd_states)

    p = sub.add_parser("oa", help="inspect a sum-table file")
    p.add_argument("file", help="table file, or - for stdin")
    p.add_argument("--roundtrip", action="store_true",
                   help="rebuild the table from its induced space and compare")
    p.set_defaults(func=_cmd_oa)

    p = sub.add_parser("metric", help="operations on sampled spaces")
    msub = p.add_subparsers(dest="metric_command", required=True)
    mc = msub.add_parser("check", help="run the sample invariant battery")
    mc.add_argument("file", help="space file, or - for stdin (then --coords is needed)")
    mc.add_argument("--coords", default=None,
                    help="coordinate sidecar (default: .coords next to the file)")
    mc.add_argument("--ortho-tol", type=float, default=DEFAULT_ORTHO_TOL)
    mc.set_defaults(func=_cmd_metric_check)

    p = sub.add_parser("sample-frames", help="sample rotated orthonormal frames")
    p.add_argument("-d", "--dim", type=int, default=3)
    p.add_argument("-n", "--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True, help="output path (.tsp)")
    p.set_defaults(func=_cmd_sample_frames)

    p = sub.add_parser("extract", help="extract a semi-classical subspace")
    p.add_argument("file", help="sampled space file (.tsp), or - for stdin (then --coords is needed)")
    p.add_argument("--coords", default=None, help="coordinate sidecar")
    p.add_argument("--basis", required=True, help="auto:N or file:PATH")
    p.add_argument("--delta", type=float, default=0.3,
                   help="density target; also sizes auto-basis opens")
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN,
                   help="required clearance between selected tests")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the reported hidden-variable state")
    p.add_argument("--ortho-tol", type=float, default=DEFAULT_ORTHO_TOL)
    p.add_argument("--resample-factor", type=int, default=1,
                   help="rerun on a regenerated sample this many times larger")
    p.add_argument("--save-basis", default=None,
                   help="write the resolved basis to this path")
    p.add_argument("--out", default=None,
                   help="save the extracted subspace under this path")
    p.set_defaults(func=_cmd_extract)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TspError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main(argv=sys.argv[1:]))
