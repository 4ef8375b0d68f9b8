"""The four workloads: seeded inputs, and the jobs that make up one pass.

Each workload has a pool of `POOL` input sets.  Set `j` is generated from
`j` alone, so its answers can be recorded once in `references.json`.  Every
run visits the whole pool in whole cycles, so every run measures the same
inputs; a run's seed only chooses the order of the sets within each cycle.
Every job receives text (or point arrays) and builds its own library
objects, so no cached property of one pass makes a later pass cheaper.

Jobs mirror a `tsp` command or a check from the paper.  Each call into a
library layer sits in a span named `<layer>.<function>`, and each job
returns its answer as plain data for the digest check.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from testspaces import corpus
from testspaces.core import dump_test_space, enumerate_events, load_test_space
from testspaces.logic import (
    boolean_oa,
    build_logic,
    check_prop04,
    is_algebraic,
    loads_oa,
    oa_to_test_space,
    roundtrip_logic,
)
from testspaces.metric import (
    DEFAULT_ORTHO_TOL,
    NotTotallyNonOrthogonalError,
    check_sample_invariants,
    event_cardinality_locally_constant,
    hausdorff_distance,
    load_sample,
    matching_distance,
    parse_coords,
    rank_bound,
    sample_frames,
    save_sample,
    tno_radius,
)
from testspaces.semiclassical import (
    auto_basis,
    extend_basis,
    extract_semiclassical,
    is_semiclassical,
)
from testspaces.states import (
    DEFAULT_DF_CAP,
    dispersion_free_states,
    find_state,
    hidden_variable_state,
    infeasibility_certificate,
    is_udf,
    verify_state,
)


POOL = 4

DELTA = 0.3
MARGIN = 1e-6
CAP_30 = 2.0 * math.sin(math.radians(15.0))  # chordal radius of a 30 degree cap
CAP_60 = 2.0 * math.sin(math.radians(30.0))


@dataclass(frozen=True)
class Size:
    """Input sizes; `FULL` is what the benchmark measures."""

    frames: int = 1000  # sampled, saved, checked and extracted; resampled at twice this
    basis: int = 50
    classical: int = 7  # classical-N: one test, 2**N classes
    info_frames: int = 150
    logic_frames: int = 40
    boolean_atoms: int = 5
    logic_draws: int = 50
    states_frames: int = 90
    df_frames: int = 8  # 3 * 8 = 24 outcomes = DEFAULT_DF_CAP
    states_draws: int = 30
    geo_frames: int = 2000
    small_pairs: int = 8
    small_n: int = 8  # the exhaustive matching branch
    large_n: int = 120  # the threshold-search matching branch
    hausdorff_n: int = 2000
    tno_outcomes: int = 100
    adjacent_pairs: int = 1000

    def key(self) -> str:
        return ",".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))


FULL = Size()
TINY = Size(
    frames=30, basis=5, classical=4, info_frames=10, logic_frames=4,
    boolean_atoms=3, logic_draws=6, states_frames=10, df_frames=2,
    states_draws=6, geo_frames=60, small_pairs=2, small_n=5, large_n=12,
    hausdorff_n=40, tno_outcomes=5, adjacent_pairs=10,
)


class Job(NamedTuple):
    name: str  # unique within a pass; keys the reference digest
    command: str  # the tsp command or paper check it mirrors
    run: Callable[[], object]  # returns the answer


def cycle_orders(seed: int):
    """The order of the input sets in each cycle of a run: one permutation per cycle."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(range(POOL), POOL)


def _sample_text(frames: int, seed: int) -> str:
    sample = sample_frames(3, frames, seed)
    return dump_test_space(sample.to_test_space(), header=f"frames dim=3 count={frames} seed={seed}")


def _oa_text(oa) -> str:
    lines = [f"elements {' '.join(oa.elements)}", f"zero {oa.zero}", f"one {oa.one}"]
    seen = set()
    for p, q, r in oa.sum_triples():
        if oa.zero in (p, q) or frozenset((p, q)) in seen:
            continue
        seen.add(frozenset((p, q)))
        lines.append(f"sum {p} {q} {r}")
    return "\n".join(lines) + "\n"


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.standard_normal((n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def make_inputs(workload: str, set_id: int, size: Size = FULL) -> dict:
    """The generated inputs of one input set; the library sees only these."""
    if workload == "frames":
        return {"seed": set_id}
    if workload == "logic":
        rng = random.Random(1000 + set_id)
        return {
            "classical": corpus.gen(f"classical-{size.classical}"),
            "info": _sample_text(size.info_frames, set_id),
            "frames": _sample_text(size.logic_frames, 1000 + set_id),
            "oa": _oa_text(boolean_oa(size.boolean_atoms)),
            "draws": [
                dump_test_space(corpus.random_test_space(rng, max_universe=12, max_tests=5, max_size=6))
                for _ in range(size.logic_draws)
            ],
        }
    if workload == "states":
        rng = random.Random(2000 + set_id)
        return {
            "frames": _sample_text(size.states_frames, set_id),
            "df": _sample_text(size.df_frames, 1000 + set_id),
            "draws": [
                dump_test_space(corpus.random_test_space(
                    rng, max_universe=28, max_tests=20, min_size=3, max_size=7
                ))
                for _ in range(size.states_draws)
            ],
        }
    if workload == "geometry":
        rng = np.random.default_rng(3000 + set_id)
        base = _unit(rng, size.large_n)
        near = base + 1e-3 * rng.standard_normal(base.shape)
        return {
            "seed": set_id,
            "small": [(_unit(rng, size.small_n), _unit(rng, size.small_n)) for _ in range(size.small_pairs)],
            "large": [
                ("near", base, near / np.linalg.norm(near, axis=1, keepdims=True)),
                ("indep", _unit(rng, size.large_n), _unit(rng, size.large_n)),
            ],
            "hausdorff": (_unit(rng, size.hausdorff_n), _unit(rng, size.hausdorff_n)),
            "tno": sorted(rng.choice(3 * size.geo_frames, size.tno_outcomes, replace=False).tolist()),
        }
    raise ValueError(f"unknown workload {workload!r}")


def make_pool(workload: str, size: Size = FULL) -> list[dict]:
    """The inputs of every set in the pool, indexed by set id."""
    return [make_inputs(workload, set_id, size) for set_id in range(POOL)]


def make_jobs(workload: str, inputs: dict, tr, workdir: str, size: Size = FULL) -> list[Job]:
    """The jobs of one pass, in order.  Later jobs may use earlier jobs' files."""
    return _PASSES[workload](inputs, tr, workdir, size)


# -- shared job bodies --------------------------------------------------------


def _load(tr, text: str):
    with tr.span("core.load_test_space"):
        ts = load_test_space(text)
    tr.count("core.load_test_space.bytes", len(text))
    return ts


def _save(tr, sample, path: str, header: str | None = None):
    with tr.span("metric.save_sample"):
        tsp, coords = save_sample(sample, path, header=header)
    tr.count("metric.save_sample.bytes", os.path.getsize(tsp) + os.path.getsize(coords))
    return tsp, coords


def _extraction(tr, result) -> dict:
    hits = sum(h is not None for h in result.open_hits)
    tr.count("semiclassical.opens", len(result.open_hits))
    tr.count("semiclassical.hits", hits)
    return {
        "open_hits": result.open_hits,
        "selected": result.selected,
        "coverage_radius": result.coverage_radius,
        "separation": result.separation,
        "coverage_ok": result.coverage_ok,
    }


def _logic_answer(tr, ts) -> tuple:
    with tr.span("logic.build_logic"):
        logic = build_logic(ts)
    with tr.span("logic.check_prop04"):
        flags = check_prop04(logic)
    tr.count("logic.classes", len(logic))
    tr.count("logic.sum_entries", len(logic.sum_items()))
    return (len(logic), flags.orthocoherent, flags.osum_is_join, flags.omp,
            flags.all_equal(), logic.table_digest())


def _algebraic(tr, ts) -> tuple:
    with tr.span("logic.is_algebraic"):
        ok, witness = is_algebraic(ts)
    if ok:
        return (True,)
    tr.count("logic.non_algebraic", 1)
    return (False, tuple(tuple(sorted(e.members)) for e in witness))


def _states_answer(tr, ts, dispersion_free: bool) -> tuple:
    with tr.span("states.find_state"):
        state = find_state(ts)
    if state is not None:
        tr.count("states.feasible", 1)
        answer = ("feasible", tuple(state[x] for x in ts.outcomes))
    else:
        tr.count("states.infeasible", 1)
        with tr.span("states.infeasibility_certificate"):
            cert = infeasibility_certificate(ts)
        answer = ("infeasible", cert)
    if dispersion_free:
        with tr.span("states.dispersion_free_states"):
            dfs = dispersion_free_states(ts)
        with tr.span("states.is_udf"):
            unital = is_udf(ts)
        tr.count("states.df_states", len(dfs))
        ones = tuple(tuple(x for x in ts.outcomes if df[x] == 1) for df in dfs)
        answer += (ones, unital)
    return answer


# -- workloads -----------------------------------------------------------------


def _frames(inp, tr, workdir, size):
    seed, n = inp["seed"], size.frames
    tsp = os.path.join(workdir, "frames.tsp")
    coords_path = os.path.join(workdir, "frames.coords")

    def sample_and_save():
        with tr.span("metric.sample_frames"):
            sample = sample_frames(3, n, seed)
        _save(tr, sample, tsp, header=f"frames dim=3 count={n} seed={seed}")
        return (sample.ids, sample.tests, sample.coords)

    def metric_check():
        with open(tsp) as fh:
            ts = _load(tr, fh.read())
        with open(coords_path) as fh:
            text = fh.read()
        with tr.span("metric.parse_coords"):
            coords = parse_coords(text)
        pts = np.array([coords[x] for x in ts.outcomes], dtype=float)
        with tr.span("metric.check_sample_invariants"):
            return check_sample_invariants(ts.outcomes, pts, ts.tests, DEFAULT_ORTHO_TOL)

    def extract():
        with tr.span("metric.load_sample"):
            sample = load_sample(tsp)
        with tr.span("semiclassical.auto_basis"):
            basis = auto_basis(sample, size.basis, DELTA)
        with tr.span("semiclassical.extract_semiclassical"):
            result = extract_semiclassical(sample, basis, density_target=DELTA, margin=MARGIN)
        with tr.span("metric.sample_frames"):
            bigger = sample_frames(3, 2 * n, seed)
        with tr.span("semiclassical.extend_basis"):
            grown = extend_basis(bigger, basis, len(basis), DELTA)
        with tr.span("semiclassical.extract_semiclassical"):
            again = extract_semiclassical(bigger, grown, density_target=DELTA, margin=MARGIN)
        preserved = all(
            b is not None for a, b in zip(result.open_hits, again.open_hits) if a is not None
        )
        with tr.span("states.hidden_variable_state"):
            state = hidden_variable_state(result, seed=0)
        with tr.span("states.verify_state"):
            ok, _worst = verify_state(result.sub_test_space, state)
        sub = result.sub_sample
        _save(tr, sub, os.path.join(workdir, "sub.tsp"))
        return {
            "first": _extraction(tr, result),
            "resampled": _extraction(tr, again),
            "hits_preserved": preserved,
            "hidden_state_valid": ok,
            "state": tuple(state[x] for x in result.sub_test_space.outcomes),
            "sub": (sub.ids, sub.coords),
        }

    return [
        Job("sample_frames", "sample_frames", sample_and_save),
        Job("metric_check", "metric_check", metric_check),
        Job("extract", "extract", extract),
    ]


def _logic(inp, tr, workdir, size):
    def logic_job(text):
        return lambda: _logic_answer(tr, _load(tr, text))

    def info():
        ts = _load(tr, inp["info"])
        with tr.span("core.enumerate_events"):
            events = len(enumerate_events(ts))
        tr.count("core.events", events)
        algebraic = _algebraic(tr, ts)
        with tr.span("semiclassical.is_semiclassical"):
            semiclassical = is_semiclassical(ts)
        return (len(ts.outcomes), len(ts.tests), ts.rank, events, algebraic, semiclassical)

    def oa():
        with tr.span("logic.loads_oa"):
            table = loads_oa(inp["oa"])
        with tr.span("logic.oa_to_test_space"):
            ts = oa_to_test_space(table)
        with tr.span("logic.roundtrip_logic"):
            mapping = roundtrip_logic(table)
        return (table.size, len(table.sum_triples()), len(ts.outcomes), len(ts.tests),
                mapping is not None)

    def draw(text):
        def run():
            ts = _load(tr, text)
            algebraic = _algebraic(tr, ts)
            if not algebraic[0]:
                return algebraic
            return algebraic + _logic_answer(tr, ts)
        return run

    jobs = [
        Job(f"logic.classical-{size.classical}", "logic", logic_job(inp["classical"])),
        Job(f"info.frames-{size.info_frames}", "info", info),
        Job(f"logic.frames-{size.logic_frames}", "logic", logic_job(inp["frames"])),
        Job(f"oa.boolean-{size.boolean_atoms}", "oa", oa),
    ]
    jobs += [Job(f"draw.{k:03d}", "logic", draw(t)) for k, t in enumerate(inp["draws"])]
    return jobs


def _states(inp, tr, workdir, size):
    def states_job(text, dispersion_free):
        return lambda: _states_answer(tr, _load(tr, text), dispersion_free)

    def draw(text):
        def run():
            ts = _load(tr, text)
            return _states_answer(tr, ts, len(ts.outcomes) <= DEFAULT_DF_CAP)
        return run

    jobs = [
        Job(f"states.frames-{size.states_frames}", "states", states_job(inp["frames"], False)),
        Job(f"states-df.frames-{size.df_frames}", "states", states_job(inp["df"], True)),
    ]
    jobs += [Job(f"draw.{k:03d}", "states", draw(t)) for k, t in enumerate(inp["draws"])]
    return jobs


def _geometry(inp, tr, workdir, size):
    sample = None

    def fresh_sample():
        nonlocal sample
        with tr.span("metric.sample_frames"):
            sample = sample_frames(3, size.geo_frames, inp["seed"])
        return sample.coords

    def matching(a, b):
        def run():
            with tr.span("metric.matching_distance"):
                value = matching_distance(a, b)
            tr.count("metric.distance_evals", len(a) * len(b))
            return value
        return run

    def hausdorff():
        a, b = inp["hausdorff"]
        with tr.span("metric.hausdorff_distance"):
            value = hausdorff_distance(a, b)
        tr.count("metric.distance_evals", len(a) * len(b))
        return value

    def rank(cap):
        def run():
            try:
                with tr.span("metric.rank_bound"):
                    caps = rank_bound(sample, cap)
            except NotTotallyNonOrthogonalError as exc:
                tr.count("metric.distance_evals", len(sample.ids))
                return ("not_tno", exc.center, exc.pair)
            tr.count("metric.rank_bound.caps", caps)
            tr.count("metric.distance_evals", caps * len(sample.ids))
            return caps
        return run

    def tno():
        n = len(sample.ids)
        with tr.span("metric.orthogonal_pair_indices"):
            pairs = len(sample.orthogonal_pair_indices)
        tr.count("metric.orthogonal_pairs", pairs)
        tr.count("metric.distance_evals", n * n + n * len(inp["tno"]))
        radii = []
        for i in inp["tno"]:
            with tr.span("metric.tno_radius"):
                radii.append(tno_radius(sample, sample.ids[i]))
        return (pairs, radii)

    def adjacent():
        tests = [sorted(t) for t in sample.tests[: size.adjacent_pairs + 1]]
        out = []
        for a, b in zip(tests, tests[1:]):
            with tr.span("metric.event_cardinality_locally_constant"):
                out.append(event_cardinality_locally_constant(sample, a, b))
            tr.count("metric.distance_evals", len(a) * len(b))
        return out

    jobs = [Job("sample_frames", "sample_frames", fresh_sample)]
    jobs += [Job(f"matching.n{size.small_n}.{k:02d}", "matching", matching(a, b))
             for k, (a, b) in enumerate(inp["small"])]
    jobs += [Job(f"matching.n{size.large_n}.{label}", "matching", matching(a, b))
             for label, a, b in inp["large"]]
    jobs += [
        Job("hausdorff", "hausdorff", hausdorff),
        Job("rank_bound.30deg", "rank_bound", rank(CAP_30)),
        Job("rank_bound.60deg", "rank_bound", rank(CAP_60)),
        Job("tno_radius", "tno_radius", tno),
        Job("locally_constant", "locally_constant", adjacent),
    ]
    return jobs


_PASSES = {"frames": _frames, "logic": _logic, "states": _states, "geometry": _geometry}
