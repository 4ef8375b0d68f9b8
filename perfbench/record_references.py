"""Record the reference digest of every job on every input set.

    python3 perfbench/record_references.py [workload ...]

Runs one untraced pass per input set of each named workload (all four by
default) and rewrites those workloads' entries in `references.json`.  Run
it only on a commit whose answers are known to be right: every later run is
checked against what it writes.  A job that raises here gets no reference,
so it counts as failed in every run until its references are recorded
again.
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import OUT_DIR, WORKLOAD_NAMES, import_program, run_pass


def record(workloads=WORKLOAD_NAMES, size=None) -> dict:
    import workloads as wl
    from checks import digest
    from tracer import NULL

    size = size or wl.FULL
    OUT_DIR.mkdir(exist_ok=True)
    refs = {}
    for workload in workloads:
        names, sets = None, []
        for set_id in range(wl.POOL):
            inputs = wl.make_inputs(workload, set_id, size)
            with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
                outcomes = run_pass(wl.make_jobs(workload, inputs, NULL, workdir, size), NULL)
            names = names or [name for name, _, _ in outcomes]
            if names != [name for name, _, _ in outcomes]:
                raise RuntimeError(f"{workload}: job list differs between input sets")
            for name, _, error in outcomes:
                if error is not None:
                    print(f"{workload} set {set_id}: {name} raised {error}; no reference",
                          file=sys.stderr)
            sets.append([None if error else digest(answer) for _, answer, error in outcomes])
        refs[workload] = {"size": size.key(), "jobs": names, "sets": sets}
    return refs


def main(argv) -> int:
    import_program()
    from checks import REFERENCES, load_references

    chosen = tuple(argv) or WORKLOAD_NAMES
    refs = load_references() if REFERENCES.exists() else {}
    refs.update(record(chosen))
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
