"""Child-interpreter probes of the benchmark (not a workload entry point).

``probe.py setup <workload> <seed>``
    Import ``repro``, make the workload's first unit ready, and print
    ``{"import_s": ...}``.  The parent times the whole process launch, so
    the result is the set-up a fresh ``repro`` process pays.
``probe.py counts <families-auto|families-exact|jobs>``
    Print the deterministic counts of every check as JSON, for the
    parent to compare against its own (count determinism).
"""

import json
import sys
import time


def main(argv: list) -> int:
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        began = time.perf_counter()
        import repro  # noqa: F401 - the import is what is timed

        import_s = time.perf_counter() - began
        if workload.startswith("families-"):
            from perfbench.families import ladder
            from repro.typecheck import typecheck  # noqa: F401

            ladder(workload[len("families-"):])[0].build()
        else:
            from perfbench.workloads import job_passes
            from repro.runtime.supervisor import JobSpec, Supervisor

            job = next(job_passes(int(argv[2])))[0]
            JobSpec(id="first", kind="typecheck", params=job.params())
            if workload == "batch":
                Supervisor()
        print(json.dumps({"import_s": import_s}))
        return 0
    if mode == "counts":
        from perfbench.workloads import family_counts, job_counts

        if workload == "jobs":
            counts = job_counts()
        else:
            counts = family_counts(workload[len("families-"):])
        print(json.dumps(counts, sort_keys=True))
        return 0
    print(f"unknown probe mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
