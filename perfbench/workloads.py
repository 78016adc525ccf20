"""The four workloads: ``families-auto``, ``families-exact``, ``served``
and ``batch``.

Each is a closed loop in the benchmark's own process that runs whole
units until ``seconds`` have passed.  Outputs are checked after the
timed loop, so checking never counts as workload time.  Every time that
makes an end-to-end metric is scaled to the host-speed reference of
``hostspeed.py``, timed on the same CPU between units.  Per-layer
numbers come from a separate traced run (``trace=True``), which times
each layer's public functions from outside (see ``stages.py``).
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.families import OK, TYPE_ERROR, chain_all, ladder, verdict_of
from perfbench.hostspeed import HostSpeed
from perfbench.stages import (
    Replay,
    Spans,
    replay_auto,
    replay_exact,
    witness_holds,
)

#: A check slower than this counts as failed (the per-check time limit);
#: jobs carry it as their cooperative ``timeout``.
CHECK_LIMIT_S = 10.0

#: A run goes on past its time until it has this many units, so that at
#: least ten latency samples lie beyond p90 on a slow host (a traced
#: families run is exempt: it does several checks per unit).
MIN_UNITS = 110

#: Fresh-interpreter (or daemon) starts per run; ``setup_s`` is their
#: median.
SETUP_REPEATS = 7

#: Reference blocks timed before each setup probe, batch or served pass
#: (families time one before every check).
BLOCKS = 3

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Outcome:
    """What one run measured, before it is turned into metrics.

    ``latencies_ms``, ``busy_s`` and ``setup_s`` are scaled to the host
    reference (``host``); the per-layer figures in ``layer`` are raw."""

    latencies_ms: list = field(default_factory=list)
    #: the instance or job each latency is of, in the same order; empty
    #: where a latency is not its job's alone (a served round trip also
    #: waits for the job the other connection sent just before)
    kinds: list = field(default_factory=list)
    #: the time the units took, excluding reference blocks (throughput's
    #: denominator)
    busy_s: float = 0.0
    setup_s: list = field(default_factory=list)
    import_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    problems: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)
    drifted: list = field(default_factory=list)
    spans: Spans = field(default_factory=Spans)
    host: HostSpeed = field(default_factory=HostSpeed)

    def fail(self, message: str) -> None:
        self.problems.append(message)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.update(extra)
    return env


def settle_heap() -> None:
    """Collect the benchmark's own garbage and freeze what is left, so
    the cyclic collections during a unit (or in a worker forked for it)
    traverse only what the unit allocates, as in a fresh process, and do
    not depend on which units ran before it."""
    gc.collect()
    gc.freeze()


def setup_probes(workload: str, seed: int, count: int, out: Outcome
                 ) -> list:
    """Time ``count`` fresh interpreters from launch to their first unit
    being ready (``probe.py setup``); each reports its ``import repro``.
    Returns the launch-to-ready times in seconds, scaled to the host
    reference."""
    times = []
    for _ in range(count):
        out.host.sample(BLOCKS)
        started = time.perf_counter_ns()
        probe = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), "setup",
             workload, str(seed)],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        elapsed = (time.perf_counter_ns() - started) / 1e9
        if probe.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{probe.stderr}")
        times.append(elapsed * out.host.factor(started))
        out.import_s.append(json.loads(probe.stdout)["import_s"])
    return times


# -- families ----------------------------------------------------------------


def run_families(route: str, seed: int, seconds: float, trace: bool
                 ) -> Outcome:
    """``families-auto`` / ``families-exact``: one in-process
    ``typecheck()`` per unit, on fresh objects and a cleared memo, as a
    ``repro typecheck`` process starts."""
    from repro.runtime.cache import clear_cache

    out = Outcome()
    out.setup_s = setup_probes(f"families-{route}", seed, SETUP_REPEATS,
                               out)
    instances = ladder(route)
    rng = random.Random(seed)
    results = []
    windows = []  # (start_ns, end_ns) of each unit
    samples: dict[str, dict[str, list]] = {}
    replays: dict[str, list[Replay]] = {}
    stop_at = time.perf_counter() + seconds
    rounds = 0
    # whole rounds keep every run's mix of sizes and verdicts identical
    while (rounds == 0 or time.perf_counter() < stop_at
           or not trace and len(results) < MIN_UNITS):
        order = list(instances)
        rng.shuffle(order)
        for instance in order:
            settle_heap()
            out.host.sample()
            began = time.perf_counter_ns()
            result, wall_ms = _timed_check(instance, route)
            windows.append((began, time.perf_counter_ns()))
            results.append((instance, result, wall_ms))
            if trace:
                _trace_check(out, instance, route, result, wall_ms,
                             samples, replays, first=rounds == 0)
        rounds += 1
    out.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    for (instance, _, wall_ms), (began, ended) in zip(results, windows):
        factor = out.host.factor(began)
        out.kinds.append(instance.name)
        out.latencies_ms.append(wall_ms * factor)
        out.busy_s += (ended - began) / 1e9 * factor
    out.attempted = len(results)
    _check_verdicts(out, results)
    if trace:
        _families_layers(out, route, instances, samples, replays)
    clear_cache()
    return out


def _timed_check(instance, route: str):
    from repro.runtime.cache import clear_cache
    from repro.typecheck import typecheck

    machine, tau1, tau2 = instance.build()
    clear_cache()
    started = time.perf_counter_ns()
    try:
        result = typecheck(machine, tau1, tau2, method=route)
    except Exception as error:  # a raising check is a failed unit
        result = error
    return result, (time.perf_counter_ns() - started) / 1e6


def _check_verdicts(out: Outcome, results) -> None:
    """Every verdict against the family oracle; every type-error witness
    replayed through ``repro.pebble.run`` and the types' ``accepts``."""
    replayed: dict = {}
    for instance, result, wall_ms in results:
        if isinstance(result, Exception):
            out.fail(f"{instance.name}: raised {result!r}")
            continue
        if wall_ms > CHECK_LIMIT_S * 1000:
            out.fail(f"{instance.name}: {wall_ms:.0f} ms exceeds the "
                     "per-check limit")
            continue
        verdict = verdict_of(result)
        if verdict != instance.expected:
            out.fail(f"{instance.name}: verdict {verdict}, expected "
                     f"{instance.expected} ({instance.reason})")
            continue
        if verdict == TYPE_ERROR:
            key = (instance.name, result.counterexample_input)
            if key not in replayed:
                replayed[key] = (
                    result.counterexample_input is not None
                    and witness_holds(*instance.build(),
                                      result.counterexample_input)
                )
            if not replayed[key]:
                out.fail(f"{instance.name}: witness does not replay")


def _trace_check(out, instance, route, result, wall_ms, samples, replays,
                 first: bool) -> None:
    """The traced extras for one check: the stage-by-stage replay, the
    same check without the memo, and (first round) its governor counts."""
    from repro.runtime.cache import cache_disabled, clear_cache
    from repro.typecheck import typecheck

    per = samples.setdefault(instance.name, {})
    per.setdefault("typecheck_ms", []).append(wall_ms)
    replay = Replay(out.spans, instance.name)
    clear_cache()
    started = time.perf_counter_ns()
    with out.spans.span("check", instance.name):
        if route == "exact":
            verdict = replay_exact(replay, *instance.build())
        else:
            verdict = replay_auto(replay, instance.build)
    per.setdefault("traced_ms", []).append(
        (time.perf_counter_ns() - started) / 1e6
    )
    replays.setdefault(instance.name, []).append(replay)
    if not isinstance(result, Exception) and verdict != verdict_of(result):
        out.fail(f"{instance.name}: replayed verdict {verdict} differs from "
                 f"typecheck()'s {verdict_of(result)}")
    machine, tau1, tau2 = instance.build()
    with cache_disabled():
        began = time.perf_counter_ns()
        typecheck(machine, tau1, tau2, method=route)
        per.setdefault("nocache_ms", []).append(
            (time.perf_counter_ns() - began) / 1e6
        )
    if first:
        if not isinstance(result, Exception):
            for name in ("hits", "misses", "stores"):
                per[f"cache.{name}"] = result.stats["cache"][name]
        per["counts"] = count_check(instance, route)


def count_check(instance, route: str) -> dict:
    """Deterministic counts of one cold check: governor steps and states
    and the replay's construction sizes."""
    from repro.runtime.cache import clear_cache
    from repro.runtime.governor import ResourceGovernor
    from repro.typecheck import typecheck

    machine, tau1, tau2 = instance.build()
    clear_cache()
    governor = ResourceGovernor()
    typecheck(machine, tau1, tau2, method=route, governor=governor)
    counts = {"runtime.governor.steps": governor.steps,
              "runtime.governor.states": governor.states}
    replay = Replay(Spans(), instance.name)
    clear_cache()
    if route == "exact":
        replay_exact(replay, *instance.build())
    else:
        replay_auto(replay, instance.build)
    counts.update(replay.counts)
    return counts


def family_counts(route: str) -> dict:
    """Every instance's counts, keyed ``<instance>:<count>``."""
    return {
        f"{instance.name}:{name}": value
        for instance in ladder(route)
        for name, value in count_check(instance, route).items()
    }


def _families_layers(out, route, instances, samples, replays) -> None:
    layer = out.layer
    stage_ms: dict[str, list] = {}
    unattributed, cold_overhead, overhead_share = [], [], []
    for instance in instances:
        per = samples[instance.name]
        runs = replays[instance.name]
        names = {name for replay in runs for name in replay.ms}
        medians = {
            name: median([replay.ms.get(name, 0.0) for replay in runs])
            for name in names
        }
        for name, value in medians.items():
            stage_ms.setdefault(name, []).append(value)
        typecheck_ms = median(per["typecheck_ms"])
        if route == "exact":
            attributed = sum(medians.values())
        else:
            attributed = (
                medians.get("typecheck.classify_ms", 0.0)
                + medians.get("typecheck.fast_td_ms", 0.0)
                + medians.get("typecheck.lazy_route_ms", 0.0)
            )
        unattributed.append(typecheck_ms - attributed)
        cold_overhead.append(typecheck_ms - median(per["nocache_ms"]))
        overhead_share.append(median(per["traced_ms"]) / typecheck_ms)
    count = len(instances)
    for name, values in stage_ms.items():
        if name != "typecheck.lazy_route_ms":
            layer[name] = sum(values) / count
    layer["typecheck.unattributed_ms"] = sum(unattributed) / count
    layer["runtime.cache.cold_overhead_ms"] = sum(cold_overhead) / count
    layer["bench.trace_overhead_share"] = median(overhead_share)
    for name in ("hits", "misses", "stores"):
        layer[f"runtime.cache.{name}"] = sum(
            samples[i.name].get(f"cache.{name}", 0) for i in instances
        ) / count
    totals: dict[str, int] = {}
    local: dict[str, int] = {}
    for instance in instances:
        for name, value in samples[instance.name]["counts"].items():
            totals[name] = totals.get(name, 0) + value
            local[f"{instance.name}:{name}"] = value
    layer.update(totals)
    layer.update(growth_exponents(instances, samples))
    layer["bench.count_drift"] = _count_drift(
        out, local, ["counts", f"families-{route}"]
    )


def growth_exponents(instances, samples) -> dict:
    """Least-squares slope of log(ms) on log(n) per family, over the
    per-size medians of both verdicts."""
    import math

    points: dict[str, list] = {}
    for instance in instances:
        ms = median(samples[instance.name]["typecheck_ms"])
        points.setdefault(instance.family, []).append(
            (math.log(instance.size), math.log(max(ms, 1e-3)))
        )
    exponents = {}
    for family, xy in points.items():
        mean_x = sum(x for x, _ in xy) / len(xy)
        mean_y = sum(y for _, y in xy) / len(xy)
        sxx = sum((x - mean_x) ** 2 for x, _ in xy)
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in xy)
        exponents[f"typecheck.growth_exp.{family}"] = sxy / sxx
    return exponents


def _count_drift(out: Outcome, local: dict, probe_args: list) -> int:
    """Recount in a fresh interpreter with another hash seed and report
    every count that differs; later changes may cite these counts."""
    probe = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), *probe_args],
        env=child_env(PYTHONHASHSEED="1"), capture_output=True, text=True,
        timeout=170,
    )
    if probe.returncode != 0:
        raise RuntimeError(f"count probe failed:\n{probe.stderr}")
    other = json.loads(probe.stdout)
    drifted = sorted(
        name for name in set(local) | set(other)
        if local.get(name) != other.get(name)
    )
    out.drifted += [
        f"{name}: {local.get(name)} here, {other.get(name)} recounted"
        for name in drifted
    ]
    return len(drifted)


# -- jobs: the served and batch workloads ------------------------------------

#: Chain sizes of the job pool: (width, depth).
JOB_SIZES = ((1, 2), (1, 3), (1, 4), (2, 3))
#: The ``ok`` chain and a chain failing at each level, for every size,
#: each under ``auto`` and ``exact``: 32 jobs.
POOL_SIZE = 2 * sum(1 + depth for _, depth in JOB_SIZES)
#: The served pool worker is retired and re-forked after this many jobs
#: (``repro serve --recycle-jobs``), and the pass after a recycle runs
#: about twice as slow; a served run ends on a whole number of these
#: periods, so every run has the same share of post-recycle jobs.  It is
#: three passes over the pool, so every period runs the same jobs and
#: each job's median round trip falls among its two warm passes (with
#: the default of 64, two passes, it fell in the gap between a slow and
#: a fast one).
RECYCLE_JOBS = 3 * POOL_SIZE
#: Jobs per ``run_batch`` call of the batch workload: a quarter pass.
BATCH_JOBS = 8


@dataclass(frozen=True)
class Job:
    key: str
    instance: object
    method: str

    def params(self) -> dict:
        sheet, input_dtd, output_dtd = self.instance.texts
        return {
            "stylesheet_text": sheet,
            "input_dtd_text": input_dtd,
            "output_dtd_text": output_dtd,
            "method": self.method,
            "timeout": CHECK_LIMIT_S,
        }


def job_pool() -> list[Job]:
    """Both verdicts of every chain size under ``auto`` and ``exact``, as
    E16 mixes them: ``POOL_SIZE`` distinct jobs, the same for every
    seed."""
    pool = []
    for width, depth in JOB_SIZES:
        for instance in chain_all(width, depth):
            for method in ("auto", "exact"):
                pool.append(Job(f"{instance.name}-{method}", instance,
                                method))
    return pool


def job_passes(seed: int):
    """A seeded draw with repeats from the pool, made as it is consumed:
    endless shuffled passes over it, so every run's mix of sizes, verdicts
    and methods is the same.  (A batch worker is forked from this process,
    so a draw made in advance would count in its resident set.)"""
    pool = job_pool()
    rng = random.Random(seed + 1)
    while True:
        block = list(pool)
        rng.shuffle(block)
        yield block


class JobChecker:
    """Checks job outcomes against the oracle, replaying each distinct
    counterexample once."""

    def __init__(self, out: Outcome) -> None:
        self.out = out
        self.replayed: dict = {}

    def check(self, job: Job, status: str, detail: dict) -> bool:
        if status != job.instance.expected:
            self.out.fail(f"{job.key}: status {status}, expected "
                          f"{job.instance.expected} "
                          f"({detail.get('error', job.instance.reason)})")
            return False
        if status == OK:
            return True
        document = detail.get("counterexample_input")
        key = (job.key, document)
        if key not in self.replayed:
            self.replayed[key] = document is not None and _replay_document(
                job, document
            )
        if not self.replayed[key]:
            self.out.fail(f"{job.key}: counterexample does not replay")
        return self.replayed[key]


def _replay_document(job: Job, document: str) -> bool:
    from perfbench.families import build_chain
    from repro.trees.encoding import encode
    from repro.xmlio import parse_xml

    machine, tau1, tau2 = build_chain(job.instance.texts)
    return witness_holds(machine, tau1, tau2, encode(parse_xml(document)))


def _job_layers(out: Outcome) -> dict:
    """Layer metrics both job workloads share: front-end parse times,
    in-job compute, and the pool's deterministic governor counts, each
    timed call under a benchmark span.  The job loop itself runs
    untraced, so ``bench.trace_overhead_share`` does not apply (reads 0).
    Returns each job's median in-process execution time in ms."""
    from repro.lang import parse_stylesheet, xslt_to_transducer
    from repro.runtime.cache import clear_cache
    from repro.runtime.jobs import execute_job
    from repro.xmlio import parse_dtd

    pool = job_pool()
    xslt_ms, dtd_ms, execute_ms = [], [], {}
    for job in pool:
        sheet, input_text, output_text = job.instance.texts
        parse_samples, compile_samples, run_samples = [], [], []
        for _ in range(3):
            began = time.perf_counter_ns()
            tau1 = parse_dtd(input_text)
            parse_dtd(output_text)
            middle = time.perf_counter_ns()
            xslt_to_transducer(parse_stylesheet(sheet), tags=tau1.symbols,
                               root_tag=tau1.root)
            ended = time.perf_counter_ns()
            out.spans.record("xmlio.dtd_parse", job.key, began, middle)
            out.spans.record("lang.xslt_compile", job.key, middle, ended)
            parse_samples.append((middle - began) / 1e6)
            compile_samples.append((ended - middle) / 1e6)
            clear_cache()
            with out.spans.span("runtime.jobs.execute", job.key):
                began = time.perf_counter_ns()
                execute_job({"kind": "typecheck", "params": job.params()})
                run_samples.append((time.perf_counter_ns() - began) / 1e6)
        dtd_ms.append(median(parse_samples))
        xslt_ms.append(median(compile_samples))
        execute_ms[job.key] = median(run_samples)
    clear_cache()
    out.layer["xmlio.dtd_parse_ms"] = sum(dtd_ms) / len(pool)
    out.layer["lang.xslt_compile_ms"] = sum(xslt_ms) / len(pool)
    out.layer["runtime.jobs.execute_ms"] = (
        sum(execute_ms.values()) / len(pool)
    )
    counts = job_counts()
    for name in ("steps", "states"):
        out.layer[f"runtime.governor.{name}"] = sum(
            value for key, value in counts.items()
            if key.endswith(f".{name}")
        )
    out.layer["bench.count_drift"] = _count_drift(
        out, counts, ["counts", "jobs"]
    )
    return execute_ms


def job_counts() -> dict:
    """Governor steps and states of every pool job run cold in-process,
    keyed ``<job>:<count>``."""
    from repro.runtime.cache import clear_cache
    from repro.runtime.jobs import execute_job

    counts = {}
    for job in job_pool():
        clear_cache()
        budget = execute_job(
            {"kind": "typecheck", "params": job.params()}
        )["stats"]["budget"]
        for name in ("steps", "states"):
            counts[f"{job.key}:runtime.governor.{name}"] = budget[name]
    clear_cache()
    return counts


def _cache_means(out: Outcome, details: list) -> None:
    def total(path):
        value = 0
        for detail in details:
            node = detail.get("stats", {}).get("cache", {})
            for part in path[:-1]:
                node = node.get(part, {})
            value += node.get(path[-1], 0)
        return value / max(1, len(details))

    for name in ("hits", "misses", "stores"):
        out.layer[f"runtime.cache.{name}"] = total([name])
    for name in ("hits", "misses"):
        out.layer[f"runtime.diskcache.{name}"] = total(["persistent", name])


# -- served ------------------------------------------------------------------


def run_served(seed: int, seconds: float, trace: bool, scratch: Path
               ) -> Outcome:
    """``served``: a ``repro serve`` daemon with one pool worker, driven
    by two closed-loop client connections.  The daemon's first recycle
    period starts on an empty disk tier; it is warm-up, checked but not
    measured, so every measured period is one of the steady state."""
    out = Outcome()
    setup_probes("served", seed, 1, out)  # for import_s only
    os.chdir(scratch)  # unix socket paths must stay short
    daemons = []
    try:
        for index in range(SETUP_REPEATS):
            daemons.append(_start_daemon(Path(f"served-{index}"), out))
            if index < SETUP_REPEATS - 1:
                _stop_daemon(*daemons[-1])
        process, client = daemons[-1]
        passes = job_passes(seed)
        warmup = []
        for _ in range(RECYCLE_JOBS // POOL_SIZE):
            for job in next(passes):
                warmup.append((job, *_submit(client, job, len(warmup))))
        records = []  # (job, rtt_ms, response)
        windows = []  # (start_ns, end_ns, jobs) of each pass
        worker_hwm: dict[int, float] = {}
        stop_at = time.perf_counter() + seconds
        done = threading.Event()

        def monitor() -> None:
            while not done.wait(0.5):
                _sample_workers(client, worker_hwm)

        sampler = threading.Thread(target=monitor)
        sampler.start()
        try:
            # whole passes, reference blocks between them while the pool
            # worker is idle; the run ends on a whole recycle period
            while (time.perf_counter() < stop_at or len(records) < MIN_UNITS
                   or len(records) % RECYCLE_JOBS):
                out.host.sample(BLOCKS)
                began = time.perf_counter_ns()
                done_pass = _served_pass(
                    client, next(passes), len(warmup) + len(records)
                )
                windows.append((began, time.perf_counter_ns(),
                                len(done_pass)))
                records += done_pass
            out.host.sample(BLOCKS)
        finally:
            done.set()
            sampler.join()
        _sample_workers(client, worker_hwm)
        stats = client.stats()["stats"]
    finally:
        if daemons:
            _stop_daemon(*daemons[-1])
    out.peak_rss_mb = max(worker_hwm.values(), default=0.0)
    out.attempted = len(records)
    scale_windows(out, windows, [rtt for _, rtt, _ in records])
    checker = JobChecker(out)
    details, overhead, compute = [], [], []
    for number, (job, rtt, response) in enumerate(warmup + records):
        measured = number >= len(warmup)
        result = response.get("result")
        if not response.get("ok") or result is None:
            out.fail(f"{job.key}: {response.get('error', response)}")
            continue
        checker.check(job, result["status"], result.get("detail", {}))
        if not measured:
            continue
        details.append(result.get("detail", {}))
        overhead.append(rtt - result["wall_seconds"] * 1000)
        compute.append(result["wall_seconds"] * 1000)
    if trace:
        _cache_means(out, details)
        out.layer["runtime.service.overhead_ms"] = median(overhead)
        out.layer["runtime.service.compute_ms"] = median(compute)
        out.layer["runtime.service.p95_wait_ms"] = (
            stats["pressure"]["p95_wait"] * 1000
        )
        out.layer["runtime.service.shed"] = sum(stats["shed"].values())
        _job_layers(out)
    return out


def _served_pass(client, block: list, first_id: int) -> list:
    """One pass over the job pool on two closed-loop connections; returns
    ``(job, rtt_ms, response)`` in completion order."""
    lock = threading.Lock()
    pending = list(enumerate(block, first_id))
    done = []

    def connection() -> None:
        while True:
            with lock:
                if not pending:
                    return
                index, job = pending.pop(0)
            rtt, response = _submit(client, job, index)
            with lock:
                done.append((job, rtt, response))

    threads = [threading.Thread(target=connection) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return done


def scale_windows(out: Outcome, windows: list, latencies_ms: list) -> None:
    """Scale the latencies of each timed window (a pass or a batch) and
    its wall time to the host reference taken around it, into
    ``out.latencies_ms`` and ``out.busy_s``."""
    position = 0
    for began, ended, count in windows:
        factor = out.host.factor((began + ended) // 2)
        out.latencies_ms += [
            ms * factor for ms in latencies_ms[position:position + count]
        ]
        out.busy_s += (ended - began) / 1e9 * factor
        position += count


def _submit(client, job: Job, index: int) -> tuple[float, dict]:
    """One client round trip: its time in ms and the daemon's response."""
    from repro.errors import ServiceError
    from repro.runtime.supervisor import JobSpec

    spec = JobSpec(id=f"j{index}", kind="typecheck", params=job.params())
    began = time.perf_counter_ns()
    try:
        response = client.submit(spec, timeout=CHECK_LIMIT_S * 3)
    except ServiceError as error:  # a failed unit, not a crash
        response = {"ok": False, "error": str(error)}
    return (time.perf_counter_ns() - began) / 1e6, response


def _start_daemon(directory: Path, out: Outcome):
    from repro.errors import ServiceError
    from repro.runtime.service import ServiceClient

    directory.mkdir(parents=True)
    socket_path = directory / "s.sock"
    log = directory / "stderr.log"
    out.host.sample(BLOCKS)
    started = time.perf_counter_ns()
    with open(log, "wb") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--dir", str(directory),
             "--socket", str(socket_path), "--workers", "1",
             "--recycle-jobs", str(RECYCLE_JOBS)],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=stderr,
        )
    client = ServiceClient(socket_path, timeout=CHECK_LIMIT_S * 3)
    while True:
        if process.poll() is not None:
            raise RuntimeError(f"repro serve exited: {log.read_text()}")
        try:
            client.ping()
            break
        except ServiceError:
            if time.perf_counter_ns() - started > 60e9:
                process.kill()
                process.wait()
                raise RuntimeError("repro serve did not come up in 60 s")
            time.sleep(0.005)
    out.setup_s.append((time.perf_counter_ns() - started) / 1e9
                       * out.host.factor(started))
    return process, client


def _stop_daemon(process, client) -> None:
    from repro.errors import ServiceError

    if process.poll() is None:
        try:
            client.shutdown()
            process.wait(timeout=60)
        except (ServiceError, subprocess.TimeoutExpired):
            process.kill()
            process.wait()


def _sample_workers(client, hwm: dict) -> None:
    for worker in client.stats()["stats"]["workers"]:
        pid = worker.get("pid")
        if pid is None:
            continue
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                kb = float(line.split()[1])
                hwm[pid] = max(hwm.get(pid, 0.0), kb / 1024.0)


# -- batch -------------------------------------------------------------------


def run_batch(seed: int, seconds: float, trace: bool, scratch: Path
              ) -> Outcome:
    """``batch``: the same seeded job draw through
    ``Supervisor.run_batch(workers=1)``, fork per attempt, with a results
    log, one pass over the job pool per batch until the time is up."""
    from repro.runtime.supervisor import JobSpec, Supervisor

    out = Outcome()
    out.setup_s = setup_probes("batch", seed, SETUP_REPEATS, out)
    passes = job_passes(seed)
    checker = JobChecker(out)
    supervisor = Supervisor()
    records = []  # (job, JobResult)
    windows = []  # (start_ns, end_ns, jobs) of each batch
    stop_at = time.perf_counter() + seconds
    # whole passes over the pool, a quarter pass per batch with reference
    # blocks between batches: the fork-per-attempt executor has no worker
    # to recycle, so whole passes keep every run's mix the same
    while time.perf_counter() < stop_at or len(records) < MIN_UNITS:
        block = next(passes)
        for first in range(0, POOL_SIZE, BATCH_JOBS):
            batch = block[first:first + BATCH_JOBS]
            specs = [
                JobSpec(id=f"b{len(records) + i}", kind="typecheck",
                        params=job.params())
                for i, job in enumerate(batch)
            ]
            settle_heap()
            out.host.sample(BLOCKS)
            began = time.perf_counter_ns()
            report = supervisor.run_batch(
                specs, workers=1,
                results_path=str(scratch / "results.jsonl"),
            )
            windows.append((began, time.perf_counter_ns(), len(specs)))
            by_id = {result.id: result for result in report.results}
            records += [(job, by_id[spec.id])
                        for spec, job in zip(specs, batch)]
    out.host.sample(BLOCKS)
    out.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    scale_windows(out, windows, [result.wall_seconds * 1000
                                 for _, result in records])
    out.kinds = [job.key for job, _ in records]
    out.attempted = len(records)
    details = []
    for job, result in records:
        checker.check(job, result.status, result.detail)
        details.append(result.detail)
    if trace:
        _cache_means(out, details)
        execute_ms = _job_layers(out)
        out.layer["runtime.supervisor.overhead_ms"] = median([
            result.wall_seconds * 1000 - execute_ms[job.key]
            for job, result in records
        ])
        out.layer["runtime.supervisor.retries"] = sum(
            result.attempts - 1 for _, result in records
        )
    return out
