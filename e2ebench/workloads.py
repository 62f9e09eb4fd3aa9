"""The benchmark workloads: inputs, timed phase and output checks.

Each workload is a pair of functions.  ``build_<name>(seed, work)``
makes the inputs (and, for the service, the running server) and is the
set-up the benchmark times; ``run_<name>(inputs, seconds, recorder)``
runs the timed phase and returns an :class:`Outcome`.  ``recorder`` is
``None`` on untraced runs; traced runs add explicit spans only around
calls the benchmark makes itself.  See README.md for why each workload
exists and which layer it is meant to move.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.harness import jobs as harness_jobs
from repro.harness.cache import ArtifactCache, hash_key
from repro.harness.manifest import CellRecord, RunManifest
from repro.machine import build_machine
from repro.workloads.spec import cpu2000_suite

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

#: `repro bench`'s default simulation seed: the sweeps run exactly the
#: cells a reproduction user runs; the benchmark seed only orders them
SWEEP_SIM_SEED = 2008
SUITES = {"cpu2000": cpu2000_suite}
SWEEPS = {
    "sweep-itanium2": (("itanium2",), ("cpu2000",)),
    "sweep-ltcores": (("ldt-core", "slsq-core"), ("cpu2000",)),
}
#: an untraced sweep makes at least this many cold passes
MIN_COLD_PASSES = 3
#: after each cold pass, warm passes from its cache last this long
WARM_SECONDS = 1.0
#: a cold pass in a child interpreter is given up after this long
CHILD_TIMEOUT_S = 150.0

MACHINES = ("itanium2", "ldt-core", "slsq-core")
#: the loops service-mix asks about
SERVICE_SUITES = ("cpu2000",)
SERVICE_POLICIES = ("baseline", "hlo", "all-loads-l3", "all-fp-l2")
SERVICE_TRIPS = 100
SERVICE_INVOCATIONS = 2
#: the timed passes come from one closed-loop client, so that no
#: request waits for the host's two CPUs behind another's execution;
#: set-up pre-stores from one client per worker
SERVICE_CLIENTS = 1
#: a repeat comes at least this many requests after its key's first ask,
#: so it usually finds the answer rather than the job in flight
REPEAT_GAP = 60
SERVICE_WORKERS = 2
#: service-mix repeats its request list at least this often
SERVICE_PASSES = 4
REQUEST_TIMEOUT_S = 60.0


@dataclasses.dataclass
class Outcome:
    """What one timed phase measured and checked.

    A pass is one run over the workload's op list: a cold pass of a
    sweep, or the request list against a freshly restarted server.
    ``wall_s`` is the median pass; the op percentiles are taken over
    ``op_samples`` and ``warm_samples``, which each workload draws from
    all of its passes (see README.md).
    """

    #: wall time of each pass (seconds)
    pass_walls: list[float]
    #: the op latencies the op percentiles are taken over (seconds)
    op_samples: list[float]
    #: latencies of ops that repeat one already done in the run (seconds)
    warm_samples: list[float]
    attempted: int
    sim_gcycles: float
    ii_sum: int
    #: peak resident memory of the process that did the work (MB)
    peak_rss_mb: float
    #: why the run's outputs are not correct (empty: correct)
    problems: list[str] = dataclasses.field(default_factory=list)
    #: which ops failed, and how
    failures: list[str] = dataclasses.field(default_factory=list)
    #: workload-specific numbers for the per-layer report
    layers: dict = dataclasses.field(default_factory=dict)


def best_per_op(passes: list[list[float]]) -> list[float]:
    """Each op's least latency over the passes that repeat it.

    Every pass runs the same ops in the same order, so the i-th latency of
    each pass belongs to one op.  Interference from the host, such as CPU
    time stolen by other guests, only ever adds time and hits a short op
    in some passes and not in others, so its least reading is its
    steadiest.
    """
    return [min(times) for times in zip(*passes)]


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def peak_rss_mb(include_children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(
            peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
    return peak / 1024.0


def _span(recorder, name):
    return contextlib.nullcontext() if recorder is None \
        else recorder.span(name)


def _configs() -> list[CompilerConfig]:
    """`repro bench`'s default columns: the baseline and HLO hints."""
    return [baseline_config(), CompilerConfig(hint_policy=HintPolicy.HLO)]


# --- sweeps -------------------------------------------------------------------

@dataclasses.dataclass
class SweepInputs:
    name: str
    seed: int
    #: (machine name, suite label, [BenchmarkJob, ...]) in run order
    groups: list
    work: Path


def build_sweep(name: str, seed: int, work: Path,
                round_index: int = 0) -> SweepInputs:
    """The sweep's cells in the order of one round of a run: every round
    shuffles the benchmarks anew, so that what depends on a cell's place
    in the pass, such as the warm-up the first cell of an interpreter
    pays, falls on another cell each round."""
    machines, suites = SWEEPS[name]
    rng = random.Random(f"{seed}/{round_index}")
    groups = []
    for machine_name in machines:
        machine = build_machine(machine_name)
        for suite in suites:
            benches = SUITES[suite]()
            rng.shuffle(benches)
            # config-major like run_suite: every baseline cell runs its
            # own loops, every HLO cell finds its baseline anchor cached
            jobs = [
                harness_jobs.BenchmarkJob(
                    benchmark=bench, config=config, machine=machine,
                    seed=SWEEP_SIM_SEED, verify=True,
                )
                for config in _configs()
                for bench in benches
            ]
            # the manifest suite label `repro bench` records ("CPU2000")
            groups.append((machine_name, benches[0].suite, jobs))
    return SweepInputs(name=name, seed=seed, groups=groups, work=work)


def cell_id(machine_name: str, job) -> str:
    bench, config = job.key
    return f"{machine_name}/{bench}/{config}"


def another_pass(starts: list[float], minimum: int, seconds: float) -> bool:
    """Whether a run whose passes began at ``starts`` makes another one:
    until it has ``minimum``, then while one more, as long as the longest
    so far, would still end within ``seconds`` of the first start."""
    if len(starts) < minimum:
        return True
    now = time.perf_counter()
    longest = max(b - a for a, b in zip(starts, starts[1:] + [now]))
    return now + longest - starts[0] <= seconds


def _run_cell(job, cache, recorder):
    start = time.perf_counter()
    try:
        with _span(recorder, "harness.run_job"):
            outcome = harness_jobs.run_job(job, cache)
        error = None
    except Exception as exc:  # a failed cell is counted, the sweep goes on
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, outcome, error


def _cell_failure(outcome, error) -> str | None:
    if error is not None:
        return error
    verification = outcome.verification or {}
    if verification.get("errors", 0):
        return f"verify errors {verification.get('codes')}"
    if (verification.get("bounds") or {}).get("violations", 0):
        return "SA5xx bound violation"
    return None


def _cell_record(job, outcome) -> CellRecord:
    result = outcome.result
    return CellRecord(
        benchmark=result.name,
        suite=result.suite,
        config=result.config_label,
        total_cycles=result.total_cycles,
        loop_cycles=result.loop_cycles,
        serial_cycles=result.serial_cycles,
        cache_hit=outcome.cache_hit,
        duration_s=outcome.duration_s,
        machine=job.machine.name,
        machine_digest=job.machine.digest(),
    )


def sweep_observed(groups_cells: dict) -> dict:
    """Manifest fingerprints and total cycles of one cold pass."""
    fingerprints = {}
    cycles = []
    for (machine_name, suite), cells in sorted(groups_cells.items()):
        # provenance fields are outside the fingerprint
        manifest = RunManifest(
            run_id="", created_utc="", git_sha="", suite=suite,
            seed=SWEEP_SIM_SEED, workers=1,
            configs=[config.label for config in _configs()],
            cells=cells, wall_time_s=0.0, machine=machine_name,
        )
        fingerprints[f"{machine_name}/{suite}"] = manifest.fingerprint()
        cycles.extend(cell.total_cycles for cell in cells)
    # fsum is exact, so the total does not depend on the cell order
    return {"fingerprints": fingerprints,
            "sim_gcycles": math.fsum(cycles) / 1e9}


@dataclasses.dataclass
class ColdPass:
    wall_s: float
    #: cell id -> latency (seconds)
    op_s: dict
    failures: list[str]
    #: (machine, suite) -> [CellRecord]
    cells: dict
    #: cell id -> total cycles (None: the cell failed)
    op_cycles: dict
    ii_sum: int


def cold_pass(inputs: SweepInputs, cache, recorder) -> ColdPass:
    """Every cell once against an empty cache, as `repro bench` runs."""
    cold = ColdPass(0.0, {}, [], {}, {}, 0)
    start = time.perf_counter()
    for machine_name, suite, jobs in inputs.groups:
        cells = cold.cells.setdefault((machine_name, suite), [])
        for job in jobs:
            latency, outcome, error = _run_cell(job, cache, recorder)
            op = cell_id(machine_name, job)
            cold.op_s[op] = latency
            failure = _cell_failure(outcome, error)
            if failure is not None:
                cold.failures.append(f"{op}: {failure}")
            if outcome is None:
                cold.op_cycles[op] = None
                continue
            cells.append(_cell_record(job, outcome))
            cold.op_cycles[op] = outcome.result.total_cycles
            cold.ii_sum += sum(
                loop.compiled.stats.ii for loop in outcome.result.loops
            )
    cold.wall_s = time.perf_counter() - start
    return cold


def cold_report(cold: ColdPass) -> dict:
    """A cold pass as coldpass.py prints it: its timings, answers, failed
    cells, observed fingerprints, cycles and II sum, and the peak RSS of
    the process that ran it."""
    observed = sweep_observed(cold.cells)
    observed["ii_sum"] = cold.ii_sum
    return {"wall_s": cold.wall_s, "op_s": cold.op_s,
            "op_cycles": cold.op_cycles, "failures": cold.failures,
            "observed": observed, "peak_rss_mb": peak_rss_mb()}


def _cold_pass_in_child(inputs: SweepInputs, round_index: int,
                        cache_dir: Path) -> dict:
    """Round ``round_index``'s cold pass in a fresh interpreter
    (coldpass.py), waited for.

    Nothing the program keeps in memory outlives one pass, so every pass
    is a one-shot `repro bench`, however many the run makes."""
    done = subprocess.run(
        [sys.executable, str(HERE / "coldpass.py"), inputs.name,
         str(inputs.seed), str(round_index), str(cache_dir)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"cold pass exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _warm_passes(inputs: SweepInputs, cache, op_cycles: dict,
                 until: float, recorder, warm_ops: list, problems: list,
                 failures: list) -> None:
    """Every cell from the filled cache, pass after pass, until the
    ``until`` clock reading (at least one pass); each must repeat the
    cold answer."""
    while True:
        warm_ops.append([])
        for machine_name, _, jobs in inputs.groups:
            for job in jobs:
                op = cell_id(machine_name, job)
                latency, outcome, error = _run_cell(job, cache, recorder)
                warm_ops[-1].append(latency)
                failure = _cell_failure(outcome, error)
                if failure is not None:
                    failures.append(f"warm {op}: {failure}")
                elif (not outcome.cache_hit
                      or outcome.result.total_cycles != op_cycles[op]):
                    problems.append(f"warm {op}: not the cold answer")
        if time.perf_counter() >= until:
            return


def run_sweep(inputs: SweepInputs, seconds: float, recorder) -> Outcome:
    """Rounds of a cold pass on an empty cache followed by WARM_SECONDS
    of warm passes from it: MIN_COLD_PASSES rounds, and more while they
    fit in ``seconds``.  Untraced, each cold pass runs in a fresh
    interpreter, in the round's own cell order; traced, one round runs in
    this process, where the span wrappers are."""
    expected = load_reference(inputs.name)
    problems: list[str] = []
    failures: list[str] = []
    colds: list[dict] = []
    warm_ops: list[list[float]] = []
    starts: list[float] = []
    while not colds or (recorder is None and another_pass(
        starts, MIN_COLD_PASSES, seconds
    )):
        starts.append(time.perf_counter())
        cache_dir = inputs.work / f"sweep-cache-{len(colds)}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        if recorder is None:
            cold = _cold_pass_in_child(inputs, len(colds), cache_dir)
        else:
            cold = cold_report(
                cold_pass(inputs, ArtifactCache(cache_dir), recorder)
            )
        colds.append(cold)
        failures.extend(cold["failures"])
        for field in ("fingerprints", "sim_gcycles", "ii_sum"):
            if cold["observed"][field] != expected[field]:
                problems.append(
                    f"cold pass {len(colds)} {field}: "
                    f"{cold['observed'][field]!r} != reference "
                    f"{expected[field]!r}"
                )
        _warm_passes(inputs, ArtifactCache(cache_dir), cold["op_cycles"],
                     time.perf_counter() + WARM_SECONDS, recorder,
                     warm_ops, problems, failures)
        shutil.rmtree(cache_dir, ignore_errors=True)

    observed = colds[0]["observed"]
    return Outcome(
        pass_walls=[cold["wall_s"] for cold in colds],
        # cold cells are long and cluster by their work, with gaps between
        # the clusters: pooling every pass's readings fills the gaps that
        # one reading per cell leaves at a percentile
        op_samples=[latency for cold in colds
                    for latency in cold["op_s"].values()],
        warm_samples=best_per_op(warm_ops),
        attempted=(sum(len(cold["op_s"]) for cold in colds)
                   + sum(len(ops) for ops in warm_ops)),
        sim_gcycles=observed["sim_gcycles"],
        ii_sum=observed["ii_sum"],
        peak_rss_mb=max(cold["peak_rss_mb"] for cold in colds),
        problems=problems,
        failures=failures,
        # every compile happens in the cold pass
        layers={"compile_window_s": colds[0]["wall_s"]},
    )


# --- service-mix --------------------------------------------------------------

def service_pool() -> list[tuple[str, str, dict]]:
    """Every loop of SERVICE_SUITES as service request material:
    (loop id, loop source text, spaces)."""
    from repro.ir.printer import loop_to_source

    pool = []
    for suite in SERVICE_SUITES:
        for bench in SUITES[suite]():
            for pos, lw in enumerate(bench.loops):
                loop, layout = lw.build()
                spaces = {
                    name: {"size": spec.size, "reuse": spec.reuse}
                    for name, spec in sorted(layout.items())
                }
                pool.append((f"{bench.name}:{pos}", loop_to_source(loop),
                             spaces))
    return pool


def request_body(kind: str, text: str, spaces: dict, machine: str,
                 policy: str) -> dict:
    body = {"kind": kind, "loop": text, "machine": machine, "policy": policy}
    if kind == "compile":
        body["verify"] = True
    else:
        body.update(trips=SERVICE_TRIPS, invocations=SERVICE_INVOCATIONS,
                    spaces=spaces)
    return body


def result_projection(kind: str, result: dict) -> dict:
    """The result-determining part of a job result (no texts, no
    execution provenance such as the simulator backend)."""
    if kind == "compile":
        verification = result.get("verification") or {}
        return {key: result.get(key) for key in
                ("ii", "res_ii", "rec_ii", "stage_count")} | {
            "verified": verification.get("ok"),
            "codes": verification.get("codes"),
        }
    if kind == "simulate":
        return {key: result.get(key) for key in
                ("cycles", "iterations", "counters")}
    return {key: result.get(key) for key in ("cycles", "events", "ok")}


def service_request_id(loop_id: str, machine: str, policy: str,
                       kind: str) -> str:
    return f"{loop_id}/{machine}/{policy}/{kind}"


def service_design(n_loops: int) -> list[tuple]:
    """The fixed set of first requests: (loop index, machine, kind,
    policy or ``None`` for a seeded one, pre-stored).

    Every loop gets 2 simulations and 2 or 3 compiles on different
    machines, half of them pre-stored and half new; every other loop also
    gets a trace.  That is compile, simulate and trace in a 5:4:1 ratio.
    Simulations and traces carry fixed policies, so every run carries the
    same heavy requests in the same pre-stored/new split; the seed picks
    the compile policies, the order and the repeats.
    """
    n = len(MACHINES)
    policies = SERVICE_POLICIES
    design = []
    for i in range(n_loops):
        design += [
            (i, MACHINES[i % n], "simulate", policies[i % 4], True),
            (i, MACHINES[(i + 1) % n], "simulate", policies[(i + 1) % 4],
             False),
            (i, MACHINES[(i + 2) % n], "compile", None, True),
            (i, MACHINES[i % n], "compile", None, False),
        ]
        if i % 2 == 0:
            design.append((i, MACHINES[(i // 2) % n], "trace",
                           policies[(i // 2) % 4], i % 4 == 0))
        else:
            design.append((i, MACHINES[(i + 1) % n], "compile", None,
                           i % 4 == 1))
    return design


def service_requests(seed: int, pool: list) -> tuple[list, list]:
    """(pre-stored first requests, timed request list).

    A third of the timed requests ask for keys the set-up stored before
    the restart, a third for new keys, and a third repeat a key asked
    earlier in the session, at least REPEAT_GAP requests after its first
    ask: 420 requests over the 56 suite loops.  Half of each (kind,
    pre-stored) group is repeated, so the repeats have the same mix as
    the first asks whatever the seed.
    """
    rng = random.Random(seed)
    firsts, prestored = [], []
    groups: dict[tuple, list] = {}
    for loop_index, machine, kind, policy, stored in service_design(
        len(pool)
    ):
        policy = policy or rng.choice(SERVICE_POLICIES)
        rid = service_request_id(pool[loop_index][0], machine, policy, kind)
        request = (rid, loop_index, machine, policy, kind)
        firsts.append(request)
        groups.setdefault((kind, stored), []).append(request)
        if stored:
            prestored.append(request)
    repeated = {request[0] for _, members in sorted(groups.items())
                for request in rng.sample(members, len(members) // 2)}
    rng.shuffle(firsts)
    # every second first ask is followed by the oldest repeat whose key
    # was first asked at least REPEAT_GAP requests earlier, so repeats
    # are spread evenly through the list whatever the seed
    waiting = [request for request in firsts if request[0] in repeated]
    asked_at: dict[str, int] = {}
    timed: list = []
    for i, request in enumerate(firsts):
        asked_at[request[0]] = len(timed)
        timed.append(request)
        if (i % 2 and waiting
                and asked_at.get(waiting[0][0], len(timed)) + REPEAT_GAP
                <= len(timed)):
            timed.append(waiting.pop(0))
    return prestored, timed + waiting


@dataclasses.dataclass
class ServiceInputs:
    pool: list
    timed: list
    handle: object
    store_dir: Path
    work: Path


def _body(pool: list, request: tuple) -> dict:
    _, loop_index, machine, policy, kind = request
    _, text, spaces = pool[loop_index]
    return request_body(kind, text, spaces, machine, policy)


def _start_server(store_dir: Path, work: Path):
    from repro.service.server import ServerConfig, serve_in_thread

    return serve_in_thread(ServerConfig(
        port=0,
        workers=SERVICE_WORKERS,
        cache_dir=str(store_dir),
        runs_dir=str(work / "service-runs"),
        log_path=str(work / "service.log"),
        job_timeout=REQUEST_TIMEOUT_S,
    ))


def _closed_loop(url: str, pool: list, requests: list, clients: int):
    """Send ``requests`` in list order from ``clients`` closed-loop
    clients: each takes the next unsent request, submits it and waits
    for its reply.  Returns per request (latency_s, record or None,
    error or None), in list order."""
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    results: list = [None] * len(requests)
    lock = threading.Lock()
    next_index = [0]

    def client() -> None:
        api = ServiceClient(url, timeout=REQUEST_TIMEOUT_S)
        while True:
            with lock:
                index = next_index[0]
                next_index[0] += 1
            if index >= len(requests):
                return
            start = time.perf_counter()
            record = error = None
            try:
                reply = api.submit(**_body(pool, requests[index]))
                record = api.wait(reply["job"]["id"],
                                  timeout=REQUEST_TIMEOUT_S)
                if record["status"] != "done":
                    error = f"status {record['status']}: {record['error']}"
            except ServiceError as exc:
                error = f"{exc.status or 'transport'}: {exc}"
            except Exception as exc:  # counted as a failed request
                error = f"{type(exc).__name__}: {exc}"
            results[index] = (time.perf_counter() - start, record, error)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def build_service_mix(seed: int, work: Path) -> ServiceInputs:
    """Pre-store a third of the keys with one server, then restart a
    second server on (a copy of) the same store for the first pass."""
    pool = service_pool()
    prestored, timed = service_requests(seed, pool)
    store_dir = work / "service-store"
    shutil.rmtree(store_dir, ignore_errors=True)
    first = _start_server(store_dir, work)
    try:
        replies = _closed_loop(first.url, pool, prestored, SERVICE_WORKERS)
    finally:
        first.stop()
    errors = [error for _, _, error in replies if error]
    if errors:
        raise RuntimeError(f"pre-storing failed: {errors[0]}")
    inputs = ServiceInputs(pool=pool, timed=timed, handle=None,
                           store_dir=store_dir, work=work)
    _restart(inputs)
    return inputs


def _restart(inputs: ServiceInputs) -> None:
    """A server on a fresh copy of the pre-stored store, so every pass
    sees the same store state."""
    pass_store = inputs.work / "service-pass-store"
    shutil.rmtree(pass_store, ignore_errors=True)
    shutil.copytree(inputs.store_dir, pass_store)
    inputs.handle = _start_server(pass_store, inputs.work)


def discard_service(inputs: ServiceInputs) -> None:
    if inputs.handle is not None:
        inputs.handle.stop()
        inputs.handle = None
    shutil.rmtree(inputs.store_dir, ignore_errors=True)


def _service_pass(inputs: ServiceInputs, reference: dict, seen: dict,
                  totals: dict, problems: list, failures: list):
    """One pass of the request list; (wall, latencies, repeat latencies)."""
    from repro.service.client import ServiceClient

    try:
        start = time.perf_counter()
        replies = _closed_loop(inputs.handle.url, inputs.pool, inputs.timed,
                               SERVICE_CLIENTS)
        wall = time.perf_counter() - start
        stats = ServiceClient(inputs.handle.url).stats()
    finally:
        inputs.handle.stop()
        inputs.handle = None
    latencies, repeats = [], []
    asked: set[str] = set()
    executed: dict[str, dict] = {}
    for request, (latency, record, error) in zip(inputs.timed, replies):
        rid, _, _, _, kind = request
        latencies.append(latency)
        if rid in asked:
            repeats.append(latency)
        asked.add(rid)
        if error is not None:
            failures.append(f"{rid}: {error}")
            continue
        result = record["result"]
        text = json.dumps(result, sort_keys=True)
        if rid in seen:
            if seen[rid] != text:
                problems.append(f"{rid}: a repeat returned another result")
            continue
        seen[rid] = text
        if hash_key(result_projection(kind, result))[:16] != reference.get(rid):
            problems.append(f"{rid}: result != reference")
        if kind == "compile":
            totals["ii_sum"] += result["ii"]
        else:
            totals["cycles"].append(result["cycles"])
        if kind == "trace":
            totals["trace.events"] += result["events"]
    for request, (_, record, _) in zip(inputs.timed, replies):
        if record is not None and not record["cached"]:
            executed[record["id"]] = record
    jobs = stats["jobs"]
    totals["service.client_ms"] += 1e3 * sum(l for l, _, _ in replies)
    totals["service.exec_ms"] += 1e3 * sum(
        r["duration_s"] for r in executed.values()
    )
    totals["trace.ms"] += 1e3 * sum(
        r["duration_s"] for r in executed.values() if r["kind"] == "trace"
    )
    for name in ("executed", "served_from_store", "deduped", "rejected"):
        totals[f"service.{name}"] += jobs[name]
    totals["service.store_hits"] += stats["store"].get("hits", 0)
    return wall, latencies, repeats


def run_service_mix(inputs: ServiceInputs, seconds: float,
                    recorder) -> Outcome:
    reference = load_reference("service-mix")["results"]
    problems: list[str] = []
    failures: list[str] = []
    seen: dict[str, str] = {}
    totals = {"ii_sum": 0, "cycles": [], "trace.events": 0,
              "service.client_ms": 0.0, "service.exec_ms": 0.0,
              "trace.ms": 0.0, "service.executed": 0,
              "service.served_from_store": 0, "service.deduped": 0,
              "service.rejected": 0, "service.store_hits": 0}
    pass_walls, pass_ops, warm_ops = [], [], []
    starts: list[float] = []
    while another_pass(starts, SERVICE_PASSES, seconds):
        starts.append(time.perf_counter())
        if inputs.handle is None:
            _restart(inputs)
        wall, latencies, repeats = _service_pass(
            inputs, reference, seen, totals, problems, failures
        )
        pass_walls.append(wall)
        pass_ops.append(latencies)
        warm_ops.append(repeats)
    layers = {name: value for name, value in totals.items()
              if name.startswith(("service.", "trace."))}
    layers["service.overhead_ms"] = (
        layers["service.client_ms"] - layers["service.exec_ms"]
    )
    # compiles run in the worker processes, not in this one
    layers["compile_window_s"] = sum(pass_walls)
    if recorder is not None:
        # parsing happens inside the worker processes, out of reach of
        # any wrapper: re-execute it here once per request, flagged
        from repro.ir import parse_loop

        for request in inputs.timed:
            text = inputs.pool[request[1]][1]
            with recorder.span("ir.parse_loop"):
                parse_loop(text)
        recorder.reexecuted.add("ir.parse_loop")
    return Outcome(
        pass_walls=pass_walls,
        op_samples=best_per_op(pass_ops),
        warm_samples=best_per_op(warm_ops),
        attempted=sum(len(ops) for ops in pass_ops),
        sim_gcycles=math.fsum(totals["cycles"]) / 1e9,
        ii_sum=totals["ii_sum"],
        peak_rss_mb=peak_rss_mb(include_children=True),
        problems=problems,
        failures=failures,
        layers=layers,
    )
