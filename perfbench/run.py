"""One benchmark command for cold verdicts, a generated-program stream
and mixed service traffic.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/repro`` must be there).
Workloads (see ``perfbench/README.md``):

* ``table1-cold`` — the 24 Table-1 programs through ``Benchmark.run``,
  each in a fresh child forked from a parent that never analysed
  anything, one at a time, in passes;
* ``generated-stream`` — distinct generated programs through one
  resident process, each through every timed subject of diffcheck's
  ``check_source`` (Blazer, constant-time, PDSC, leakage); in the traced
  run, followed by a service phase: the default ``repro serve`` daemon
  under mixed traffic from two closed-loop ``ServiceClient``
  connections, whose timings are per-layer metrics.

``--trace 0`` measures with nothing wrapped and prints the end-to-end
metrics, pooled over the passes of the run.  ``--trace 1`` runs one pass
twice at the same seed, first untraced and then with the span wrappers
of ``tracing.py`` installed in the analysing process, and prints the
per-layer metrics plus the tracing overhead between the two.  The
stream's service phase then runs untraced for its timings and traced
for its spans.  After the timed loop, untimed, every verdict is checked
against an answer the analysis did not produce, and digests are
compared across two runs of the same input.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
from time import perf_counter, sleep
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

PROC = "main"  # the generator's procedure name
# Committed generator campaigns: --seed orders a workload's inputs (a
# seeded shuffle inside each block of BATCH), it does not pick them.
STREAM_CAMPAIGN = 2017
SERVICE_CAMPAIGN = 1707
THRESHOLD = 24  # observer slack T, as in diffcheck's DiffConfig
PDSC_BUDGET = {"max_pairs": 80, "max_refinements": 2}  # as in bench_diffcheck.py
SUBJECTS = ("blazer", "pdsc", "leakage")  # check_source's timed subjects, every program
# Stream program sizes by position among the distinct programs: seven
# small ones (cost toward the frontend), then one at the generator's
# default size (where per-program memory growth is largest).
STREAM_SIZES = ({"max_stmts": 3, "max_depth": 1, "max_loops": 1},) * 7 + ({},)
SERVICE_BLOCK = ("fresh",) * 7 + ("hit",) * 2  # after a leading fresh op: 80% fresh, 20% hits
SERVICE_LEAKAGE_EVERY = 8  # every 8th fresh program is a leakage job: 10% of all ops
SERVICE_OPS = 30 * (1 + len(SERVICE_BLOCK))  # the service phase's ops, whatever --seconds
CONNECTIONS = 2
SETUPS = 9  # set-ups per untraced run; setup_s is their median
BATCH = 24  # programs per block of inputs (one Table-1 pass)
# Table 1 runs a fixed number of passes: with 240 verdicts the tail
# percentile (p95) falls among modPow2_safe's samples; with more passes
# it moves onto modPow2_unsafe's alone, which spread far more.
TABLE1_PASSES = 10
STREAM_PASSES = 4  # the stream runs this many times, each in a fresh process
# The stream sends a fixed amount of work for its --seconds, sized from
# this rate (programs analysed per second on a 2-core x86-64 VM), so every
# seed and every commit analyses the same inputs.  A run whose timed
# loops pass TIME_CAP x --seconds in all stops sending.
STREAM_RATE = 3.7
TIME_CAP = 2.5
DEADLINE = math.inf  # set by main() from TIME_CAP
REQUEST_TIMEOUT = 120.0

DEFINITE = {"safe", "attack", "verified", "exact", "upper-bound"}


# -- small helpers ---------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Analysing processes import from cached bytecode, as installed code
    # does; without the cache every set-up, and every module a timed
    # analysis imports lazily, would be compiled from source.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def vmhwm_kb(pid: int) -> int:
    """Peak resident set of ``pid`` in kB, read from ``/proc``."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class NoSamples(ValueError):
    """A metric has nothing to be computed from: the run measured nothing."""


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        raise NoSamples("no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least 10 of ``count`` samples
    beyond it (nearest rank)."""
    p = 99
    while p > 50 and count - math.ceil(p / 100.0 * count) < 10:
        p -= 1
    return p


def plan(workload: str, seconds: float) -> Tuple[int, int]:
    """(passes, programs per pass) one run sends for ``seconds``: Table 1
    repeats its 24 programs, the stream repeats its distinct programs
    ``STREAM_PASSES`` times."""
    if workload == "table1-cold":
        return TABLE1_PASSES, BATCH
    return STREAM_PASSES, BATCH * max(1, round(seconds * STREAM_RATE / (BATCH * STREAM_PASSES)))


def median(values: Sequence[float]) -> float:
    if not values:
        raise NoSamples("no samples")
    return statistics.median(values)


def batch_sums(values: Sequence[float], size: int) -> List[float]:
    return [sum(values[i:i + size]) for i in range(0, len(values) - size + 1, size)]


class Pool:
    """The distinct programs of one committed generator campaign.

    Entry ``j`` is the campaign's next program, at generator config
    ``configs[j % len(configs)]``, whose key was not seen before;
    ``draw(p)`` gives the entry at position ``p`` of the run's order,
    which shuffles each block of ``BATCH`` entries with ``seed``.
    So every seed sends the same programs block by block, in its own
    order, and no program is sent twice.
    """

    def __init__(self, campaign: int, configs: Sequence, seed: int, make):
        from repro.diffcheck.generator import generate_program

        self._generate = lambda index, config: generate_program(campaign, index, config)
        self._configs, self._make, self._seed = configs, make, seed
        self._index = itertools.count()
        self._keys: set = set()
        self.entries: list = []

    def extend(self, count: int) -> None:
        while len(self.entries) < count:
            j = len(self.entries)
            config = self._configs[j % len(self._configs)]
            key, entry = self._make(j, self._generate(next(self._index), config))
            if key not in self._keys:
                self._keys.add(key)
                self.entries.append(entry)

    def draw(self, position: int):
        block, offset = divmod(position, BATCH)
        order = random.Random(self._seed * 1_000_003 + block).sample(range(BATCH), BATCH)
        j = block * BATCH + order[offset]
        self.extend((block + 1) * BATCH)
        return j, self.entries[j]


class Agent:
    """``agent.py`` in a child process, spoken to in JSON lines."""

    def __init__(self, mode: str, traced: bool):
        argv = [sys.executable, os.path.join(HERE, "agent.py"), mode]
        if traced:
            argv.append("--trace")
        started = perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(),
            cwd=ROOT, text=True,
        )
        self.pid = self._receive()["pid"]
        self.setup_s = perf_counter() - started

    def _receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("analysing process exited (code %s)" % self.proc.poll())
        return json.loads(line)

    def request(self, message: dict) -> Tuple[dict, float]:
        started = perf_counter()
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        reply = self._receive()
        return reply, perf_counter() - started

    def close(self) -> None:
        try:
            self.proc.stdin.write('{"op": "exit"}\n')
            self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def start(factory, count: int):
    """Set up ``count`` times in a row; keep the last, report every time."""
    handle, setups = None, []
    for _ in range(count):
        if handle is not None:
            handle.close()
        handle = factory()
        setups.append(handle.setup_s)
    return handle, setups


def record(rid, kind, latency, reply, verdict_s=None) -> dict:
    return {
        "id": rid,
        "kind": kind,
        "latency": latency,
        "verdict_s": verdict_s if verdict_s is not None else reply.get("verdict_s"),
        "outcome": reply.get("outcome"),
        "digest": reply.get("digest"),
        "error": reply.get("error"),
        "reply": reply,
    }


class Run:
    """What one timed loop produced."""

    def __init__(self) -> None:
        self.setups: List[float] = []
        self.records: List[dict] = []  # one per verdict (per request in the service phase)
        self.wall = 0.0  # summed request round trips (the service phase: its timed wall)
        self.rss_kb = 0
        self.spans: list = []
        self.counts: Dict[str, float] = {}
        self.stats: Dict[str, float] = {}
        self.sent: Dict[str, dict] = {}  # generated-stream: the messages by id
        self.requests = 0  # analysis requests sent (inputs, for per-input layer figures)
        self.unsent = 0  # planned verdicts never asked for: DEADLINE stopped the run
        self.wrong: List[str] = []

    def analyses(self) -> List[dict]:
        return [r for r in self.records if r["kind"] != "hit"]

    def verdicts(self) -> List[float]:
        return [r["verdict_s"] for r in self.analyses() if not r["error"]]

    def add_trace(self, reply: dict) -> None:
        self.spans.extend(reply.get("spans", ()))
        for key, value in reply.get("counts", {}).items():
            self.counts[key] = self.counts.get(key, 0) + value


# -- workload: table1-cold ---------------------------------------------------------


def table1_cold(seed: int, seconds: float, traced: bool, setups: int,
                passes: Optional[int] = None) -> Run:
    """``passes`` (default: the plan's) passes over the 24 programs in one
    seeded order, each program in a fresh forked child."""
    from repro.benchsuite import SUITE

    order = SUITE.names()
    random.Random(seed).shuffle(order)
    run = Run()
    agent, run.setups = start(lambda: Agent("table1", traced), setups)
    count = (passes or plan("table1-cold", seconds)[0]) * len(order)
    try:
        for index in range(count):
            if perf_counter() >= DEADLINE:
                run.unsent = count - index
                break
            name = order[index % len(order)]
            reply, latency = agent.request({"op": "run", "name": name})
            run.requests += 1
            run.wall += latency
            run.records.append(record(name, "table1", latency, reply))
            run.rss_kb = max(run.rss_kb, reply["rss_kb"])
            run.add_trace(reply)
    finally:
        agent.close()
    # Correctness (untimed): the registry's hand-written expectation.
    for rec in run.analyses():
        expect = SUITE.get(rec["id"]).expect
        if not rec["error"] and rec["outcome"] != expect:
            rec["wrong"] = True
            run.wrong.append("%s: %s, expected %s" % (rec["id"], rec["outcome"], expect))
    return run


# -- workload: generated-stream -------------------------------------------------------


def stream_pool(seed: int) -> Pool:
    """Distinct generated programs in the sizes of ``STREAM_SIZES`` (about
    a quarter of their integer expressions are priced extern calls), each
    with the observer threshold and PDSC's campaign budgets."""
    from repro.diffcheck.generator import GeneratorConfig

    def make(j, program):
        return program.source, dict(
            op="analyze",
            id=program.name,
            source=program.source,
            proc=PROC,
            domains=[[name, list(values)] for name, values in program.domains],
            threshold=THRESHOLD,
            **PDSC_BUDGET,
        )

    configs = [GeneratorConfig(extern_prob=0.25, **size) for size in STREAM_SIZES]
    return Pool(STREAM_CAMPAIGN, configs, seed, make)


def oracle_facts(source: str, domains: Dict[str, Sequence[int]]) -> Tuple[bool, int, int]:
    """Ground truth from diffcheck's exhaustive oracle: (leaky, max gap,
    exact number of distinguishable timing classes)."""
    from repro.core.observer import effective_slack
    from repro.core.pdsc import compile_cfgs
    from repro.diffcheck.oracle import TimingOracle, exact_leakage
    from repro.interp.interp import Interpreter
    from repro.leakage.model import extern_env

    cfgs = compile_cfgs(source)
    interpreter = Interpreter(cfgs, externs=extern_env(source).externs, fuel=50_000)
    oracle = TimingOracle(interpreter, cfgs[PROC], domains, slack=THRESHOLD, limit=8192)
    verdict = oracle.run()
    cells, _ = exact_leakage(oracle.trace_pool, effective_slack(THRESHOLD))
    return verdict.leaky, verdict.max_gap, cells


def unsound(kind: str, reply: dict, facts: Tuple[bool, int, int], gap: Optional[int] = None) -> str:
    """diffcheck's soundness rules; '' when the verdict stands.  ``gap``
    is the full-domain gap the constant-time claim is checked against."""
    leaky, max_gap, cells = facts
    gap = max_gap if gap is None else gap
    outcome = reply.get("outcome")
    if kind in ("blazer", "analyze") and outcome == "safe" and leaky:
        return "Blazer safe, oracle gap %d >= %d" % (max_gap, THRESHOLD)
    if kind == "pdsc" and outcome == "verified" and leaky:
        return "PDSC verified, oracle gap %d >= %d" % (max_gap, THRESHOLD)
    if kind == "leakage":
        if reply.get("cells") is not None and reply["cells"] < cells:
            return "leakage bound %d cell(s) < oracle's %d" % (reply["cells"], cells)
        if reply.get("constant_time") and gap > 0:
            return "constant-time claimed, oracle gap %d" % gap
    return ""


def generated_stream(seed: int, seconds: float, traced: bool, setups: int,
                     passes: Optional[int] = None) -> Run:
    """The stream runs ``passes`` (default: the plan's) times, each time in
    a fresh process that gets the same programs in the same order: the
    metrics pool the passes, and every further pass is a run of the
    determinism check."""
    run = Run()
    pool = stream_pool(seed)
    planned_passes, count = plan("generated-stream", seconds)
    pool.extend(count)  # generated before the clock starts
    for attempt in range(passes or planned_passes):
        agent, spawned = start(lambda: Agent("stream", traced), setups if attempt == 0 else 1)
        run.setups.extend(spawned)
        try:
            for position in range(count):
                if perf_counter() >= DEADLINE:
                    run.unsent += (count - position) * len(SUBJECTS)
                    break
                message = pool.draw(position)[1]
                reply, latency = agent.request(message)
                run.wall += latency
                run.requests += 1
                run.sent[message["id"]] = message
                for subject in SUBJECTS:
                    result = reply["subjects"][subject] if "subjects" in reply else reply
                    rec = record("%s/%s" % (message["id"], subject), subject, latency, result)
                    rec["program"] = message["id"]
                    run.records.append(rec)
            run.rss_kb = max(run.rss_kb, vmhwm_kb(agent.pid))
            if traced:
                run.add_trace(agent.request({"op": "spans"})[0])
        finally:
            agent.close()
    check_stream(run)
    return run


def check_stream(run: Run) -> None:
    messages = run.sent
    facts: Dict[str, Tuple[bool, int, int]] = {}
    for rec in run.analyses():
        if rec["error"]:
            continue
        message = messages[rec["program"]]
        if message["id"] not in facts:
            domains = {name: tuple(values) for name, values in message["domains"]}
            facts[message["id"]] = oracle_facts(message["source"], domains)
        problem = unsound(rec["kind"], rec["reply"], facts[message["id"]])
        if problem:
            rec["wrong"] = True
            run.wrong.append("%s (%s): %s" % (message["id"], rec["kind"], problem))


# -- the service phase of generated-stream -----------------------------------------


class Daemon:
    """``python -m repro serve`` (or its traced twin) on a free TCP port."""

    def __init__(self, traced: bool, spans_path: str):
        from repro.service.client import ServiceClient

        if traced:
            argv = [sys.executable, os.path.join(HERE, "serve.py"), "tcp:127.0.0.1:0", spans_path]
        else:
            argv = [sys.executable, "-m", "repro", "serve", "tcp:127.0.0.1:0"]
        started = perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("daemon did not start: %r" % line)
        self.address = line[len("serving on "):].strip()
        self.pid = self.proc.pid
        with ServiceClient(self.address, timeout=REQUEST_TIMEOUT) as client:
            while not client.ready():
                sleep(0.001)
        self.setup_s = perf_counter() - started

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(self.address, timeout=REQUEST_TIMEOUT, retries=0)

    def close(self) -> None:
        try:
            with self.client() as client:
                client.shutdown()
        except Exception:  # already gone; fall through to the kill
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def service_schedule(seed: int, index: int) -> str:
    """Op ``index``'s kind: blocks of ten, a fresh op first, then a
    seeded shuffle of 7 fresh ops and 2 resubmissions."""
    block, position = divmod(index, 1 + len(SERVICE_BLOCK))
    if position == 0:
        return "fresh"
    kinds = list(SERVICE_BLOCK)
    random.Random(seed * 1_000_003 + block).shuffle(kinds)
    return kinds[position - 1]


def service_pool(seed: int) -> Pool:
    """Service payloads over distinct request keys.  The programs call no
    externs, so the cost model a payload names is the one the oracle
    runs; the observer is the service's threshold model at the largest
    generated input value."""
    from repro.diffcheck.generator import GeneratorConfig
    from repro.service.jobs import job_key

    config = GeneratorConfig(max_stmts=3, max_depth=1, max_loops=1)

    def make(j, program):
        if j % SERVICE_LEAKAGE_EVERY == SERVICE_LEAKAGE_EVERY - 1:
            payload = {"kind": "leakage", "source": program.source, "proc": PROC,
                       "slack": THRESHOLD, "max_input": config.int_max}
        else:
            payload = {"source": program.source, "proc": PROC, "observer": "threshold",
                       "threshold": THRESHOLD, "max_input": config.int_max}
        key = job_key(payload)
        payload["_domains"] = program.domains
        return key, payload

    return Pool(SERVICE_CAMPAIGN, [config], seed, make)


class Traffic:
    """The shared op counter and settled set of the two connections."""

    def __init__(self, seed: int, pool: Pool):
        self.seed, self.pool = seed, pool
        self.planned = SERVICE_OPS
        self.lock = threading.Condition()
        self.ops = self.fresh = 0
        self.settled: List[int] = []
        self.records: List[dict] = []
        self.started = perf_counter()

    def take(self) -> Optional[Tuple[str, int]]:
        """The next op as (kind, pool entry), or None once the planned ops
        are sent (or time or every fresh request has run out)."""
        with self.lock:
            if self.ops >= self.planned:
                return None
            if perf_counter() >= DEADLINE:
                return None
            kind = service_schedule(self.seed, self.ops)
            self.ops += 1
            if kind == "fresh":
                j, payload = self.pool.draw(self.fresh)
                self.fresh += 1
                return payload.get("kind", "analyze"), j
            rng = random.Random(self.seed * 7919 + self.ops)
            waited = perf_counter()
            while not self.settled:  # only at the start: op 0 is fresh
                if perf_counter() - waited >= REQUEST_TIMEOUT:
                    return None
                self.lock.wait(1.0)
            return kind, rng.choice(self.settled)

    def settle(self, index: int, rec: dict) -> None:
        with self.lock:
            self.records.append(rec)
            if rec["kind"] != "hit" and not rec["error"]:
                self.settled.append(index)
                self.lock.notify_all()


def submit(client, payload: dict) -> dict:
    knobs = {k: v for k, v in payload.items() if not k.startswith("_")}
    return client.submit(knobs.pop("source"), proc=knobs.pop("proc"), wait=True, **knobs)


def connection(daemon: Daemon, traffic: Traffic) -> None:
    with daemon.client() as client:
        while True:
            op = traffic.take()
            if op is None:
                return
            kind, index = op
            started = perf_counter()
            try:
                response = submit(client, traffic.pool.entries[index])
                error = None if response.get("state") == "done" else response.get("error", "job failed")
            except Exception as exc:  # transport failure, refusal, timeout
                response, error = {}, "%s: %s" % (type(exc).__name__, exc)
            latency = perf_counter() - started
            result = response.get("result") or {}
            reply = dict(result, error=error, cached=response.get("cached"))
            reply["outcome"] = result.get("leakage_status") if kind == "leakage" else result.get("status")
            verdict_s = None
            if kind != "hit" and response.get("finished_at") is not None:
                verdict_s = response["finished_at"] - response["started_at"]
            rec = record(index, kind, latency, reply, verdict_s)
            if kind == "analyze" and not error:
                rec["overhead"] = latency - result["verdict"]["phases"]["total"]
            traffic.settle(index, rec)


def service_mixed(seed: int, traced: bool, setups: int) -> Run:
    run = Run()
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, "daemon-spans-%d.json" % os.getpid())
    daemon, run.setups = start(lambda: Daemon(traced, spans_path), setups)
    try:
        pool = service_pool(seed)
        pool.extend(SERVICE_OPS)  # generated before the clock starts
        traffic = Traffic(seed, pool)
        threads = [threading.Thread(target=connection, args=(daemon, traffic)) for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        run.wall = perf_counter() - traffic.started
        with daemon.client() as client:
            run.stats = client.stats()
        run.rss_kb = vmhwm_kb(daemon.pid)
    finally:
        daemon.close()
    if traced:
        with open(spans_path) as handle:
            run.add_trace(json.load(handle))
        os.remove(spans_path)
    run.records = traffic.records
    run.requests = len(run.records)
    run.unsent = traffic.planned - len(traffic.records)
    check_service(run, pool.entries)
    return run


# The in-process reference digest and oracle facts of each service
# payload, by job key: a traced run's second service phase reuses them.
SERVICE_ANSWERS: Dict[str, Tuple[str, tuple, int]] = {}


def check_service(run: Run, payloads: List[dict]) -> None:
    """Oracle soundness per reply, reply digest against the in-process
    digest of the same payload, and every fresh request executed."""
    from repro.core.blazer import analyze_job
    from repro.lang import parse_program
    from repro.leakage.job import leakage_job
    from repro.service.jobs import job_key

    fresh = [r for r in run.records if r["kind"] != "hit"]
    if run.stats.get("executed") != len(fresh):
        run.wrong.append("service executed %s analyses for %d fresh requests"
                         % (run.stats.get("executed"), len(fresh)))
    for rec in run.records:
        if rec["error"]:
            continue
        index = rec["id"]
        payload = payloads[index]
        knobs = {k: v for k, v in payload.items() if not k.startswith("_")}
        key = job_key(knobs)
        if key not in SERVICE_ANSWERS:
            job = leakage_job if payload.get("kind") == "leakage" else analyze_job
            domains = dict(payload["_domains"])
            public = {p.name for p in parse_program(payload["source"]).proc(PROC).params
                      if p.level.name == "PUBLIC"}
            # The threshold observer evaluates bounds at the largest
            # input, so the oracle answers the same question: public
            # inputs pinned there, secrets over their whole domain.
            pinned = {n: ((payload["max_input"],) if n in public else v) for n, v in domains.items()}
            SERVICE_ANSWERS[key] = (job(knobs)["digest"], oracle_facts(payload["source"], pinned),
                                    oracle_facts(payload["source"], domains)[1])
        reference, pinned_facts, full_gap = SERVICE_ANSWERS[key]
        kind = "leakage" if payload.get("kind") == "leakage" else "analyze"
        problems = []
        if rec["digest"] != reference:
            problems.append("digest differs from the in-process analysis")
        if rec["kind"] == "hit" and not rec["reply"].get("cached"):
            problems.append("resubmission was not a store hit")
        problem = unsound(kind, rec["reply"], pinned_facts, gap=full_gap)
        if problem:
            problems.append(problem)
        if problems:
            rec["wrong"] = True
            run.wrong.append("program %d (%s): %s" % (index, rec["kind"], "; ".join(problems)))


# -- metrics ------------------------------------------------------------------------

WORKLOADS = ("table1-cold", "generated-stream")


def end_to_end(run: Run, batch: int) -> Dict[str, float]:
    """The gated metrics of an analysis workload.  ``suite_s`` sums the
    verdict seconds of each ``batch`` consecutive verdicts (one pass)."""
    verdicts = run.verdicts()
    attempted = len(run.records) + run.unsent
    return {
        "setup_s": median(run.setups),
        "suite_s": median(batch_sums(verdicts, batch)),
        "verdict_p50_s": median(verdicts),
        "verdict_tail_s": percentile(verdicts, tail_percentile(len(verdicts))),
        "programs_per_s": run.requests / run.wall,
        "decided_share": sum(1 for r in run.records if r["outcome"] in DEFINITE) / attempted,
        "correct_share": sum(1 for r in run.records if not r["error"] and not r.get("wrong")) / attempted,
        "peak_rss_mb": run.rss_kb / 1024.0,
    }


def per_layer(plain: Run, traced: Run, services: Optional[Tuple[Run, Run]]) -> Dict[str, float]:
    """Layer metrics of the traced run (``traced`` plus, on the stream,
    the traced service phase ``services[1]``), the ``service.*`` metrics
    of the untraced service phase ``services[0]``, and the tracing
    overhead of ``traced`` against ``plain``."""
    import tracing

    parts = [traced] + ([services[1]] if services else [])
    inputs = max(1, sum(part.requests for part in parts))
    merged = Run()
    for part in parts:
        merged.add_trace({"spans": part.spans, "counts": part.counts})
    layers = tracing.summarize(merged.spans, merged.counts)
    metrics = {
        name: (value if name.endswith("hit_ratio") else value / inputs)
        for name, value in layers.items()
    }
    metrics.update(service_layer(services[0] if services else None))

    # Tracing overhead: the same inputs' verdict seconds, traced vs not.
    def by_input(run: Run) -> Dict[object, float]:
        seen: Dict[object, List[float]] = {}
        for rec in run.analyses():
            if rec["verdict_s"] is not None and not rec["error"]:
                seen.setdefault(rec["id"], []).append(rec["verdict_s"])
        return {key: statistics.mean(values) for key, values in seen.items()}

    before, after = by_input(plain), by_input(traced)
    common = set(before) & set(after)
    metrics["trace.overhead_share"] = (
        sum(after[k] for k in common) / sum(before[k] for k in common) - 1.0 if common else 0.0
    )
    return metrics


SERVICE_LAYER = ("request_p50_s", "request_tail_s", "miss_p50_s", "hit_p50_s", "requests_per_s",
                 "executed", "store_hit_ratio", "coalesced", "shed", "retried", "overhead_p50_s")


def service_layer(service: Optional[Run]) -> Dict[str, float]:
    """The ``service.*`` metrics of a service phase; 0 on a workload
    without one, where the layer does not run."""
    if service is None:
        return {"service." + name: 0.0 for name in SERVICE_LAYER}
    stats = service.stats
    metrics = dict(service_timings(service))
    metrics.update({
        "executed": stats.get("executed", 0),
        "store_hit_ratio": (stats.get("hits_memory", 0) + stats.get("hits_disk", 0)) / stats["submitted"],
        "coalesced": stats.get("coalesced", 0),
        "shed": stats.get("shed", stats.get("rejected", 0)),
        "retried": stats.get("retried", 0),
        "overhead_p50_s": median([r["overhead"] for r in service.records if "overhead" in r]),
    })
    return {"service." + name: metrics[name] for name in SERVICE_LAYER}


def service_timings(run: Run) -> Dict[str, float]:
    """The service phase's request latencies and rate."""
    requests = [r for r in run.records if not r["error"]]
    latencies = [r["latency"] for r in requests]
    return {
        "request_p50_s": median(latencies),
        "request_tail_s": percentile(latencies, tail_percentile(len(latencies))),
        "miss_p50_s": median([r["latency"] for r in requests if r["kind"] != "hit"]),
        "hit_p50_s": median([r["latency"] for r in requests if r["kind"] == "hit"]),
        "requests_per_s": len(requests) / run.wall,
    }


def nondeterministic(runs: Sequence[Run]) -> List[str]:
    """Inputs whose verdict digest differs between two analyses of them:
    Table-1 passes, the two stream passes, the untraced and traced runs."""
    digests: Dict[object, set] = {}
    for run in runs:
        for rec in run.analyses():
            if not rec["error"]:
                digests.setdefault(rec["id"], set()).add(rec["digest"])
    return ["%s: %d distinct digests across runs of the same input" % (key, len(seen))
            for key, seen in digests.items() if len(seen) > 1]


def write_spans(workload: str, seed: int, spans: list) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (workload, seed))
    with open(path, "w") as handle:
        for span_id, parent, name, start, end in spans:
            handle.write(json.dumps({"span": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
    return path


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no source tree at %s (run from a checkout root)" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    stream = args.workload == "generated-stream"

    def measure(traced: bool, setups: int, passes: Optional[int]) -> Run:
        if stream:
            return generated_stream(args.seed, args.seconds, traced, setups, passes)
        return table1_cold(args.seed, args.seconds, traced, setups, passes)

    global DEADLINE
    DEADLINE = perf_counter() + TIME_CAP * args.seconds

    # The stream's service phase: the default daemon under mixed traffic.
    # Its timings are per-layer metrics, so it runs in the traced run only
    # (see README.md, "Why the service is a phase").
    services: Optional[Tuple[Run, Run]] = None
    if args.trace:
        passes = 1 if stream else 3  # per half
        plain = measure(False, 1, passes)
        traced = measure(True, 1, passes)
        runs = [plain, traced]
        if stream:
            services = (service_mixed(args.seed, False, 1), service_mixed(args.seed, True, 1))
            runs.extend(services)
        print("spans written to %s" % write_spans(
            args.workload, args.seed, traced.spans + (services[1].spans if services else [])))
        wanted = spec["per_layer"]
    else:
        plain = measure(False, SETUPS, None)
        runs = [plain]
        wanted = spec["end_to_end"]
    if services:
        service = services[0]
        for name, value in sorted(service_timings(service).items()):
            print("service %-24s %12.6f" % (name, value))
        print("service executed %s of %d fresh requests, stats %s" % (
            service.stats.get("executed"), len([r for r in service.records if r["kind"] != "hit"]),
            json.dumps({k: service.stats.get(k) for k in ("submitted", "hits_memory", "coalesced", "rejected")})))
    wrong = [w for run in runs for w in run.wrong] + nondeterministic(runs)

    walls: Dict[str, List[float]] = {}
    for rec in plain.analyses():
        if rec["kind"] == "table1" and not rec["error"]:
            walls.setdefault(rec["id"], []).append(rec["verdict_s"])
    for name, values in walls.items():
        print("row %-22s wall_p50 %.4f s over %d cold run(s)"
              % (name, median(values), len(values)))
    records = [r for run in runs for r in run.records]
    failed = [r for r in records if r["error"]]
    for rec in failed:
        print("failed %s (%s): %s" % (rec["id"], rec["kind"], rec["error"]))
    for line in wrong:
        print("WRONG %s" % line)
    # A run that DEADLINE stopped fails the inputs it never sent.
    unsent = sum(run.unsent for run in runs)
    if unsent:
        print("time cap reached: %d planned verdicts never asked for, counted as failed" % unsent)
    attempted = len(records) + unsent
    print("failed_share %.6f share (%d of %d)" % ((len(failed) + unsent) / attempted,
                                                   len(failed) + unsent, attempted))
    verdicts = len(plain.verdicts())
    print("tail: verdict p%d of %d samples" % (tail_percentile(verdicts), verdicts))
    try:
        if args.trace:
            metrics = per_layer(plain, traced, services)
        else:
            # A batch is one pass: of Table 1, or of the stream.
            batch = len(SUBJECTS) * plan(args.workload, args.seconds)[1] if stream else BATCH
            metrics = end_to_end(plain, batch)
    except NoSamples:
        print("perfbench: a metric has no samples; every analysis failed or the run was cut",
              file=sys.stderr)
        return 1
    result = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        print("%-32s %14.6f %s" % (entry["name"], value, entry["unit"]))
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": not wrong and not failed and not unsent,
        "attempted": attempted,
        "failed": len(failed) + unsent,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
