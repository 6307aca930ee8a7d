"""The analysing process of the ``table1-cold`` and ``generated-stream``
workloads.

Started by ``run.py`` as ``python3 perfbench/agent.py MODE [--trace]``
with ``src`` on ``PYTHONPATH``.  It imports ``repro``, prints one
``{"ready": ...}`` line and then answers JSON-line requests on stdin,
one reply line per request on stdout:

* ``table1`` mode is a fork parent that never analyses anything itself:
  ``{"op": "run", "name": N}`` forks a child that runs the registry's
  ``Benchmark.run`` for Table-1 program ``N`` with empty memo tables,
  reports its verdict, and waits until this process has read its peak
  resident memory (``VmHWM``) from outside before it exits.
* ``stream`` mode analyses ``{"op": "analyze", ...}`` programs in this
  one resident process, each through Blazer, constant-time, PDSC and
  leakage as diffcheck's ``check_source`` does, with the observer
  threshold and PDSC budgets the request carries.

In both modes ``{"op": "spans"}`` hands over the spans recorded so far,
and ``{"op": "exit"}`` ends the process.  With
``--trace`` the span wrappers of ``tracing.py`` are installed — in
``table1`` mode inside each forked child only.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

import tracing
from repro.core.observer import effective_slack
from repro.core.report import verdict_digest
from run import vmhwm_kb

RECORDER = tracing.Recorder()


def _read_all(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def forked(job, traced: bool) -> dict:
    """Run ``job()`` in a fresh child; the reply carries the child's peak
    RSS, read here before the child is released and reaped."""
    result_r, result_w = os.pipe()
    release_r, release_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(result_r)
        os.close(release_w)
        try:
            if traced:
                tracing.install(RECORDER)
            reply = job()
            if traced:
                reply["spans"], reply["counts"] = RECORDER.drain()
        except Exception as exc:  # reported to the caller as a failed run
            reply = {"error": "%s: %s" % (type(exc).__name__, exc)}
        data = json.dumps(reply).encode()
        while data:
            data = data[os.write(result_w, data):]
        os.close(result_w)
        os.read(release_r, 1)  # returns at EOF, once the parent has looked
        os._exit(0)
    os.close(result_w)
    os.close(release_r)
    try:
        data = _read_all(result_r)
        rss = vmhwm_kb(pid)
    finally:
        os.close(result_r)
        os.close(release_w)
        os.waitpid(pid, 0)
    reply = json.loads(data) if data else {"error": "child died without a reply"}
    reply["rss_kb"] = rss
    return reply


def run_table1(name: str) -> dict:
    from repro.benchsuite import SUITE

    bench = SUITE.get(name)
    started = perf_counter()
    verdict = bench.run()
    seconds = perf_counter() - started
    return {"outcome": verdict.status, "digest": verdict_digest(verdict), "verdict_s": seconds}


def analyze_stream(message: dict) -> dict:
    """One generated program through every timed subject of diffcheck's
    ``check_source``, in its order and with its sharing: Blazer, the
    constant-time check and PDSC on Blazer's compiled CFGs, and leakage
    from Blazer's verdict.  ``subjects`` maps each subject to its outcome,
    digest and seconds; the constant-time check is timed with leakage."""
    from repro.core.blazer import Blazer, BlazerConfig
    from repro.core.pdsc import result_digest as pdsc_digest
    from repro.diffcheck.differ import DiffConfig
    from repro.domains import DOMAINS
    from repro.leakage.analysis import leakage_from_verdict
    from repro.leakage.consttime import check_constant_time
    from repro.leakage.job import result_digest as leakage_digest
    from repro.leakage.model import extern_env
    from repro.pdsc import PDSC

    source, proc = message["source"], message["proc"]
    domains = {name: tuple(values) for name, values in message["domains"]}
    slack = effective_slack(message["threshold"])
    started = perf_counter()
    model = extern_env(source)
    observer = DiffConfig(threshold=message["threshold"]).observer(domains)
    blazer = Blazer.from_source(
        source, BlazerConfig(domain="zone", observer=observer, summaries=model.summaries)
    )
    verdict = blazer.analyze(proc)
    blazer_s = perf_counter() - started

    started = perf_counter()
    consttime = check_constant_time(blazer, proc, model)
    consttime_s = perf_counter() - started

    started = perf_counter()
    result = PDSC(
        blazer.cfgs[proc],
        DOMAINS["zone"],
        epsilon=slack - 1,
        max_pairs=message["max_pairs"],
        max_refinements=message["max_refinements"],
        summaries=model.summaries,
    ).verify()
    pdsc_s = perf_counter() - started

    started = perf_counter()
    report = leakage_from_verdict(verdict, slack, domains=domains, cost_model=model.name)
    leakage_s = perf_counter() - started + consttime_s
    return {"subjects": {
        "blazer": {"outcome": verdict.status, "digest": verdict_digest(verdict),
                   "verdict_s": blazer_s},
        "pdsc": {"outcome": result.outcome, "digest": pdsc_digest(proc, result),
                 "verdict_s": pdsc_s},
        "leakage": {"outcome": report.status, "cells": report.cells,
                    "constant_time": consttime.constant_time,
                    "digest": leakage_digest(proc, report, consttime), "verdict_s": leakage_s},
    }}


def main(argv) -> int:
    mode, traced = argv[0], "--trace" in argv[1:]
    out = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr  # stray prints must not corrupt the reply stream
    if mode == "table1":
        import repro.benchsuite  # noqa: F401  (the parent imports, never analyses)
    else:
        import repro.core.pdsc  # noqa: F401
        import repro.diffcheck.differ  # noqa: F401
        import repro.leakage.job  # noqa: F401
        if traced:
            tracing.install(RECORDER)
    out.write(json.dumps({"ready": True, "pid": os.getpid()}) + "\n")
    out.flush()
    for line in sys.stdin:
        message = json.loads(line)
        op = message["op"]
        if op == "exit":
            break
        if op == "spans":
            spans, counts = RECORDER.drain()
            reply = {"spans": spans, "counts": counts}
        elif mode == "table1":
            reply = forked(lambda: run_table1(message["name"]), traced)
        else:
            try:
                reply = analyze_stream(message)
            except Exception as exc:  # one failed program, reported
                reply = {"error": "%s: %s" % (type(exc).__name__, exc)}
        out.write(json.dumps(reply) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
