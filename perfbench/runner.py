"""Closed-loop query runner: one forked child per query, one at a time.

The benchmark process imports ``hdmas`` once and never runs a query
itself, so every child starts with the decision caches a fresh CLI
process has (``ModelChecker._decisions`` lives per checker; the
module-global ``qe._ELIM_CACHE`` is empty in the parent).  The child runs
``hdmas.cli.main`` on the query's argument list, sends back its exit code,
output and spans through a pipe, and exits.  A child that misses the
deadline is killed and reaped; its query counts as a timeout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import select
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Optional


@dataclass
class Outcome:
    elapsed_s: float
    maxrss_kb: int
    timed_out: bool
    code: Optional[int] = None
    stdout: str = ""
    stderr: str = ""
    crash: Optional[str] = None
    spans: Optional[list] = None


def _query(argv: list[str], tracer, query_id: int) -> dict:
    from hdmas import cli, qe

    if getattr(qe, "_ELIM_CACHE", None):
        raise RuntimeError("the elimination cache is not empty")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                from .tracing import ROOT
                tracer.begin(query_id)
                code = tracer.call(ROOT, cli.main, argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 1
    payload = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if tracer is not None:
        payload["spans"] = tracer.spans
    return payload


def fork_call(fn, args: tuple, deadline_s: float):
    """Run ``fn(*args)`` in a forked child under a deadline.

    ``fn`` returns a JSON-serialisable dict; an exception in it comes back
    as ``{"crash": traceback}``.  Returns ``(elapsed_s, maxrss_kb,
    timed_out, payload)``; the payload is None when the child was killed
    or died without a result.
    """
    read_fd, write_fd = os.pipe()
    started = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(read_fd)
            try:
                payload = fn(*args)
            except Exception:
                payload = {"crash": traceback.format_exc()}
            data = memoryview(json.dumps(payload).encode())
            while data:
                data = data[os.write(write_fd, data):]
            os.close(write_fd)
        except BaseException:
            status = 70
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    timed_out = False
    try:
        while True:
            left = started + deadline_s - time.perf_counter()
            if left <= 0:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            ready, _, _ = select.select([read_fd], [], [], left)
            if ready:
                chunk = os.read(read_fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        elapsed = time.perf_counter() - started
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        _, _, usage = os.wait4(pid, 0)
    payload = None
    if not timed_out:
        try:
            payload = json.loads(b"".join(chunks))
        except ValueError:
            pass
    return elapsed, usage.ru_maxrss, timed_out, payload


def run_query(argv: list[str], deadline_s: float, tracer=None,
              query_id: int = 0) -> Outcome:
    """Run one CLI invocation in a forked child under a deadline."""
    elapsed, maxrss, timed_out, payload = fork_call(
        _query, (argv, tracer, query_id), deadline_s)
    outcome = Outcome(elapsed, maxrss, timed_out)
    if timed_out:
        return outcome
    if payload is None:
        payload = {"crash": "the query child ended without a result"}
    outcome.code = payload.get("code")
    outcome.stdout = payload.get("stdout", "")
    outcome.stderr = payload.get("stderr", "")
    outcome.crash = payload.get("crash")
    outcome.spans = payload.get("spans")
    return outcome


@dataclass(frozen=True)
class _Node:
    op: str
    args: tuple


def _calibration_work() -> dict:
    """Fixed work unrelated to hdmas that resembles it: frozen dataclass
    trees hashed into a dict and sorted, with a few MB of fresh objects."""
    nodes = []
    for i in range(CALIBRATION_SIZE):
        leaf = _Node("v", (i % 97, i % 13))
        nodes.append(_Node("and" if i & 1 else "or", (leaf, _Node("c", (i,)))))
    seen: dict = {}
    for node in nodes:
        seen[node] = seen.get(node, 0) + 1
    nodes.sort(key=lambda n: (n.op, n.args[1].args[0]))
    return {"distinct": len(seen)}


CALIBRATION_SIZE = 10000


def calibrate() -> float:
    """Wall time of the calibration work in a forked child, measured the
    same way as a query."""
    elapsed, _, _, payload = fork_call(_calibration_work, (), 60.0)
    if payload != {"distinct": CALIBRATION_SIZE}:
        raise RuntimeError("the calibration child failed")
    return elapsed


def run_in_child(fn, *args, timeout_s: float = 170.0):
    """Return ``fn(*args)`` computed in a forked child, so that the work
    leaves no caches in the benchmark process."""
    _, _, timed_out, payload = fork_call(lambda: {"value": fn(*args)}, (),
                                         timeout_s)
    if timed_out:
        raise TimeoutError(f"{fn.__name__} took over {timeout_s} s")
    if payload is None or "value" not in payload:
        raise RuntimeError((payload or {}).get("crash", f"{fn.__name__} failed"))
    return payload["value"]
