#!/usr/bin/env python3
"""Benchmark of the hdmas-verify CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's seeded query list through ``hdmas.cli.main`` in a
closed loop (one query at a time, one forked child per query).  The first
round runs every query; the heavy queries run only then, and the others
repeat for a number of rounds fixed by the workload's nominal times, so
that a run takes about S seconds.  Every verdict is checked against an
independent reference, and the report's last line is a JSON object.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from collections import defaultdict

REPO = pathlib.Path(__file__).resolve().parent.parent
WORK = REPO / ".perfbench_work"
HASH_SEED = "0"
# set-up samples per run: two before the first round, the rest spread over
# the gaps between rounds, so that the median is not taken from a single
# stretch of machine speed
SETUP_SAMPLES = 5
# calibration cadence, and the calibration time that defines speed 1.0
# (its median on a 2-core x86-64 VM with CPython 3.11)
CALIBRATE_EVERY_S = 1.0
CALIBRATION_REF_S = 0.070
# no round starts once a run has taken this many times its seconds
OVERRUN = 1.25

E2E = {
    "workload_s": "s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "engine.build_prf_calls": "count",
    "engine.build_prf_self_ms": "ms",
    "model.guard_union_calls": "count",
    "model.guard_union_ms": "ms",
    "engine.pre_image_self_ms": "ms",
    "engine.fixpoint_iterations": "count",
    "engine.decision_hit_ratio": "ratio",
    "qe.decide_calls": "count",
    "qe.decide_self_ms": "ms",
    "qe.eliminated_quantifiers": "count",
    "qe.peak_atom_count": "count",
    "presburger.simplify_calls": "count",
    "presburger.simplify_ms": "ms",
    "model.check_wellformed_self_ms": "ms",
    "qe.is_valid_calls": "count",
    "qe.is_valid_ms": "ms",
    "parsing.parse_model_ms": "ms",
    "parsing.parse_formula_ms": "ms",
    "normalform.nf_ms": "ms",
    "cli.query_self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small instances and a 2 s deadline, for the "
                             "benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _pin_hash_seed() -> None:
    """Re-execute under a fixed PYTHONHASHSEED, which forked query
    children inherit, so that set iteration order and counts repeat."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _model_dir(workload: str) -> pathlib.Path:
    return WORK / workload / "models"


def _setup(args) -> None:
    """The set-up that ``setup_s`` times: import the package and write the
    workload's model files."""
    import hdmas.cli  # noqa: F401  (the import is what is timed)
    from perfbench.models import write_models
    from perfbench.workloads import build

    workload = build(args.workload, args.seed, args.smoke)
    write_models(workload.models, workload.ill, _model_dir(args.workload))


def _timed_setup(args, name: str) -> float:
    """Wall time of one set-up in a fresh interpreter."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--setup-only"] + (["--smoke"] if args.smoke else [])
    started = time.perf_counter()
    # no timeout: with one, subprocess polls the child in steps of up to
    # 50 ms, and the measured times snap to that grid
    subprocess.run(command, cwd=REPO, check=True,
                   env=dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    return time.perf_counter() - started


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least ten samples beyond it
    (fewer when the run has fewer samples): (value, percentile, beyond)."""
    ordered = sorted(samples)
    rank = max(0, len(ordered) - 11)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered) - 1 - rank


class Run:
    """All rounds of one workload run, and the metrics derived from them.

    The first round runs every query; the later rounds skip the heavy
    queries marked ``once``.  Each query keeps its samples, and a query's
    time is the median of its samples, so a query counts once in every
    metric however often it ran.

    The machine's speed drifts by a fifth and more over seconds to minutes,
    so times are reported at a reference speed.  A fixed calibration
    workload runs in a forked child at the start of each round and after
    every CALIBRATE_EVERY_S of query time.  All times of the run are
    divided by its median calibration time over CALIBRATION_REF_S.  The
    raw wall times and this speed factor are printed with the metrics.
    Time spent waiting for a deadline is not scaled.
    """

    def __init__(self, workload, expected, paths, seconds, trace, setup,
                 started):
        self.workload = workload
        self.expected = expected
        self.argvs = [q.argv(str(paths[q.instance])) for q in workload.queries]
        self.seconds = seconds
        self.trace = trace
        self.setup = setup
        self.started = started  # when the run began, before its references
        self.setup_times: list[float] = []
        # per query, its records of the untraced and of the traced rounds
        self.samples: dict[bool, list[list[dict]]] = {
            traced: [[] for _ in workload.queries] for traced in (False, True)}
        self.round_count = {False: 0, True: 0}
        self.errors: list[str] = []
        self.spans: list[dict] = []
        self.calibrations: list[float] = []

    def _round(self, first: bool, tracer) -> None:
        from perfbench.gate import check
        from perfbench.runner import calibrate, run_query
        from perfbench.tracing import layer_totals

        traced = tracer is not None
        index = self.round_count[traced]
        self.round_count[traced] += 1
        self.calibrations.append(calibrate())
        since = 0.0
        for i, (query, argv) in enumerate(zip(self.workload.queries, self.argvs)):
            if query.once and not first:
                continue
            outcome = run_query(argv, self.workload.deadline_s, tracer, i)
            error = check(query, self.expected[i], outcome)
            record = {"elapsed_s": outcome.elapsed_s,
                      "maxrss_kb": outcome.maxrss_kb,
                      "timed_out": outcome.timed_out, "wrong": error is not None,
                      "qe_stats": {}, "layers": None}
            if error is not None:
                self.errors.append(f"{query.instance} {query.command} "
                                   f"{query.formula!r}: {error}")
            elif not outcome.timed_out and query.command == "verify":
                record["qe_stats"] = json.loads(outcome.stdout).get("qe_stats", {})
            if outcome.spans is not None:
                record["layers"] = layer_totals(outcome.spans)
                self.spans.extend(
                    {"round": index, "query": s[5], "id": s[0], "name": s[1],
                     "start_ns": s[2], "end_ns": s[3], "parent": s[4],
                     "attrs": s[6]} for s in outcome.spans)
            self.samples[traced][i].append(record)
            if not outcome.timed_out:
                since += outcome.elapsed_s
            if since >= CALIBRATE_EVERY_S:
                self.calibrations.append(calibrate())
                since = 0.0

    def execute(self) -> None:
        """Run the rounds.  With tracing, every round is an untraced pass
        over the repeated queries and a traced pass over the round's
        queries, so the heavy queries run once, traced.  Set-ups are
        timed between rounds."""
        from perfbench.tracing import Tracer

        tracer = Tracer() if self.trace else None
        units = self.workload.rounds(self.seconds, self.trace)
        self.setup_times += [self.setup() for _ in range(2)]
        for unit in range(units):
            if unit and (time.perf_counter() - self.started
                         > OVERRUN * self.seconds):
                break  # a machine far slower than the nominal one
            if tracer is None:
                self._round(unit == 0, None)
            else:
                self._round(False, None)
                tracer.install()
                try:
                    self._round(unit == 0, tracer)
                finally:
                    tracer.uninstall()
            due = (SETUP_SAMPLES - 2) * (unit + 1) // units
            while len(self.setup_times) < 2 + due:
                self.setup_times.append(self.setup())
        while len(self.setup_times) < SETUP_SAMPLES:
            self.setup_times.append(self.setup())

    # -- metrics ---------------------------------------------------------

    def speed(self) -> float:
        """Median calibration time over the reference: 1.2 means that the
        machine ran 20 % slower than the reference during this run."""
        return statistics.median(self.calibrations) / CALIBRATION_REF_S

    def _scaled(self, record: dict) -> float:
        """A query's time at reference speed; a deadline is not scaled."""
        if record["timed_out"]:
            return record["elapsed_s"]
        return record["elapsed_s"] / self.speed()

    def query_ms(self, traced: bool = False) -> dict[int, float]:
        """Per query, the median of its timed samples in ms at reference
        speed; wrong answers are not timed."""
        out = {}
        for i, records in enumerate(self.samples[traced]):
            times = [self._scaled(r) * 1e3 for r in records if not r["wrong"]]
            if times:
                out[i] = statistics.median(times)
        return out

    def end_to_end(self) -> dict:
        records = [r for rs in self.samples[False] for r in rs]
        decided = [r for r in records if not r["wrong"] and not r["timed_out"]]
        per_query = self.query_ms()
        samples = [self._scaled(r) * 1e3 for r in records if not r["wrong"]]
        tail, percentile, beyond = _tail(samples or [0.0])
        raw = {i: statistics.median(r["elapsed_s"] for r in rs if not r["wrong"])
               for i, rs in enumerate(self.samples[False])
               if any(not r["wrong"] for r in rs)}
        self.notes = {
            "workload_s": "raw {:.4f} s, speed factor {:.3f}".format(
                sum(raw.values()), self.speed()),
            "verdict_ms_tail": f"p{percentile:.1f} of {len(samples)} samples, "
                               f"{beyond} beyond",
            "setup_s": f"raw {statistics.median(self.setup_times):.4f} s",
        }
        return {
            "workload_s": sum(per_query.values()) / 1e3,
            "verdict_ms_p50": statistics.median(per_query.values() or [0.0]),
            "verdict_ms_tail": tail,
            "decided_ratio": len(decided) / len(records),
            "peak_rss_mb": max((r["maxrss_kb"] for r in decided),
                               default=0) / 1024.0,
            "setup_s": statistics.median(self.setup_times) / self.speed(),
        }

    def _layers(self, record: dict) -> dict:
        """The per-layer values of one traced sample, times scaled."""
        out = {key: value / self.speed() if key.endswith("_ms") else value
               for key, value in record["layers"].items()}
        stats = record["qe_stats"]
        out["qe.eliminated_quantifiers"] = stats.get("eliminated_quantifiers", 0)
        out["qe.peak_atom_count"] = stats.get("peak_atom_count", 0)
        return out

    def per_layer(self) -> dict:
        """Per query, the median of each value over its traced samples;
        then the sum over queries (the maximum for the peak atom count)."""
        out: dict = defaultdict(float)
        for records in self.samples[True]:
            values = [self._layers(r) for r in records if r["layers"]]
            if not values:
                continue
            for name in values[0]:
                value = statistics.median(v[name] for v in values)
                if name == "qe.peak_atom_count":
                    out[name] = max(out[name], value)
                else:
                    out[name] += value
        builds = out["engine.build_prf_calls"]
        out["engine.decision_hit_ratio"] = (
            1.0 - out["qe.decide_calls"] / builds if builds else 0.0)
        out["trace.overhead_ratio"] = self._overhead()
        return {name: out[name] for name in PER_LAYER}

    def _overhead(self) -> float:
        """Traced over untraced time, summed over queries decided in both,
        each taken as its median over the rounds of that kind."""
        plain = traced = 0.0
        for untraced_rs, traced_rs in zip(self.samples[False], self.samples[True]):
            times = [[r["elapsed_s"] for r in rs
                      if not r["wrong"] and not r["timed_out"]]
                     for rs in (untraced_rs, traced_rs)]
            if all(times):
                plain += statistics.median(times[0])
                traced += statistics.median(times[1])
        return traced / plain if plain else 0.0

    def instance_rows(self) -> list[str]:
        """One row per model instance: time, status and the counts that
        show growth along the state and action axes."""
        groups: dict = defaultdict(list)
        for i, query in enumerate(self.workload.queries):
            groups[query.instance].append(i)
        lines = [f"{'instance':<24}{'queries':>8}{'status':>9}{'ms/round':>11}"
                 f"{'peak_atoms':>11}{'build_prf':>11}{'decide':>9}"]
        traced = bool(self.round_count[True])
        per_query = self.query_ms(traced)
        for name in sorted(groups, key=_instance_order):
            idx = groups[name]
            recs = [r for i in idx for r in self.samples[traced][i]]
            status = ("wrong" if any(r["wrong"] for r in recs) else
                      "timeout" if any(r["timed_out"] for r in recs) else "ok")
            ms = sum(per_query.get(i, 0.0) for i in idx)
            atoms = max((r["qe_stats"]["peak_atom_count"] for r in recs
                         if "peak_atom_count" in r["qe_stats"]), default="-")
            builds = decides = "-"
            if traced:
                layers = [self.samples[True][i][0]["layers"] or {} for i in idx]
                if all(layers):
                    builds = sum(l["engine.build_prf_calls"] for l in layers)
                    decides = sum(l["qe.decide_calls"] for l in layers)
            lines.append(f"{name:<24}{len(idx):>8}{status:>9}{ms:>11.1f}"
                         f"{atoms!s:>11}{builds!s:>11}{decides!s:>9}")
        return lines

    def write_trace(self, path: pathlib.Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"workload": self.workload.name,
                                     "seed": self.workload.seed,
                                     "PYTHONHASHSEED": HASH_SEED}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _instance_order(name: str):
    family, _, size = name.rpartition("-")
    return (family, int(size)) if size.isdigit() else (name, 0)


def run_workload(args, name: str) -> dict:
    from perfbench.reference import prepare
    from perfbench.runner import run_in_child
    from perfbench.workloads import build

    started = time.perf_counter()
    _timed_setup(args, name)  # writes the model files
    workload = build(name, args.seed, args.smoke)
    paths = {m: _model_dir(name) / f"{m}.hdmas" for m in workload.models}
    import hdmas.cli  # noqa: F401  (imported once; children inherit it)

    prepared = run_in_child(prepare, workload, paths)
    prepare_s = time.perf_counter() - started
    run = Run(workload, prepared["expected"], paths, args.seconds, args.trace,
              lambda: _timed_setup(args, name), started)
    run.execute()
    run_s = time.perf_counter() - started - prepare_s

    # end-to-end metrics come from untraced runs only: a traced run times
    # its heavy queries traced
    e2e = {} if args.trace else run.end_to_end()
    layers = run.per_layer() if args.trace else {}
    print(f"== {name}  seed {args.seed}  PYTHONHASHSEED={HASH_SEED}  "
          f"{len(workload.queries)} queries, "
          f"{sum(q.once for q in workload.queries)} of them once  "
          f"{run.round_count[False]} untraced + "
          f"{run.round_count[True]} traced rounds  "
          f"deadline {workload.deadline_s:g} s  "
          f"models and references {prepare_s:.1f} s, rounds {run_s:.1f} s")
    for metric, value in e2e.items():
        note = f"  ({run.notes[metric]})" if metric in run.notes else ""
        print(f"  {metric:<32}{value:>14.4f} {E2E[metric]}{note}")
    for metric, value in layers.items():
        note = ""
        if metric == "engine.decision_hit_ratio":
            note = (f"  (base: {layers['qe.decide_calls']:g} decide / "
                    f"{layers['engine.build_prf_calls']:g} build_prf)")
        print(f"  {metric:<32}{value:>14.4f} {PER_LAYER[metric]}{note}")
    for line in run.instance_rows():
        print("  " + line)
    if args.trace:
        trace_path = WORK / name / f"trace-seed{args.seed}.jsonl"
        run.write_trace(trace_path)
        print(f"  spans: {len(run.spans)} written to "
              f"{trace_path.relative_to(REPO)}")
    for error in run.errors:
        print(f"  WRONG {error}")
    records = [r for traced in (False, True) for rs in run.samples[traced]
               for r in rs]
    return {
        "correct": not run.errors,
        "attempted": len(records),
        "failed": sum(r["wrong"] or r["timed_out"] for r in records),
        "e2e": e2e,
        "layers": layers,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (REPO / "src" / "hdmas" / "cli.py").is_file():
        print(f"error: no hdmas sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    _pin_hash_seed()
    sys.path[0:1] = [str(REPO / "src"), str(REPO)]
    import hdmas

    if pathlib.Path(hdmas.__file__).resolve().parent != REPO / "src" / "hdmas":
        print(f"error: hdmas imported from {hdmas.__file__}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.setup_only:
        _setup(args)
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {name: run_workload(args, name) for name in names}
    metrics = {}
    for name, result in results.items():
        # with several workloads, every metric of every workload
        prefix = name + "/" if len(results) > 1 else ""
        for metric, value in {**result["e2e"], **result["layers"]}.items():
            unit = E2E.get(metric) or PER_LAYER[metric]
            metrics[prefix + metric] = {"value": value, "unit": unit}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
