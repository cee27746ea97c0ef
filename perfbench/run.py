#!/usr/bin/env python3
"""PolyFrame action benchmark.

    python3 perfbench/run.py --workload xs_table3 --seed 1 --seconds 22 --trace 0

Run from the root of a checkout. One client process runs a closed loop, one
action at a time, against the five backends of ``repro.bench.harness``. An
action builds the PolyFrame(s) (``connector.initialize`` + q1) and applies
one expression through to its result, the paper's total-runtime point.

A round runs one pass per backend, backends in a seeded random order; a pass
runs every action of the workload once, in a seeded random order. After
warm-up rounds, a run measures a fixed number of rounds: ``--seconds``
divided by the workload's nominal round time, so a slower host runs the
same rounds, only for longer. Every result is checked outside the timed
region (see ``workloads.py``). Before each pass a probe runs one bare query
straight on Spark and on DuckDB; the end-to-end timings are scaled by it to
a reference host speed (see ``END_TO_END``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
is the run record: seed, sizes, Spark settings, versions and sample counts.
A traced run mixes untraced and traced rounds, and reports the tracing
overhead as the difference of their actions per second.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOAD_NAMES = ("xs_table3", "xl_scan_fetch")
BACKENDS = ("sparksql", "sql", "sqlpp", "mongo", "cypher")
SPARK_BACKENDS = ("sparksql", "sqlpp", "mongo", "cypher")
#: Data generation and registration are repeated and their medians taken;
#: the session start and the warm-up happen once per process by nature.
SETUP_REPEATS = 3
#: Warm-up rounds before timing. The first round carries the JVM's one-time
#: class loading and code generation and takes about twice a warm round.
#: The JIT does not settle after it: its compiler threads stay busy for as
#: long as the loop runs, and the next round is still 10-15% slower than
#: later ones. A second warm-up round would cost the time of a measured one,
#: so the slow round is measured instead and the per-pair medians over the
#: measured rounds pass over it. The count is fixed, so every run measures
#: the same stretch of the curve.
WARMUP_ROUNDS = 1
#: The host-speed probe: the same bare group-by, run straight on each engine
#: the backends use, outside PolyFrame, once before every pass.
PROBE_SQL = "SELECT four, count(*), sum(unique1) FROM perfbench_probe GROUP BY four"
PROBE_ROWS = 5_000
#: DuckDB runs the probe in 2-4 ms, so it runs it several times and
#: takes the median; Spark takes about 100 ms and runs it once.
DUCKDB_PROBE_REPEATS = 5
ENGINE = {"sparksql": "spark", "sql": "duckdb", "sqlpp": "spark", "mongo": "spark", "cypher": "spark"}
#: Probe times on a quiet 4-core host. They set the scale of the end-to-end
#: timings: an action's latency is scaled by the reference probe time over
#: the probe time measured on its engine in the same round.
PROBE_REF_S = {"spark": 0.1, "duckdb": 0.002}
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "16",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}

#: End-to-end metrics: name -> unit (printed with --trace 0). The timings
#: are in reference time (``ref_ms``, ``ref_s``): each latency is scaled to
#: the speed the host had when the probe took ``PROBE_REF_S``. On a shared
#: host the wall time of a whole run moves by 10-50% with the load of other
#: machines and from one JVM to the next; the probe moves with it, and the
#: ratio moves far less. Wall-time figures are in the run record. Most metrics are
#: built from each pair's (action, backend) median latency over the measured
#: rounds, so a burst of load that slows a few actions does not move them:
#: ``action_p50_ms`` is the median of the pair medians,
#: ``actions_per_s`` is pairs per second of their sum and ``backend_s.<b>`` is
#: one pass on backend b built from them. ``action_p90_ms`` is the tail of all
#: measured latencies; the run record states how many lie beyond it.
#: ``driver_peak_rss_mb`` is the peak resident memory of the process during
#: the measured rounds only.
END_TO_END = {
    "setup_s": "s",
    "actions_per_s": "1/ref_s",
    "action_p50_ms": "ref_ms",
    "action_p90_ms": "ref_ms",
    "expr_geomean_ms": "ref_ms",
    **{f"backend_s.{b}": "ref_s" for b in BACKENDS},
    "driver_peak_rss_mb": "MB",
}
#: Per-layer metrics, median per action: (name, unit, backends reporting it).
LAYERS = (
    ("creation_ms", "ms", BACKENDS),
    ("formation_ms", "ms", BACKENDS),
    ("query_chars", "chars", BACKENDS),
    ("rule_applies", "count", BACKENDS),
    ("preprocess_ms", "ms", ("sqlpp", "mongo")),
    ("prepared_chars", "chars", ("sqlpp", "mongo")),
    ("engine_build_ms", "ms", ("mongo", "cypher")),
    ("spark.parse_ms", "ms", ("sparksql", "sqlpp")),
    ("spark.analyze_ms", "ms", SPARK_BACKENDS),
    ("spark.optimize_ms", "ms", SPARK_BACKENDS),
    ("spark.plan_ms", "ms", SPARK_BACKENDS),
    ("execute_fetch_ms", "ms", BACKENDS),
    ("result_rows", "count", BACKENDS),
    ("spark.jobs", "count", SPARK_BACKENDS),
    ("spark.tasks", "count", SPARK_BACKENDS),
    ("postprocess_ms", "ms", BACKENDS),
)
SETUP_PHASES = ("session", "generate", "register", "warmup")
PER_LAYER = {
    **{f"{b}.{name}": unit for name, unit, backends in LAYERS for b in backends},
    **{f"setup.{p}_s": "s" for p in SETUP_PHASES},
    "trace.overhead_actions_per_s": "1/s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rows", type=int, help="override the workload's row count (self-test)")
    return p.parse_args(argv)


def start_spark():
    """A local[k] session whose scratch files stay under WORK."""
    WORK.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "local")
    # For every JVM spark-submit starts: temp files under WORK, and no
    # performance-counter file in the system's temp directory.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={WORK}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    from pyspark.sql import SparkSession

    builder = (
        SparkSession.builder.master(f"local[{min(4, os.cpu_count() or 1)}]")
        .appName("perfbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
    )
    for key, value in SPARK_CONF.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM, which exits when its stdin closes."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)


def connect(spark, data):
    from repro.bench.harness import make_connector, register_dataset

    conns = {}
    for b in BACKENDS:
        conns[b] = make_connector(b, spark)
        register_dataset(conns[b], data, data)
    return conns


class Probe:
    """Times ``PROBE_SQL`` on Spark and on DuckDB, with no PolyFrame code."""

    def __init__(self, spark):
        import duckdb
        import pandas as pd

        frame = pd.DataFrame({"four": [i % 4 for i in range(PROBE_ROWS)], "unique1": range(PROBE_ROWS)})
        spark.createDataFrame(frame).createOrReplaceTempView("perfbench_probe")
        self.sql = spark.sql  # bound now, so a tracer's wrapper never sees the probe
        self.duck = duckdb.connect()
        self.duck.register("perfbench_probe", frame)

    def __call__(self) -> dict:
        t0 = perf_counter()
        self.sql(PROBE_SQL).collect()
        spark_s = perf_counter() - t0
        duckdb_s = []
        for _ in range(DUCKDB_PROBE_REPEATS):
            t0 = perf_counter()
            self.duck.execute(PROBE_SQL).fetchdf()
            duckdb_s.append(perf_counter() - t0)
        return {"spark": spark_s, "duckdb": statistics.median(duckdb_s)}

    def close(self):
        self.duck.close()


class Loop:
    """The closed loop: rounds of passes, one action at a time."""

    def __init__(self, conns, actions, rng, probe, tracer=None):
        self.conns, self.actions, self.rng, self.tracer = conns, actions, rng, tracer
        self.probe = probe
        self.latency = defaultdict(list)  # (action, backend) -> [s], untraced
        self.probe_s = []  # engine -> median probe [s], per untraced round
        self.passes = defaultdict(list)  # backend -> [s], untraced
        self.traced_latency = []
        self.attempted = self.failed = 0
        self.errors = []

    def round(self, traced=False, measure=True) -> float:
        """One pass per backend. Warm-up rounds (``measure=False``) record
        and check nothing."""
        t_round, probes = 0.0, []
        for b in self.rng.sample(BACKENDS, len(BACKENDS)):
            probes.append(self.probe())
            conn, t_pass = self.conns[b], 0.0
            for a in self.rng.sample(self.actions, len(self.actions)):
                dt, ok = self.one(a, b, conn, traced, measure)
                t_pass += dt
                if not measure:
                    continue
                self.attempted += 1
                self.failed += not ok
                if traced:
                    self.traced_latency.append(dt)
                else:
                    self.latency[(a.name, b)].append(dt)
            if measure and not traced:
                self.passes[b].append(t_pass)
            t_round += t_pass
        if measure and not traced:
            self.probe_s.append({e: statistics.median(p[e] for p in probes) for e in PROBE_REF_S})
        if traced:
            self.tracer.collect_jobs()
        return t_round

    def one(self, a, b, conn, traced, check):
        if traced:
            self.tracer.begin(b)
        t0 = perf_counter()
        try:
            frames = a.create(conn)
            if traced:
                self.tracer.created(perf_counter() - t0)
            result = a.apply(frames)
        except Exception:  # a failed action is counted, not fatal
            dt = perf_counter() - t0
            self.error(a, b, traceback.format_exc(limit=2))
            ok = False
        else:
            dt = perf_counter() - t0
            ok = not check or self.checked(a, b, result)
        if traced:
            self.tracer.end()
        return dt, ok

    def checked(self, a, b, result) -> bool:
        try:
            ok = bool(a.check(result))
        except Exception:
            self.error(a, b, traceback.format_exc(limit=2))
            return False
        if not ok:
            self.error(a, b, f"result differs from the reference: {result!r}"[:500])
        return ok

    def error(self, a, b, message):
        if len(self.errors) < 10:
            self.errors.append(f"{a.name} on {b}: {message}")


def run(args) -> dict:
    t_start = perf_counter()
    spark = start_spark()
    try:
        sys.path[:0] = [str(SRC), str(HERE)]
        from repro.wisconsin.generator import wisconsin_pdf
        from workloads import WORKLOADS

        setup = {"session": perf_counter() - t_start}
        workload = WORKLOADS[args.workload]
        rows = args.rows or workload.rows
        generate, register = [], []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            data = wisconsin_pdf(rows, seed=args.seed)
            t1 = perf_counter()
            conns = connect(spark, data)
            generate.append(t1 - t0)
            register.append(perf_counter() - t1)
        setup["generate"] = statistics.median(generate)
        setup["register"] = statistics.median(register)

        actions = workload.actions(data)  # references: not set-up
        rng = random.Random(args.seed)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer(spark)
        probe = Probe(spark)
        loop = Loop(conns, actions, rng, probe, tracer)

        t0 = perf_counter()
        warmup = [loop.round(measure=False) for _ in range(WARMUP_ROUNDS)]
        setup["warmup"] = perf_counter() - t0

        # A traced run measures untraced and traced rounds in the order
        # U T T U U T T U ..., so rounds still speeding up after the warm-up
        # do not favour either kind.
        rounds = max(1 + args.trace, round(args.seconds / workload.round_s))
        reset_peak_rss()
        t0 = perf_counter()
        for i in range(rounds):
            traced = bool(args.trace) and i % 4 in (1, 2)
            if traced:
                tracer.install(conns)
            try:
                loop.round(traced)
            finally:
                if traced:
                    tracer.remove()
        measured = perf_counter() - t0
        peak_rss_mb = peak_rss_kb() / 1024
        probe.close()
        if tracer:
            tracer.collect_jobs(final=True)
        versions = versions_of(spark)
        master = spark.sparkContext.master
        conf = {k: spark.conf.get(k) for k in SPARK_CONF}
    finally:
        stop_spark(spark)

    setup_s = sum(setup.values())
    untraced = [t for ts in loop.latency.values() for t in ts]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "rows": rows,
        "actions_per_pass": len(actions),
        "rounds": rounds,
        "measured_s": measured,
        "pairs": len(loop.latency),
        "samples": len(untraced),
        "p90_samples_beyond": len(untraced) - math.ceil(0.9 * len(untraced)),
        "traced_samples": len(loop.traced_latency),
        "error_rate": {"value": loop.failed / max(1, loop.attempted), "unit": "ratio"},
        "errors": loop.errors,
        "setup_phases_s": setup,
        "warmup_round_s": warmup,
        "pass_s": dict(loop.passes),
        "probe_s": loop.probe_s,
        "probe_ref_s": PROBE_REF_S,
        "wall": timings(loop.latency, actions),
        "spark": {"master": master, **conf},
        "versions": versions,
        "nproc": os.cpu_count(),
    }
    if args.trace:
        metrics = per_layer(loop, tracer, setup)
    else:
        metrics = end_to_end(loop, setup_s, peak_rss_mb)
    return {
        "record": record,
        "result": {
            "correct": loop.failed == 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": metrics,
        },
    }


def timings(latency: dict, actions) -> dict:
    """The timing metrics from each (action, backend) pair's latencies."""
    median = {pair: statistics.median(ts) for pair, ts in latency.items()}
    pair_medians = list(median.values())
    samples = [t for ts in latency.values() for t in ts]
    return {
        "actions_per_s": len(pair_medians) / sum(pair_medians),
        "action_p50_ms": statistics.median(pair_medians) * 1000,
        "action_p90_ms": statistics.quantiles(samples, n=10)[-1] * 1000,
        "expr_geomean_ms": math.exp(statistics.fmean(map(math.log, pair_medians))) * 1000,
        **{f"backend_s.{b}": sum(median[(a.name, b)] for a in actions) for b in BACKENDS},
    }


def in_reference_time(loop: Loop) -> dict:
    """Each latency times its engine's reference probe time over the probe
    time measured in the same round."""
    return {
        (a, b): [t * PROBE_REF_S[ENGINE[b]] / loop.probe_s[i][ENGINE[b]] for i, t in enumerate(ts)]
        for (a, b), ts in loop.latency.items()
    }


def end_to_end(loop: Loop, setup_s: float, peak_rss_mb: float) -> dict:
    values = {
        "setup_s": setup_s,
        **timings(in_reference_time(loop), loop.actions),
        "driver_peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def per_layer(loop: Loop, tracer, setup: dict) -> dict:
    samples = defaultdict(list)
    for a in tracer.done:
        for key, value in a.t.items():
            samples[f"{a.backend}.{key}"].append(value)
    untraced = [t for ts in loop.latency.values() for t in ts]
    overhead = len(untraced) / sum(untraced) - len(loop.traced_latency) / sum(loop.traced_latency)
    values = {
        **{f"{b}.{name}": statistics.median(samples[f"{b}.{name}"])
           for name, _, backends in LAYERS for b in backends},
        **{f"setup.{p}_s": setup[p] for p in SETUP_PHASES},
        "trace.overhead_actions_per_s": overhead,
    }
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count (VmHWM) at the current RSS."""
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_kb() -> int:
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))


def versions_of(spark) -> dict:
    import duckdb
    import pandas
    import pyarrow

    return {
        "spark": spark.version,
        "duckdb": duckdb.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "core" / "aframe.py").is_file():
        print(f"perfbench: no PolyFrame sources under {SRC}", file=sys.stderr)
        return 2
    try:
        out = run(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"run_record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
