"""Per-layer timings of one action, measured from outside the program.

:class:`Tracer` wraps the public calls on each connector instance
(``execute``, ``preprocess``, ``send_query``, ``postprocess``,
``engine.execute``, the session's ``sql``, the returned DataFrame's
``toPandas``) and the connector's ``RewriteRules.apply``, so nothing under
``src/`` changes. The wrappers are instance attributes that shadow the class
methods; :meth:`Tracer.remove` deletes them again, so untraced rounds run the
unwrapped code.

Spark planning phases come from ``QueryPlanningTracker`` of the DataFrame an
action collected, and job and task counts from a per-action job group read
through ``SparkContext.statusTracker()``.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from time import perf_counter, sleep

#: QueryPlanningTracker phase -> per-layer metric.
PHASES = {
    "parsing": "spark.parse_ms",
    "analysis": "spark.analyze_ms",
    "optimization": "spark.optimize_ms",
    "planning": "spark.plan_ms",
}
#: Job states after which the status store no longer changes the job.
_ENDED = ("SUCCEEDED", "FAILED")


class _Action:
    def __init__(self, backend: str, group: str):
        self.backend = backend
        self.group = group
        self.t = defaultdict(float)  # metric -> ms or count
        self.created = None
        self.entered = None
        self.frames = []
        self.on_spark = False


class Tracer:
    def __init__(self, spark):
        self.spark = spark
        self.sc = spark.sparkContext
        self._wrapped = []
        self._ids = itertools.count()
        self.action: _Action | None = None
        self.done: list[_Action] = []

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, obj, name: str, before=None, after=None):
        fn = getattr(obj, name)

        def wrapper(*args, **kwargs):
            if before:
                before(*args)
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            ms = (perf_counter() - t0) * 1000
            if after:
                after(out, ms)
            return out

        setattr(obj, name, wrapper)
        self._wrapped.append((obj, name))

    def _add(self, key: str):
        def after(out, ms):
            self.action.t[key] += ms
        return after

    def install(self, connectors: dict) -> None:
        self._wrap(self.spark, "sql", after=self._collected("spark.sql_ms"))
        for conn in connectors.values():
            self._wrap(conn.rules, "apply", before=self._count_rule)
            self._wrap(conn, "execute", before=self._enter)
            self._wrap(conn, "preprocess", after=self._prepared)
            self._wrap(conn, "send_query", after=self._add("send_query_ms"))
            self._wrap(conn, "postprocess", after=self._postprocessed)
            engine = getattr(conn, "engine", None)
            if engine is not None:
                self._wrap(engine, "execute", after=self._collected("engine_build_ms"))

    def remove(self) -> None:
        for obj, name in reversed(self._wrapped):
            delattr(obj, name)
        self._wrapped.clear()

    # -- hooks --------------------------------------------------------------
    def _count_rule(self, *args):
        if self.action is not None:
            self.action.t["rule_applies"] += 1

    def _enter(self, query, *args):
        a = self.action
        if a.entered is None:
            a.entered = perf_counter()
        a.t["query_chars"] += len(query)

    def _prepared(self, out, ms):
        self.action.t["preprocess_ms"] += ms
        self.action.t["prepared_chars"] += len(out)

    def _postprocessed(self, out, ms):
        self.action.t["postprocess_ms"] += ms
        self.action.t["result_rows"] += len(out)

    def _collected(self, key: str):
        """After-hook for a call that returns a Spark DataFrame: time it and
        time that DataFrame's ``toPandas``."""
        def after(df, ms):
            self.action.t[key] += ms
            self.action.frames.append(df)
            self._wrap(df, "toPandas", after=self._add("to_pandas_ms"))
        return after

    # -- one action -----------------------------------------------------------
    def begin(self, backend: str) -> None:
        self.action = _Action(backend, f"perfbench-{next(self._ids)}")
        self.sc.setJobGroup(self.action.group, "perfbench traced action")

    def created(self, creation_s: float) -> None:
        self.action.t["creation_ms"] = creation_s * 1000
        self.action.created = perf_counter()

    def end(self) -> None:
        a = self.action
        self.action = None
        self.sc.setLocalProperty("spark.jobGroup.id", None)
        if a.entered is not None:
            a.t["formation_ms"] = (a.entered - a.created) * 1000
        for df in a.frames:
            phases = df._jdf.queryExecution().tracker().phases()
            for phase, key in PHASES.items():
                summary = phases.get(phase)
                if summary.isDefined():
                    a.t[key] += summary.get().durationMs()
        a.on_spark = bool(a.frames)
        if a.on_spark:
            planning = a.t["spark.optimize_ms"] + a.t["spark.plan_ms"]
            a.t["execute_fetch_ms"] = a.t["to_pandas_ms"] - planning
        else:
            a.t["execute_fetch_ms"] = a.t["send_query_ms"]
        a.frames = []
        self.done.append(a)

    def collect_jobs(self, final: bool = False) -> None:
        """Read job and task counts of traced actions whose jobs have all
        finished. Spark's status store follows the listener bus, so the last
        jobs of a round may not show yet; their actions are read at a later
        call. The ``final`` call first runs a fence job and waits, up to
        10 s, until the store shows it ended: the bus delivers events in
        order, so every earlier job is in the store too, and an action
        showing no job ran none."""
        tracker = self.sc.statusTracker()
        if final:
            self.sc.setJobGroup("perfbench-fence", "perfbench fence")
            self.sc.parallelize([0], 1).count()
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            deadline = perf_counter() + 10
            while perf_counter() < deadline and not self._ended(
                tracker, tracker.getJobIdsForGroup("perfbench-fence")
            ):
                sleep(0.05)
        for a in self.done:
            if not a.on_spark or "spark.jobs" in a.t:
                continue
            jobs = tracker.getJobIdsForGroup(a.group)
            if not final and not self._ended(tracker, jobs):
                continue
            tasks = 0
            for job in jobs:
                info = tracker.getJobInfo(job)
                for stage in info.stageIds if info else ():
                    s = tracker.getStageInfo(stage)
                    tasks += s.numCompletedTasks if s else 0
            a.t["spark.jobs"] = len(jobs)
            a.t["spark.tasks"] = tasks

    @staticmethod
    def _ended(tracker, jobs) -> bool:
        infos = [tracker.getJobInfo(job) for job in jobs]
        return bool(infos) and all(i is not None and i.status in _ENDED for i in infos)
