"""Span tracer that wraps the groupahp package's functions from outside.

The package binds names with ``from .x import f``, so a function is patched
in every module (and module-level dict) that holds it, not only where it is
defined.  Each wrapped call records one span: name, start, end, parent span
and trace id.  A trace is one CLI command (``cli.main``) or one scenario.
Spans stay in memory until the pass ends.

Pool workers forked during a traced pass inherit the patched functions.  They
append their spans to a spool file after every scenario, and the parent
merges those files when the pass is over.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import pickle
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

PACKAGE = "groupahp"
QUIET_MODULES = {"groupahp.errors"}  # exception classes only; no work to trace
PROBE = "trace.probe"  # time the tracer spends in hooks; excluded from every layer
SCENARIO = "montecarlo.scenario"
# Counters filled by hooks, reported under these names.
COUNTERS = (
    "panelio.bytes_read",
    "panelio.bytes_written",
    "cli.csv_bytes_written",
    "montecarlo.pool.pickled_bytes",
    "attack.run_attack.succeeded",
)


def _digest(matrix) -> bytes:
    return hashlib.blake2b(matrix.values.tobytes(), digest_size=8).digest()


def _file_size(tracer, counter, path):
    tracer.counters[counter] += os.path.getsize(path)


def _pickled_bytes(tracer, fn, items, workers):
    if workers > 1:
        tracer.counters["montecarlo.pool.pickled_bytes"] += sum(
            len(pickle.dumps(item)) for item in items
        )


# Hooks run after a successful call as hook(tracer, result, *args).
HOOKS = {
    "derive.gmm_priorities": lambda t, r, C, *a, **k: t.digests["derive.gmm_priorities"].add(_digest(C)),
    "inconsistency.saaty_ci": lambda t, r, C, *a, **k: t.digests["inconsistency.saaty_ci"].add(_digest(C)),
    "panelio.load_panel": lambda t, r, path: _file_size(t, "panelio.bytes_read", path),
    "panelio.save_panel": lambda t, r, path, *a: _file_size(t, "panelio.bytes_written", path),
    "attack.run_attack": lambda t, r, *a, **k: t.counters.update({"attack.run_attack.succeeded": int(r.succeeded)}),
    # private functions: hooked for a counter only, no span
    "cli._write_csv": lambda t, r, path, *a: _file_size(t, "cli.csv_bytes_written", path),
    "montecarlo._map": lambda t, r, fn, items, workers: _pickled_bytes(t, fn, items, workers),
}
SCENARIO_FUNCTIONS = ("_run_experiment1_one", "_run_experiment2_one")


def package_modules() -> list:
    """The imported modules of the package, in a fixed order."""
    return [
        m for n, m in sorted(sys.modules.items())
        if (n == PACKAGE or n.startswith(PACKAGE + ".")) and n not in QUIET_MODULES
    ]


class Tracer:
    def __init__(self, spool: Path):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trace = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.trace_id = 0
        self._next_trace = 0
        self.counters: Counter = Counter({c: 0 for c in COUNTERS})
        self.digests: dict[str, set] = {
            "derive.gmm_priorities": set(),
            "inconsistency.saaty_ci": set(),
        }
        self.owner = self.pid = os.getpid()
        self.spool = spool
        self.wrapped: dict[str, list] = {}  # span name -> original functions
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.trace.append(self.trace_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _new_trace(self) -> int:
        self._next_trace += 1
        return self.pid * 1_000_000 + self._next_trace

    def _wrap(self, name: str, fn, span: bool = True, starts_trace: bool = False):
        probe = self._intern(PROBE)
        if span:
            nid = self._intern(name)
            self.wrapped.setdefault(name, []).append(fn)
        hook = HOOKS.get(name)
        in_scenario = name == SCENARIO

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if in_scenario:
                self._adopt_process()
            if starts_trace:
                saved, self.trace_id = self.trace_id, self._new_trace()
            if span:
                i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                if span:
                    self._close(i)
                if starts_trace:
                    self.trace_id = saved
            if hook is not None:
                j = self._open(probe)
                hook(self, result, *args, **kwargs)
                self._close(j)
            if in_scenario and self.pid != self.owner:
                self._flush_worker()
            return result

        return traced

    # -- pool workers --------------------------------------------------

    def _reset(self) -> None:
        for arr in (self.name, self.parent, self.trace, self.start, self.end):
            del arr[:]
        self.stack.clear()
        self.counters = Counter({c: 0 for c in COUNTERS})
        for s in self.digests.values():
            s.clear()

    def _adopt_process(self) -> None:
        """In a freshly forked worker, drop the spans copied from the parent."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self._next_trace = 0
            self._reset()

    def _flush_worker(self) -> None:
        chunk = (
            [a.tobytes() for a in (self.name, self.parent, self.trace, self.start, self.end)],
            dict(self.counters),
            {k: list(v) for k, v in self.digests.items()},
        )
        self.spool.mkdir(parents=True, exist_ok=True)
        with open(self.spool / f"worker-{self.pid}.pkl", "ab") as fh:
            pickle.dump(chunk, fh)
        self._reset()

    def collect_workers(self) -> int:
        """Merge the spans that pool workers spooled; returns the files read."""
        files = sorted(self.spool.glob("worker-*.pkl"))
        for path in files:
            with open(path, "rb") as fh:
                while True:
                    try:
                        arrays, counters, digests = pickle.load(fh)
                    except EOFError:
                        break
                    offset = len(self.name)
                    name, parent, trace, start, end = (
                        array(t, b) for t, b in zip("iiqdd", arrays)
                    )
                    self.name.extend(name)
                    self.parent.extend(array("i", (p + offset if p >= 0 else -1 for p in parent)))
                    self.trace.extend(trace)
                    self.start.extend(start)
                    self.end.extend(end)
                    self.counters.update(counters)
                    for k, v in digests.items():
                        self.digests[k].update(v)
            path.unlink()
        return len(files)

    # -- patching ------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap the public functions and dataclass constructors of ``modules``.

        ``cli`` is the entry layer: only ``main`` gets a span there, so that
        its self time covers argparse, printing and CSV writing.
        """
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isfunction(obj):
                    wrapper = self._wrapper_for(name, obj)
                    if wrapper is not None:
                        wrappers[id(obj)] = wrapper
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    original = vars(obj)["__post_init__"]
                    self._patch(obj, "__post_init__", self._wrap(name, original))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._patch_item(obj, key, wrappers[id(value)])

    def _wrapper_for(self, name: str, fn):
        layer, attr = name.split(".")
        if attr in SCENARIO_FUNCTIONS:
            return self._wrap(SCENARIO, fn, starts_trace=True)
        if name == "cli.main":
            return self._wrap(name, fn, starts_trace=True)
        if attr.startswith("_") or layer == "cli":
            return self._wrap(name, fn, span=False) if name in HOOKS else None
        return self._wrap(name, fn)

    def _patch(self, target, attr, value) -> None:
        self._patches.append((setattr, target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _patch_item(self, target: dict, key, value) -> None:
        self._patches.append((dict.__setitem__, target, key, target[key]))
        target[key] = value

    def uninstall(self) -> None:
        for setter, target, key, original in reversed(self._patches):
            setter(target, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "trace": np.frombuffer(self.trace, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans of one process nest, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        selfs = np.bincount(a["name"], weights=self_time, minlength=k)
        return {
            n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(selfs[i])}
            for i, n in enumerate(self.names)
        }

    def scenario_counts(self, names) -> list[dict[str, int]]:
        """Calls of ``names`` inside each scenario trace, one dict per scenario."""
        a = self.arrays()
        ids = {self._ids[n]: n for n in names if n in self._ids}
        scen = self._ids.get(SCENARIO)
        traces = np.unique(a["trace"][a["name"] == scen]) if scen is not None else []
        out = []
        for t in traces:
            in_t = a["name"][a["trace"] == t]
            out.append({n: int(np.count_nonzero(in_t == i)) for i, n in ids.items()})
        return out
