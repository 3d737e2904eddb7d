"""In-memory span tracer and the timing wrappers it installs around spherewave.

Nothing under ``src/`` is edited: ``install`` replaces each layer's public
functions, at the names through which the CLI and the other layers call them,
with wrappers that record one span per call.  A span is (name, parent, start,
end, process); spans stay in compact arrays until the run ends.

``study`` runs its samples in forked pool workers, which inherit the wrappers.
Each worker clears its copy of the tracer before a sample and attaches the
sample's spans to the returned ``SampleRow``; the wrapper around
``run_study`` moves them back into the parent's tracer.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

MAIN, WORKER = 0, 1
_SPANS_ATTR = "_bench_spans"


class Tracer:
    """Spans of one process, with per-span counters added by hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.proc = array("b")
        self.counters: Counter = Counter()
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self) -> None:
        # in place: the installed wrappers hold references to these arrays
        for arr in (self.name, self.parent, self.start, self.end, self.proc):
            del arr[:]
        self.counters.clear()
        self._stack[:] = [-1]

    def wrap(self, name: str, fn, after=None):
        """Return fn recording a span per call; after(tracer, result, args) may count work."""
        nid = self.intern(name)
        names, parents, starts, ends, procs = (self.name, self.parent, self.start,
                                               self.end, self.proc)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            procs.append(MAIN)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, result, args)
            return result

        return traced

    def export(self) -> tuple:
        """Spans and counters as picklable bytes (for a pool worker's result)."""
        return (self.name.tobytes(), self.parent.tobytes(), self.start.tobytes(),
                self.end.tobytes(), dict(self.counters))

    def merge(self, exported: tuple, proc: int = WORKER) -> None:
        """Append spans exported by another process, re-rooting their parents."""
        name, parent, start, end, counters = exported
        offset = len(self)
        self.name.frombytes(name)
        before = len(self.parent)
        self.parent.frombytes(parent)
        for i in range(before, len(self.parent)):
            if self.parent[i] >= 0:
                self.parent[i] += offset
        self.start.frombytes(start)
        self.end.frombytes(end)
        self.proc.extend([proc] * (len(self.start) - before))
        self.counters.update(counters)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "proc": np.frombuffer(self.proc, dtype=np.int8).copy(),
        }


class SpanTable:
    """Per-name totals of the spans in [lo, hi): calls, duration and self time.

    Spans of one operation are contiguous and their parents lie inside the
    range, so the slice is closed under the parent relation.
    """

    def __init__(self, names: list, arrays: dict, lo: int, hi: int):
        name = arrays["name"][lo:hi]
        parent = arrays["parent"][lo:hi] - lo
        dur = arrays["end"][lo:hi] - arrays["start"][lo:hi]
        child = parent >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, parent[child], dur[child])
        self._self = dur - covered
        self._dur, self._name = dur, name
        self._root_main = ~child & (arrays["proc"][lo:hi] == MAIN)
        self._ids = {n: i for i, n in enumerate(names)}

    def _mask(self, span: str) -> np.ndarray:
        return self._name == self._ids.get(span, -1)

    def calls(self, span: str) -> int:
        return int(self._mask(span).sum())

    def duration(self, span: str) -> float:
        return float(self._dur[self._mask(span)].sum())

    def self_time(self, span: str) -> float:
        return float(self._self[self._mask(span)].sum())

    def main_root_time(self) -> float:
        """Time covered by the outermost spans of the benchmark process."""
        return float(self._dur[self._root_main].sum())


def _count_limit_steps(tracer: Tracer, traj, args) -> None:
    tracer.counters["limit.steps"] += traj.params.n_steps


def _count_bytes(tracer: Tracer, result, args) -> None:
    tracer.counters["config.bytes_written"] += args[0].stat().st_size


def _ship_sample_spans(tracer: Tracer, job):
    """Pool job wrapper: a worker returns its sample's spans with the row."""

    @functools.wraps(job)
    def shipped(args):
        tracer.clear()
        row = job(args)
        setattr(row, _SPANS_ATTR, tracer.export())
        tracer.clear()
        return row

    return shipped


def _collect_sample_spans(tracer: Tracer, result, args) -> None:
    for row in result.rows:
        spans = vars(row).pop(_SPANS_ATTR, None)
        if spans is not None:   # None for rows computed in this process
            tracer.merge(spans)


# (module, attribute, span name, hook).  Each layer function is wrapped where
# its callers look it up: the CLI and the study import names into their own
# namespaces, and the stepper calls the noise kernels as bound in spde.
_TARGETS = (
    ("cli", "load_config", "config.load_config", None),
    ("cli", "write_csv", "config.write_csv", _count_bytes),
    ("cli", "write_json", "config.write_json", _count_bytes),
    ("cli", "run_study", "study.run_study", _collect_sample_spans),
    ("cli", "solve_limit", "limit.solve_limit", _count_limit_steps),
    ("study", "solve_limit", "limit.solve_limit", _count_limit_steps),
    ("limit", "limit_rhs", "limit.limit_rhs", None),
    ("cli", "simulate", "spde.simulate", None),
    ("study", "simulate", "spde.simulate", None),
    ("spde", "SpdeStepper.step", "spde.SpdeStepper.step", None),
    ("spde", "strat_correction", "noise.strat_correction", None),
    ("spde", "noise_field", "noise.noise_field", None),
    ("fields", "HelmholtzSolver.solve", "fields.HelmholtzSolver.solve", None),
    ("study", "sobolev_norm", "fields.sobolev_norm", None),
    ("cli", "remainder_terms", "study.remainder_terms", None),
    ("study", "remainder_terms", "study.remainder_terms", None),
    ("study", "_run_sample", "study.sample", None),
)


def install(tracer: Tracer, package) -> tuple[object, list[str]]:
    """Wrap the layer functions of an imported spherewave package.

    Returns the traced ``cli.main`` and the targets that the package does not
    define (those layers then report zero calls).
    """
    missing = []
    for module_name, attr, span, hook in _TARGETS:
        owner = getattr(package, module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(owner, leaf, tracer.wrap(span, fn, hook))
    job = getattr(package.study, "_run_sample_job", None)
    if job is None:
        missing.append("study._run_sample_job")
    else:
        # pickled by reference: pool workers resolve this same module attribute
        package.study._run_sample_job = _ship_sample_spans(tracer, job)
    return tracer.wrap("cli.main", package.cli.main), missing
