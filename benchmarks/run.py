"""Benchmark of the spherewave CLI: study, limit and simulate, end to end and per layer.

    python3 benchmarks/run.py --workload {study,limit,simulate} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The harness imports ``spherewave`` from
``src/`` and drives ``spherewave.cli.main(argv)`` in this one process, as a
closed loop with a single client: an operation is one workload's CLI
invocations back to back, and the next operation starts when the previous
one returns.  Operations repeat until ``--seconds`` have passed (at least
one runs).  Each operation's outputs are checked, and hashed so that every
rerun in the run must reproduce the first one byte for byte.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first measures
untraced operations for ``--seconds``, then installs the span wrappers of
``tracing.py`` and measures traced operations for ``--seconds`` more, and
reports the per-layer metrics.  The last line of standard output is one
JSON object; a fuller record goes to ``benchmarks/results/``.
"""

import os

# Pin native thread pools before numpy loads: the study's 2 pool workers
# must not oversubscribe the 2 cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.linalg import cho_solve_banded, cholesky_banded  # noqa: E402
import tracing  # noqa: E402  (this directory is sys.path[0] when run as a script)
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_REPS = 8   # set-ups before the operations, and as many after them
# work counters that must repeat exactly between traced runs of one source tree
EXACT_COUNTERS = ("spde.steps", "limit.steps", "limit.rhs_calls",
                  "fields.helmholtz_calls", "study.samples")

# metric names and units as declared in BENCHMARK.json
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


@dataclass
class Operation:
    wall: float
    cpu: float
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    span_range: tuple = (0, 0)
    counters: Counter = field(default_factory=Counter)
    ref: float = float("nan")   # reference-kernel seconds around this operation


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("study", "limit", "simulate"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it becomes study.master_seed)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


class Bench:
    """One run: a workload's invocations, their directories and reference digests."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.invocations = workloads.WORKLOADS[workload]
        self.config_paths, self.out_dirs = {}, {}
        for inv in self.invocations:
            path = work / f"{inv.label}.json"
            path.write_text(json.dumps(inv.config(seed), indent=2) + "\n")
            self.config_paths[inv.label] = path
            self.out_dirs[inv.label] = work / "out" / inv.label
        self.reference_digest: dict = {}
        self.package = self.main = None
        self.wants: dict = {}

    def set_up(self, reps: int) -> list[float]:
        """Import spherewave afresh and load and validate the configs, reps times.

        Returns the time of each set-up; the last one's modules are kept.
        """
        times = []
        for _ in range(reps):
            for name in [m for m in sys.modules
                         if m == "spherewave" or m.startswith("spherewave.")]:
                del sys.modules[name]
            start = time.perf_counter()
            package = importlib.import_module("spherewave")
            importlib.import_module("spherewave.cli")
            self.wants = {label: workloads.expected(package, label,
                                                    package.config.load_config(path))
                          for label, path in self.config_paths.items()}
            times.append(time.perf_counter() - start)
        self.package, self.main = package, package.cli.main
        return times

    def operation(self, tracer=None) -> Operation:
        for out in self.out_dirs.values():
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
        first = len(tracer) if tracer is not None else 0
        counters_before = Counter(tracer.counters) if tracer is not None else Counter()
        codes = {}
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        for inv in self.invocations:
            os.environ["SPHEREWAVE_OUTPUT"] = str(self.out_dirs[inv.label])
            try:
                codes[inv.label] = self.main(inv.argv(self.config_paths[inv.label]))
            except Exception:  # a crash is a failed operation; the run goes on
                traceback.print_exc()
                codes[inv.label] = None
        op = Operation(wall=time.perf_counter() - t0, cpu=cpu_seconds() - cpu0)
        if tracer is not None:
            op.span_range = (first, len(tracer))
            op.counters = Counter(tracer.counters) - counters_before
        for inv in self.invocations:
            self._check(inv.label, codes[inv.label], op)
        return op

    def _check(self, label: str, code, op: Operation) -> None:
        if code != 0:
            op.problems.append(f"{label}: exit code {code}")
        out = self.out_dirs[label]
        try:
            checked = workloads.check(label, out, self.wants[label])
            digest = workloads.output_digest(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            op.problems.append(f"{label}: unreadable output ({exc!r})")
            return
        op.problems += [f"{label}: {p}" for p in checked.problems]
        op.values.update(checked.values)
        ref = self.reference_digest.setdefault(label, digest)
        if digest != ref:
            op.problems.append(f"{label}: outputs differ from the first run's")


class ReferenceKernel:
    """A fixed computation of this harness, timed next to every operation.

    The host's speed drifts by a third over tens of seconds, and the program's
    time drifts with it.  The kernel does the kind of work the program does
    (small-array numpy and banded solves at n=127, under the interpreter), so
    operation time divided by kernel time taken around it cancels most of the
    drift.  Nothing in it depends on the program, so a change to spherewave
    cannot move it.
    """

    UNIT = 3000      # iterations per reference unit (about 0.2 s on 2.1 GHz Xeon)
    CHUNK = 250

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a, self.b = rng.standard_normal((2, 127, 3))
        band = np.zeros((2, 127))
        band[0, 1:], band[1] = -1.0, 3.0
        self.factor = cholesky_banded(band)

    def run(self, seconds: float) -> tuple[float, int]:
        """Repeat the kernel for about `seconds`; returns (elapsed, iterations)."""
        a, b, factor = self.a, self.b, self.factor
        iterations, start = 0, time.perf_counter()
        while iterations == 0 or time.perf_counter() - start < seconds:
            for _ in range(self.CHUNK):
                c = np.cross(a, b)
                d = np.einsum("ij,ij->i", a, c)
                cho_solve_banded((factor, False), c + d[:, None])
            iterations += self.CHUNK
        return time.perf_counter() - start, iterations


# The kernel runs for this long before the first operation, then after each
# operation for a tenth of its wall time (within these limits), so that long
# operations are compared with a long sample of the host's speed.
REFERENCE_FIRST_S = 1.0
REFERENCE_SHARE, REFERENCE_MIN_S, REFERENCE_MAX_S = 0.1, 0.1, 3.0


def measure(bench: Bench, seconds: float, kernel: ReferenceKernel, tracer=None) -> list:
    ops = []
    before = kernel.run(REFERENCE_FIRST_S)
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        op = bench.operation(tracer)
        after = kernel.run(min(REFERENCE_MAX_S, max(REFERENCE_MIN_S, REFERENCE_SHARE * op.wall)))
        op.ref = kernel.UNIT * (before[0] + after[0]) / (before[1] + after[1])
        before = after
        for problem in op.problems:
            print(f"operation {len(ops)} failed: {problem}", file=sys.stderr)
        ops.append(op)
    return ops


def layer_metrics(table, counters: Counter, op: Operation) -> dict:
    """Per-layer numbers of one traced operation."""
    def per_call_us(span):
        calls = table.calls(span)
        return 1e6 * table.duration(span) / calls if calls else 0.0

    steps = counters["limit.steps"]
    solve_s = table.duration("limit.solve_limit")
    values = {
        "cli.self_s": table.self_time("cli.main"),
        "config.load_s": table.duration("config.load_config"),
        "config.emit_s": table.duration("config.write_csv") + table.duration("config.write_json"),
        "config.bytes_written": counters["config.bytes_written"],
        "limit.solve_s": solve_s,
        "limit.solve_calls": table.calls("limit.solve_limit"),
        "limit.steps": steps,
        "limit.rhs_calls": table.calls("limit.limit_rhs"),
        "limit.rhs_us": per_call_us("limit.limit_rhs"),
        "limit.step_us": 1e6 * solve_s / steps if steps else 0.0,
        "spde.simulate_self_s": table.self_time("spde.simulate"),
        "spde.steps": table.calls("spde.SpdeStepper.step"),
        "spde.step_us": per_call_us("spde.SpdeStepper.step"),
        "noise.correction_us": per_call_us("noise.strat_correction"),
        "noise.correction_calls": table.calls("noise.strat_correction"),
        "noise.kick_us": per_call_us("noise.noise_field"),
        "noise.kick_calls": table.calls("noise.noise_field"),
        "fields.helmholtz_us": per_call_us("fields.HelmholtzSolver.solve"),
        "fields.helmholtz_calls": table.calls("fields.HelmholtzSolver.solve"),
        "fields.sobolev_us": per_call_us("fields.sobolev_norm"),
        "fields.sobolev_calls": table.calls("fields.sobolev_norm"),
        "study.remainder_s": table.duration("study.remainder_terms"),
        "study.remainder_calls": table.calls("study.remainder_terms"),
        "trace.coverage": table.main_root_time() / op.wall,
    }
    for name in ("limit.sphere_residual_corrected", "limit.sphere_residual_parabolic",
                 "spde.energy_drift", "study.samples", "study.samples_failed"):
        values[name] = op.values.get(name, 0)
    return values


def git_commit():
    """HEAD of the enclosing git checkout, or None outside one (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Hash of the package sources, which identifies the code outside git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "spherewave").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def previous_counters(result_path: Path, digest: str) -> list:
    """Exact counters of other traced runs of this workload on the same sources."""
    workload = result_path.name.split("-seed")[0]
    found = []
    for path in sorted(RESULTS.glob(f"{workload}-seed*-trace1.json")):
        if path == result_path:
            continue
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if doc.get("environment", {}).get("source_digest") == digest and "exact_counters" in doc:
            found.append((path.name, doc["exact_counters"]))
    return found


def latest_overhead(workload: str):
    """Tracing overhead recorded by the newest traced run of this workload."""
    paths = sorted(RESULTS.glob(f"{workload}-seed*-trace1.json"),
                   key=lambda p: p.stat().st_mtime)
    for path in reversed(paths):
        try:
            return json.loads(path.read_text())["tracing_overhead"]
        except (OSError, ValueError, KeyError):
            continue
    return None


def per_layer(tracer, traced: list, record: dict, result_path: Path) -> tuple[dict, bool]:
    """Per-layer metrics of the traced operations; False if counters disagree."""
    untraced_wall, untraced_cpu = record["wall_s"], record["cpu_s"]
    arrays = tracer.arrays()
    per_op = [layer_metrics(tracing.SpanTable(tracer.names, arrays, *op.span_range),
                            op.counters, op) for op in traced]
    layer = {name: statistics.fmean(m[name] for m in per_op) for name in per_op[0]}
    traced_wall = statistics.median(op.wall for op in traced)
    overhead = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
                "overhead_s": traced_wall - untraced_wall,
                # the same, with both phases taken relative to the reference kernel
                "overhead_share_ref": (statistics.median(op.wall / op.ref for op in traced)
                                       / record["end_to_end"]["wall_ref"] - 1.0)}
    layer["trace.overhead_s"] = overhead["overhead_s"]
    layer["study.parallel_efficiency"] = untraced_cpu / (workloads.WORKERS * untraced_wall)
    for name, unit in PER_LAYER_UNITS.items():
        if unit in ("count", "B") and float(layer[name]).is_integer():
            layer[name] = int(layer[name])

    counters = {name: layer[name] for name in EXACT_COUNTERS}
    consistent = all(m[name] == counters[name] for m in per_op for name in EXACT_COUNTERS)
    earlier = previous_counters(result_path, record["environment"]["source_digest"])
    differing = [name for name, seen in earlier if seen != counters]
    if not consistent or differing:
        record["problems"].append("work counters differ between traced operations"
                                  f" or from earlier runs {differing}")
    if layer["trace.coverage"] < 0.95:
        print(f"warning: spans cover only {layer['trace.coverage']:.1%} of the traced"
              " wall time", file=sys.stderr)

    spans_path = result_path.with_suffix(".spans.npz")
    np.savez_compressed(spans_path, names=np.array(tracer.names), **arrays)
    record.update(per_layer=layer, exact_counters=counters, traced_ops=len(traced),
                  tracing_overhead=overhead, spans_file=spans_path.name)
    return layer, consistent and not differing


def run(args) -> int:
    if not (SRC / "spherewave" / "cli.py").is_file():
        print(f"error: no spherewave sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(parents=True, exist_ok=True)
    result_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"

    with tempfile.TemporaryDirectory(prefix="work-", dir=BENCH_DIR) as tmp:
        bench = Bench(args.workload, args.seed, Path(tmp))
        kernel = ReferenceKernel()
        setups = bench.set_up(SETUP_REPS)
        untraced = measure(bench, args.seconds, kernel)
        # the second half of the set-ups comes after the operations, so that
        # their median samples the host over the whole run
        setups += bench.set_up(SETUP_REPS)
        traced, tracer, missing = [], None, []
        if args.trace:
            tracer = tracing.Tracer()
            bench.main, missing = tracing.install(tracer, bench.package)
            traced = measure(bench, args.seconds, kernel, tracer)
        rss = peak_rss_mb()
    os.environ.pop("SPHEREWAVE_OUTPUT", None)

    ops = untraced + traced
    failed = sum(1 for op in ops if op.problems)
    walls = [op.wall for op in untraced]
    cpus = [op.cpu for op in untraced]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_ref": statistics.median(op.wall / op.ref for op in untraced),
        "cpu_ref": statistics.median(op.cpu / op.ref for op in untraced),
        "peak_rss_mb": rss,
        "ok_share": 1.0 - failed / len(ops),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": importlib.import_module("scipy").__version__,
            "git_commit": git_commit(),
            "source_digest": source_digest(),
            "workers": workloads.WORKERS,
        },
        "end_to_end": end_to_end,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "reference_s": statistics.median(op.ref for op in untraced),
        "failed_share": failed / len(ops),
        "untraced_ops": len(untraced),
        "wall_s_quartiles": quartiles(walls),
        "wall_ref_quartiles": quartiles([op.wall / op.ref for op in untraced]),
        "cpu_s_quartiles": quartiles(cpus),
        "setup_reps_s": setups,
        "problems": [p for op in ops for p in op.problems],
        "checks_last_op": ops[-1].values,
        "unwrapped_targets": missing,
    }
    correct = not failed
    if args.trace:
        values, counters_ok = per_layer(tracer, traced, record, result_path)
        correct = correct and counters_ok
        units = PER_LAYER_UNITS
    else:
        record["tracing_overhead"] = latest_overhead(args.workload)
        values, units = end_to_end, END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["correct"] = correct
    result_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops"
          f" {len(untraced)} untraced + {len(traced)} traced  failed {failed}"
          f"  failed_share {record['failed_share']:.3f}")
    print(f"  wall_s {record['wall_s']:.6g} s  quartiles {record['wall_s_quartiles']}"
          f" over {len(walls)} ops")
    print(f"  cpu_s {record['cpu_s']:.6g} s  reference kernel {record['reference_s']:.6g} s")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
