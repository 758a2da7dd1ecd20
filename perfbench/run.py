"""Run one benchmark workload of levyrep and print its metrics.

    python3 perfbench/run.py --workload merton-paths --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; levyrep is imported from ``src/``
there.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
metrics.  A copy with per-section detail goes to ``.perfbench_results/``.
"""

import os

# One BLAS thread: the matrix-vector products in table evaluation gain
# nothing from a second thread on two cores and their timings spread more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5     # fresh processes timed for setup_s; the median is reported
MIN_ROUNDS = 3        # rounds per untraced run
ROUND_STREAM, SETUP_STREAM = 0, 1  # seed streams


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-sample", type=int, default=None,
                    help="internal: set up once in a fresh process, print the "
                         "monotonic clock and exit")
    return ap.parse_args(argv)


def import_program() -> float:
    """Import levyrep from the checkout's src/; returns the import seconds."""
    src = ROOT / "src"
    if not (src / "levyrep" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no levyrep sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import levyrep

    if Path(levyrep.__file__).resolve().parent != src / "levyrep":
        raise SystemExit(f"run.py: imported levyrep from {levyrep.__file__}, not {src}")
    return time.perf_counter() - t0


def rng_for(seed, stream, index):
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


class Bench:
    """State of one run: markets, jobs, timings, checks and the tracer."""

    def __init__(self, workload, seed, timings, sample=None):
        from workloads import WORKLOADS, load_market

        t0 = time.perf_counter()
        self.seed = seed
        self.markets = {name: load_market(ROOT, name, timings) for name in ("merton", "nig")}
        self.jobs = WORKLOADS[workload]()
        stream, index = (ROUND_STREAM, 0) if sample is None else (SETUP_STREAM, sample)
        rng = rng_for(seed, stream, index)
        self.inputs = [job.prepare(self, rng) for job in self.jobs]
        timings["setup.inputs_s"] = time.perf_counter() - t0
        self.rounds = 0
        self.unit = None                   # (round, job): the calls one rate is taken over
        self.records = defaultdict(list)   # section -> [(unit, seconds, work)]
        self.traced = defaultdict(float)   # section -> traced seconds
        self.attempted = self.failed = 0
        self.errors = []
        self.tracer = None
        self.checks = None

    def call(self, section, work, thunk):
        """Time one call; in the traced run, repeat it on the same inputs
        with the layer wrappers installed.  ``work`` is a number or a
        function of the result."""
        import levyrep

        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = thunk()
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.section = section
                with self.tracer.installed():
                    _, dt_traced = self.tracer.span("bench", thunk)
                self.traced[section] += dt_traced
        except levyrep.LevyRepError as exc:
            self.failed += 1
            self.errors.append(f"{section}: {type(exc).__name__}: {exc}")
            return None
        self.records[section].append((self.unit, dt, work(out) if callable(work) else work))
        return out

    def measure(self, seconds):
        """Rounds until the run has lasted about ``seconds``, at least
        ``MIN_ROUNDS``; the traced run does one round."""
        from workloads import Checks, attach_reference

        for mk in self.markets.values():
            attach_reference(mk)
        nig = self.markets["nig"]
        self.jump_rate = nig.ref.jump_rate(nig.eps)
        self.checks = Checks()
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            for j, (job, inputs) in enumerate(zip(self.jobs, self.inputs)):
                self.unit = (self.rounds, j)
                job.run(self, inputs)
            self.rounds += 1
            now = time.perf_counter()
            if self.tracer is not None or (
                    self.rounds >= MIN_ROUNDS and now - start + 0.5 * (now - r0) >= seconds):
                break
            rng = rng_for(self.seed, ROUND_STREAM, self.rounds)
            self.inputs = [job.prepare(self, rng) for job in self.jobs]

    # -- metrics -------------------------------------------------------------

    def _unit_rates(self, section):
        """Work per second of each job run: one batch, one simulation, or
        the grids or densities of one round."""
        work, secs = defaultdict(float), defaultdict(float)
        for u, dt, w in self.records[section]:
            work[u] += w
            secs[u] += dt
        return [work[u] / secs[u] for u in sorted(work)]

    def _rate(self, section):
        return statistics.median(self._unit_rates(section))

    def end_to_end(self, setup_s):
        import numpy as np

        q_ms = np.array([dt for _, dt, _ in self.records["query"]]) * 1e3
        return {
            "setup_s": (setup_s, "s"),
            "replicate_path_steps_per_s": (self._rate("replicate"), "path-steps/s"),
            "fs_path_steps_per_s": (self._rate("fs"), "path-steps/s"),
            "simulate_jumps_per_s": (self._rate("simulate"), "jumps/s"),
            "query_p50_ms": (float(np.percentile(q_ms, 50)), "ms"),
            "query_p90_ms": (float(np.percentile(q_ms, 90)), "ms"),
            "hedge_grid_points_per_s": (self._rate("hedge_grid"), "points/s"),
            "density_points_per_s": (self._rate("density"), "points/s"),
        }

    def per_layer(self, timings):
        tr = self.tracer
        layer = defaultdict(float)
        for (_, name), s in tr.self_s.items():
            layer[name] += s
        c = tr.counts
        untraced = sum(dt for recs in self.records.values() for _, dt, _ in recs)
        traced = sum(self.traced.values())

        def ns_per(s, n):
            return 1e9 * s / n if n else 0.0

        return {
            "setup.import_s": (timings["setup.import_s"], "s"),
            "setup.inputs_s": (timings["setup.inputs_s"], "s"),
            "mmm.build_s": (timings["mmm.build_s"], "s"),
            "psi.calls": (c["psi.calls"], "count"),
            "psi.points": (c["psi.points"], "count"),
            "psi.s": (layer["models"], "s"),
            "table.builds": (c["table.builds"], "count"),
            "table.nodes": (c["table.nodes"], "count"),
            "table.nodes_max": (c["table.nodes_max"], "count"),
            "table.build_self_s": (layer["adapt"], "s"),
            "eval.calls": (c["eval.calls"], "count"),
            "eval.points": (c["eval.points"], "count"),
            "eval.point_nodes": (c["eval.point_nodes"], "count"),
            "eval.s": (layer["eval"], "s"),
            "eval.ns_per_point_node": (ns_per(layer["eval"], c["eval.point_nodes"]), "ns"),
            "density.builds": (c["density.builds"], "count"),
            "density.nodes": (c["density.nodes"], "count"),
            "density.build_s": (layer["density_build"], "s"),
            "density.eval_s": (layer["density_eval"], "s"),
            "density.ns_per_point_node": (
                ns_per(layer["density_eval"], c["density.point_nodes"]), "ns"),
            "simulate.s": (layer["simulate"], "s"),
            "simulate.jumps": (c["simulate.jumps"], "count"),
            "simulate.mark_table_s": (layer["mark_table"], "s"),
            "replicate.self_s": (layer["replicate"], "s"),
            "replicate.points": (c["replicate.points"], "count"),
            "fs.self_s": (layer["fs"], "s"),
            "hedge_grid.self_s": (layer["hedge_grid"], "s"),
            "hedge.components_calls": (c["hedge.components_calls"], "count"),
            "hedge.components_self_s": (layer["hedge_components"], "s"),
            "query.self_s": (layer["query"], "s"),
            "trace.untraced_s": (untraced, "s"),
            "trace.traced_s": (traced, "s"),
            "trace.overhead_s": (traced - untraced, "s"),
            "trace.bench_self_s": (layer["bench"], "s"),
        }

    def sections(self):
        """Per timed section: calls, untraced seconds, work, and in the
        traced run the traced seconds and the self time of each layer."""
        out = {}
        for sec, recs in self.records.items():
            d = {"calls": len(recs), "untraced_s": sum(dt for _, dt, _ in recs),
                 "work": sum(w for _, _, w in recs), "unit_rates": self._unit_rates(sec)}
            if self.tracer is not None:
                d["traced_s"] = self.traced[sec]
                d["layers_s"] = {name: s for (s_, name), s in self.tracer.self_s.items()
                                 if s_ == sec}
            out[sec] = d
        return out


def setup_samples(args) -> list:
    """Set-up seconds of fresh processes: from launch to the end of set-up,
    on the system-wide monotonic clock."""
    out = []
    for i in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-sample", str(i)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"run.py: set-up sample failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def host_steal_s():
    """CPU seconds the hypervisor has taken from this host's guest since
    boot, from Linux's /proc/stat; None elsewhere."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def machine():
    import numpy as np
    import scipy

    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None):
    args = parse_args(argv)
    timings = {"setup.import_s": import_program()}
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if args.setup_sample is not None:
        Bench(args.workload, args.seed, timings, sample=args.setup_sample)
        print(time.monotonic())
        return 0

    steal0 = host_steal_s()
    samples = [] if args.trace else setup_samples(args)
    bench = Bench(args.workload, args.seed, timings)
    if args.trace:
        from tracing import Tracer

        bench.tracer = Tracer()
    bench.measure(args.seconds)
    if args.trace:
        metrics = bench.per_layer(timings)
    else:
        metrics = bench.end_to_end(statistics.median(samples))
    ck = bench.checks
    for line in ck.failures + bench.errors:
        print(line, file=sys.stderr)
    result = {
        "correct": not ck.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=bench.rounds, setup_samples_s=samples,
                  checks_passed=ck.passed, check_failures=ck.failures, errors=bench.errors,
                  sections=bench.sections(), machine=machine(),
                  host_steal_s=None if steal0 is None else host_steal_s() - steal0)
    out_dir = ROOT / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(f"{args.workload}: {bench.rounds} round(s), {ck.passed} checks passed, "
          f"{len(ck.failures)} failed", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
