"""Alternating parent/change benchmark pairs, summarised into BENCH_<name>.json.

    python3 scripts/bench_pairs.py --parent HEAD~1 --out BENCH_7.json --seeds 81 82 83

Run from the root of a source checkout: that checkout is the change.  The
parent revision is exported with ``git archive`` into a temporary directory.
For every workload of BENCHMARK.json, each seed is one pair: one untraced
``perfbench/run.py`` run of each side, the side that goes first alternating
from pair to pair.  A run counts as bad if it crashed, reports
``correct: false`` or failed an operation; each side's bad runs and failed
operations are counted per workload, and bad runs are left out of the
summary.  The output holds every run and, per workload and end-to-end metric
of BENCHMARK.json, each side's median and quartiles, the number of pairs the
change won (ties count for neither side) and whether the median gap exceeds
the parent's inter-quartile range.  Each side also makes one traced run per
workload at seed TRACE_SEED, whose per-layer metrics (node, point and call
counts among them) are kept beside the timings, and each side's line count
of ``src/levyrep`` is recorded.  Every run lasts the ``run_seconds`` of
BENCHMARK.json.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 1  # seed of the one traced run per side and workload
SIDES = ("parent", "change")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--out", required=True, help="output file, e.g. BENCH_7.json")
    ap.add_argument("--seeds", nargs="+", type=int, required=True,
                    help="one pair per seed and workload")
    return ap.parse_args(argv)


def export(rev: str, dest: Path) -> str:
    """Unpack ``git archive rev`` into dest; returns the full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = dest.parent / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return sha


def src_lines(checkout: Path) -> int:
    """Lines of the Python files under src/levyrep in a checkout."""
    files = (checkout / "src" / "levyrep").rglob("*.py")
    return sum(len(p.read_text().splitlines()) for p in files)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``checkout``; its last line of output as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def is_bad(run: dict) -> bool:
    """A run that crashed, failed its checks or failed an operation."""
    return "error" in run or run.get("correct") is not True or run.get("failed", 0) > 0


def quartiles(values):
    """(q1, median, q3) of the values, None where there are none."""
    if not values:
        return None, None, None
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def value(run: dict, name: str):
    """A metric's value in a good run, None for a bad run or a missing metric."""
    if is_bad(run):
        return None
    return run.get("metrics", {}).get(name, {}).get("value")


def summarise(pairs, metrics):
    """Each side's bad runs and failed operations, and per end-to-end metric
    over the good runs: each side's quartiles, the change's wins and whether
    the medians differ by more than the parent's quartile spread."""
    out = {side: {"bad_runs": sum(is_bad(p[side]) for p in pairs),
                  "failed_operations": sum(p[side].get("failed", 0) for p in pairs)}
           for side in SIDES}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        wins = 0
        for p in pairs:
            a, b = value(p["parent"], name), value(p["change"], name)
            if a is not None and b is not None and b != a and (b > a) == higher:
                wins += 1
        entry = {"better": m["better"], "unit": m["unit"], "pairs": len(pairs),
                 "change_wins": wins}
        for side in SIDES:
            values = [v for p in pairs if (v := value(p[side], name)) is not None]
            q1, med, q3 = quartiles(values)
            entry[side] = {"median": med, "q1": q1, "q3": q3, "runs": len(values)}
        p, c = entry["parent"], entry["change"]
        if p["median"] is not None and c["median"] is not None:
            entry["change_over_parent"] = c["median"] / p["median"] if p["median"] else None
            entry["gap_exceeds_parent_iqr"] = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
        out[name] = entry
    return out


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=ROOT, check=True, capture_output=True,
                              text=True).stdout.strip()

    report = {"parent": None, "trace_seed": TRACE_SEED,
              "change": {"head": git("rev-parse", "HEAD"),
                         "uncommitted_changes": bool(git("status", "--porcelain"))},
              "seconds": seconds, "seeds": args.seeds,
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "host": {"machine": platform.machine(), "python": platform.python_version(),
                       "processor": platform.processor()},
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent = Path(tmp) / "parent"
        parent.mkdir()
        report["parent"] = export(args.parent, parent)
        checkouts = {"parent": parent, "change": ROOT}
        report["src_lines"] = {side: src_lines(checkouts[side]) for side in SIDES}
        k = 0
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for seed in args.seeds:
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, seed, seconds, 0)
                pairs.append(pair)
                k += 1
                print(f"{workload} seed {seed}: pair {len(pairs)} done", file=sys.stderr)
            traced = {side: run_once(checkouts[side], workload, TRACE_SEED, seconds, 1)
                      for side in SIDES}
            report["workloads"][workload] = {
                "summary": summarise(pairs, spec["end_to_end"]),
                "pairs": pairs,
                "traced": traced,
            }
    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
