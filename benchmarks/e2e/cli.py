"""The orchestrator: runs the workloads in fresh subprocesses, prints
every metric, checks correctness, and writes one result envelope.

Usage::

    PYTHONPATH=src python -m benchmarks.e2e [--seed N] [--reps R]
        [--workload W ...] [--trace [0|1]] [--scale smoke|full]
        [--seconds S] [--out PATH]
    python -m benchmarks.e2e compare A.json B.json

The default invocation runs R = 5 untraced rounds interleaved
round-robin across the five workloads, one traced round, and the smoke
cross-mode check, then prints the total time.  ``--trace 0`` skips the
traced round; ``--trace 1`` pairs every untraced run with a traced one.

``--seconds S`` time-boxes one workload: the smoke cross-mode check
runs first, then runs repeat until S seconds have passed since the start
(at least three untraced runs, or one untraced/traced pair with
``--trace 1``), and the last line of
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` carrying the ``BENCHMARK.json`` end-to-end metrics (or,
with ``--trace 1``, its per-layer metrics).  ``attempted`` counts the
simulated ops and requests the runs executed and ``failed`` those of
runs that raised; requests a simulated node crash makes fail are a
result, reported as ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

from .report import compare_main, summarize
from .spec import (LAYER_METRICS, METRICS, OUT_DIR, PAPER_FIG11_SPEEDUP,
                   REFERENCE_UNIT_S, ROOT, SCALES, WORKLOAD_NAMES,
                   WORKLOADS, load_benchmark_json)

#: a worker that has not finished by then is killed and counts as failed
WORKER_TIMEOUT_S = 150.0
#: untraced runs a time-boxed invocation takes at the least
MIN_TIMED_RUNS = 3


def _worker(args: List[str]) -> Optional[dict]:
    """Run ``benchmarks.e2e.worker`` in a fresh single-threaded process
    and return its report (None when it printed none)."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        # hash randomisation only adds host-time noise; thread pools of
        # numerical libraries would break the one-thread-per-run rule
        PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e.worker", *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"worker {' '.join(args)}: killed after "
              f"{WORKER_TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        report = None
    if report is None:
        print(f"worker {' '.join(args)} exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    if report.get("error"):
        print(f"worker {' '.join(args)} raised:\n{report['error']}",
              file=sys.stderr)
    return report


class Session:
    """Every run of one invocation and the verdicts drawn from them."""

    def __init__(self, workloads: List[str], seed: int, scale: str) -> None:
        self.workloads = workloads
        self.seed = seed
        self.scale = scale
        #: every run's report, errored ones included
        self.untraced: Dict[str, List[dict]] = {w: [] for w in workloads}
        self.traced: Dict[str, List[dict]] = {w: [] for w in workloads}
        self.cross_mode: Dict[str, dict] = {}

    def run(self, workload: str, traced: bool) -> None:
        args = ["run", "--workload", workload, "--seed", str(self.seed),
                "--scale", self.scale] + (["--trace"] if traced else [])
        report = _worker(args) or {"error": "printed no report",
                                   "attempted": 1}
        (self.traced if traced else self.untraced)[workload].append(report)

    def broken(self, w: str) -> int:
        """Runs of ``w`` that raised or printed no report."""
        return sum(1 for r in self.untraced[w] + self.traced[w]
                   if r.get("error"))

    def check_cross_mode(self) -> None:
        for w in self.workloads:
            report = _worker(["crossmode", "--workload", w,
                              "--seed", str(self.seed)])
            digests = report["digests"] if report else {}
            self.cross_mode[w] = dict(
                digests,
                identical=len(set(digests.values())) == 1
                and len(digests) == 2)

    # -- folding ----------------------------------------------------------

    def _ok(self, w: str) -> List[dict]:
        return [r for r in self.untraced[w] + self.traced[w]
                if not r.get("error")]

    def metrics(self, w: str) -> Dict[str, dict]:
        runs = [r for r in self.untraced[w] if not r.get("error")]
        out: Dict[str, dict] = {}
        for metric in METRICS:
            if w not in metric.workloads:
                continue
            if metric.kind == "host":
                values = [r[metric.name] for r in runs]
            else:
                values = [r["sim"][metric.name] for r in runs]
                if metric.name == "failed_frac":
                    # a run that raised failed every request it attempted
                    values += [1.0] * (len(self.untraced[w]) - len(runs))
            if values:
                out[metric.name] = dict(summarize(values), unit=metric.unit,
                                        better=metric.better,
                                        kind=metric.kind)
        return out

    def layer_metrics(self, w: str) -> Dict[str, dict]:
        runs = [r for r in self.traced[w] if not r.get("error")]
        if not runs:
            return {}
        out = {name: dict(summarize([r["layers"][name] for r in runs]),
                          unit=unit)
               for name, unit in LAYER_METRICS.items()
               if name in runs[0]["layers"]}
        untraced = [r["cpu_s"] for r in self.untraced[w]
                    if not r.get("error")]
        if untraced:
            base = summarize(untraced)["median"]
            out["trace.overhead_ratio"] = dict(
                summarize([r["cpu_s"] / base for r in runs]),
                unit=LAYER_METRICS["trace.overhead_ratio"])
        return out

    def failures(self, w: str) -> List[str]:
        """Everything that makes the workload's result incorrect."""
        problems = []
        if self.broken(w):
            problems.append(f"{self.broken(w)} run(s) raised or printed "
                            f"no report")
        runs = self._ok(w)
        digests = {r["sim_digest"] for r in runs}
        if len(digests) > 1:
            problems.append(f"sim_digest differs between runs of the same "
                            f"seed ({len(digests)} distinct)")
        for r in runs:
            for check in r["checks"]:
                if not check["ok"]:
                    problems.append(f"precondition failed: {check['name']} "
                                    f"({check['detail']})")
            if r["threads"] > 1:
                problems.append(f"worker ran {r['threads']} threads")
        for r in self.traced[w]:
            # unattributed is the traced wall minus the layers' self
            # times; below 0, the tracer counted a call twice
            unattributed = r.get("layers", {}).get("unattributed.self_s", 0)
            if unattributed < 0:
                problems.append(f"unattributed time {unattributed:.4f} s "
                                f"is negative")
        cross = self.cross_mode.get(w)
        if cross is not None and not cross["identical"]:
            problems.append(f"reference and batched smoke results differ: "
                            f"{cross}")
        return list(dict.fromkeys(problems))

    def attempted(self) -> int:
        return sum(r["attempted"] for w in self.workloads
                   for r in self.untraced[w] + self.traced[w])

    def failed(self) -> int:
        return sum(r["attempted"] for w in self.workloads
                   for r in self.untraced[w] + self.traced[w]
                   if r.get("error"))

    # -- output -----------------------------------------------------------

    def envelope(self, seconds: Optional[float], total_s: float) -> dict:
        first = {w: (self._ok(w) or [{}])[0] for w in self.workloads}
        return {
            "benchmark": "e2e",
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "seed": self.seed,
            "scale": self.scale,
            "reps": {w: len(self.untraced[w]) for w in self.workloads},
            "seconds": seconds,
            "content_hashes": {
                w: {role: c["content_hash"]
                    for role, c in first[w].get("configs", {}).items()}
                for w in self.workloads},
            "workloads": {
                info.name: {"why": info.why, "layers": info.layers,
                            "configs": {role: c["fields"] for role, c
                                        in first[info.name].get(
                                            "configs", {}).items()}}
                for info in WORKLOADS if info.name in self.workloads},
            "metrics": {w: self.metrics(w) for w in self.workloads},
            # CPU seconds of one calibration unit beside each untraced
            # run: how fast the host ran
            "calibration_unit_s": {
                w: summarize([r["calibration_unit_s"]
                              for r in self.untraced[w]
                              if not r.get("error")] or [0.0])
                for w in self.workloads},
            "layer_metrics": {w: self.layer_metrics(w)
                              for w in self.workloads},
            "sim_digest": {w: first[w].get("sim_digest")
                           for w in self.workloads},
            "traced_sim_digest": {
                w: next((r["sim_digest"] for r in self.traced[w]
                         if not r.get("error")), None)
                for w in self.workloads},
            "cross_mode": self.cross_mode,
            "checks": {w: first[w].get("checks", [])
                       for w in self.workloads},
            "failures": {w: self.failures(w) for w in self.workloads},
            "total_s": total_s,
        }

    def print_tables(self) -> None:
        for w in self.workloads:
            runs = self._ok(w)
            digest = runs[0]["sim_digest"] if runs else None
            print(f"\n== {w} ({self.scale} scale, seed {self.seed}, "
                  f"{len(self.untraced[w])} untraced + "
                  f"{len(self.traced[w])} traced runs) "
                  f"sim_digest {digest}")
            units = [r["calibration_unit_s"] for r in runs]
            if units:
                print(f"  host speed: calibration unit "
                      f"{1e3 * min(units):.3f}-{1e3 * max(units):.3f} ms "
                      f"(reference {1e3 * REFERENCE_UNIT_S:.3f} ms); "
                      f"host times are CPU time at the reference speed")
            metrics = self.metrics(w)
            print(f"  {'metric':<18} {'unit':<10} {'median':>12} "
                  f"{'q1':>12} {'q3':>12} {'n':>3}")
            for metric in METRICS:
                m = metrics.get(metric.name)
                if m is None:
                    print(f"  {metric.name:<18} {metric.unit:<10} "
                          f"{'n/a':>12}")
                    continue
                note = ""
                if metric.name == "sim_speedup":
                    note = (f"  (paper: {PAPER_FIG11_SPEEDUP}x; the model "
                            f"is not validated at this scale, so no error "
                            f"figure is given)")
                print(f"  {metric.name:<18} {metric.unit:<10} "
                      f"{m['median']:>12.6g} {m['q1']:>12.6g} "
                      f"{m['q3']:>12.6g} {m['n']:>3}{note}")
            for check in (runs[0]["checks"] if runs else []):
                status = "PASS" if check["ok"] else "FAIL"
                print(f"  {status} {check['name']}: {check['detail']}")
            cross = self.cross_mode.get(w)
            if cross is not None:
                print(f"  cross-mode (smoke): reference "
                      f"{str(cross.get('reference'))[:16]} batched "
                      f"{str(cross.get('batched'))[:16]} -> "
                      f"{'identical' if cross['identical'] else 'DIFFERENT'}")
            self._print_layers(w)
            for problem in self.failures(w):
                print(f"  FAIL {problem}")

    def _print_layers(self, w: str) -> None:
        layers = self.layer_metrics(w)
        if not layers:
            return
        wall = layers["trace.wall_s"]["median"]
        overhead = layers.get("trace.overhead_ratio", {}).get("median")
        print(f"  traced: wall {wall:.3f} s"
              + (f", overhead {overhead:.2f}x" if overhead else ""))
        rows = sorted(((name[:-len(".self_s")], m["median"])
                       for name, m in layers.items()
                       if name.endswith(".self_s")),
                      key=lambda kv: -kv[1])
        for layer, seconds in rows:
            print(f"    {layer:<13} {seconds:>9.4f} s "
                  f"{100.0 * seconds / wall:>6.1f}%")
        counts = [f"{name}={m['median']:.6g}" for name, m in layers.items()
                  if not name.endswith(".self_s")
                  and not name.startswith("trace.") and m["median"]]
        for i in range(0, len(counts), 4):
            print("    " + "  ".join(counts[i:i + 4]))


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _version(package: str) -> Optional[str]:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="Run the end-to-end benchmark (see README.md); "
                    "'compare A.json B.json' compares two result files.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5,
                        help="untraced rounds (default 5)")
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES,
                        help="repeatable; default: all five")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        choices=(0, 1),
                        help="0: untraced rounds only; 1 (or bare "
                             "--trace): pair every run with a traced run")
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument("--seconds", type=float,
                        help="time-box one workload")
    parser.add_argument("--out", type=Path,
                        help="result envelope path (default: "
                             "benchmarks/e2e/out/result-*.json)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: python -m benchmarks.e2e compare A.json B.json",
                  file=sys.stderr)
            return 2
        return compare_main(argv[1], argv[2])
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the simulator sources are missing "
              f"({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    declared = load_benchmark_json()  # readable before any run starts
    workloads = list(dict.fromkeys(args.workload or WORKLOAD_NAMES))
    timed = args.seconds is not None
    if timed and len(workloads) != 1:
        print("error: --seconds time-boxes exactly one --workload",
              file=sys.stderr)
        return 2
    session = Session(workloads, args.seed, args.scale)
    start = time.perf_counter()

    def one_round(w: str) -> None:
        session.run(w, traced=False)
        if args.trace == 1:
            session.run(w, traced=True)

    if timed:
        # inside the time box, so the box bounds the whole invocation
        session.check_cross_mode()
        least = 1 if args.trace == 1 else MIN_TIMED_RUNS
        rounds = 0
        while rounds < least or time.perf_counter() - start < args.seconds:
            one_round(workloads[0])
            rounds += 1
    else:
        for _ in range(args.reps):
            for w in workloads:
                one_round(w)
        if args.trace is None:
            for w in workloads:
                session.run(w, traced=True)
        session.check_cross_mode()
    total = time.perf_counter() - start

    session.print_tables()
    envelope = session.envelope(args.seconds, total)
    out = args.out
    if out is None:
        picked = "" if len(workloads) == len(WORKLOAD_NAMES) \
            else "-" + "+".join(workloads)
        out = OUT_DIR / f"result-{args.scale}{picked}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(envelope, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    correct = not any(envelope["failures"].values())
    print(f"\nresult envelope: {out}")
    print(f"correct: {correct}; total time {total:.1f} s")
    if timed:
        w = workloads[0]
        if args.trace == 1:
            source = envelope["layer_metrics"][w]
            names = [m["name"] for m in declared["per_layer"]]
        else:
            source = envelope["metrics"][w]
            names = [m["name"] for m in declared["end_to_end"]]
        metrics = {name: {"value": source[name]["median"],
                          "unit": source[name]["unit"]}
                   for name in names if name in source}
        correct = correct and len(metrics) == len(names)
        print(json.dumps({"correct": correct,
                          "attempted": session.attempted(),
                          "failed": session.failed(),
                          "metrics": metrics}))
    return 0 if correct else 1
