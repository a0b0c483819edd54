"""Benchmark of orbidisk: end-to-end and per-layer metrics, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is a fixed list of
jobs; a pass runs every job once, one at a time, each in a fresh interpreter
(`job.py`) with `src` on PYTHONPATH.  The seed only shuffles the job order of
each pass; the program receives fan files and arguments, nothing else.
Passes repeat until the next one would end after S seconds (at least one
pass), and every metric is the median over the passes.

Every timing is given at a reference machine speed (`speed.py`): the run
and its jobs are held on one CPU, a fixed loop is timed before and after
each job and, from a signal handler, every 25 ms inside it, and the job's
times and self times (less the handler's own time) are scaled by REF_S over
the mean loop time.  The host's speed drifts by up to 1.6x from one minute to the next,
which no run length averages out; the scaled times do not drift with it.
Each pass's raw wall time and mean loop time are kept in the result file.

Every job's output is checked (`checks.py`) against the closed form of
`closed_form.py` or against properties the method must have.  One job fails
on every run because of a known fault: the hexagon (smooth dP6), whose
grading-basis search is exhausted.  It is counted in `failed`.  Any other
failure, or any failed check, prints the result with "correct": false and
exits 1.  Without the program's sources the command exits 2 and prints no
result.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates an untraced
and a traced pass; the traced pass replays the same jobs stage by stage
with spans (see job.py) and the per-layer metrics come from those spans:
a layer's time is its self time (span minus child spans), summed over the
pass's jobs.  trace.overhead_pct compares the traced and untraced walls.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed

HERE = Path(__file__).resolve().parent
FANS = HERE / "fans"
OUT = HERE / "out"
RUN_DEADLINE_S = 170.0
# speed probes before and after each job (see speed.py)
PROBES = 3

REFLEXIVE = sorted(p.stem for p in FANS.glob("r*.json"))
P2Z3_CLASSES = (
    "ray:0", "ray:1", "ray:2",
    "box:-1,0", "box:-1,1", "box:0,-1", "box:0,1", "box:1,-1", "box:1,0",
)
# verify-p2z3 window k; the invariants run at order 2k to match it
QUOTIENT_K = 10


def _workloads() -> dict[str, list[dict]]:
    bench = FANS.relative_to(HERE.parent)
    return {
        "potential-reflexive": [
            {"id": name, "kind": "potential", "fan": f"{bench}/{name}.json", "order": "6"}
            for name in REFLEXIVE
        ]
        + [{"id": "f2", "kind": "potential", "fan": "fans/f2.json", "order": "6"}],
        "local-zn": [
            {"id": f"c2z{n}", "kind": "chart", "fan": f"{bench}/c2z{n}.json", "order": "6"}
            for n in (2, 3, 4, 5)
        ],
        "quotient-deep": [
            {
                "id": f"p2z3 {klass}",
                "kind": "invariants",
                "fan": "fans/p2z3.json",
                "class": klass,
                "order": str(2 * QUOTIENT_K),
            }
            for klass in P2Z3_CLASSES
        ]
        + [{"id": "verify-p2z3", "kind": "verify", "k": QUOTIENT_K}],
    }


WORKLOADS = _workloads()

# the one operation that fails today, on every run: the basis search of
# stacky._search_basis finds no nef basis for the hexagon
KNOWN_FAULT = {
    "id": "r16_v6_b6",
    "type": "NoValidBasisError",
    "message": "automatic basis search exhausted",
}

END_TO_END = {
    "wall_s": "s",
    "solve_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "coeffs_per_s": "1/s",
}

LAYER_TIMES = (
    "fanfile.parse",
    "stacky.check",
    "stacky.fan_sequence",
    "suborbifold.build",
    "mirror.chart_init",
    "mirror.grid",
    "mirror.a_series",
    "mirror.invert",
    "mirror.round_trip",
    "mirror.entry",
    "oracle.closed_form",
    "cli.verify",
)
LAYER_COUNTS = (
    "stacky.fan_sequence.calls",
    "suborbifold.charts",
    "mirror.grid.points",
    "mirror.grid.effective",
    "mirror.a_series.terms",
    "mirror.invert.terms",
    "oracle.terms",
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a fault of the outputs)."""


def check_job(spec: dict, result: dict) -> int:
    fan = checks.read_fan_json(spec["fan"]) if "fan" in spec else None
    kind = spec["kind"]
    if kind == "potential":
        return checks.check_potential(result, fan)
    if kind == "invariants":
        return checks.check_invariants(result, fan, spec["class"])
    if kind == "chart":
        return checks.check_chart(result, fan)
    return checks.check_verify(result)


def self_times(spans, samples=()) -> dict[str, float]:
    """Span duration minus the durations of its direct children, by name.

    The speed sampler's handler time is taken out of the innermost span it
    ran in (spans are listed in start order, so the last one that contains
    it).
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    for t0, _, handler in samples:
        inner = [i for i, (_, start, end, _) in enumerate(spans) if start <= t0 < end]
        if inner:
            own[inner[-1]] -= handler
    out: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        out[name] = out.get(name, 0.0) + t
    return out


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.root = root
        self.jobs = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.spans: list[dict] = []

    def run_job(self, spec: dict, traced: bool) -> tuple[dict, float, float, float]:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline passed")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "job.py"), json.dumps(dict(spec, trace=traced))],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"job {spec['id']} ran past the run deadline") from None
        t_exit = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        if proc.returncode != 0:
            raise BenchError(f"job {spec['id']} exited {proc.returncode}: {proc.stderr[-2000:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        return report, t_spawn, t_exit, cpu

    def run_pass(self, traced: bool) -> dict:
        order = list(self.jobs)
        self.rng.shuffle(order)
        self.passes += 1
        wall = solve = cpu = peak = 0.0
        raw_wall = 0.0
        all_loops = []
        setups = []
        coeffs = 0
        layer: dict[str, float] = {}
        counts: dict[str, int] = {}
        before = speed.probe(PROBES)
        for spec in order:
            report, t_spawn, t_exit, job_cpu = self.run_job(spec, traced)
            after = speed.probe(PROBES)
            sampled = report.get("speed", [])
            loops = before + [t for _, t, _ in sampled] + after
            scale = speed.REF_S / statistics.fmean(loops)
            all_loops += loops
            before = after
            # the sampler's handler time is taken out of the job's times
            in_job = sum(h for _, _, h in sampled)
            raw_wall += t_exit - t_spawn
            wall += scale * (t_exit - t_spawn - in_job)
            cpu += scale * (job_cpu - in_job)
            peak = max(peak, report["maxrss_kb"] / 1024)
            if "t_ready" in report:
                in_solve = sum(h for t0, _, h in sampled if t0 >= report["t_ready"])
                setups.append(scale * (report["t_ready"] - t_spawn - (in_job - in_solve)))
                solve += scale * (report["t_done"] - report["t_ready"] - in_solve)
            self.attempted += 1
            if "error" in report:
                err = report["error"]
                if (
                    spec["id"] == KNOWN_FAULT["id"]
                    and err["type"] == KNOWN_FAULT["type"]
                    and KNOWN_FAULT["message"] in err["message"]
                ):
                    self.failed += 1
                    continue
                raise checks.CheckError(f"job {spec['id']} failed: {err}")
            try:
                coeffs += check_job(spec, report["result"])
            except checks.CheckError as exc:
                raise checks.CheckError(f"job {spec['id']}: {exc}") from None
            if traced:
                base = len(self.spans)
                self.spans.extend(
                    {"job": spec["id"], "pass": self.passes, "name": name, "start": start,
                     "end": end, "parent": None if parent is None else base + parent}
                    for name, start, end, parent in report["spans"]
                )
                for name, t in self_times(report["spans"], sampled).items():
                    layer[name] = layer.get(name, 0.0) + scale * t
                for name, k in report["counts"].items():
                    counts[name] = counts.get(name, 0) + k
        return {
            "wall_s": wall,
            "solve_s": solve,
            "cpu_s": cpu,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak,
            "coeffs_per_s": coeffs / solve,
            "raw_wall_s": raw_wall,
            "loop_s": statistics.fmean(all_loops),
            "layer": layer,
            "counts": counts,
        }


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    counts = traced[0]["counts"]
    if any(p["counts"] != counts for p in traced):
        raise checks.CheckError("per-layer counts differ between traced passes")
    out = {}
    for name in LAYER_TIMES + ("job",):
        key = "job.unattributed_s" if name == "job" else f"{name}_s"
        value = statistics.median(p["layer"].get(name, 0.0) for p in traced)
        out[key] = {"value": value, "unit": "s"}
    for name in LAYER_COUNTS:
        out[name] = {"value": counts.get(name, 0), "unit": "count"}
    points = counts.get("mirror.grid.points", 0)
    out["mirror.grid.effective_ratio"] = {
        "value": counts.get("mirror.grid.effective", 0) / points if points else 0.0,
        "unit": "ratio",
    }
    plain = statistics.median(p["wall_s"] for p in untraced)
    with_spans = statistics.median(p["wall_s"] for p in traced)
    out["trace.overhead_pct"] = {"value": 100 * (with_spans - plain) / plain, "unit": "%"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "orbidisk" / "__init__.py").is_file():
        print(f"no orbidisk sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    # jobs and calibration on one CPU, so both see the same machine speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(root, args.workload, args.seed, start + RUN_DEADLINE_S)
    correct = True
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        # byte-compile once, as an installed command would be, outside timing
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src/orbidisk"],
                       cwd=root, env=runner.env, check=True, capture_output=True)
        while True:
            untraced.append(runner.run_pass(False))
            if args.trace:
                traced.append(runner.run_pass(True))
            done = len(untraced)
            elapsed = time.monotonic() - start
            if elapsed * (done + 1) / done > args.seconds:
                break
        if args.trace:
            metrics = layer_metrics(untraced, traced)
        else:
            metrics = {
                name: {"value": statistics.median(p[name] for p in untraced), "unit": unit}
                for name, unit in END_TO_END.items()
            }
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, metrics = False, {}
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    passes = [{k: v for k, v in p.items() if k not in ("layer", "counts")}
              for p in untraced + traced]
    (OUT / f"result_{stem}.json").write_text(
        json.dumps(dict(result, passes=passes), indent=1) + "\n")
    if args.trace:
        # spans of the traced passes; "parent" is an index into this list
        (OUT / f"spans_{stem}.json").write_text(json.dumps(runner.spans) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
