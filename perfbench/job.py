"""Run one benchmark job in a fresh interpreter and report it as JSON.

    PYTHONPATH=src python3 perfbench/job.py '<job spec as JSON>'

The spec names the job kind, its input and whether to trace.  The job
imports the program, parses and checks its input (set-up), computes the
result with the same library calls as the matching command (solve), and
prints one JSON line: the monotonic clock readings at the end of set-up and
of solve, its peak RSS, the result as exact strings, and, when traced, its
spans and counts.  An exception inside the program is reported, not raised.

Job kinds:
  potential   fan file -> the `orbidisk potential` path
  invariants  fan file, class, order -> the `orbidisk invariants` path
  chart       local chart fan file, order -> ChartPipeline round trip and
              the generating function of every sector
  verify      window k -> the `orbidisk verify-p2z3 --amax k --bmax k` path

The traced replay goes through the same jobs stage by stage, calling each
layer's public functions itself.  Calls the replay cannot make itself (the
chart and oracle calls inside verify, the inversion inside a potential
entry) are timed by wrappers put on ChartPipeline's methods and on the
oracle function the CLI module calls, for the job's duration only.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from fractions import Fraction

import speed

from orbidisk import cli
from orbidisk.fanfile import parse_fan_file
from orbidisk.mirror import (
    ChartPipeline,
    assemble_potential,
    disk_generating_function,
    potential_entry,
    potential_symbols,
)
from orbidisk.stacky import (
    DiskClassSymbol,
    fan_sequence,
    gorenstein_check,
    is_complete,
    semifano_check,
    validate,
)
from orbidisk.suborbifold import build_suborbifold


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._seen: set = set()

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append([name, time.monotonic(), None, parent])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.monotonic()

    def count(self, name: str, k: int = 1):
        self.counts[name] = self.counts.get(name, 0) + k

    def first(self, key) -> bool:
        """True the first time a key is seen (cached results count once)."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    @contextmanager
    def wrapped(self, owner, attr: str, name: str, counter=None):
        """Time every call of owner.attr as a span while the block runs."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = original(*args, **kwargs)
            if counter is not None:
                counter(tracer, args, out)
            return out

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, original)


class NoTracer:
    """Untraced run: no spans, no counts."""

    def span(self, name):
        return nullcontext()

    def count(self, name, k=1):
        pass


def _count_grid(tracer, args, grid):
    if tracer.first(("grid", id(args[0]))):
        tracer.count("mirror.grid.points", len(grid))
        tracer.count("mirror.grid.effective", sum(1 for g in grid.values() if g.effective))


def _count_a_series(tracer, args, series):
    if tracer.first(("a_series", id(args[0]), args[1])):
        tracer.count("mirror.a_series.terms", sum(1 for _ in series.terms()))


def _count_invert(tracer, args, series):
    tracer.count("mirror.invert.terms", sum(1 for _ in series.terms()))


def _count_oracle(tracer, args, tables):
    tracer.count("oracle.terms", sum(len(t) for t in tables))


def _count_chart(tracer, args, out):
    tracer.count("mirror.chart_init.calls")


@contextmanager
def layer_wrappers(tracer: Tracer):
    with tracer.wrapped(ChartPipeline, "__init__", "mirror.chart_init", _count_chart), \
            tracer.wrapped(ChartPipeline, "grid", "mirror.grid", _count_grid), \
            tracer.wrapped(ChartPipeline, "a_series", "mirror.a_series", _count_a_series), \
            tracer.wrapped(ChartPipeline, "generating_function", "mirror.invert", _count_invert), \
            tracer.wrapped(ChartPipeline, "round_trip_identity", "mirror.round_trip"), \
            tracer.wrapped(cli, "oracle_generating_functions", "oracle.closed_form", _count_oracle):
        yield


# -- result payloads: exact values as strings -----------------------------------


def _fracs(xs) -> list[str]:
    return [str(Fraction(x)) for x in xs]


def series_payload(series, n_q: int, tau_points) -> dict:
    return {
        "n_q": n_q,
        "order": str(series.ring.truncation),
        "weights": _fracs(series.ring.weights),
        "tau_points": [list(p) for p in tau_points],
        "terms": [[_fracs(e), str(c)] for e, c in series.terms()],
    }


# -- set-up ------------------------------------------------------------------------


def load_fan(path: str, tracer):
    with tracer.span("fanfile.parse"):
        ff = parse_fan_file(path)
        fan = ff.resolve_fan()
    with tracer.span("stacky.check"):
        issues = list(validate(fan).issues)
        if not issues:
            if not gorenstein_check(fan).ok:
                issues.append("not Gorenstein")
            if is_complete(fan) and not semifano_check(fan).ok:
                issues.append("anticanonical class not nef")
    if issues:
        raise ValueError(f"{path}: input check failed: {issues}")
    return ff, fan


def parse_symbol(spec: str) -> DiskClassSymbol:
    kind, _, rest = spec.partition(":")
    if kind == "ray":
        return DiskClassSymbol.smooth(int(rest))
    return DiskClassSymbol.orbi(tuple(int(x) for x in rest.split(",")))


# -- solve -------------------------------------------------------------------------


def _chart_stages(tracer, sub_fan, order):
    """Basis search, chart set-up, grid and every A-series of one chart."""
    with tracer.span("stacky.fan_sequence"):
        seq = fan_sequence(sub_fan)
    tracer.count("stacky.fan_sequence.calls")
    pipe = ChartPipeline(sub_fan, order, seq)
    pipe.grid()
    for j in range(sub_fan.n_vectors):
        pipe.a_series(j)
    return pipe


def _check_charts_reused(tracer, charts: int):
    """The replay must hand its charts to the library, not have them rebuilt."""
    built = tracer.counts.get("mirror.chart_init.calls", 0)
    if built != charts:
        raise RuntimeError(
            f"traced replay built {built} charts for {charts}; the library "
            "no longer takes the pre-built chart from pipeline_cache"
        )


def solve_potential(spec, ff, fan, tracer, traced):
    order = Fraction(spec["order"])
    cone = ff.normalization_cone or 0
    with tracer.span("stacky.fan_sequence"):
        seq = fan_sequence(fan, ff.basis_p)
    tracer.count("stacky.fan_sequence.calls")
    if not traced:
        entries = assemble_potential(fan, cone, order, parent_seq=seq).entries
    else:
        cache: dict = {}
        entries = []
        for sym in potential_symbols(fan):
            with tracer.span("suborbifold.build"):
                sub = build_suborbifold(fan, sym)
            tracer.count("suborbifold.charts")
            key = (sub.fan, order)
            if key not in cache:
                cache[key] = _chart_stages(tracer, sub.fan, order)
            with tracer.span("mirror.entry"):
                entries.append(potential_entry(fan, seq, cone, sym, order, cache))
        entries.sort(key=lambda e: e.z_monomial)
        _check_charts_reused(tracer, len(cache))
    return {
        "entries": [
            dict(
                series_payload(e.series, seq.r_prime, e.tau_points),
                z=list(e.z_monomial),
                area=_fracs(e.area),
            )
            for e in entries
        ]
    }


def solve_invariants(spec, ff, fan, tracer, traced):
    order = Fraction(spec["order"])
    symbol = parse_symbol(spec["class"])
    cache: dict = {}
    if traced:
        with tracer.span("suborbifold.build"):
            sub = build_suborbifold(fan, symbol)
        tracer.count("suborbifold.charts")
        cache[(sub.fan, order)] = _chart_stages(tracer, sub.fan, order)
    dgf = disk_generating_function(fan, symbol, order, pipeline_cache=cache)
    if traced:
        _check_charts_reused(tracer, 1)
    rows = [
        [_fracs(alpha), [[list(p), m] for p, m in sorted(ins.items())], str(v)]
        for alpha, ins, v in dgf.invariants()
    ]
    n_q = len(dgf.q_classes)
    return {
        "order": str(dgf.order),
        "weights": _fracs(dgf.series.ring.weights[n_q:]),
        "tau_points": [list(p) for p in dgf.tau_points],
        "rows": rows,
    }


def solve_chart(spec, ff, fan, tracer, traced):
    order = Fraction(spec["order"])
    if traced:
        pipe = _chart_stages(tracer, fan, order)
    else:
        pipe = ChartPipeline(fan, order)
    round_trip = pipe.round_trip_identity()
    sectors = {}
    for point in fan.extra_vectors:
        g = pipe.generating_function(DiskClassSymbol.orbi(point))
        sectors[",".join(map(str, point))] = series_payload(
            g, pipe.r_prime, fan.extra_vectors
        )
    return {"round_trip": round_trip, "sectors": sectors}


def solve_verify(spec, tracer):
    lines: list[str] = []
    with tracer.span("cli.verify"):
        ok = cli.verify_quotient_plane(spec["k"], spec["k"], out=lines.append)
    return {"ok": ok, "lines": lines}


SOLVERS = {
    "potential": solve_potential,
    "invariants": solve_invariants,
    "chart": solve_chart,
}


def run_job(spec: dict) -> dict:
    """Set up and solve one job; returns the report (without printing it)."""
    traced = bool(spec.get("trace"))
    tracer = Tracer() if traced else NoTracer()
    report: dict = {}
    wrappers = layer_wrappers(tracer) if traced else nullcontext()
    sampler = speed.Sampler()
    try:
        with sampler, wrappers, tracer.span("job"):
            if spec["kind"] == "verify":
                report["t_ready"] = time.monotonic()
                result = solve_verify(spec, tracer)
            else:
                ff, fan = load_fan(spec["fan"], tracer)
                report["t_ready"] = time.monotonic()
                result = SOLVERS[spec["kind"]](spec, ff, fan, tracer, traced)
        report["t_done"] = time.monotonic()
        report["result"] = result
    except Exception as exc:  # reported to run.py, which decides
        report["t_done"] = time.monotonic()
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    report["speed"] = sampler.samples
    if traced:
        report["spans"] = tracer.spans
        report["counts"] = tracer.counts
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return report


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(run_job(json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
