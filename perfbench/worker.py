"""The measured process: one client, one thread, closed loop.

Reads a spec (JSON on stdin) made by run.py, imports chipfire from the
checkout's ``src/``, builds the workload's graphs and Games, then issues the
ops one after another and prints its measurements as one JSON object on
stdout.  Answers are returned for run.py to check; no reference work happens
here, so it stays out of the timings and of peak RSS.

With ``setup_only`` it stops after set-up.  With ``trace`` it runs an
untraced, a traced and another untraced pass of the same ops.
"""

import contextlib
import gc
import io
import json
import os
import resource
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import make_game  # noqa: E402  (imports no chipfire module)


class Workload:
    """Builds the per-pass state and runs one op."""

    def __init__(self, name, spec):
        self.name = name
        self.spec = spec

    def import_modules(self):
        import chipfire
        from chipfire import cli, riemann_roch

        self.chipfire = chipfire
        self.cli = cli
        self.riemann_roch = riemann_roch

    def build(self):
        """Fresh graphs and Games for one pass (cli-queries: one load per graph file)."""
        if self.name == "cli-queries":
            from chipfire import arithmetical, games as games_mod, graph_io

            state = {}
            for gid, path in self.spec["paths"].items():
                graph = graph_io.load_graph(path)
                if isinstance(graph, arithmetical.ArithmeticalGraph):
                    state[gid] = arithmetical.chip_game(graph)
                else:
                    state[gid] = games_mod.row_game(graph)
            return state
        return {gid: make_game(desc) for gid, desc in self.spec["games"].items()}

    def run(self, state, op):
        if self.name == "rr-ladder":
            report = self.riemann_roch.rr_verdict(state[op], 0)
            return report_json(report)
        if self.name == "rank-sweep":
            gid, divisor = op
            return self.chipfire.rank(state[gid], 0, tuple(divisor))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(op))
        return [code, out.getvalue()]


def report_json(report):
    ex = report.extremes
    return {
        "uniform": report.uniform,
        "reflection_invariant": report.reflection_invariant,
        "rr": report.rr_property,
        "natural_rr": report.natural_rr,
        "g": report.g,
        "g_min": ex.g_min,
        "g_max": ex.g_max,
        "classes": [[list(c.rep), c.degree, len(c.all_reps)] for c in ex.classes],
        "canonical": None if report.canonical is None else list(report.canonical),
    }


def run_pass(workload, ops, state, tracer=None):
    """Issue every op in order; returns (wall seconds, per-op seconds, answers, errors)."""
    times, answers, errors = [], [], {}
    start = perf_counter()
    for i, op in enumerate(ops):
        root = tracer.open(tracer.name_id("bench.op")) if tracer else None
        t0 = perf_counter()
        try:
            answer = workload.run(state, op)
        except Exception as exc:  # a failed op is counted, not fatal
            answer = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        times.append(perf_counter() - t0)
        if tracer:
            tracer.close(root)
            tracer.op_done()
        answers.append(answer)
    return perf_counter() - start, times, answers, errors


def main():
    spec = json.load(sys.stdin)
    t0 = perf_counter()
    sys.path.insert(0, spec["src"])
    workload = Workload(spec["workload"], spec)
    workload.import_modules()
    state = workload.build()
    setup_s = perf_counter() - t0
    result = {"setup_s": setup_s}
    if spec.get("setup_only"):
        json.dump(result, sys.stdout)
        return
    result["chipfire_file"] = workload.chipfire.__file__
    ops = spec["ops"]
    passes, answers, errors, mismatches = [], None, {}, {}

    def untraced_pass():
        nonlocal answers, errors, state
        if passes:
            state = workload.build()
        gc.collect()
        wall, times, got, errs = run_pass(workload, ops, state)
        state = None
        passes.append({"wall_s": wall, "op_s": times})
        if answers is None:
            answers, errors = got, errs
        else:
            for i, (a, b) in enumerate(zip(answers, got)):
                if a != b:
                    mismatches[i] = mismatches.get(i, 0) + 1
        return wall

    if not spec["trace"]:
        elapsed = 0.0
        while True:
            elapsed += untraced_pass()
            walls = sorted(p["wall_s"] for p in passes)
            if elapsed + walls[len(walls) // 2] > spec["seconds"]:
                break
    else:
        # untraced, traced, untraced: the overhead is taken against the mean
        # of the two untraced passes, which cancels drift and warm-up.
        from tracing import Tracer, layer_metrics

        untraced_pass()
        tracer = Tracer()
        tracer.install()
        try:
            setup_span = tracer.open(tracer.name_id("bench.setup"))
            state = workload.build()
            tracer.close(setup_span)
            gc.collect()
            traced_wall, _, traced, _ = run_pass(workload, ops, state, tracer)
        finally:
            tracer.uninstall()
        untraced_pass()
        untraced_wall = (passes[0]["wall_s"] + passes[1]["wall_s"]) / 2
        result["traced_wall_s"] = traced_wall
        result["traced_mismatches"] = [
            i for i, (a, b) in enumerate(zip(answers, traced)) if a != b
        ]
        kinds = [cli_kind(op) for op in ops] * 2 if workload.name == "cli-queries" else None
        op_s = passes[0]["op_s"] + passes[1]["op_s"]
        result["layers"] = layer_metrics(tracer, kinds, op_s, traced_wall - untraced_wall)
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.span_name)
        tracer.write(spec["spans_path"])
    result.update(passes=passes, answers=answers, errors=errors, mismatches=mismatches)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)


def cli_kind(argv):
    return f"{argv[0]}-{argv[1]}" if argv[0] == "sandpile" else argv[0]


if __name__ == "__main__":
    main()
