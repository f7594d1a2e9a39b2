"""Traced pass: ``traceloc run``, ``score`` and ``synth`` in one process, with
a span around every entry point the CLI looks up.

Spans are timed from outside the program: each wrapped name is replaced on
the module the CLI reads it from (``cli.extract_pairs``, ``ingest.load_native``,
``report.sol_baseline``, ...), so inner calls such as ``report.sol_baseline``
calling its own ``extract_pairs`` stay in the caller's self time.  Spans and
counts stay in memory and are written to one JSON file when the pass ends,
never into the run's ``out_dir``.

Run as a script by ``run.py``; imported by it for :func:`layer_metrics`.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

T0 = time.perf_counter()  # origin of the span times

RUN, SCORE, SYNTH = "run", "score", "synth"


def _paths(result, args, counts):
    counts["ingest.paths_out"] += len(result)
    counts["ingest.hops_out"] += sum(len(p.hops) for p in result)


def _snapshot(result, args, counts):
    counts["ingest.snapshot_rows"] += sum(len(rows) for rows in result.values())


def _clusters(result, args, counts):
    counts["geo.candidates_out"] += len(result)
    counts["geo.ips_clustered"] += 1


def _states(result, args, counts):
    counts["refine.candidates_in"] += sum(len(s.candidates) for s in result.values())


def _pairs(result, args, counts):
    counts["refine.pairs"] += len(result)
    counts["refine.observations"] += sum(len(p.observations) for p in result)


def _iterate(result, args, counts):
    states, iterations = result
    counts["refine.iterations"] += iterations
    counts["refine.candidates_out"] += sum(len(s.candidates) for s in states.values())
    counts["refine.evaluations"] += sum(s.evaluations for s in states.values())


def _tagged(result, args, counts):
    counts["refine.tagged"] += sum(1 for s in result.values() if s.status.value == "anomalous")


def _resolved(result, args, counts):
    paths = args[1]
    for path in paths:
        counts["resolve.path_scans"] += len({ip for ip, _ in path.hops if ip in result})
    for outcome in result.values():
        counts[f"resolve.{outcome.verdict.value}"] += 1
        if outcome.reason == "unresolvable":
            counts["resolve.unresolvable"] += 1


def _world(result, args, counts):
    counts["synth.routers"] += len(result.routers)
    counts["synth.links"] += len(result.links)


def _simulated(result, args, counts):
    counts["synth.paths"] += len(result)


def _corrupted(result, args, counts):
    counts["synth.displaced"] += len(result[1])


# (module, attribute, metric, command, formats or None for all, count hook)
ENTRY_POINTS = [
    ("ingest", "load_native", "ingest.load_native_s", RUN, ("native",), _paths),
    ("ingest", "parse_atlas", "ingest.parse_atlas_s", RUN, ("atlas",), None),
    ("ingest", "clean_paths", "ingest.clean_paths_s", RUN, ("atlas",), _paths),
    ("ingest", "load_geo_snapshot", "ingest.load_geo_snapshot_s", RUN, None, _snapshot),
    ("cli", "load_city_catalog", "geo.load_city_catalog_s", RUN, None, None),
    ("cli", "SpatialIndex", "geo.spatial_index_s", RUN, None, None),
    ("cli", "cluster_candidates", "geo.cluster_candidates_s", RUN, None, _clusters),
    ("cli", "make_states", "refine.make_states_s", RUN, None, _states),
    ("cli", "extract_pairs", "refine.extract_pairs_s", RUN, None, _pairs),
    ("cli", "iterate", "refine.iterate_s", RUN, None, _iterate),
    ("cli", "tag_anomalies", "refine.tag_anomalies_s", RUN, None, _tagged),
    ("cli", "resolve_all", "resolve.resolve_all_s", RUN, None, _resolved),
    ("report", "summarize", "report.summarize_s", RUN, None, None),
    ("report", "sol_baseline", "report.sol_baseline_s", RUN, None, None),
    ("report", "cluster_histogram", "report.cluster_histogram_s", RUN, None, None),
    ("report", "distance_cdf", "report.distance_cdf_s", RUN, None, None),
    ("report", "country_delta", "report.country_delta_s", RUN, None, None),
    ("report", "write_summary_csv", "report.write_s", RUN, None, None),
    ("report", "write_histogram_csv", "report.write_s", RUN, None, None),
    ("report", "write_distance_cdf_csv", "report.write_s", RUN, None, None),
    ("report", "write_country_delta_csv", "report.write_s", RUN, None, None),
    ("cli", "_write_ips_jsonl", "report.write_s", RUN, None, None),
    ("synth", "score_against_truth", "synth.score_s", SCORE, None, None),
    ("synth", "generate_world", "synth.generate_world_s", SYNTH, None, _world),
    ("synth", "simulate_traceroutes", "synth.simulate_traceroutes_s", SYNTH, None, _simulated),
    ("synth", "corrupt_geodb", "synth.corrupt_geodb_s", SYNTH, None, _corrupted),
    ("synth", "save_world", "synth.write_s", SYNTH, None, None),
    ("ingest", "dump_native", "synth.write_s", SYNTH, None, None),
    ("ingest", "write_geo_snapshot", "synth.write_s", SYNTH, None, None),
]
# The command functions `cli.main` dispatches to; each is the root span of
# its command.
ROOTS = {RUN: "run", SCORE: "score_cmd", SYNTH: "synth_cmd"}


class Tracer:
    """Records spans (name, start, end, parent, run id) and counts in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.command: str | None = None
        self.counts: dict[str, Counter] = {RUN: Counter(), SCORE: Counter(), SYNTH: Counter()}
        self.diagnostics: list = []

    def wrap(self, module, attr: str, name: str, command: str | None = None, count=None) -> None:
        """Replace ``module.attr`` with a spanned version, if it still exists."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        tracer = self

        def spanned(*args, **kwargs):
            if command is not None:
                tracer.command = command
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None and tracer.command is not None:
                # Counting runs in a span of its own, so it is kept out of
                # the caller's self time.
                hook = tracer._open("trace.count")
                count(result, args, tracer.counts[tracer.command])
                tracer._close(hook)
            return result

        setattr(module, attr, spanned)

    def _open(self, name: str) -> dict:
        span = {
            "name": name,
            "start": time.perf_counter() - T0,
            "end": None,
            "parent": self.stack[-1] if self.stack else None,
            "run_id": f"{self.run_id}:{self.command}",
        }
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - T0
        self.stack.pop()


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every entry point and root; names that no longer exist are
    simply left out and show up as missing spans."""
    for module, attr, _, _, _, count in ENTRY_POINTS:
        tracer.wrap(modules[module], attr, f"{module}.{attr}", None, count)
    for command, attr in ROOTS.items():
        tracer.wrap(modules["cli"], attr, f"cli.{attr}", command)

    base = getattr(modules["cli"], "Diagnostics", None)
    if base is not None:

        class RecordingDiagnostics(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.diagnostics.append((tracer.command, self))

        modules["cli"].Diagnostics = RecordingDiagnostics


def expected_spans(fmt: str) -> list[str]:
    names = [f"cli.{attr}" for attr in ROOTS.values()]
    names += [
        f"{module}.{attr}"
        for module, attr, _, _, formats, _ in ENTRY_POINTS
        if formats is None or fmt in formats
    ]
    return names


def traced_pass(run_config: str, results: str, world: str, synth_config: str,
                fmt: str, run_id: str, spawned_at: float) -> dict:
    """Run the three commands through ``cli.main`` with every entry point
    wrapped, and return the trace as a plain dict."""
    from traceloc import cli, ingest, report, synth

    modules = {"cli": cli, "ingest": ingest, "report": report, "synth": synth}
    tracer = Tracer(run_id)
    install(tracer, modules)
    codes = {RUN: cli.main(["run", "--config", run_config])}
    # The end of `run` on the wall clock the benchmark stamped just before
    # it started this process, so it compares with an untraced `run_s`.
    run_wall = time.time() - spawned_at
    codes |= {
        SCORE: cli.main(["score", results, world]),
        SYNTH: cli.main(["synth", "--config", synth_config]),
    }
    recorded = {s["name"] for s in tracer.spans}
    wanted = expected_spans(fmt)
    warnings = sum(d.total() for command, d in tracer.diagnostics if command == RUN)
    return {
        "exit_codes": codes,
        "run_wall_s": run_wall,
        "spans": tracer.spans,
        "counts": {k: dict(v) for k, v in tracer.counts.items()},
        "missing": [name for name in wanted if name not in recorded],
        "warnings": warnings,
    }


# --- analysis (runs in the benchmark process) ---------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _root_of(spans: list[dict], i: int) -> int:
    while spans[i]["parent"] is not None:
        i = spans[i]["parent"]
    return i


TIME_METRICS = sorted({metric for _, _, metric, _, _, _ in ENTRY_POINTS})


def layer_metrics(trace: dict) -> dict[str, float]:
    """Self time per entry-point metric, the CLI's own glue time and the
    counts; missing spans read as 0."""
    spans = trace["spans"]
    own = self_times(spans)
    command_of_root = {f"cli.{attr}": command for command, attr in ROOTS.items()}
    metric_of = {f"{m}.{a}": (metric, command) for m, a, metric, command, _, _ in ENTRY_POINTS}
    out = dict.fromkeys(TIME_METRICS, 0.0)
    out["cli.glue_s"] = 0.0
    for i, span in enumerate(spans):
        root_command = command_of_root.get(spans[_root_of(spans, i)]["name"])
        if span["name"] == "cli.run":
            out["cli.glue_s"] += own[i]
        elif span["name"] in metric_of:
            metric, command = metric_of[span["name"]]
            if command == root_command:
                out[metric] += own[i]
    for counts in trace["counts"].values():
        for key, value in counts.items():
            out[key] = out.get(key, 0) + value
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--run-config", required=True)
    p.add_argument("--results", required=True, help="out_dir of the run config")
    p.add_argument("--world", required=True)
    p.add_argument("--synth-config", required=True)
    p.add_argument("--format", required=True, choices=("native", "atlas"))
    p.add_argument("--run-id", required=True)
    p.add_argument("--trace-out", required=True, help="JSON file for spans and counts")
    p.add_argument("--spawned-at", required=True, type=float,
                   help="time.time() just before this process was started")
    args = p.parse_args(argv)
    trace = traced_pass(args.run_config, args.results, args.world, args.synth_config,
                        args.format, args.run_id, args.spawned_at)
    Path(args.trace_out).write_text(json.dumps(trace) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
