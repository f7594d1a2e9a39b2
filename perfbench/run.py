"""traceloc benchmark: seeded workloads run through the real CLI.

    python3 perfbench/run.py --workload dense --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Each invocation builds the workload's inputs from the seed, times
``traceloc synth`` (set-up) and repeated ``traceloc run`` processes, scores
every run, checks the outputs, and prints one JSON object as its last line.
With ``--trace 1`` it adds one traced pass in a fresh process and reports
per-layer metrics instead of end-to-end ones.  Exit status is 0 when every
check passed, 1 when one failed and 2 when the program is not there.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
EXPECTED_FILE = HERE / "expected.json"

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    CATALOG_CITIES,
    CATALOG_SEED,
    DEFAULT_SEED,
    WORKLOADS,
    Workload,
    add_clutter,
    export_atlas,
    file_sha256,
    read_catalog,
    run_config,
    synth_config,
    tree_sha256,
    write_hubring_catalog,
)

SETUP_REPEATS = 3
MIN_RUNS = 5
MAX_RUNS = 60
PROCESS_TIMEOUT_S = 120.0

# name, unit, better
END_TO_END = [
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("displaced_recall", "ratio", "higher"),
    ("displaced_precision", "ratio", "higher"),
    ("tunnel_interior_recall", "ratio", "higher"),
    ("true_city_retention", "ratio", "higher"),
]
# Scored on the workload's reference world.  interface_within_100km is 0 on
# `cluttered`, so it cannot carry a relative bound and is reported with the
# per-layer metrics instead.
QUALITY = [name for name, unit, _ in END_TO_END if unit == "ratio"] + ["interface_within_100km"]

PER_LAYER = [
    ("ingest.load_native_s", "s", "lower"),
    ("ingest.parse_atlas_s", "s", "lower"),
    ("ingest.clean_paths_s", "s", "lower"),
    ("ingest.load_geo_snapshot_s", "s", "lower"),
    ("ingest.bytes_in", "bytes", "lower"),
    ("ingest.records_in", "count", "higher"),
    ("ingest.paths_out", "count", "higher"),
    ("ingest.hops_out", "count", "higher"),
    ("ingest.rejected", "count", "lower"),
    ("ingest.snapshot_rows", "count", "higher"),
    ("ingest.paths_kept_ratio", "ratio", "higher"),
    ("geo.load_city_catalog_s", "s", "lower"),
    ("geo.spatial_index_s", "s", "lower"),
    ("geo.cluster_candidates_s", "s", "lower"),
    ("geo.candidates_out", "count", "lower"),
    ("geo.candidates_per_ip", "ratio", "lower"),
    ("refine.make_states_s", "s", "lower"),
    ("refine.extract_pairs_s", "s", "lower"),
    ("refine.iterate_s", "s", "lower"),
    ("refine.tag_anomalies_s", "s", "lower"),
    ("refine.pairs", "count", "lower"),
    ("refine.observations", "count", "lower"),
    ("refine.iterations", "count", "lower"),
    ("refine.candidates_in", "count", "lower"),
    ("refine.candidates_out", "count", "lower"),
    ("refine.evaluations", "count", "lower"),
    ("refine.tagged", "count", "lower"),
    ("resolve.resolve_all_s", "s", "lower"),
    ("resolve.path_scans", "count", "lower"),
    ("resolve.interface_affected", "count", "higher"),
    ("resolve.mpls_affected", "count", "lower"),
    ("resolve.false_positive", "count", "lower"),
    ("resolve.unresolvable", "count", "lower"),
    ("resolve.resolved_ratio", "ratio", "higher"),
    ("report.summarize_s", "s", "lower"),
    ("report.sol_baseline_s", "s", "lower"),
    ("report.cluster_histogram_s", "s", "lower"),
    ("report.distance_cdf_s", "s", "lower"),
    ("report.country_delta_s", "s", "lower"),
    ("report.write_s", "s", "lower"),
    ("report.bytes_out", "bytes", "lower"),
    ("synth.generate_world_s", "s", "lower"),
    ("synth.simulate_traceroutes_s", "s", "lower"),
    ("synth.corrupt_geodb_s", "s", "lower"),
    ("synth.write_s", "s", "lower"),
    ("synth.score_s", "s", "lower"),
    ("synth.routers", "count", "higher"),
    ("synth.links", "count", "higher"),
    ("synth.paths", "count", "higher"),
    ("synth.displaced", "count", "higher"),
    ("synth.interface_within_100km", "count", "higher"),
    ("cli.glue_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("diagnostics.warnings", "count", "lower"),
    ("host.run_wall_s", "s", "lower"),
    ("host.loop_s", "s", "lower"),
]

RUN_FILES = {
    "summary.csv": ["category", "ips", "ips_pct", "links", "links_pct", "traceroutes", "traceroutes_pct"],
    "clusters_hist.csv": ["method", "clusters", "count", "fraction"],
    "distance_cdf.csv": ["rank", "distance_km", "cdf"],
    "country_delta.csv": ["country", "delta"],
}
IPS_KEYS = {"ip", "status", "verdict", "clusters", "resolved", "anchors"}


# --- processes ----------------------------------------------------------------


def spawn(args: list[str], log: Path) -> tuple[int, float, float]:
    """Run one process to its end; return (exit code, wall s, peak RSS MB).

    The RSS is the child's own, from ``wait4``: ``RUSAGE_CHILDREN`` would
    keep the largest child seen so far."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def traceloc(*args: str) -> list[str]:
    return [sys.executable, "-m", "traceloc.cli", *args]


# --- checks -------------------------------------------------------------------


def check_run_output(out_dir: Path) -> list[str]:
    """Every output file exists and parses, and ips.jsonl holds one record
    per IP that summary.csv counts."""
    problems = []
    ips_file = out_dir / "ips.jsonl"
    if not ips_file.is_file():
        return [f"{ips_file} missing"]
    seen = set()
    for n, line in enumerate(ips_file.read_text(encoding="utf-8").splitlines(), start=1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            problems.append(f"ips.jsonl line {n} is not JSON")
            continue
        if not isinstance(rec, dict) or not IPS_KEYS <= rec.keys():
            problems.append(f"ips.jsonl line {n} lacks {sorted(IPS_KEYS)}")
        elif rec["ip"] in seen:
            problems.append(f"ips.jsonl repeats {rec['ip']}")
        else:
            seen.add(rec["ip"])
    tables = {}
    for name, header in RUN_FILES.items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != header or any(len(r) != len(header) for r in rows[1:]):
            problems.append(f"{name} does not parse as {header}")
        tables[name] = rows
    totals = [r for r in tables.get("summary.csv", [])[1:] if r[0] == "total"]
    if totals and int(totals[0][1]) != len(seen):
        problems.append(f"ips.jsonl has {len(seen)} IPs, summary.csv counts {totals[0][1]}")
    return problems


def read_score(out_dir: Path) -> tuple[dict[str, float], list[str]]:
    path = out_dir / "score.csv"
    if not path.is_file():
        return {}, ["score.csv missing"]
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["metric", "value"]:
        return {}, ["score.csv does not parse"]
    values = dict(r for r in rows[1:] if len(r) == 2)
    score, problems = {}, []
    for name in QUALITY:
        try:
            score[name] = float(values[name])
        except (KeyError, ValueError):
            problems.append(f"score.csv has no number for {name}")
    return score, problems


def warning_counts(log: Path) -> dict[str, int]:
    """The counters of the run's closing ``warnings: a=1 b=2`` line."""
    lines = [l for l in log.read_text(encoding="utf-8", errors="replace").splitlines() if "warnings:" in l]
    if not lines:
        return {}
    return {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", lines[-1].split("warnings:", 1)[1])}


def check_atlas_roundtrip(atlas_file: Path, undamaged: dict[int, list[str]]) -> list[str]:
    """Every undamaged Atlas record normalises back to its source path."""
    sys.path.insert(0, str(SRC))
    from traceloc import ingest

    problems = []
    with atlas_file.open(encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            if n not in undamaged:
                continue
            raws = ingest.parse_atlas([line])
            path = ingest.normalize(raws[0]) if raws else None
            got = [ip for ip, _ in path.hops] if path else None
            if got != undamaged[n]:
                problems.append(f"atlas line {n} normalises to {got}, not its source path")
    return problems[:5]


class Ops:
    """Operations attempted and failed; one failed check fails its operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {label}: {p}", file=sys.stderr)
        return not problems


# --- one workload ---------------------------------------------------------------


class Inputs:
    """The files one ``traceloc run`` reads, made for one seed."""

    def __init__(self, w: Workload, seed: int, root: Path, catalog: Path) -> None:
        self.w, self.seed, self.root, self.catalog = w, seed, root, catalog
        self.synth_dir = root / "synth"
        self.synth_conf = root / "synth.conf"
        self.traceroutes = self.synth_dir / "traceroutes.jsonl"
        self.snapshot = self.synth_dir / "snapshot.csv"
        self.atlas = None

    def synth(self, log: Path) -> tuple[int, float]:
        self.root.mkdir(parents=True, exist_ok=True)
        self.synth_conf.write_text(synth_config(self.w, self.seed, self.catalog, self.synth_dir))
        code, wall, _ = spawn(traceloc("synth", "--config", str(self.synth_conf)), log)
        return code, wall

    def convert(self) -> None:
        """The benchmark's own conversions; not part of set-up time."""
        if self.w.fmt == "atlas":
            native = self.traceroutes
            self.traceroutes = self.root / "atlas.jsonl"
            self.atlas = export_atlas(native, self.traceroutes, self.seed)
        elif self.w.fmt == "clutter":
            plain = self.snapshot
            self.snapshot = self.root / "snapshot_clutter.csv"
            add_clutter(plain, read_catalog(self.catalog), self.snapshot, self.seed)

    def digest(self) -> str:
        """One sha256 over the catalog, synth's files and the converted ones."""
        files = {p.name: p for p in [*self.synth_dir.iterdir(), self.traceroutes, self.snapshot, self.catalog]}
        return hashlib.sha256("".join(f"{n}:{file_sha256(files[n])}\n" for n in sorted(files)).encode()).hexdigest()

    def run_conf(self, out_dir: Path) -> Path:
        conf = out_dir.with_suffix(".conf")
        conf.write_text(run_config(self.traceroutes, self.snapshot, self.catalog, out_dir))
        return conf


def run_cycle(inputs: Inputs, out_dir: Path, logs: Path, label: str) -> tuple[list[str], float, float]:
    """One `traceloc run` + `traceloc score` + output checks."""
    conf = inputs.run_conf(out_dir)
    code, wall, rss = spawn(traceloc("run", "--config", str(conf)), logs / f"{label}.run.log")
    if code != 0:
        return [f"traceloc run exited {code}"], wall, rss
    problems = check_run_output(out_dir)
    if inputs.atlas is not None:
        counts = warning_counts(logs / f"{label}.run.log")
        injected = {"atlas_malformed": inputs.atlas.malformed, "path_loop": inputs.atlas.looping,
                    "path_short": inputs.atlas.short}
        for key, want in injected.items():
            if counts.get(key, 0) != want:
                problems.append(f"Diagnostics {key}={counts.get(key, 0)}, injected {want}")
    world = inputs.synth_dir / "world.json"
    code, _, _ = spawn(traceloc("score", str(out_dir), str(world)), logs / f"{label}.score.log")
    if code != 0:
        problems.append(f"traceloc score exited {code}")
    return problems, wall, rss


def load_expected() -> dict:
    if EXPECTED_FILE.is_file():
        return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    return {}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    # ``seconds`` bounds the whole invocation, set-up and reference included,
    # so its length does not grow when the host runs slow.
    start = time.perf_counter()
    deadline = start + seconds
    work = WORK / f"{w.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    logs = work / "logs"
    logs.mkdir(parents=True)
    ops = Ops()
    catalog = write_hubring_catalog(work / "cities.csv", CATALOG_CITIES, CATALOG_SEED)
    loop = hostspeed.Loop()

    # Set-up: the same synth several times; each must give the same bytes.
    # The host-speed loop is timed before and after each.
    inputs = Inputs(w, seed, work / "inputs", catalog)
    setup_times, setup_loops = [], [loop.time()]
    first_digest = None
    for k in range(SETUP_REPEATS):
        target = inputs if k == 0 else Inputs(w, seed, work / f"setup{k}", catalog)
        code, wall = target.synth(logs / f"setup{k}.log")
        setup_times.append(wall)
        setup_loops.append(loop.time())
        problems = [] if code == 0 else [f"traceloc synth exited {code}"]
        if not problems:
            digest = tree_sha256(target.synth_dir)
            first_digest = first_digest or digest
            if digest != first_digest:
                problems.append("synth output differs between identical set-ups")
        if k == 0 and not problems:
            inputs.convert()
            if inputs.atlas is not None:
                problems += check_atlas_roundtrip(inputs.traceroutes, inputs.atlas.undamaged)
        if k > 0:
            shutil.rmtree(target.root)
        if not ops.record(f"{w.name} setup {k}", problems) and k == 0:
            return {"ops": ops, "metrics": {}}

    # Reference: the workload's default seed, whose inputs and answers are
    # pinned in expected.json, so a change to synth or to the answer shows.
    ref = inputs
    if seed != DEFAULT_SEED:
        ref = Inputs(w, DEFAULT_SEED, work / "reference", catalog)
        code, _ = ref.synth(logs / "reference.synth.log")
        if code != 0:
            ops.record(f"{w.name} reference", [f"traceloc synth exited {code}"])
            return {"ops": ops, "metrics": {}}
        ref.convert()
    ref_out = work / "reference_out"
    problems, _, _ = run_cycle(ref, ref_out, logs, "reference")
    quality, score_problems = read_score(ref_out)
    problems += score_problems
    expected = load_expected().get(w.name)
    observed = {"seed": DEFAULT_SEED, "input_sha256": ref.digest(), "quality": quality}
    if record:
        recorded = load_expected()
        recorded[w.name] = observed
        EXPECTED_FILE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    elif expected is None:
        problems.append(f"no expected inputs and answers recorded for {w.name}")
    else:
        if expected["input_sha256"] != observed["input_sha256"]:
            problems.append(f"inputs for seed {DEFAULT_SEED} changed: synth output is not the workload's")
        if expected["quality"] != quality:
            problems.append(f"answers changed on seed {DEFAULT_SEED}: {expected['quality']} -> {quality}")
    ops.record(f"{w.name} reference", problems)

    # Measured runs: fresh processes until the time is used up.  A run that
    # would end past the deadline, judged by the runs so far, is not started;
    # with --trace 1 the time of the traced pass (a run, a score and a synth)
    # is kept back as well.
    runs_dir = work / "runs"
    runs_dir.mkdir()
    runs_start = time.perf_counter()
    times, rsss, cycles, loops = [], [], [], [loop.time()]
    first_tree = None

    def room() -> bool:
        cycle = statistics.median(cycles)
        traced = cycle + statistics.median(setup_times) if trace else 0.0
        return time.perf_counter() + cycle + traced < deadline

    while len(times) < MAX_RUNS and (len(times) < MIN_RUNS or room()):
        k = len(times)
        cycle_start = time.perf_counter()
        out = runs_dir / f"out{k}"
        problems, wall, rss = run_cycle(inputs, out, logs, f"run{k}")
        loops.append(loop.time())
        times.append(wall)
        rsss.append(rss)
        if not problems:
            digest = tree_sha256(out)
            first_tree = first_tree or (digest, out)
            if digest != first_tree[0]:
                problems.append(f"output tree of run {k} differs from run 0")
        if first_tree is None or out != first_tree[1]:
            shutil.rmtree(out, ignore_errors=True)  # run 0's tree stays for the traced pass
        ops.record(f"{w.name} run {k}", problems)
        cycles.append(time.perf_counter() - cycle_start)
    run_s = hostspeed.scaled(times, loops)
    print(f"{w.name} seed {seed}: runs from {runs_start - start:.1f} s, "
          f"wall {' '.join(f'{t:.3f}' for t in times)}, loop {' '.join(f'{t:.3f}' for t in loops)}, "
          f"scaled {' '.join(f'{t:.3f}' for t in run_s)}", file=sys.stderr)

    if not trace:
        metrics = {
            "run_s": statistics.median(run_s),
            "peak_rss_mb": statistics.median(rsss),
            "setup_s": statistics.median(hostspeed.scaled(setup_times, setup_loops)),
            **quality,
        }
    else:
        metrics, traced_wall = traced_cycle(inputs, work, logs, ops, first_tree)
        # The traced run, scaled like run_s by the loops around the traced
        # pass, against the median scaled untraced run.
        traced_run_s = hostspeed.scaled([traced_wall], [loops[-1], loop.time()])[0]
        metrics["trace.overhead_s"] = traced_run_s - statistics.median(run_s)
        metrics["synth.interface_within_100km"] = quality.get("interface_within_100km", 0)
        metrics["host.run_wall_s"] = statistics.median(times)
        metrics["host.loop_s"] = statistics.median(setup_loops + loops)
    return {"ops": ops, "metrics": metrics}


def traced_cycle(inputs: Inputs, work: Path, logs: Path, ops: Ops, first_tree) -> tuple[dict, float]:
    """The traced pass; returns the per-layer metrics and the traced run's
    wall time from spawn to the end of ``cli.run``."""
    traced = work / "traced"
    traced.mkdir()
    out = traced / "out"
    synth_out = traced / "synth"
    synth_conf = traced / "synth.conf"
    synth_conf.write_text(synth_config(inputs.w, inputs.seed, inputs.catalog, synth_out))
    trace_file = traced / "trace.json"
    fmt = "atlas" if inputs.atlas is not None else "native"
    code, _, _ = spawn(
        [sys.executable, str(HERE / "tracer.py"), "--run-config", str(inputs.run_conf(out)),
         "--results", str(out), "--world", str(inputs.synth_dir / "world.json"),
         "--synth-config", str(synth_conf), "--format", fmt,
         "--run-id", f"{inputs.w.name}-{inputs.seed}", "--trace-out", str(trace_file),
         "--spawned-at", repr(time.time())],
        logs / "traced.log",
    )
    problems = [] if code == 0 else [f"traced pass exited {code}"]
    trace = json.loads(trace_file.read_text()) if trace_file.is_file() else None
    metrics = {}
    if trace is not None:
        problems += [f"traced {cmd} exited {c}" for cmd, c in trace["exit_codes"].items() if c != 0]
        if first_tree is None or tree_sha256(out) != first_tree[0]:
            problems.append("traced output tree differs from the untraced one")
        if tree_sha256(synth_out) != tree_sha256(inputs.synth_dir):
            problems.append("traced synth output differs from the untraced one")
        if trace["missing"]:
            print(f"missing spans: {' '.join(trace['missing'])}", file=sys.stderr)
        metrics = tracer.layer_metrics(trace)
        records = sum(1 for line in inputs.traceroutes.open(encoding="utf-8") if line.strip())
        metrics["ingest.bytes_in"] = inputs.traceroutes.stat().st_size + inputs.snapshot.stat().st_size
        metrics["ingest.records_in"] = records
        metrics["ingest.rejected"] = records - metrics.get("ingest.paths_out", 0)
        metrics["ingest.paths_kept_ratio"] = metrics.get("ingest.paths_out", 0) / records
        metrics["geo.candidates_per_ip"] = (
            metrics.get("geo.candidates_out", 0) / max(1, metrics.get("geo.ips_clustered", 0)))
        tagged = sum(metrics.get(f"resolve.{v}", 0) for v in
                     ("interface_affected", "mpls_affected", "false_positive"))
        metrics["resolve.resolved_ratio"] = metrics.get("resolve.interface_affected", 0) / max(1, tagged)
        metrics["report.bytes_out"] = sum(
            p.stat().st_size for p in out.iterdir() if p.is_file() and p.name != "score.csv")
        metrics["diagnostics.warnings"] = trace["warnings"]
    ops.record(f"{inputs.w.name} traced", problems)
    run_wall = trace["run_wall_s"] if trace is not None else 0.0
    return {name: metrics.get(name, 0) for name, _, _ in PER_LAYER}, run_wall


# --- entry point ----------------------------------------------------------------


def result_line(ops: Ops, metrics: dict, spec: list) -> dict:
    units = {name: unit for name, unit, _ in spec}
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="traceloc benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, help=f"workload seed (default: {DEFAULT_SEED})")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="length of one workload's invocation: set-up, reference and measured runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="record the default seed's input digest and answers in expected.json")
    args = p.parse_args(argv)
    # A terminated benchmark raises SystemExit inside spawn(), which then
    # kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    hostspeed.pin_to_one_cpu()

    if not (SRC / "traceloc" / "cli.py").is_file():
        print(f"traceloc sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    spec = PER_LAYER if args.trace else END_TO_END
    total = Ops()
    combined = {}
    for name in names:
        w = WORKLOADS[name]
        seed = DEFAULT_SEED if args.seed is None else args.seed
        res = run_workload(w, seed, args.seconds, bool(args.trace), args.record)
        ops = res["ops"]
        total.attempted += ops.attempted
        total.failed += ops.failed
        print(f"# {name} (seed {seed}): {ops.attempted} operations, {ops.failed} failed")
        for metric, unit, better in spec:
            if metric in res["metrics"]:
                print(f"{name} {metric} {res['metrics'][metric]:.6g} {unit} ({better} is better)")
        if ops.failed == 0:
            shutil.rmtree(WORK / f"{name}-{seed}", ignore_errors=True)
        if len(names) == 1:
            combined = res["metrics"]
        else:
            combined.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    if len(names) > 1:
        spec = [(f"{n}.{m}", u, b) for n in names for m, u, b in spec]
    print(json.dumps(result_line(total, combined, spec)))
    return 0 if total.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
