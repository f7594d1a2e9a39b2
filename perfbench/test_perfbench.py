"""Self-test of the benchmark at a tiny scale (seconds, not minutes).

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402
from workloads import CATALOG_CITIES, CATALOG_SEED, DEFAULT_SEED, Workload  # noqa: E402

TINY = {"n_routers": 60, "n_cities": 32, "n_paths": 300, "decoy_fraction": 0.2}


@pytest.fixture
def isolated(tmp_path, monkeypatch):
    """Point the benchmark's work tree and expected-values file at tmp_path."""
    monkeypatch.setattr(bench, "WORK", tmp_path / "work")
    monkeypatch.setattr(bench, "EXPECTED_FILE", tmp_path / "expected.json")
    monkeypatch.setattr(bench, "MIN_RUNS", 2)
    monkeypatch.setattr(bench.hostspeed, "LINES", 200)
    return tmp_path


def tiny(fmt: str) -> Workload:
    return Workload(name=f"tiny-{fmt}", why="self-test", synth=TINY, fmt=fmt)


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == bench.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in bench.WORKLOADS.values()}
    expected = json.loads(bench.EXPECTED_FILE.read_text())
    assert set(expected) == set(bench.WORKLOADS)


@pytest.mark.parametrize("fmt", ["atlas", "clutter"])
def test_every_metric_is_emitted_and_checks_pass(isolated, fmt):
    w = tiny(fmt)
    first = bench.run_workload(w, DEFAULT_SEED, 0.0, trace=False, record=True)
    assert first["ops"].failed == 0
    # A second invocation with another seed checks against what was recorded.
    res = bench.run_workload(w, DEFAULT_SEED + 1, 0.0, trace=True, record=False)
    assert res["ops"].failed == 0
    line = bench.result_line(res["ops"], res["metrics"], bench.PER_LAYER)
    assert line["correct"] and line["attempted"] >= 1
    assert list(line["metrics"]) == [name for name, _, _ in bench.PER_LAYER]
    for name, unit, _ in bench.PER_LAYER:
        assert line["metrics"][name]["unit"] == unit
    line = bench.result_line(first["ops"], first["metrics"], bench.END_TO_END)
    assert list(line["metrics"]) == [name for name, _, _ in bench.END_TO_END]
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    if fmt == "atlas":
        assert res["metrics"]["ingest.parse_atlas_s"] > 0
        assert res["metrics"]["ingest.rejected"] > 0
    else:
        assert res["metrics"]["geo.candidates_per_ip"] > 4


def test_main_prints_each_metric_with_unit_and_direction(isolated, monkeypatch, capsys):
    w = tiny("native")
    monkeypatch.setitem(bench.WORKLOADS, w.name, w)
    assert bench.main(["--workload", w.name, "--seconds", "0", "--record"]) == 0
    out = capsys.readouterr().out.splitlines()
    for name, unit, better in bench.END_TO_END:
        assert any(l.startswith(f"{w.name} {name} ") and l.endswith(f" {unit} ({better} is better)")
                   for l in out)
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_changed_answers_fail_the_reference(isolated):
    w = tiny("native")
    bench.run_workload(w, DEFAULT_SEED, 0.0, trace=False, record=True)
    recorded = json.loads(bench.EXPECTED_FILE.read_text())
    recorded[w.name]["quality"]["displaced_recall"] = 0.5
    recorded[w.name]["input_sha256"] = "0" * 64
    bench.EXPECTED_FILE.write_text(json.dumps(recorded))
    res = bench.run_workload(w, DEFAULT_SEED, 0.0, trace=False, record=False)
    assert res["ops"].failed == 1  # the reference operation, and only it


def test_tampered_output_is_a_failed_operation(isolated):
    w = tiny("native")
    work = isolated / "tamper"
    work.mkdir()
    catalog = bench.write_hubring_catalog(work / "cities.csv", CATALOG_CITIES, CATALOG_SEED)
    inputs = bench.Inputs(w, 3, work / "inputs", catalog)
    assert inputs.synth(isolated / "synth.log")[0] == 0
    out = work / "out"
    problems, _, _ = bench.run_cycle(inputs, out, isolated, "run0")
    assert problems == []
    copy = work / "copy"
    shutil.copytree(out, copy)
    lines = (copy / "ips.jsonl").read_text().splitlines(keepends=True)
    (copy / "ips.jsonl").write_text("".join(lines[:-1]))
    assert bench.tree_sha256(copy) != bench.tree_sha256(out)
    problems = bench.check_run_output(copy)
    assert problems
    ops = bench.Ops()
    ops.record("tampered", problems)
    assert (ops.attempted, ops.failed) == (1, 1)


def test_entry_point_no_longer_called_is_a_missing_span(isolated):
    """A refactor that drops or renames an entry point must not crash the
    tracer: the span is reported missing and its metric reads 0."""
    w = tiny("native")
    work = isolated / "trace"
    work.mkdir()
    catalog = bench.write_hubring_catalog(work / "cities.csv", CATALOG_CITIES, CATALOG_SEED)
    inputs = bench.Inputs(w, 3, work / "inputs", catalog)
    assert inputs.synth(isolated / "synth.log")[0] == 0
    out = work / "out"
    synth_conf = work / "again.conf"
    synth_conf.write_text(bench.synth_config(w, 3, catalog, work / "again"))
    trace_out = work / "trace.json"
    script = (
        "import sys, tracer\n"
        "tracer.ENTRY_POINTS.append(('cli', 'stage_gone', 'cli.stage_gone_s', 'run', None, None))\n"
        "sys.exit(tracer.main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(bench.SRC), str(HERE)]))
    # --format atlas on a native corpus: cli.run never calls parse_atlas.
    subprocess.run(
        [sys.executable, "-c", script, "--run-config", str(inputs.run_conf(out)),
         "--results", str(out), "--world", str(inputs.synth_dir / "world.json"),
         "--synth-config", str(synth_conf), "--format", "atlas", "--run-id", "t",
         "--trace-out", str(trace_out), "--spawned-at", repr(time.time())],
        check=True, env=env, timeout=120,
    )
    trace = json.loads(trace_out.read_text())
    assert set(trace["missing"]) == {"ingest.parse_atlas", "ingest.clean_paths", "cli.stage_gone"}
    assert trace["exit_codes"] == {"run": 0, "score": 0, "synth": 0}
    assert trace["run_wall_s"] > 0
    metrics = tracer.layer_metrics(trace)
    assert metrics["ingest.parse_atlas_s"] == 0
    assert metrics["refine.extract_pairs_s"] > 0
    for span in trace["spans"]:
        assert {"name", "start", "end", "parent", "run_id"} <= span.keys()
    assert not any(p.name == "trace.json" for p in out.iterdir())


def test_self_time_excludes_children():
    spans = [
        {"name": "cli.run", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "cli.iterate", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "trace.count", "start": 4.0, "end": 4.5, "parent": 0},
        {"name": "cli.resolve_all", "start": 5.0, "end": 9.0, "parent": 0},
    ]
    assert tracer.self_times(spans) == [2.5, 3.0, 0.5, 4.0]


def test_each_time_is_scaled_by_the_loops_around_it():
    ref = bench.hostspeed.REFERENCE_S
    # The second run took twice as long while the host ran at half speed.
    walls, loops = [2.0, 4.0], [ref, ref, 3 * ref]
    assert bench.hostspeed.scaled(walls, loops) == [2.0, 2.0]
