"""The names and result shapes the benchmark's tracer relies on.

``perfbench/tracer.py`` times each program stage by replacing the function
the CLI looks up, and counts what some of them return.  A stage renamed or a
result reshaped would only show as a missing span or a failing hook in the
benchmark's own slow self-test, so these checks keep that contract in the
fast suite.  The tracer is read and executed in memory; nothing under
``perfbench/`` is imported as a package or written.
"""
from __future__ import annotations

import importlib
import types
from collections import Counter
from pathlib import Path

import pytest

from traceloc import cli, ingest
from traceloc.geo import SpatialIndex, cluster_candidates
from traceloc.ingest import ip_key
from traceloc.refine import IpStatus, RefineConfig, make_states, pair_budgets
from traceloc.resolve import ResolveConfig
from traceloc.synth import corrupt_geodb, generate_world, simulate_traceroutes

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_entry_point_exists(tracer):
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer.ENTRY_POINTS
        if not hasattr(importlib.import_module(f"traceloc.{module}"), attr)
    ]
    missing += [f"cli.{attr}" for attr in tracer.ROOTS.values() if not hasattr(cli, attr)]
    assert missing == []


@pytest.fixture(scope="module")
def tiny_run(grid_catalog):
    """A small decoy-and-displacement world taken through the stages the
    hooks count, called as `cli.run` calls them."""
    world = generate_world(5, 40, 12, 0.05, grid_catalog)
    paths = simulate_traceroutes(world, 200, 0.05)
    spec = cli.SynthSettings(
        interface_error_fraction=0.1,
        min_displacement_km=300.0,
        db_count=4,
        db_noise_km=2.0,
        decoy_fraction=0.3,
    )
    snapshot, _ = corrupt_geodb(world, spec, 5, grid_catalog)
    ips = sorted({ip for p in paths for ip, _ in p.hops}, key=ip_key)
    clusters = {ip: cluster_candidates(snapshot[ip], 20.0) for ip in ips if snapshot.get(ip)}
    cfg = RefineConfig()
    states = make_states(clusters)
    pairs = cli.extract_pairs(paths)
    iterated = cli.iterate(states, pair_budgets(pairs, cfg), cfg)
    cli.tag_anomalies(states, cfg)
    resolve_args = (states, paths, SpatialIndex(grid_catalog), ResolveConfig())
    outcomes = cli.resolve_all(*resolve_args)
    return paths, pairs, iterated, resolve_args, outcomes


def test_count_hooks_read_a_run(tracer, tiny_run):
    paths, pairs, iterated, resolve_args, outcomes = tiny_run
    counts = Counter()
    tracer._pairs(pairs, (paths,), counts)
    tracer._iterate(iterated, (), counts)
    tracer._resolved(outcomes, resolve_args, counts)

    states, iterations = iterated
    tagged = {ip for ip, s in states.items() if s.status is IpStatus.ANOMALOUS}
    assert outcomes and set(outcomes) == tagged
    links = {frozenset((a, b)) for p in paths for (a, _), (b, _) in zip(p.hops, p.hops[1:])}
    assert counts["refine.pairs"] == len(links)
    assert counts["refine.observations"] == sum(len(p.hops) - 1 for p in paths)
    assert counts["refine.iterations"] == iterations >= 1
    assert counts["refine.evaluations"] == sum(s.evaluations for s in states.values()) > 0
    assert counts["resolve.path_scans"] == sum(len({ip for ip, _ in p.hops} & tagged) for p in paths)
    verdicts = Counter(f"resolve.{o.verdict.value}" for o in outcomes.values())
    assert {k: counts[k] for k in verdicts} == verdicts


def test_atlas_record_normalises_alone_as_in_its_export(data_dir):
    # perfbench/run.py checks each undamaged Atlas record of its workload
    # with normalize(parse_atlas([line])[0]).hops.
    lines = (data_dir / "atlas_sample.jsonl").read_text(encoding="utf-8").splitlines()
    alone = []
    for line in lines:
        raws = ingest.parse_atlas([line])
        path = ingest.normalize(raws[0]) if raws else None
        if path is not None:
            alone.append(path.hops)
    assert alone == [path.hops for path in ingest.load_atlas(lines)]
    assert len(alone) == 8


def test_load_atlas_reaches_both_atlas_spans(data_dir, monkeypatch):
    # The tracer spans ingest.parse_atlas and ingest.clean_paths as the names
    # load_atlas calls; a reader that bypassed either would leave its span
    # missing.
    calls = Counter()
    returned = []
    parse_atlas, clean_paths = ingest.parse_atlas, ingest.clean_paths

    def counting_parse(*args, **kwargs):
        calls["parse_atlas"] += 1
        return parse_atlas(*args, **kwargs)

    def counting_clean(*args, **kwargs):
        calls["clean_paths"] += 1
        returned.append(clean_paths(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(ingest, "parse_atlas", counting_parse)
    monkeypatch.setattr(ingest, "clean_paths", counting_clean)
    lines = (data_dir / "atlas_sample.jsonl").read_text(encoding="utf-8").splitlines()
    paths = ingest.load_atlas(lines)
    assert calls["parse_atlas"] >= 1 and calls["clean_paths"] == 1
    assert returned == [paths] and len(paths) == 8
