"""Command-line behaviour: config parsing, exit codes, and the
synth → run → score round trip on a small world."""
from __future__ import annotations

import argparse
import codecs
import csv
import dataclasses
import gc
import hashlib
import ipaddress
import json
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import traceloc
import traceloc.ingest
import traceloc.report
from traceloc.cli import (
    ConfigError,
    InputError,
    PipelineConfig,
    SynthSettings,
    build_config,
    load_config,
    main,
    parse_config_file,
    run,
    synth_cmd,
)
from traceloc.refine import RefineConfig
from traceloc.report import ip_records
from traceloc.resolve import ResolveConfig
from tests.conftest import write_plane_catalog
from tests.test_acceptance import write_hubring_catalog

VALID_STATUSES = {"active", "anomalous"}
VALID_VERDICTS = {None, "interface_affected", "mpls_affected", "false_positive"}


SNAPSHOT_HEADER = "ip,source,lat,lon,city,country\n"
SNAPSHOT_ROW = "198.51.100.2,db1,1.0,2.0,y,FR\n"


def write_config(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# Each bounded key: values at its ends that it accepts, values just past
# them (and nan, and inf where the bound stops short of it) that it
# rejects, and the words after the key in the rejection's message.
TINY, NEAR_ONE, MAX_FINITE = "5e-324", "0.9999999999999999", "1.7976931348623157e308"
PAST_ZERO, PAST_ONE = "-5e-324", "1.0000000000000002"
UNIT = (["0", "1"], [PAST_ZERO, PAST_ONE, "nan", "inf"], "in [0,1]")
NON_NEGATIVE = (["0", MAX_FINITE, "inf"], [PAST_ZERO, "nan"], ">= 0")
BOUND_EDGES = [
    ("refine.deviation_fraction", *UNIT),
    ("refine.prune_fraction", *UNIT),
    ("refine.anomaly_ratio_threshold", *UNIT),
    ("refine.direction_threshold", *UNIT),
    ("refine.max_iterations", ["1"], ["0"], ">= 1"),
    ("refine.min_observations", ["0"], ["-1"], ">= 0"),
    ("merge_radius_km", *NON_NEGATIVE),
    ("traceroute_format", ["auto", "native", "atlas"], ["xml", ""], "one of auto|native|atlas"),
    ("out_dir", ["x"], [""], "not empty"),
    ("resolve.country_dominance", *UNIT),
    ("resolve.anchor_allowance_fraction", *NON_NEGATIVE),
    ("resolve.tie_merge_max_km", [TINY, MAX_FINITE, "inf"], ["0", PAST_ZERO, "nan"], "> 0"),
    ("resolve.match_radius_km", *NON_NEGATIVE),
    ("resolve.min_anchors", ["1"], ["0"], ">= 1"),
    ("synth.n_routers", ["2", "63750"], ["1", "63751"], "in [2,63750]"),
    ("synth.n_cities", ["1"], ["0"], ">= 1"),
    ("synth.mpls_fraction", *UNIT),
    ("synth.n_paths", ["1"], ["0"], ">= 1"),
    ("synth.noise_fraction", ["0", NEAR_ONE], [PAST_ZERO, "1", "nan", "inf"], "in [0,1)"),
    ("synth.interface_error_fraction", *UNIT),
    ("synth.min_displacement_km", *NON_NEGATIVE),
    ("synth.db_count", ["1"], ["0"], ">= 1"),
    ("synth.db_noise_km", ["0", MAX_FINITE], [PAST_ZERO, "nan", "inf"], "finite and >= 0"),
    ("synth.tunnel_len", ["2"], ["1"], ">= 2"),
    ("synth.decoy_fraction", *UNIT),
    ("synth.decoy_db_count", ["0"], ["-1"], ">= 0"),
]


class TestParseConfigFile:
    def test_comments_blanks_and_values_with_equals(self, tmp_path):
        cfg = write_config(
            tmp_path / "a.conf",
            [
                "# full-line comment",
                "",
                "threads = 2   # trailing comment",
                "source.x.url = https://geo.example/v1?ip={ip}&key=abc",
            ],
        )
        entries = parse_config_file(cfg)
        assert entries == {
            "threads": "2",
            "source.x.url": "https://geo.example/v1?ip={ip}&key=abc",
        }

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config_file(tmp_path / "nope.conf")

    def test_missing_equals(self, tmp_path):
        cfg = write_config(tmp_path / "a.conf", ["threads 2"])
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_file(cfg)

    def test_empty_key(self, tmp_path):
        cfg = write_config(tmp_path / "a.conf", ["= 3"])
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_file(cfg)

    def test_duplicate_key(self, tmp_path):
        cfg = write_config(tmp_path / "a.conf", ["seed = 1", "seed = 2"])
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_file(cfg)


class TestBuildConfig:
    def test_section_routing_and_types(self):
        cfg = build_config(
            {
                "merge_radius_km": "25.5",
                "refine.max_iterations": "7",
                "resolve.match_radius_km": "50",
                "synth.n_routers": "30",
            }
        )
        assert cfg.merge_radius_km == 25.5
        assert cfg.refine.max_iterations == 7
        assert cfg.resolve.match_radius_km == 50.0
        assert cfg.synth.n_routers == 30

    def test_defaults(self):
        cfg = build_config({})
        assert cfg.synth == SynthSettings()
        assert cfg.traceroute_format == "auto"

    @pytest.mark.parametrize(
        "entries",
        [
            {"nope": "1"},
            {"refine.nope": "1"},
            {"nope.max_iterations": "1"},
            {"threads": "abc"},
            {"refine.prune_fraction": "1.5"},
            {"synth.noise_fraction": "1.0"},
            {"traceroute_format": "xml"},
            {"resolve.tie_merge_max_km": "0"},  # must be positive
            {"synth.decoy_db_count": "-1"},
            {"synth.n_routers": "63751"},  # past the router address plan
            {"synth.tunnel_len": "1"},
            {"synth.db_noise_km": "inf"},
            {"fetch_ips_file": "ips.txt"},  # removed with the fetch-geo command
            {"fetch_cache_dir": "c"},
            {"source.a.url": "https://x/{ip}"},
            {"out_dir": ""},  # would write into the working directory
        ],
    )
    def test_rejects(self, entries):
        with pytest.raises(ConfigError):
            build_config(entries)

    def test_router_cap_is_inclusive(self):
        assert build_config({"synth.n_routers": "63750"}).synth.n_routers == 63750

    @pytest.mark.parametrize(
        "key, value, violation",
        [
            (key, value, None if value in accepted else f"{key} {words}")
            for key, accepted, rejected, words in BOUND_EDGES
            for value in accepted + rejected
        ],
    )
    def test_bound_edges(self, key, value, violation):
        if violation is None:
            build_config({key: value})
            return
        with pytest.raises(ConfigError) as exc:
            build_config({key: value})
        assert str(exc.value) == f"config violates: {violation}"

    def test_first_broken_bound_is_reported_in_field_order(self):
        entries = {"synth.n_paths": "0", "resolve.min_anchors": "0", "merge_radius_km": "-1"}
        for first in ("merge_radius_km >= 0", "resolve.min_anchors >= 1", "synth.n_paths >= 1"):
            with pytest.raises(ConfigError) as exc:
                build_config(entries | {"out_dir": ""})
            assert str(exc.value) == "config violates: out_dir not empty"
            with pytest.raises(ConfigError) as exc:
                build_config(entries)
            assert str(exc.value) == f"config violates: {first}"
            del entries[first.split()[0]]

    @pytest.mark.parametrize("klass", [PipelineConfig, RefineConfig, ResolveConfig, SynthSettings])
    def test_every_number_knob_declares_a_bound(self, klass):
        unbounded = [
            f.name for f in dataclasses.fields(klass)
            if type(f.default) in (int, float) and "in" not in f.metadata
        ]
        assert unbounded == (["seed"] if klass is PipelineConfig else [])

    def test_cli_overrides(self, tmp_path):
        cfg_file = write_config(
            tmp_path / "a.conf", ["out_dir = from_config", "seed = 5"]
        )
        args = argparse.Namespace(out="from_flag", seed=0)
        cfg = load_config(cfg_file, args)
        assert cfg.out_dir == "from_flag"
        assert cfg.seed == 0  # seed 0 is a real override, not "unset"


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """synth output for a 24-router world on a 4x3 grid of cities."""
    root = tmp_path_factory.mktemp("cli_world")
    catalog = root / "cities.csv"
    write_plane_catalog(
        catalog,
        [(f"g{r}{c}", "FR", 200.0 * c, 200.0 * r) for r in range(3) for c in range(4)],
    )
    synth_dir = root / "synth"
    cfg = write_config(
        root / "synth.conf",
        [
            f"city_catalog = {catalog}",
            f"out_dir = {synth_dir}",
            "seed = 7",
            "synth.n_routers = 24",
            "synth.n_cities = 12",
            "synth.mpls_fraction = 0.1",
            "synth.n_paths = 200",
            "synth.noise_fraction = 0.03",
            "synth.interface_error_fraction = 0.1",
            "synth.min_displacement_km = 300",
            "synth.db_count = 4",
            "synth.db_noise_km = 2",
            "synth.tunnel_len = 3",
        ],
    )
    assert main(["synth", "--config", str(cfg)]) == 0
    return root, catalog, synth_dir


def run_config(root, catalog, synth_dir, out_dir, extra=()):
    return write_config(
        root / f"{out_dir.name}.conf",
        [
            f"traceroutes = {synth_dir / 'traceroutes.jsonl'}",
            f"geo_snapshot = {synth_dir / 'snapshot.csv'}",
            f"city_catalog = {catalog}",
            f"out_dir = {out_dir}",
            *extra,
        ],
    )


def assert_same_tree(out_dir, expected_dir):
    names = sorted(p.name for p in expected_dir.iterdir())
    assert sorted(p.name for p in out_dir.iterdir()) == names
    for name in names:
        assert (out_dir / name).read_bytes() == (expected_dir / name).read_bytes(), name


class TestSynthCommand:
    def test_outputs(self, small_corpus):
        _, _, synth_dir = small_corpus
        for name in ("world.json", "traceroutes.jsonl", "snapshot.csv", "displaced.json"):
            assert (synth_dir / name).exists(), name
        displaced = json.loads((synth_dir / "displaced.json").read_text())["displaced"]
        assert len(displaced) == round(0.1 * 24)
        world = json.loads((synth_dir / "world.json").read_text())
        assert len(world["routers"]) == 24

    def test_seed_changes_world(self, small_corpus, tmp_path):
        root, catalog, synth_dir = small_corpus
        other = tmp_path / "other"
        cfg = write_config(
            tmp_path / "s.conf",
            [f"city_catalog = {catalog}", f"out_dir = {other}", "synth.n_routers = 24",
             "synth.n_cities = 12"],
        )
        assert main(["synth", "--config", str(cfg), "--seed", "8"]) == 0
        assert (other / "world.json").read_bytes() != (synth_dir / "world.json").read_bytes()

    def test_catalog_byte_order_mark_changes_nothing(self, small_corpus, tmp_path):
        _, catalog, _ = small_corpus
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + catalog.read_bytes())
        for name, cities in (("plain", catalog), ("marked", marked)):
            cfg = write_config(
                tmp_path / f"{name}.conf",
                [f"city_catalog = {cities}", f"out_dir = {tmp_path / name}", "synth.n_routers = 24",
                 "synth.n_cities = 12", "synth.n_paths = 50"],
            )
            assert main(["synth", "--config", str(cfg)]) == 0
        assert_same_tree(tmp_path / "marked", tmp_path / "plain")

    @pytest.mark.parametrize("routers, cities", [(2, 2), (3, 1)])
    def test_short_corpus_warns_once(self, small_corpus, tmp_path, caplog, routers, cities):
        # No route of these worlds has two reported hops, so no draw yields a path.
        _, catalog, _ = small_corpus
        out = tmp_path / "short"
        cfg = write_config(
            tmp_path / "s.conf",
            [f"city_catalog = {catalog}", f"out_dir = {out}", f"synth.n_routers = {routers}",
             f"synth.n_cities = {cities}", "synth.n_paths = 50"],
        )
        with caplog.at_level(logging.INFO, logger="traceloc"):
            assert main(["synth", "--config", str(cfg)]) == 0
        assert (out / "traceroutes.jsonl").read_text() == ""
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["synth_paths_short: wrote 0 of 50 paths after 2500 attempts"]
        assert caplog.records[-1].getMessage() == "warnings: synth_paths_short=1"

    def test_tunnel_shortfall_warns(self, data_dir, tmp_path, caplog):
        # 39 tunnels of 3 disjoint routers cannot fit in 40 routers.
        out = tmp_path / "tunnels"
        cfg = write_config(
            tmp_path / "s.conf",
            [f"city_catalog = {data_dir / 'cities_global.csv'}", f"out_dir = {out}", "seed = 1",
             "synth.n_routers = 40", "synth.n_cities = 10", "synth.mpls_fraction = 1.0",
             "synth.tunnel_len = 3", "synth.n_paths = 20"],
        )
        with caplog.at_level(logging.INFO, logger="traceloc"):
            assert main(["synth", "--config", str(cfg)]) == 0
        assert len(json.loads((out / "world.json").read_text())["mpls_tunnels"]) == 5
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["synth_tunnels_short: placed 5 of 39 tunnels"]
        assert caplog.records[-1].getMessage() == "warnings: synth_tunnels_short=1"

    def test_warnings_come_in_stage_order(self, data_dir, tmp_path, caplog):
        # Three co-sited routers: room for one tunnel of the two asked for, no
        # route with two reported hops, and no city 30,000 km from any other.
        out = tmp_path / "short"
        cfg = write_config(
            tmp_path / "s.conf",
            [f"city_catalog = {data_dir / 'cities_global.csv'}", f"out_dir = {out}", "seed = 1",
             "synth.n_routers = 3", "synth.n_cities = 1", "synth.mpls_fraction = 1.0",
             "synth.tunnel_len = 3", "synth.n_paths = 50",
             "synth.interface_error_fraction = 1.0", "synth.min_displacement_km = 30000"],
        )
        with caplog.at_level(logging.INFO, logger="traceloc"):
            assert main(["synth", "--config", str(cfg)]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [
            "synth_tunnels_short: placed 1 of 2 tunnels",
            "synth_paths_short: wrote 0 of 50 paths after 2500 attempts",
            *(f"synth_no_displacement_target: 203.0.1.{i}: no catalog city ≥ 30000.0 km away"
              for i in (1, 2, 3)),
        ]
        assert json.loads((out / "displaced.json").read_text()) == {"displaced": []}


class TestRunCommand:
    def test_end_to_end_outputs(self, small_corpus, tmp_path):
        root, catalog, synth_dir = small_corpus
        out_dir = tmp_path / "results"
        cfg = run_config(root, catalog, synth_dir, out_dir)
        assert main(["run", "--config", str(cfg)]) == 0
        for name in (
            "summary.csv",
            "clusters_hist.csv",
            "distance_cdf.csv",
            "country_delta.csv",
            "ips.jsonl",
        ):
            assert (out_dir / name).exists(), name

        lines = (out_dir / "ips.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"ip", "status", "verdict", "clusters", "resolved", "anchors"}
            assert rec["status"] in VALID_STATUSES
            assert rec["verdict"] in VALID_VERDICTS
            assert isinstance(rec["anchors"], int) and rec["anchors"] >= 0
            for cluster in rec["clusters"]:
                assert set(cluster) == {"lat", "lon", "city", "country", "ratio"}
            if rec["resolved"] is not None:
                assert set(rec["resolved"]) == {"lat", "lon"}

    def test_run_loads_neither_synth_nor_statistics(self, small_corpus, tmp_path):
        root, catalog, synth_dir = small_corpus
        cfg = run_config(root, catalog, synth_dir, tmp_path / "out")
        src_dir = Path(traceloc.__file__).resolve().parents[1]
        pythonpath = os.pathsep.join(filter(None, [str(src_dir), os.environ.get("PYTHONPATH")]))
        script = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "from traceloc.cli import main\n"
            f"assert main(['run', '--config', {str(cfg)!r}]) == 0\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        loaded = set(json.loads(done.stdout))
        assert "traceloc.report" in loaded
        assert not loaded & {"traceloc.synth", "statistics", "fractions", "decimal"}

    def test_repeat_runs_byte_identical(self, small_corpus, tmp_path):
        root, catalog, synth_dir = small_corpus
        outs = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            cfg = run_config(root, catalog, synth_dir, out_dir)
            assert main(["run", "--config", str(cfg)]) == 0
            outs.append(out_dir)
        for name in ("ips.jsonl", "summary.csv", "clusters_hist.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_threads_key_and_flag_are_rejected(self, small_corpus, tmp_path, caplog):
        root, catalog, synth_dir = small_corpus
        cfg = run_config(root, catalog, synth_dir, tmp_path / "key", ["threads = 4"])
        caplog.clear()
        assert main(["run", "--config", str(cfg)]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["config error: unknown config key: threads"]
        cfg = run_config(root, catalog, synth_dir, tmp_path / "flag")
        for command in ("run", "synth"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(cfg), "--threads", "4"])
            assert exc.value.code == 2, command
        assert not (tmp_path / "key").exists() and not (tmp_path / "flag").exists()

    @pytest.mark.parametrize("key", ["traceroutes", "geo_snapshot", "city_catalog"])
    def test_byte_order_mark_changes_nothing(self, small_corpus, tmp_path, key):
        root, catalog, synth_dir = small_corpus
        plain = tmp_path / "plain"
        assert main(["run", "--config", str(run_config(root, catalog, synth_dir, plain))]) == 0
        inputs = {
            "traceroutes": synth_dir / "traceroutes.jsonl",
            "geo_snapshot": synth_dir / "snapshot.csv",
            "city_catalog": catalog,
        }
        marked = tmp_path / inputs[key].name
        marked.write_bytes(codecs.BOM_UTF8 + inputs[key].read_bytes())
        settings = inputs | {key: marked, "out_dir": tmp_path / "marked"}
        cfg = write_config(tmp_path / "marked.conf", [f"{k} = {v}" for k, v in settings.items()])
        assert main(["run", "--config", str(cfg)]) == 0
        assert_same_tree(tmp_path / "marked", plain)

    def test_damaged_lines_cost_only_themselves(self, small_corpus, tmp_path, caplog):
        # A cut-off first line and a bad byte in a later line's path_id are
        # each counted and skipped: auto-detection reads past the first, and
        # the results are those of the undamaged corpus.
        root, catalog, synth_dir = small_corpus
        clean = (synth_dir / "traceroutes.jsonl").read_bytes().splitlines(keepends=True)
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_bytes(b"".join([
            clean[0][:25] + b"\n",
            *clean[:3],
            clean[3].replace(b'"path_id":"', b'"path_id":"\xff', 1),
            *clean[3:],
        ]))
        plain, out = tmp_path / "plain", tmp_path / "damaged"
        assert main(["run", "--config", str(run_config(root, catalog, synth_dir, plain))]) == 0
        caplog.clear()
        cfg = write_config(
            tmp_path / "damaged.conf",
            [
                f"traceroutes = {damaged}",
                f"geo_snapshot = {synth_dir / 'snapshot.csv'}",
                f"city_catalog = {catalog}",
                f"out_dir = {out}",
            ],
        )
        with caplog.at_level(logging.INFO, logger="traceloc"):
            assert main(["run", "--config", str(cfg)]) == 0
        messages = [r.getMessage() for r in caplog.records]
        assert "native_malformed: line 1: bad native record" in messages
        assert "native_malformed: line 5: not valid UTF-8" in messages
        assert "native_malformed=2" in messages[-1].split()
        assert_same_tree(out, plain)

    def test_bad_snapshot_byte_costs_only_its_row(self, small_corpus, tmp_path, caplog):
        # A bad byte in one snapshot row's city is counted and that row is
        # skipped: the results are those of the snapshot without the row.
        root, catalog, synth_dir = small_corpus
        header, row, *rest = (synth_dir / "snapshot.csv").read_bytes().splitlines(keepends=True)
        ip, source, lat, lon, city, country = row.split(b",")
        bad_row = b",".join([ip, source, lat, lon, city + b"\xff", country])
        damaged, trimmed = tmp_path / "damaged", tmp_path / "trimmed"
        for folder, rows in ((damaged, [bad_row]), (trimmed, [])):
            folder.mkdir()
            (folder / "traceroutes.jsonl").write_bytes((synth_dir / "traceroutes.jsonl").read_bytes())
            (folder / "snapshot.csv").write_bytes(b"".join([header, *rows, *rest]))
        out, plain = tmp_path / "out_damaged", tmp_path / "out_trimmed"
        assert main(["run", "--config", str(run_config(root, catalog, trimmed, plain))]) == 0
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="traceloc"):
            assert main(["run", "--config", str(run_config(root, catalog, damaged, out))]) == 0
        messages = [r.getMessage() for r in caplog.records]
        assert f"snapshot_malformed: {damaged / 'snapshot.csv'}:2: not valid UTF-8" in messages
        assert "snapshot_malformed=1" in messages[-1].split()
        assert_same_tree(out, plain)

    def test_ip_without_snapshot_rows_is_counted_but_gets_no_record(
        self, small_corpus, tmp_path, caplog
    ):
        # summary.csv counts every address on the corpus's paths; ips.jsonl
        # holds a record only for those with snapshot rows.
        root, catalog, synth_dir = small_corpus
        corpus = (synth_dir / "traceroutes.jsonl").read_text(encoding="utf-8").splitlines()
        corpus_ips = {hop["ip"] for line in corpus for hop in json.loads(line)["hops"]}
        missing = json.loads(corpus[0])["hops"][0]["ip"]
        header, *rows = (synth_dir / "snapshot.csv").read_text(encoding="utf-8").splitlines(True)
        trimmed = tmp_path / "inputs"
        trimmed.mkdir()
        (trimmed / "traceroutes.jsonl").write_bytes((synth_dir / "traceroutes.jsonl").read_bytes())
        kept = [row for row in rows if row.split(",")[0] != missing]
        assert len(kept) < len(rows)
        (trimmed / "snapshot.csv").write_text("".join([header, *kept]), encoding="utf-8")
        out = tmp_path / "out"
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="traceloc"):
            assert main(["run", "--config", str(run_config(root, catalog, trimmed, out))]) == 0
        messages = [r.getMessage() for r in caplog.records]
        assert f"ip_without_geolocation: {missing}: no snapshot records" in messages
        assert "ip_without_geolocation=1" in messages[-1].split()
        with (out / "summary.csv").open(newline="", encoding="utf-8") as fh:
            total = next(row for row in csv.DictReader(fh) if row["category"] == "total")
        assert int(total["ips"]) == len(corpus_ips)
        records = [json.loads(line)["ip"] for line in (out / "ips.jsonl").read_text().splitlines()]
        assert set(records) == corpus_ips - {missing}

    def test_corpus_from_a_pipe(self, small_corpus, tmp_path):
        # Auto-detection reads ahead without rewinding, so a corpus that
        # cannot seek (a named pipe here) gives the results of the file.
        root, catalog, synth_dir = small_corpus
        fifo = tmp_path / "corpus.fifo"
        os.mkfifo(fifo)
        corpus = (synth_dir / "traceroutes.jsonl").read_bytes()
        writer = threading.Thread(target=fifo.write_bytes, args=(corpus,), daemon=True)
        writer.start()
        plain, piped = tmp_path / "plain", tmp_path / "piped"
        cfg = write_config(
            tmp_path / "piped.conf",
            [
                f"traceroutes = {fifo}",
                f"geo_snapshot = {synth_dir / 'snapshot.csv'}",
                f"city_catalog = {catalog}",
                f"out_dir = {piped}",
            ],
        )
        assert main(["run", "--config", str(cfg)]) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert main(["run", "--config", str(run_config(root, catalog, synth_dir, plain))]) == 0
        assert_same_tree(piped, plain)

    def test_atlas_format_autodetected(self, small_corpus, tmp_path, data_dir):
        root, catalog, _ = small_corpus
        from traceloc.geo import GeoPoint  # noqa: F401  (documents the record shape)
        from traceloc.ingest import GeoRecord, write_geo_snapshot

        snapshot = {
            "185.10.16.1": [
                GeoRecord("185.10.16.1", "db1", 48.85, 2.35, "paris", "FR")
            ],
            "185.10.17.9": [
                GeoRecord("185.10.17.9", "db1", 48.86, 2.36, "paris", "FR")
            ],
        }
        snap_file = tmp_path / "snapshot.csv"
        write_geo_snapshot(snapshot, snap_file)
        out_dir = tmp_path / "atlas_out"
        cfg = write_config(
            tmp_path / "atlas.conf",
            [
                f"traceroutes = {data_dir / 'atlas_sample.jsonl'}",
                f"geo_snapshot = {snap_file}",
                f"city_catalog = {data_dir / 'cities.csv'}",
                f"out_dir = {out_dir}",
            ],
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert (out_dir / "summary.csv").exists()


class TestParseCount:
    """Each stage parses an address once per call, not once per hop: a
    corpus twice as long over the same addresses costs no extra parses."""

    @staticmethod
    def count_parses(monkeypatch, cfg) -> int:
        count = 0

        class CountingIPv4Address(ipaddress.IPv4Address):
            def __init__(self, address):
                nonlocal count
                count += 1
                super().__init__(address)

        with monkeypatch.context() as m:
            m.setattr(ipaddress, "IPv4Address", CountingIPv4Address)
            assert main(["run", "--config", str(cfg)]) == 0
        return count

    def test_doubling_paths_adds_no_parses(self, small_corpus, tmp_path, monkeypatch):
        root, catalog, synth_dir = small_corpus
        records = [
            json.loads(line)
            for line in (synth_dir / "traceroutes.jsonl").read_text().splitlines()
        ]
        copies = [{**rec, "path_id": rec["path_id"] + "-copy"} for rec in records]
        doubled = tmp_path / "doubled"
        doubled.mkdir()
        (doubled / "traceroutes.jsonl").write_text(
            "".join(json.dumps(rec) + "\n" for rec in records + copies)
        )
        (doubled / "snapshot.csv").write_bytes((synth_dir / "snapshot.csv").read_bytes())

        once = self.count_parses(
            monkeypatch, run_config(root, catalog, synth_dir, tmp_path / "once")
        )
        twice = self.count_parses(
            monkeypatch, run_config(root, catalog, doubled, tmp_path / "twice")
        )
        assert 0 < twice <= once

    def test_at_most_three_parses_per_address(self, small_corpus, tmp_path, monkeypatch):
        # The corpus check, the snapshot check and the run's one sort.
        root, catalog, synth_dir = small_corpus
        corpus = {
            hop["ip"]
            for line in (synth_dir / "traceroutes.jsonl").read_text().splitlines()
            for hop in json.loads(line)["hops"]
        }
        snapshot = {
            line.split(",", 1)[0]
            for line in (synth_dir / "snapshot.csv").read_text().splitlines()[1:]
        }
        parses = self.count_parses(
            monkeypatch, run_config(root, catalog, synth_dir, tmp_path / "out")
        )
        assert 0 < parses <= 3 * len(corpus | snapshot)


class TestCollectorPause:
    """`run` and `synth` pause the cyclic collector and leave the caller's
    setting as they found it, on success and on error."""

    @staticmethod
    def empty_corpus_config(small_corpus, tmp_path):
        root, catalog, synth_dir = small_corpus
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "traceroutes.jsonl").write_text("")
        (empty / "snapshot.csv").write_bytes((synth_dir / "snapshot.csv").read_bytes())
        return run_config(root, catalog, empty, tmp_path / "out")

    def test_paused_during_run_and_restored(self, small_corpus, tmp_path, monkeypatch):
        root, catalog, synth_dir = small_corpus
        seen = []
        real_resolve_all = traceloc.cli.resolve_all

        def recording_resolve_all(*args, **kwargs):
            seen.append(gc.isenabled())
            return real_resolve_all(*args, **kwargs)

        monkeypatch.setattr(traceloc.cli, "resolve_all", recording_resolve_all)
        assert gc.isenabled()
        cfg = run_config(root, catalog, synth_dir, tmp_path / "out")
        assert main(["run", "--config", str(cfg)]) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_restored_after_input_error(self, small_corpus, tmp_path, caplog):
        cfg = self.empty_corpus_config(small_corpus, tmp_path)
        with pytest.raises(InputError, match="no usable traceroutes"):
            run(load_config(cfg))
        assert gc.isenabled()
        assert main(["run", "--config", str(cfg)]) == 1
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, small_corpus, tmp_path):
        root, catalog, synth_dir = small_corpus
        gc.disable()
        try:
            cfg = run_config(root, catalog, synth_dir, tmp_path / "out")
            assert main(["run", "--config", str(cfg)]) == 0
            assert not gc.isenabled()
            with pytest.raises(InputError):
                run(load_config(self.empty_corpus_config(small_corpus, tmp_path)))
            assert not gc.isenabled()
        finally:
            gc.enable()


    @staticmethod
    def synth_config(small_corpus, tmp_path, n_cities=12):
        root, catalog, _ = small_corpus
        return write_config(
            tmp_path / "synth.conf",
            [
                f"city_catalog = {catalog}",
                f"out_dir = {tmp_path / 'out'}",
                "synth.n_routers = 24",
                f"synth.n_cities = {n_cities}",
                "synth.n_paths = 50",
            ],
        )

    def test_paused_during_synth_and_restored(self, small_corpus, tmp_path, monkeypatch):
        import traceloc.synth

        seen = []
        real_simulate = traceloc.synth.simulate_traceroutes

        def recording_simulate(*args, **kwargs):
            seen.append(gc.isenabled())
            return real_simulate(*args, **kwargs)

        monkeypatch.setattr(traceloc.synth, "simulate_traceroutes", recording_simulate)
        assert gc.isenabled()
        assert main(["synth", "--config", str(self.synth_config(small_corpus, tmp_path))]) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_restored_after_synth_config_error(self, small_corpus, tmp_path):
        # More cities than the 12-city catalog holds: found inside synth_cmd.
        cfg = self.synth_config(small_corpus, tmp_path, n_cities=13)
        with pytest.raises(ConfigError, match="exceeds catalog size"):
            synth_cmd(load_config(cfg))
        assert gc.isenabled()
        assert main(["synth", "--config", str(cfg)]) == 2
        assert gc.isenabled()


GOLDEN_RUN_SYNTH_CONFIG = [
    "seed = 5",
    "synth.n_routers = 120",
    "synth.n_cities = 120",
    "synth.mpls_fraction = 0.05",
    "synth.n_paths = 1500",
    "synth.interface_error_fraction = 0.08",
    "synth.tunnel_len = 3",
    "synth.decoy_fraction = 0.2",
    "synth.db_noise_km = 3",
]
# Recorded before select_anchors, sol_baseline and summarize were rewritten;
# the world has every verdict, and decoys that the baseline keeps.
GOLDEN_RUN_SHA256 = {
    "ips.jsonl": "c2dae5214b7a03da74909395a94de42de7da8f741b63b54b54b75ffd888f78c3",
    "summary.csv": "936dbdcb4cb7e423e44aebb93d76bec07d2b219685cf807431d5674116788b08",
    "clusters_hist.csv": "562282c4dc3b28c55444b00273b4a7047039ae3a300c3fbaea5b943546a70dcd",
    "distance_cdf.csv": "81d7f5333ad8ae360a6560c11e5a486804dfc9de158d55c1e8bfcbfe9d7e4dca",
    "country_delta.csv": "bf1f1bee6051b5960565309d7eaf5fb69c6585cfd836a1c2878f2744e9dc01f7",
    "score.csv": "31af50a3c1e1b39cb17cb3fde4956806d23284ed8de15eda79d8851c3e2b4937",
    "run.stderr": "418e3bc85b4d35dd5ca9571f17d0d8ae52c42dbe6a3789664d604bf95f99b5c0",
}


class TestRunGolden:
    def test_outputs_match_recorded_digests_across_processes(self, tmp_path):
        catalog = write_hubring_catalog(tmp_path / "cities.csv")
        world_dir, out_dir = tmp_path / "world", tmp_path / "out"
        synth_conf = write_config(
            tmp_path / "synth.conf",
            [f"city_catalog = {catalog}", f"out_dir = {world_dir}", *GOLDEN_RUN_SYNTH_CONFIG],
        )
        run_conf = run_config(tmp_path, catalog, world_dir, out_dir)
        src_dir = Path(traceloc.__file__).resolve().parents[1]
        pythonpath = os.pathsep.join(filter(None, [str(src_dir), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": pythonpath}

        def cli(*args):
            done = subprocess.run(
                [sys.executable, "-m", "traceloc.cli", *args],
                env=env, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
            return done.stderr

        cli("synth", "--config", str(synth_conf))
        stderr = cli("run", "--config", str(run_conf))
        cli("score", str(out_dir), str(world_dir / "world.json"))
        digests = {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in GOLDEN_RUN_SHA256 if name != "run.stderr"
        }
        digests["run.stderr"] = hashlib.sha256(stderr.encode()).hexdigest()
        assert digests == GOLDEN_RUN_SHA256


class TestScoreCommand:
    def test_score_round_trip(self, small_corpus, tmp_path):
        root, catalog, synth_dir = small_corpus
        out_dir = tmp_path / "results"
        cfg = run_config(root, catalog, synth_dir, out_dir)
        assert main(["run", "--config", str(cfg)]) == 0
        assert main(["score", str(out_dir), str(synth_dir / "world.json")]) == 0
        score = (out_dir / "score.csv").read_text().splitlines()
        assert score[0] == "metric,value"
        metrics = {line.split(",", 1)[0] for line in score[1:]}
        assert {"displaced_recall", "displaced_precision", "true_city_retention"} <= metrics

    def test_results_must_match_world(self, small_corpus, tmp_path, caplog):
        _, _, synth_dir = small_corpus
        world_file = synth_dir / "world.json"
        world = json.loads(world_file.read_text())
        good = {"ip": world["routers"][0]["ip"], "status": "active", "verdict": None,
                "clusters": [], "resolved": None, "anchors": 0}
        bogus = tmp_path / "bogus"
        bogus.mkdir()
        broken_world = tmp_path / "broken_world.json"
        broken_world.write_text(json.dumps({k: v for k, v in world.items() if k != "routers"}))
        broken_displaced = tmp_path / "broken_displaced.json"
        broken_displaced.write_text('{"displaced": [')
        bad_displaced = []  # a bare string, numbers, an object, an IP off the world
        for k, value in enumerate([good["ip"], [1, 2], {}, [good["ip"], "9.9.9.9"]]):
            bad_displaced.append(tmp_path / f"bad_displaced{k}.json")
            bad_displaced[-1].write_text(json.dumps({"displaced": value}))
        far_tunnel = tmp_path / "far_tunnel.json"
        far_tunnel.write_text(json.dumps({**world, "mpls_tunnels": [[0, 1, 9999]]}))
        far_link = tmp_path / "far_link.json"
        far_link.write_text(json.dumps({**world, "links": [[0, -1]]}))
        ips_file = bogus / "ips.jsonl"
        displaced_arg = ["--displaced", str(synth_dir / "displaced.json")]
        cases = [  # (ips.jsonl lines, world file, extra args, expected in the message)
            ([{**good, "ip": "9.9.9.9"}], world_file, [], "9.9.9.9 is not a world router"),
            ([good, json.dumps(good)[:30]], world_file, [], f"{ips_file}:2: bad record"),
            ([{**good, "status": "lost"}], world_file, [], f"{ips_file}:1: bad record (ValueError"),
            ([good, {**good, "verdict": "maybe"}], world_file, [], "'maybe' is not a valid Verdict"),
            ([{**good, "clusters": [{"city": "x"}]}], world_file, [], f"{ips_file}:1: bad record (KeyError"),
            ([{**good, "clusters": [{"city": "x", "country": 7}]}], world_file, [], "country must be"),
            *(([{**good, "resolved": {"lat": lat, "lon": lon}}], world_file, [],
               f"{ips_file}:1: bad record (ValueError: resolved lat and lon must be finite")
              for lat, lon in ((float("nan"), 0.0), (0.0, float("inf")), (90.5, 0.0), (0.0, -180.5))),
            ([good], broken_world, ["--displaced", str(synth_dir / "displaced.json")], "'routers'"),
            ([good], world_file, ["--displaced", str(broken_displaced)], str(broken_displaced)),
            *(([good], world_file, ["--displaced", str(f)], f"{f}: bad displaced set (ValueError")
              for f in bad_displaced),
            ([good], world_file, ["--displaced", ""], "bad displaced set"),  # not the default file
            ([good], far_tunnel, [*displaced_arg], "router index 9999 out of range for"),
            ([good], far_link, [*displaced_arg], "router index -1 out of range for"),
        ]

        def assert_input_error(results_dir, world_path, extra, expected):
            caplog.clear()
            assert main(["score", str(results_dir), str(world_path), *extra]) == 1, expected
            errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
            assert len(errors) == 1 and errors[0].startswith("input error: "), errors
            assert expected in errors[0], errors

        for lines, world_path, extra, expected in cases:
            ips_file.write_text(
                "".join((line if isinstance(line, str) else json.dumps(line)) + "\n" for line in lines)
            )
            assert_input_error(bogus, world_path, extra, expected)
        unreadable = tmp_path / "unreadable"
        (unreadable / "ips.jsonl").mkdir(parents=True)
        assert_input_error(unreadable, world_file, [], "cannot read results (IsADirectoryError")

    def test_records_match_ips_jsonl(self, small_corpus, tmp_path, monkeypatch):
        # What the run hands the writer is what score reads back.
        root, catalog, synth_dir = small_corpus
        seen: list[dict] = []

        def capturing(states, outcomes):
            for record in ip_records(states, outcomes):
                seen.append(record)
                yield record

        monkeypatch.setattr(traceloc.report, "ip_records", capturing)
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(run_config(root, catalog, synth_dir, out_dir))]) == 0
        lines = (out_dir / "ips.jsonl").read_text().splitlines()
        assert seen
        assert seen == [json.loads(line) for line in lines]

    def test_empty_paths_are_input_errors(self, small_corpus, tmp_path, monkeypatch, caplog):
        # An empty path names no file: not the working directory, though
        # Path("") reads as ".".  Here the working directory holds results.
        _, catalog, synth_dir = small_corpus
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(run_config(tmp_path, catalog, synth_dir, out_dir))]) == 0
        monkeypatch.chdir(out_dir)
        for args in (["", str(synth_dir / "world.json")], [str(out_dir), ""]):
            caplog.clear()
            assert main(["score", *args]) == 1, args
            errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
            assert errors == [
                "input error: empty path: score needs a results directory and a world file"
            ], errors
        assert not (out_dir / "score.csv").exists()

    def test_missing_results(self, small_corpus, tmp_path):
        _, _, synth_dir = small_corpus
        assert main(["score", str(tmp_path / "void"), str(synth_dir / "world.json")]) == 1

    def test_rejects_the_flags_of_run_and_synth(self, small_corpus, tmp_path):
        _, catalog, synth_dir = small_corpus
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(run_config(tmp_path, catalog, synth_dir, out_dir))]) == 0
        flags = [
            ["--out", str(tmp_path / "elsewhere")],
            ["--config", str(tmp_path / "none.conf")],
            ["--seed", "1"],
        ]
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                main(["score", str(out_dir), str(synth_dir / "world.json"), *flag])
            assert exc.value.code == 2, flag
        assert not (out_dir / "score.csv").exists()


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.conf")]) == 2

    def test_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path / "a.conf", ["bogus_key = 1"])
        assert main(["run", "--config", str(cfg)]) == 2

    def assert_one_config_error(self, argv, caplog):
        caplog.clear()
        assert main(argv) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].startswith("config error: "), errors

    def test_config_file_with_bad_byte(self, tmp_path, caplog):
        cfg = tmp_path / "a.conf"
        cfg.write_bytes(b"seed = 1\n# caf\xe9\n")
        self.assert_one_config_error(["run", "--config", str(cfg)], caplog)

    def test_config_path_is_directory(self, tmp_path, caplog):
        self.assert_one_config_error(["run", "--config", str(tmp_path)], caplog)

    def test_run_has_no_seed_flag(self, tmp_path):
        cfg = write_config(tmp_path / "a.conf", ["seed = 1"])
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--seed", "1"])
        assert exc.value.code == 2

    def test_fetch_geo_command_is_gone(self, tmp_path):
        cfg = write_config(tmp_path / "a.conf", ["seed = 1"])
        with pytest.raises(SystemExit) as exc:
            main(["fetch-geo", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_run_requires_snapshot_and_catalog(self, tmp_path):
        trs = tmp_path / "t.jsonl"
        trs.write_text('{"path_id": "p", "hops": [{"ip": "203.0.1.1", "rtt": 1.0}, {"ip": "203.0.1.2", "rtt": 2.0}]}\n')
        cfg = write_config(tmp_path / "a.conf", [f"traceroutes = {trs}"])
        assert main(["run", "--config", str(cfg)]) == 2

    def test_empty_traceroutes_is_input_error(self, small_corpus, tmp_path):
        root, catalog, synth_dir = small_corpus
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        cfg = write_config(
            tmp_path / "a.conf",
            [
                f"traceroutes = {empty}",
                f"geo_snapshot = {synth_dir / 'snapshot.csv'}",
                f"city_catalog = {catalog}",
                f"out_dir = {tmp_path / 'out'}",
            ],
        )
        assert main(["run", "--config", str(cfg)]) == 1

    def test_missing_traceroutes_is_config_error(self, small_corpus, tmp_path):
        root, catalog, synth_dir = small_corpus
        cfg = write_config(
            tmp_path / "a.conf",
            [
                f"traceroutes = {tmp_path / 'nowhere.jsonl'}",
                f"geo_snapshot = {synth_dir / 'snapshot.csv'}",
                f"city_catalog = {catalog}",
            ],
        )
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key", ["resolve.tie_merge_km", "resolve.tie_merge_step_km"])
    def test_removed_tie_merge_keys_are_unknown(self, tmp_path, caplog, key):
        cfg = write_config(tmp_path / "a.conf", [f"{key} = 20"])
        self.assert_one_config_error(["run", "--config", str(cfg)], caplog)
        assert key in caplog.records[-1].getMessage()

    @pytest.mark.parametrize(
        "command, key",
        [
            ("run", "traceroutes"),
            ("run", "geo_snapshot"),
            ("run", "city_catalog"),
            ("synth", "city_catalog"),
        ],
    )
    def test_missing_input_path_is_config_error(
        self, small_corpus, tmp_path, caplog, monkeypatch, command, key
    ):
        missing = tmp_path / "nowhere.csv"
        settings = self.corpus_settings(small_corpus, tmp_path) | {key: missing}
        cfg = write_config(tmp_path / "a.conf", [f"{k} = {v}" for k, v in settings.items()])

        def no_work(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("an input was loaded before every path was checked")

        # Every path is checked before any input is read.
        monkeypatch.setattr(traceloc.cli, "_read_traceroutes", no_work)
        monkeypatch.setattr(traceloc.cli, "load_city_catalog", no_work)
        self.assert_one_config_error([command, "--config", str(cfg)], caplog)
        assert str(missing) in caplog.records[-1].getMessage()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, occupied",
        [
            ("run", "ips.jsonl"),
            ("run", "summary.csv"),
            ("synth", "world.json"),
            ("synth", "displaced.json"),
        ],
    )
    def test_output_path_that_is_a_directory_is_config_error(
        self, small_corpus, tmp_path, caplog, command, occupied
    ):
        settings = self.corpus_settings(small_corpus, tmp_path) | {
            "synth.n_routers": 24,
            "synth.n_cities": 12,
            "synth.n_paths": 50,
        }
        (settings["out_dir"] / occupied).mkdir(parents=True)
        cfg = write_config(tmp_path / "a.conf", [f"{k} = {v}" for k, v in settings.items()])
        self.assert_one_config_error([command, "--config", str(cfg)], caplog)
        assert occupied in caplog.records[-1].getMessage()
        # Checked before anything is written: no other output file exists.
        assert [p.name for p in settings["out_dir"].iterdir()] == [occupied]

    def test_score_csv_that_is_a_directory_is_config_error(self, small_corpus, tmp_path, caplog):
        _, catalog, synth_dir = small_corpus
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(run_config(tmp_path, catalog, synth_dir, out_dir))]) == 0
        (out_dir / "score.csv").mkdir()
        self.assert_one_config_error(["score", str(out_dir), str(synth_dir / "world.json")], caplog)
        assert "score.csv" in caplog.records[-1].getMessage()

    @pytest.mark.parametrize(
        "command, module, writer",
        [
            ("run", traceloc.cli, "_write_ips_jsonl"),
            ("synth", traceloc.ingest, "write_geo_snapshot"),
        ],
    )
    def test_failed_write_deletes_the_files_written(
        self, small_corpus, tmp_path, caplog, monkeypatch, command, module, writer
    ):
        settings = self.corpus_settings(small_corpus, tmp_path) | {
            "synth.n_routers": 24,
            "synth.n_cities": 12,
            "synth.n_paths": 50,
        }
        cfg = write_config(tmp_path / "a.conf", [f"{k} = {v}" for k, v in settings.items()])

        def disk_full(*args):
            path = next(a for a in args if isinstance(a, Path))
            path.write_text("partial")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(module, writer, disk_full)
        self.assert_one_config_error([command, "--config", str(cfg)], caplog)
        assert "No space left on device" in caplog.records[-1].getMessage()
        # The files written before it, and its own partial file, are gone.
        assert list(settings["out_dir"].iterdir()) == []

    @pytest.mark.parametrize("failing", ["replace", "write"])
    def test_failed_snapshot_write_leaves_no_temp_file(
        self, small_corpus, tmp_path, caplog, monkeypatch, failing
    ):
        settings = self.corpus_settings(small_corpus, tmp_path) | {
            "synth.n_routers": 24,
            "synth.n_cities": 12,
            "synth.n_paths": 50,
        }
        cfg = write_config(tmp_path / "a.conf", [f"{k} = {v}" for k, v in settings.items()])

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        if failing == "replace":
            monkeypatch.setattr(traceloc.ingest.os, "replace", disk_full)
        else:
            monkeypatch.setattr(traceloc.ingest.csv, "writer", disk_full)
        self.assert_one_config_error(["synth", "--config", str(cfg)], caplog)
        assert "No space left on device" in caplog.records[-1].getMessage()
        # None of synth's four files, and no snapshot.csv.tmp.
        assert list(settings["out_dir"].iterdir()) == []

    def test_synth_rejects_impossible_world(self, tmp_path, data_dir):
        cfg = write_config(
            tmp_path / "a.conf",
            [
                f"city_catalog = {data_dir / 'cities.csv'}",
                f"out_dir = {tmp_path / 'out'}",
                "synth.n_cities = 999",  # more cities than the catalog holds
            ],
        )
        assert main(["synth", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "command, key, text",
        [
            ("run", "city_catalog", "name,country,lat\nx,FR,1.0\n"),
            ("run", "city_catalog", "name,country,lat,lon\nx,FR,abc,2.0\n"),
            ("run", "geo_snapshot", "ip,source,lat,lon,city\n198.51.100.1,db1,1.0,2.0,x\n"),
            ("synth", "city_catalog", "name,country,lat,lon\nx,FR,abc,2.0\n"),
            ("run", "city_catalog", "name,country,lat,lon,radius_km\nx,FR,1.0,2.0,nan\n"),
            ("run", "city_catalog", "lat,lon,name,country\n1.0,2.0\n"),
            ("run", "geo_snapshot", SNAPSHOT_HEADER + '198.51.100.1,db1,1.0,2.0,"x\n' + SNAPSHOT_ROW),
            ("run", "geo_snapshot", SNAPSHOT_HEADER + '198.51.100.1,db1,1.0,2.0,"' + "x" * 140_000),
            ("run", "city_catalog", 'name,country,lat,lon,note\nx,FR,1.0,2.0,"n\ny,FR,1.0,2.0,\n'),
            ("synth", "city_catalog", 'name,country,lat,lon\n"x"y,FR,1.0,2.0\n'),
        ],
        ids=[
            "catalog-without-lon",
            "catalog-bad-lat",
            "snapshot-without-country",
            "synth-bad-lat",
            "catalog-nan-radius",
            "catalog-short-row",
            "snapshot-quote-open-at-end",
            "snapshot-field-over-limit",
            "catalog-quote-open-at-end",
            "synth-catalog-text-after-quote",
        ],
    )
    def test_malformed_catalog_or_snapshot_is_input_error(
        self, small_corpus, tmp_path, caplog, command, key, text
    ):
        root, catalog, synth_dir = small_corpus
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        settings = {
            "traceroutes": synth_dir / "traceroutes.jsonl",
            "geo_snapshot": synth_dir / "snapshot.csv",
            "city_catalog": catalog,
            "out_dir": tmp_path / "out",
            key: bad,
        }
        cfg = write_config(tmp_path / "a.conf", [f"{k} = {v}" for k, v in settings.items()])
        caplog.clear()
        assert main([command, "--config", str(cfg)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert errors[0].startswith("input error: ") and str(bad) in errors[0]

    @pytest.mark.parametrize("command", ["run", "synth"])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_empty_out_dir_is_config_error(
        self, small_corpus, tmp_path, caplog, monkeypatch, command, where
    ):
        # Empty, out_dir would put the outputs in the working directory.
        settings = self.corpus_settings(small_corpus, tmp_path) | {
            "synth.n_routers": 24,
            "synth.n_cities": 12,
            "synth.n_paths": 50,
        }
        if where == "config":
            settings["out_dir"] = ""
        cfg = write_config(tmp_path / "a.conf", [f"{k} = {v}" for k, v in settings.items()])
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        flags = ["--out", ""] if where == "flag" else []
        self.assert_one_config_error([command, "--config", str(cfg), *flags], caplog)
        assert "out_dir" in caplog.records[-1].getMessage()
        assert list(work.iterdir()) == [] and not (tmp_path / "out").exists()

    def corpus_settings(self, small_corpus, tmp_path):
        root, catalog, synth_dir = small_corpus
        return {
            "traceroutes": synth_dir / "traceroutes.jsonl",
            "geo_snapshot": synth_dir / "snapshot.csv",
            "city_catalog": catalog,
            "out_dir": tmp_path / "out",
        }

    @pytest.mark.parametrize(
        "command, key",
        [
            ("run", "traceroutes"),
            ("run", "geo_snapshot"),
            ("run", "city_catalog"),
            ("synth", "city_catalog"),
        ],
    )
    def test_input_that_is_a_directory_is_input_error(
        self, small_corpus, tmp_path, caplog, command, key
    ):
        settings = self.corpus_settings(small_corpus, tmp_path) | {key: tmp_path}
        cfg = write_config(tmp_path / "a.conf", [f"{k} = {v}" for k, v in settings.items()])
        caplog.clear()
        assert main([command, "--config", str(cfg)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert errors[0].startswith("input error: ") and str(tmp_path) in errors[0]

    @pytest.mark.parametrize("command", ["run", "synth"])
    @pytest.mark.parametrize("in_the_way", ["out_dir", "parent"])
    def test_file_in_the_way_of_out_dir_is_config_error(
        self, small_corpus, tmp_path, caplog, monkeypatch, command, in_the_way
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out_dir = blocker if in_the_way == "out_dir" else blocker / "out"
        settings = self.corpus_settings(small_corpus, tmp_path) | {"out_dir": out_dir}
        cfg = write_config(tmp_path / "a.conf", [f"{k} = {v}" for k, v in settings.items()])

        def no_work(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("work started before out_dir was made")

        # The failure comes before refinement or generation.
        monkeypatch.setattr(traceloc.cli, "extract_pairs", no_work)
        monkeypatch.setattr("traceloc.synth.generate_world", no_work)
        self.assert_one_config_error([command, "--config", str(cfg)], caplog)
