"""Command-line behaviour: config parsing, exit codes, and the
synth → run → score round trip on a small world."""
from __future__ import annotations

import argparse
import ipaddress
import json

import pytest

import traceloc.ingest
from traceloc.cli import (
    ConfigError,
    SynthSettings,
    build_config,
    load_config,
    main,
    parse_config_file,
)
from tests.conftest import write_plane_catalog

VALID_STATUSES = {"active", "anomalous"}
VALID_VERDICTS = {None, "interface_affected", "mpls_affected", "false_positive"}


def write_config(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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
                "threads": "4",
                "merge_radius_km": "25.5",
                "refine.max_iterations": "7",
                "resolve.match_radius_km": "50",
                "synth.n_routers": "30",
                "source.a.url": "https://x/{ip}",
            }
        )
        assert cfg.merge_radius_km == 25.5
        assert cfg.refine.max_iterations == 7
        assert cfg.resolve.match_radius_km == 50.0
        assert cfg.synth.n_routers == 30
        assert cfg.sources == {"source.a.url": "https://x/{ip}"}

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
            {"resolve.tie_merge_max_km": "10"},  # below tie_merge_km
        ],
    )
    def test_rejects(self, entries):
        with pytest.raises(ConfigError):
            build_config(entries)

    def test_cli_overrides(self, tmp_path):
        cfg_file = write_config(
            tmp_path / "a.conf", ["out_dir = from_config", "threads = 1", "seed = 5"]
        )
        args = argparse.Namespace(out="from_flag", threads=3, seed=0)
        cfg = load_config(cfg_file, args)
        assert cfg.out_dir == "from_flag"
        assert cfg.seed == 0  # seed 0 is a real override, not "unset"

    def test_threads_flag_zero_is_rejected(self, tmp_path):
        cfg_file = write_config(tmp_path / "a.conf", ["threads = 2"])
        args = argparse.Namespace(out=None, threads=0, seed=None)
        with pytest.raises(ConfigError, match="threads"):
            load_config(cfg_file, args)


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

    def test_threads_do_not_change_results(self, small_corpus, tmp_path, caplog):
        root, catalog, synth_dir = small_corpus
        plain = tmp_path / "plain"
        assert main(["run", "--config", str(run_config(root, catalog, synth_dir, plain))]) == 0
        for out_dir, extra, flags in (
            (tmp_path / "key", ["threads = 4"], []),
            (tmp_path / "flag", [], ["--threads", "4"]),
        ):
            caplog.clear()
            cfg = run_config(root, catalog, synth_dir, out_dir, extra)
            assert main(["run", "--config", str(cfg), *flags]) == 0
            deprecations = [
                r for r in caplog.records
                if r.getMessage() == "config key threads is deprecated and ignored"
            ]
            assert len(deprecations) == 1
            names = sorted(p.name for p in plain.iterdir())
            assert sorted(p.name for p in out_dir.iterdir()) == names
            for name in names:
                assert (out_dir / name).read_bytes() == (plain / name).read_bytes(), name

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

    def test_threads_zero_exits_2(self, small_corpus, tmp_path):
        root, catalog, synth_dir = small_corpus
        cfg = run_config(root, catalog, synth_dir, tmp_path / "t0")
        assert main(["run", "--config", str(cfg), "--threads", "0"]) == 2
        cfg = run_config(root, catalog, synth_dir, tmp_path / "k0", ["threads = 0"])
        assert main(["run", "--config", str(cfg)]) == 2


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

    def test_results_must_match_world(self, small_corpus, tmp_path):
        _, _, synth_dir = small_corpus
        bogus = tmp_path / "bogus"
        bogus.mkdir()
        (bogus / "ips.jsonl").write_text(
            json.dumps(
                {"ip": "9.9.9.9", "status": "active", "verdict": None,
                 "clusters": [], "resolved": None, "anchors": 0}
            )
            + "\n"
        )
        assert main(["score", str(bogus), str(synth_dir / "world.json")]) == 1

    def test_missing_results(self, small_corpus, tmp_path):
        _, _, synth_dir = small_corpus
        assert main(["score", str(tmp_path / "void"), str(synth_dir / "world.json")]) == 1


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.conf")]) == 2

    def test_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path / "a.conf", ["bogus_key = 1"])
        assert main(["run", "--config", str(cfg)]) == 2

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
        ],
        ids=["catalog-without-lon", "catalog-bad-lat", "snapshot-without-country", "synth-bad-lat"],
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


class TestFetchGeo:
    def test_fetch_uses_config_sources_and_cache(self, tmp_path, monkeypatch):
        calls = []

        def fake_get(url):
            calls.append(url)
            ip = url.rsplit("/", 1)[-1]
            last = int(ip.split(".")[-1])
            return {"lat": 10.0 + last, "lon": 20.0, "city": "x", "country": "fr"}

        monkeypatch.setattr(traceloc.ingest, "_default_http_get", fake_get)
        ips_file = tmp_path / "ips.txt"
        ips_file.write_text("203.0.113.7\n203.0.113.9\n")
        cache = tmp_path / "cache"
        out_dir = tmp_path / "out"
        cfg = write_config(
            tmp_path / "fetch.conf",
            [
                f"fetch_ips_file = {ips_file}",
                f"fetch_cache_dir = {cache}",
                f"out_dir = {out_dir}",
                "source.geoa.url = https://geoa.example/{ip}",
                "source.geoa.rate_per_s = 100",
            ],
        )
        assert main(["fetch-geo", "--config", str(cfg)]) == 0
        assert len(calls) == 2
        assert "https://geoa.example/203.0.113.7" in calls
        snapshot = (out_dir / "snapshot.csv").read_text().splitlines()
        assert snapshot[0] == "ip,source,lat,lon,city,country"
        assert len(snapshot) == 3
        assert "FR" in snapshot[1]

        # Second invocation: everything is cached, no network at all.
        def exploding_get(url):  # pragma: no cover - must never run
            raise AssertionError("network hit despite warm cache")

        monkeypatch.setattr(traceloc.ingest, "_default_http_get", exploding_get)
        assert main(["fetch-geo", "--config", str(cfg)]) == 0

    def test_fetch_requires_sources(self, tmp_path):
        ips_file = tmp_path / "ips.txt"
        ips_file.write_text("203.0.113.7\n")
        cfg = write_config(tmp_path / "f.conf", [f"fetch_ips_file = {ips_file}"])
        assert main(["fetch-geo", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "bad_line", ["source.geoa.rate_per_s = abc", "source.geoa.rate = 100"]
    )
    def test_bad_source_field_exits_2(self, tmp_path, bad_line):
        ips_file = tmp_path / "ips.txt"
        ips_file.write_text("203.0.113.7\n")
        cfg = write_config(
            tmp_path / "f.conf",
            [
                f"fetch_ips_file = {ips_file}",
                f"out_dir = {tmp_path / 'out'}",
                "source.geoa.url = https://geoa.example/{ip}",
                bad_line,
            ],
        )
        assert main(["fetch-geo", "--config", str(cfg)]) == 2

    def test_fetch_all_sources_down(self, tmp_path, monkeypatch):
        def down(url):
            raise OSError("connection refused")

        monkeypatch.setattr(traceloc.ingest, "_default_http_get", down)
        ips_file = tmp_path / "ips.txt"
        ips_file.write_text("203.0.113.7\n")
        cfg = write_config(
            tmp_path / "f.conf",
            [
                f"fetch_ips_file = {ips_file}",
                f"fetch_cache_dir = {tmp_path / 'cache'}",
                f"out_dir = {tmp_path / 'out'}",
                "source.geoa.url = https://geoa.example/{ip}",
                "source.geoa.rate_per_s = 100",
            ],
        )
        assert main(["fetch-geo", "--config", str(cfg)]) == 1
