"""Ingestion: Atlas parsing vs an independent reference, normalization,
the native format round-trip, snapshots, and the fetch client."""
from __future__ import annotations

import ipaddress
import json
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from traceloc.diagnostics import Diagnostics
from traceloc.ingest import (
    CleanPath,
    ConfigError,
    FetchError,
    GeoRecord,
    GeoSource,
    RawHop,
    RawTraceroute,
    clean_paths,
    dump_native,
    fetch_geo,
    ip_key,
    is_bogon,
    load_fetch_config,
    load_geo_snapshot,
    load_native,
    normalize,
    parse_atlas,
    serialize_native,
    write_geo_snapshot,
)


def reference_parse(lines):
    """Minimal independent reading of the Atlas export: what a throwaway
    script would extract, used to cross-check parse_atlas."""
    out = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
            msm, prb, ts = doc["msm_id"], doc["prb_id"], doc["timestamp"]
            if not isinstance(ts, int) or ts <= 0 or not isinstance(doc.get("result", []), list):
                continue
        except (json.JSONDecodeError, KeyError, TypeError):
            continue
        hops = {}
        for entry in doc.get("result", []):
            if not isinstance(entry, dict):
                continue
            hop_no = entry.get("hop")
            if not isinstance(hop_no, int) or hop_no < 1:
                continue
            for reply in entry.get("result") or []:
                if not isinstance(reply, dict):
                    continue
                ip = reply.get("from")
                try:
                    ipaddress.IPv4Address(ip)
                except (ipaddress.AddressValueError, TypeError, ValueError):
                    ip = None
                rtt = reply.get("rtt")
                if not isinstance(rtt, (int, float)) or rtt < 0:
                    rtt = None
                hops.setdefault(hop_no, []).append((ip, float(rtt) if rtt is not None else None))
        out.append((str(msm), str(prb), ts, {k: hops[k] for k in sorted(hops)}))
    return out


class TestParseAtlas:
    def test_matches_reference_on_sample(self, data_dir):
        lines = (data_dir / "atlas_sample.jsonl").read_text().splitlines()
        parsed = parse_atlas(lines)
        expected = reference_parse(lines)
        assert len(parsed) == len(expected)
        for rt, (msm, prb, ts, hops) in zip(parsed, expected):
            assert (rt.measurement_id, rt.probe_id, rt.timestamp) == (msm, prb, ts)
            assert {h.hop_index: h.replies for h in rt.hops} == hops

    def test_malformed_lines_are_counted_not_fatal(self):
        diag = Diagnostics()
        lines = [
            "not json at all",
            '{"msm_id": 1, "prb_id": 2}',  # no timestamp
            '{"msm_id": 1, "prb_id": 2, "timestamp": -5, "result": []}',
            '{"msm_id": 1, "prb_id": 2, "timestamp": 100, "result": []}',
        ]
        parsed = parse_atlas(lines, diag)
        assert len(parsed) == 1
        assert diag.count("atlas_malformed") == 3

    def test_ipv6_responders_counted_as_no_response(self):
        doc = {
            "msm_id": 1,
            "prb_id": 2,
            "timestamp": 100,
            "result": [
                {"hop": 1, "result": [{"from": "198.51.100.1", "rtt": 1.0}]},
                {"hop": 2, "result": [{"from": "2001:db8::1", "rtt": 2.0},
                                      {"from": "2001:db8::1", "rtt": 2.1}]},
                {"hop": 3, "result": [{"from": "2001:db8::2", "rtt": 3.0},
                                      {"from": "198.51.100.3", "rtt": 3.1},
                                      {"from": "not-an-ip", "rtt": 3.2}]},
            ],
        }
        diag = Diagnostics()
        rt, _ = parse_atlas([json.dumps(doc), json.dumps(doc)], diag)
        assert rt.hops[1].replies == [(None, 2.0), (None, 2.1)]
        assert rt.hops[2].replies == [(None, 3.0), ("198.51.100.3", 3.1), (None, 3.2)]
        assert diag.count("atlas_ipv6") == 6  # three replies on each of two lines
        assert diag.count("atlas_malformed") == 0
        # A hop answered only over IPv6 normalizes like a timeout.
        (path,) = clean_paths([rt])
        assert [ip for ip, _ in path.hops] == ["198.51.100.1", "198.51.100.3"]

    @pytest.mark.parametrize("rtt", ["NaN", "Infinity", "-Infinity", "true", "false"])
    def test_non_finite_rtt_is_no_response(self, rtt):
        # json.loads reads these literals; a reply carrying one has no RTT.
        # Booleans are ints to isinstance but are not RTTs.
        line = (
            '{"msm_id": 1, "prb_id": 2, "timestamp": 100, "result": [{"hop": 1, "result": '
            f'[{{"from": "198.51.100.1", "rtt": {rtt}}}, {{"from": "198.51.100.1", "rtt": 2.0}}]}}]}}'
        )
        diag = Diagnostics()
        (rt,) = parse_atlas([line], diag)
        assert rt.hops[0].replies == [("198.51.100.1", None), ("198.51.100.1", 2.0)]
        assert diag.count("atlas_malformed") == 0

    def test_rtt_beyond_float_range_is_malformed(self):
        line = (
            '{"msm_id": 1, "prb_id": 2, "timestamp": 100, "result": [{"hop": 1, "result": '
            f'[{{"from": "198.51.100.1", "rtt": 1{"0" * 400}}}]}}]}}'
        )
        diag = Diagnostics()
        assert parse_atlas([line], diag) == []
        assert diag.count("atlas_malformed") == 1

    def test_duplicate_hop_numbers_merge_replies(self):
        doc = {
            "msm_id": 1,
            "prb_id": 2,
            "timestamp": 100,
            "result": [
                {"hop": 1, "result": [{"from": "198.51.100.1", "rtt": 1.0}]},
                {"hop": 1, "result": [{"from": "198.51.100.1", "rtt": 1.2}]},
            ],
        }
        (rt,) = parse_atlas([json.dumps(doc)])
        assert len(rt.hops) == 1
        assert rt.hops[0].replies == [("198.51.100.1", 1.0), ("198.51.100.1", 1.2)]


def raw(hops, msm="1", prb="2", ts=100):
    return RawTraceroute(
        measurement_id=msm,
        probe_id=prb,
        timestamp=ts,
        hops=[RawHop(hop_index=i + 1, replies=replies) for i, replies in enumerate(hops)],
    )


class TestNormalize:
    def test_sample_corpus_yields_eight_paths(self, data_dir):
        diag = Diagnostics()
        lines = (data_dir / "atlas_sample.jsonl").read_text().splitlines()
        paths = clean_paths(parse_atlas(lines, diag), diag=diag)
        assert len(paths) == 8
        assert diag.count("path_loop") == 1
        assert diag.count("path_short") == 1
        # Spot-check one normalized path end to end: majority responder per
        # hop, median RTT over the hop's non-null replies.
        first = paths[0]
        assert first.path_id == "5001-101-1700000000"
        assert first.hops == [
            ("185.10.16.1", 1.3),
            ("185.10.17.9", 4.9),
            ("62.40.98.12", 11.7),
            ("62.40.98.77", 18.2),
            ("194.68.13.5", 24.8),
        ]

    def test_majority_responder_first_seen_tie(self):
        rt = raw([
            [("198.51.100.1", 1.0), ("198.51.100.2", 1.5)],  # tie: first seen wins
            [("198.51.100.9", 5.0)],
        ])
        path = normalize(rt)
        assert path.hops[0][0] == "198.51.100.1"

    def test_median_rtt_ignores_null_slots(self):
        rt = raw([
            [("198.51.100.1", 4.0), ("198.51.100.1", None), ("198.51.100.1", 2.0)],
            [("198.51.100.9", 9.0)],
        ])
        path = normalize(rt)
        assert path.hops[0][1] == statistics.median([4.0, 2.0])

    def test_unresponsive_hops_dropped(self):
        rt = raw([
            [("198.51.100.1", 1.0)],
            [(None, None), (None, None)],
            [("198.51.100.9", 9.0)],
        ])
        path = normalize(rt)
        assert [ip for ip, _ in path.hops] == ["198.51.100.1", "198.51.100.9"]

    def test_bogon_hops_removed(self):
        rt = raw([
            [("10.0.0.1", 0.5)],
            [("198.51.100.1", 1.0)],
            [("198.51.100.9", 9.0)],
        ])
        path = normalize(rt)
        assert [ip for ip, _ in path.hops] == ["198.51.100.1", "198.51.100.9"]

    def test_consecutive_duplicates_collapse_keeping_first_rtt(self):
        rt = raw([
            [("198.51.100.1", 1.0)],
            [("198.51.100.1", 3.0)],
            [("198.51.100.9", 9.0)],
        ])
        path = normalize(rt)
        assert path.hops == [("198.51.100.1", 1.0), ("198.51.100.9", 9.0)]

    def test_forwarding_loop_rejects_path(self):
        diag = Diagnostics()
        rt = raw([
            [("198.51.100.1", 1.0)],
            [("198.51.100.5", 3.0)],
            [("198.51.100.1", 5.0)],
        ])
        assert normalize(rt, diag=diag) is None
        assert diag.count("path_loop") == 1

    def test_short_path_rejected(self):
        diag = Diagnostics()
        assert normalize(raw([[("198.51.100.1", 1.0)]]), diag=diag) is None
        assert diag.count("path_short") == 1

    def test_idempotent(self):
        rt = raw([
            [("198.51.100.1", 1.0), ("198.51.100.1", 1.4)],
            [("10.0.0.1", 2.0)],
            [("198.51.100.9", 9.0), (None, None)],
        ])
        once = normalize(rt)
        again = normalize(
            raw([[(ip, rtt)] for ip, rtt in once.hops], msm="1", prb="2", ts=100)
        )
        assert again.hops == once.hops

    def test_clean_paths_disambiguates_id_collisions(self):
        rts = [
            raw([[("198.51.100.1", 1.0)], [("198.51.100.9", 9.0)]]),
            raw([[("198.51.100.2", 1.0)], [("198.51.100.8", 9.0)]]),
        ]
        paths = clean_paths(rts)
        assert paths[0].path_id == "1-2-100"
        assert paths[1].path_id == "1-2-100-2"


octet = st.integers(min_value=1, max_value=254)
ips = st.builds(lambda a, b: f"198.51.{a}.{b}", octet, octet)
clean_path_strategy = st.builds(
    lambda pid, hops: CleanPath(path_id=pid, hops=hops, source_traceroute=pid),
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
    ),
    st.lists(
        st.tuples(ips, st.floats(min_value=0.0, max_value=500.0, allow_nan=False)),
        min_size=2,
        max_size=8,
        unique_by=lambda h: h[0],
    ),
)


class TestNativeFormat:
    @given(clean_path_strategy)
    def test_round_trip(self, path):
        (loaded,) = load_native([serialize_native(path)])
        assert loaded == path

    def test_rejects_bad_records(self):
        diag = Diagnostics()
        lines = [
            "garbage",
            json.dumps({"path_id": "p", "hops": [{"ip": "198.51.100.1", "rtt": 1.0}]}),  # short
            json.dumps({"path_id": "p", "hops": [
                {"ip": "198.51.100.1", "rtt": 1.0}, {"ip": "not-an-ip", "rtt": 2.0}]}),
            json.dumps({"path_id": "p", "hops": [
                {"ip": "198.51.100.1", "rtt": 1.0}, {"ip": "198.51.100.1", "rtt": 2.0}]}),
            json.dumps({"path_id": "p", "hops": [
                {"ip": "198.51.100.1", "rtt": -1.0}, {"ip": "198.51.100.2", "rtt": 2.0}]}),
            json.dumps({"path_id": 7, "hops": [
                {"ip": "198.51.100.1", "rtt": 1.0}, {"ip": "198.51.100.2", "rtt": 2.0}]}),
            # An address must be a dotted-quad string, not its integer value.
            json.dumps({"path_id": "p", "hops": [
                {"ip": 3325256705, "rtt": 1.0}, {"ip": "198.51.100.2", "rtt": 2.0}]}),
            json.dumps({"path_id": "p", "hops": [
                {"ip": "2001:db8::1", "rtt": 1.0}, {"ip": "198.51.100.2", "rtt": 2.0}]}),
        ]
        assert load_native(lines, diag) == []
        assert diag.count("native_malformed") == 8

    @pytest.mark.parametrize(
        "rtt",
        ["NaN", "Infinity", "-Infinity", "1" + "0" * 400, "true", "false", '"7"'],
        ids=["NaN", "Infinity", "-Infinity", "huge-int", "true", "false", "string"],
    )
    def test_rejects_non_finite_rtt(self, rtt):
        # json.loads reads NaN and the infinities; a 400-digit integer has
        # no float value; booleans and numeric strings are not numbers.
        line = (
            '{"path_id": "p", "hops": [{"ip": "198.51.100.1", "rtt": 1.0}, '
            f'{{"ip": "198.51.100.2", "rtt": {rtt}}}]}}'
        )
        diag = Diagnostics()
        assert load_native([line], diag) == []
        assert diag.count("native_malformed") == 1

    def test_dump_then_load(self, tmp_path):
        paths = [
            CleanPath("a", [("198.51.100.1", 1.0), ("198.51.100.2", 2.0)], "a"),
            CleanPath("b", [("198.51.100.3", 1.5), ("198.51.100.4", 2.5)], "b"),
        ]
        f = tmp_path / "paths.jsonl"
        with f.open("w") as fh:
            dump_native(paths, fh)
        assert load_native(f.read_text().splitlines()) == paths


class TestBogonsAndKeys:
    @pytest.mark.parametrize(
        "ip,expected",
        [
            ("10.1.2.3", True),
            ("172.16.0.1", True),
            ("172.32.0.1", False),
            ("192.168.1.1", True),
            ("100.64.0.1", True),
            ("127.0.0.1", True),
            ("8.8.8.8", False),
            ("203.0.113.5", False),  # documentation space deliberately allowed
            ("224.0.0.1", True),
            ("255.255.255.255", True),
        ],
    )
    def test_is_bogon(self, ip, expected):
        assert is_bogon(ip) is expected

    def test_ip_key_sorts_numerically(self):
        ips_in = ["198.51.100.10", "198.51.100.2", "9.0.0.1"]
        assert sorted(ips_in, key=ip_key) == ["9.0.0.1", "198.51.100.2", "198.51.100.10"]


class TestGeoSnapshot:
    def test_round_trip_and_determinism(self, tmp_path):
        by_ip = {
            "198.51.100.2": [
                GeoRecord("198.51.100.2", "db1", 48.85, 2.35, "Paris", "FR"),
                GeoRecord("198.51.100.2", "db2", 48.86, 2.36, "Paris", "FR"),
            ],
            "198.51.100.1": [GeoRecord("198.51.100.1", "db1", 52.52, 13.40, "Berlin", "DE")],
        }
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_geo_snapshot(by_ip, f1)
        write_geo_snapshot(by_ip, f2)
        assert f1.read_bytes() == f2.read_bytes()
        loaded = load_geo_snapshot(f1)
        assert loaded == by_ip

    def test_validation_skips_and_warns(self, tmp_path):
        f = tmp_path / "snap.csv"
        f.write_text(
            "ip,source,lat,lon,city,country\n"
            "not-an-ip,db1,48.85,2.35,Paris,FR\n"
            "198.51.100.1,db1,999,2.35,Paris,FR\n"
            "198.51.100.1,db1,abc,2.35,Paris,FR\n"
            "198.51.100.1,db1,48.85,2.35,Paris,fr\n"
            "198.51.100.1,db1,48.00,2.00,Paris,FR\n"  # duplicate (ip, source)
        )
        diag = Diagnostics()
        loaded = load_geo_snapshot(f, diag)
        assert len(loaded["198.51.100.1"]) == 1
        assert loaded["198.51.100.1"][0].country == "FR"  # upper-cased
        assert diag.count("snapshot_malformed") == 2
        assert diag.count("snapshot_range") == 1
        assert diag.count("snapshot_duplicate") == 1

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_geo_snapshot(tmp_path / "nope.csv")

    def test_missing_columns_fatal(self, tmp_path):
        f = tmp_path / "snap.csv"
        f.write_text("ip,lat,lon\n")
        with pytest.raises(ValueError, match="missing columns"):
            load_geo_snapshot(f)


class FakeClock:
    """Deterministic monotonic clock; sleeping advances it exactly."""

    def __init__(self):
        self.now = 0.0
        self.slept: list[float] = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


class TestFetchGeo:
    def _source(self, rate=10.0):
        return {"prov": GeoSource(name="prov", url="https://x.test/{ip}", rate_per_s=rate)}

    def test_fetch_writes_snapshot_and_caches(self, tmp_path):
        clock = FakeClock()
        calls = []

        def http_get(url):
            calls.append(url)
            ip = url.rsplit("/", 1)[1]
            return {"lat": 10.0, "lon": 20.0, "city": "Testville", "country": "fr"}

        out = fetch_geo(
            ["198.51.100.1", "198.51.100.2"],
            self._source(),
            tmp_path / "cache",
            tmp_path / "snap.csv",
            http_get=http_get,
            sleep=clock.sleep,
            monotonic=clock.monotonic,
        )
        assert len(calls) == 2
        loaded = load_geo_snapshot(out)
        assert set(loaded) == {"198.51.100.1", "198.51.100.2"}
        assert loaded["198.51.100.1"][0].country == "FR"

        # Second run: answered entirely from cache, no network, no sleeping.
        calls.clear()
        clock2 = FakeClock()
        fetch_geo(
            ["198.51.100.1", "198.51.100.2"],
            self._source(),
            tmp_path / "cache",
            tmp_path / "snap2.csv",
            http_get=http_get,
            sleep=clock2.sleep,
            monotonic=clock2.monotonic,
        )
        assert calls == []
        assert clock2.slept == []

    def test_rate_limit_spacing(self, tmp_path):
        clock = FakeClock()
        fetch_geo(
            [f"198.51.100.{i}" for i in range(1, 6)],
            self._source(rate=2.0),
            tmp_path / "cache",
            tmp_path / "snap.csv",
            http_get=lambda url: {"lat": 1.0, "lon": 2.0},
            sleep=clock.sleep,
            monotonic=clock.monotonic,
        )
        # 5 requests at 2/s, spaced including before the first: >= 2.5 s.
        assert clock.now >= 2.5

    def test_partial_failure_warns_but_continues(self, tmp_path):
        diag = Diagnostics()

        def flaky(url):
            if url.endswith(".1"):
                raise RuntimeError("boom")
            return {"lat": 1.0, "lon": 2.0}

        clock = FakeClock()
        out = fetch_geo(
            ["198.51.100.1", "198.51.100.2"],
            self._source(),
            tmp_path / "cache",
            tmp_path / "snap.csv",
            http_get=flaky,
            sleep=clock.sleep,
            monotonic=clock.monotonic,
            diag=diag,
        )
        loaded = load_geo_snapshot(out)
        assert list(loaded) == ["198.51.100.2"]
        assert diag.count("fetch_failed") == 1

    def test_all_sources_unreachable_raises(self, tmp_path):
        def dead(url):
            raise RuntimeError("down")

        clock = FakeClock()
        with pytest.raises(FetchError):
            fetch_geo(
                ["198.51.100.1"],
                self._source(),
                tmp_path / "cache",
                tmp_path / "snap.csv",
                http_get=dead,
                sleep=clock.sleep,
                monotonic=clock.monotonic,
            )

    def test_corrupt_cache_refetches(self, tmp_path):
        cache = tmp_path / "cache" / "prov"
        cache.mkdir(parents=True)
        (cache / "198.51.100.1.json").write_text("{broken")
        calls = []
        clock = FakeClock()
        fetch_geo(
            ["198.51.100.1"],
            self._source(),
            tmp_path / "cache",
            tmp_path / "snap.csv",
            http_get=lambda url: (calls.append(url), {"lat": 1.0, "lon": 2.0})[1],
            sleep=clock.sleep,
            monotonic=clock.monotonic,
        )
        assert len(calls) == 1


class TestFetchConfig:
    def test_groups_source_keys(self):
        sources = load_fetch_config(
            {
                "source.alpha.url": "https://a.test/{ip}",
                "source.alpha.rate_per_s": "4",
                "source.beta.url": "https://b.test/{ip}",
                "source.beta.key": "s3cret",
                "unrelated": "x",
            }
        )
        assert sorted(sources) == ["alpha", "beta"]
        assert sources["alpha"].rate_per_s == 4.0
        assert sources["beta"].key == "s3cret"

    def test_missing_url_fatal(self):
        with pytest.raises(ConfigError, match="missing url"):
            load_fetch_config({"source.alpha.rate_per_s": "4"})

    def test_bad_rate_fatal(self):
        with pytest.raises(ConfigError, match="rate_per_s"):
            load_fetch_config({"source.a.url": "u", "source.a.rate_per_s": "fast"})
        with pytest.raises(ConfigError, match="positive"):
            load_fetch_config({"source.a.url": "u", "source.a.rate_per_s": "0"})

    def test_unknown_field_fatal(self):
        with pytest.raises(ConfigError, match="unknown config key: source.a.rate"):
            load_fetch_config({"source.a.url": "u", "source.a.rate": "4"})
        with pytest.raises(ConfigError, match="unknown config key: source.a$"):
            load_fetch_config({"source.a.url": "u", "source.a": "4"})
