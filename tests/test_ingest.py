"""Ingestion: Atlas parsing and its per-hop vote vs an independent
reference, normalization, the streaming Atlas reader vs the two-pass
pipeline it replaced, the native reader vs the three-pass reader it
replaced, the native format round-trip, reader fuzzing, and snapshots."""
from __future__ import annotations

import csv
import io
import ipaddress
import json
import logging
import math
import re
import statistics
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceloc import ingest
from traceloc.diagnostics import Diagnostics
from traceloc.ingest import (
    CleanPath,
    GeoRecord,
    RawTraceroute,
    clean_paths,
    dump_native,
    ip_key,
    is_bogon,
    load_atlas,
    load_geo_snapshot,
    load_native,
    median,
    normalize,
    parse_atlas,
    serialize_native,
    sniff_format,
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


def reference_load_atlas(lines, diag):
    """Atlas reading in two passes over the whole export, as ``run`` did
    before ``load_atlas``: parse every line into a ``RawTraceroute``, then
    normalise them all and suffix colliding path ids.  Kept as written,
    ``statistics.median`` included, to pin the streaming reader to its old
    results."""

    def parse(doc):
        if not isinstance(doc, dict):
            raise ValueError("record is not an object")
        msm, prb, ts = doc["msm_id"], doc["prb_id"], doc["timestamp"]
        if not isinstance(ts, int) or ts <= 0:
            raise ValueError("timestamp must be a positive integer")
        hops_raw = doc.get("result", [])
        if not isinstance(hops_raw, list):
            raise ValueError("result must be a list")
        by_index, ipv6 = {}, 0
        for entry in hops_raw:
            if not isinstance(entry, dict) or "hop" not in entry:
                continue
            hop_no = entry["hop"]
            if not isinstance(hop_no, int) or hop_no < 1:
                continue
            replies = by_index.setdefault(hop_no, [])
            for reply in entry.get("result", []) or []:
                if not isinstance(reply, dict):
                    continue
                responder = reply.get("from")
                try:
                    v = ipaddress.ip_address(responder).version if isinstance(responder, str) else 0
                except ValueError:
                    v = 0
                if v != 4:
                    ipv6 += v == 6
                    responder = None
                rtt = reply.get("rtt")
                if type(rtt) not in (int, float) or not 0 <= rtt < float("inf"):
                    rtt = None
                replies.append((responder, float(rtt) if rtt is not None else None))
        hops = [by_index[k] for k in sorted(by_index)]
        return RawTraceroute(str(msm), str(prb), ts, hops), ipv6

    def normalise(rt):
        hops = []
        for replies in rt.hops:
            responders = [ip for ip, _ in replies if ip is not None]
            rtts = [rtt for _, rtt in replies if rtt is not None]
            if not responders or not rtts:
                continue
            counts = {}
            for ip in responders:
                counts[ip] = counts.get(ip, 0) + 1
            best = max(counts.values())
            ip = next(r for r in responders if counts[r] == best)
            if is_bogon(ip):
                continue
            hops.append((ip, float(statistics.median(rtts))))
        collapsed = []
        for ip, rtt in hops:
            if not collapsed or collapsed[-1][0] != ip:
                collapsed.append((ip, rtt))
        ident = f"{rt.measurement_id}-{rt.probe_id}-{rt.timestamp}"
        seen = set()
        for ip, _ in collapsed:
            if ip in seen:
                diag.warn("path_loop", f"{ident}: ip {ip} repeats non-consecutively")
                return None
            seen.add(ip)
        if len(collapsed) < 2:
            diag.warn("path_short", f"{ident}: fewer than 2 hops survive")
            return None
        return CleanPath(path_id=ident, hops=collapsed, source_traceroute=ident)

    raws = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            diag.warn("atlas_malformed", f"line {lineno}: not valid JSON")
            continue
        try:
            rt, ipv6 = parse(doc)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            diag.warn("atlas_malformed", f"line {lineno}: {exc}")
            continue
        if ipv6:
            diag.warn("atlas_ipv6", f"line {lineno}: {ipv6} IPv6 replies kept as no response", ipv6)
        raws.append(rt)
    out, seen = [], {}
    for rt in raws:
        path = normalise(rt)
        if path is None:
            continue
        n = seen[path.path_id] = seen.get(path.path_id, 0) + 1
        if n > 1:
            path.path_id = f"{path.path_id}-{n}"
        out.append(path)
    return out


def reference_vote(replies):
    """A hop's (responder, rtt) replies as its one ``(ip, median rtt)``
    answer, or None when no reply names an IPv4 responder or none has an RTT:
    the most-named responder, the first seen of a tie, and the median over
    every non-null RTT."""
    responders = [ip for ip, _ in replies if ip is not None]
    rtts = [rtt for _, rtt in replies if rtt is not None]
    if not responders or not rtts:
        return None
    best = max(map(responders.count, responders))
    ip = next(r for r in responders if responders.count(r) == best)
    return ip, float(statistics.median(rtts))


def atlas_line(hops, msm=1, prb=2, ts=100):
    """One export line whose hop i+1 carries ``hops[i]``'s (from, rtt) replies."""
    return json.dumps({
        "msm_id": msm,
        "prb_id": prb,
        "timestamp": ts,
        "result": [
            {"hop": i + 1, "result": [{"from": ip, "rtt": rtt} for ip, rtt in replies]}
            for i, replies in enumerate(hops)
        ],
    })


class TestParseAtlas:
    def test_matches_reference_on_sample(self, data_dir):
        lines = (data_dir / "atlas_sample.jsonl").read_text().splitlines()
        parsed = parse_atlas(lines)
        expected = reference_parse(lines)
        assert len(parsed) == len(expected)
        for rt, (msm, prb, ts, hops) in zip(parsed, expected):
            assert (rt.measurement_id, rt.probe_id, rt.timestamp) == (msm, prb, ts)
            voted = [reference_vote(replies) for replies in hops.values()]  # ascending hop order
            assert rt.hops == [hop for hop in voted if hop is not None]

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
        # Hop 2, answered only over IPv6, is dropped like a timeout; hop 3's
        # median runs over all three RTTs.
        assert rt.hops == [("198.51.100.1", 1.0), ("198.51.100.3", 3.1)]
        assert diag.count("atlas_ipv6") == 6  # three replies on each of two lines
        assert diag.count("atlas_malformed") == 0
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
        assert rt.hops == [("198.51.100.1", 2.0)]  # the median of the one valid RTT
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
        assert rt.hops == [("198.51.100.1", (1.0 + 1.2) / 2)]  # one hop, both RTTs

    def test_bool_timestamp_is_malformed(self):
        # true is an int to isinstance, and would make path id 1-2-True.
        diag = Diagnostics()
        assert parse_atlas(['{"msm_id": 1, "prb_id": 2, "timestamp": true, "result": []}'], diag) == []
        assert diag.count("atlas_malformed") == 1

    def test_bool_hop_number_is_skipped(self):
        # true == 1 as a dict key, so it would merge into hop 1; it is
        # skipped like the hop number "2".
        doc = {
            "msm_id": 1,
            "prb_id": 2,
            "timestamp": 100,
            "result": [
                {"hop": 1, "result": [{"from": "198.51.100.1", "rtt": 1.0}]},
                {"hop": True, "result": [{"from": "198.51.100.9", "rtt": 9.0}]},
            ],
        }
        diag = Diagnostics()
        (rt,) = parse_atlas([json.dumps(doc)], diag)
        assert rt.hops == [("198.51.100.1", 1.0)]
        assert diag.total() == 0

    def test_majority_responder_first_seen_tie(self):
        (rt,) = parse_atlas([atlas_line([
            [("198.51.100.1", 1.0), ("198.51.100.2", 1.5)],  # tie: first seen wins
            [("198.51.100.9", 5.0)],
        ])])
        assert rt.hops[0][0] == "198.51.100.1"

    def test_majority_responder_beats_first_seen(self):
        # Every reply has an RTT but the first responder is outvoted; the
        # median still runs over every reply's RTT.
        (rt,) = parse_atlas([atlas_line([
            [("198.51.100.2", 1.0), ("198.51.100.1", 3.0), ("198.51.100.1", 2.0)],
            [("198.51.100.9", 5.0)],
        ])])
        assert rt.hops[0] == ("198.51.100.1", 2.0)

    def test_median_rtt_ignores_null_slots(self):
        (rt,) = parse_atlas([atlas_line([
            [("198.51.100.1", 4.0), ("198.51.100.1", None), ("198.51.100.1", 2.0)],
            [("198.51.100.9", 9.0)],
        ])])
        assert rt.hops[0][1] == statistics.median([4.0, 2.0])

    def test_ipv6_reply_rtt_counts_toward_the_median(self):
        (rt,) = parse_atlas([atlas_line([
            [("2001:db8::1", 1.0), ("2001:db8::1", 2.0), ("198.51.100.1", 9.0)],
            [("198.51.100.9", 5.0)],
        ])])
        assert rt.hops[0] == ("198.51.100.1", 2.0)  # the median of 1.0, 2.0 and 9.0

    def test_tie_across_repeated_hop_number_goes_to_first_seen(self):
        # Hop 1's two entries merge into one 1-1 tie: the responder of the
        # earlier entry wins, though it sorts after the other.
        doc = {
            "msm_id": 1,
            "prb_id": 2,
            "timestamp": 100,
            "result": [
                {"hop": 1, "result": [{"from": "198.51.100.2", "rtt": 1.0}]},
                {"hop": 2, "result": [{"from": "198.51.100.9", "rtt": 5.0}]},
                {"hop": 1, "result": [{"from": "198.51.100.1", "rtt": 3.0}]},
            ],
        }
        (rt,) = parse_atlas([json.dumps(doc)])
        assert rt.hops == [("198.51.100.2", 2.0), ("198.51.100.9", 5.0)]

    def test_hop_without_responder_or_without_rtt_is_dropped(self):
        (rt,) = parse_atlas([atlas_line([
            [("198.51.100.1", 1.0)],
            [("198.51.100.2", None), ("198.51.100.2", "7")],  # responders, no valid RTT
            [(None, 3.0), ("2001:db8::1", 4.0), ("not-an-ip", 5.0)],  # RTTs, no IPv4 responder
            [("198.51.100.9", 9.0)],
        ])])
        assert rt.hops == [("198.51.100.1", 1.0), ("198.51.100.9", 9.0)]


def raw(hops, msm="1", prb="2", ts=100):
    """A raw traceroute whose hops are the given ``(ip, rtt)`` answers, one
    per hop number, as :func:`parse_atlas` leaves them."""
    return RawTraceroute(measurement_id=msm, probe_id=prb, timestamp=ts, hops=hops)


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

    def test_median_helper(self):
        # Odd, even (unsorted), and one-value input; always a float, and the
        # input list is left as it was.
        for values, want in (([3.0, 1.0, 2.0], 2.0), ([5.0, 1.0, 3.0, 2.0], 2.5), ([7], 7.0)):
            given = list(values)
            got = median(given)
            assert got == want and type(got) is float
            assert given == values

    def test_unresponsive_hops_dropped(self):
        # parse_atlas leaves an unresponsive hop out of the raw traceroute.
        (rt,) = parse_atlas([atlas_line([
            [("198.51.100.1", 1.0)],
            [(None, None), (None, None)],
            [("198.51.100.9", 9.0)],
        ])])
        path = normalize(rt)
        assert [ip for ip, _ in path.hops] == ["198.51.100.1", "198.51.100.9"]

    def test_bogon_hops_removed(self):
        rt = raw([("10.0.0.1", 0.5), ("198.51.100.1", 1.0), ("198.51.100.9", 9.0)])
        path = normalize(rt)
        assert [ip for ip, _ in path.hops] == ["198.51.100.1", "198.51.100.9"]

    def test_consecutive_duplicates_collapse_keeping_first_rtt(self):
        rt = raw([("198.51.100.1", 1.0), ("198.51.100.1", 3.0), ("198.51.100.9", 9.0)])
        path = normalize(rt)
        assert path.hops == [("198.51.100.1", 1.0), ("198.51.100.9", 9.0)]

    def test_forwarding_loop_rejects_path(self):
        diag = Diagnostics()
        rt = raw([("198.51.100.1", 1.0), ("198.51.100.5", 3.0), ("198.51.100.1", 5.0)])
        assert normalize(rt, diag=diag) is None
        assert diag.count("path_loop") == 1

    def test_short_path_rejected(self):
        diag = Diagnostics()
        assert normalize(raw([("198.51.100.1", 1.0)]), diag=diag) is None
        assert diag.count("path_short") == 1

    def test_idempotent(self):
        rt = raw([("198.51.100.1", 1.2), ("10.0.0.1", 2.0), ("198.51.100.9", 9.0)])
        once = normalize(rt)
        again = normalize(raw(list(once.hops), msm="1", prb="2", ts=100))
        assert again.hops == once.hops

    def test_clean_paths_disambiguates_id_collisions(self):
        rts = [
            raw([("198.51.100.1", 1.0), ("198.51.100.9", 9.0)]),
            raw([("198.51.100.2", 1.0), ("198.51.100.8", 9.0)]),
        ]
        paths = clean_paths(rts)
        assert paths[0].path_id == "1-2-100"
        assert paths[1].path_id == "1-2-100-2"


class LineIterator:
    """Lines from an iterator object with no ``read`` or ``readlines``;
    ``pulled`` counts the lines taken so far."""

    def __init__(self, lines):
        self._lines = iter(lines)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self._lines)
        self.pulled += 1
        return line


class RecordingDiagnostics(Diagnostics):
    """Diagnostics that also keep every warning's (name, message, n)."""

    def __init__(self):
        super().__init__()
        self.warnings = []

    def warn(self, name, message, n=1):
        super().warn(name, message, n)
        self.warnings.append((name, message, n))


# Generated exports.  The draws are weighted towards valid values (a reply
# from the hop's own address with a plain RTT), so most records keep a
# path.  Half the hops are uniform: one to five replies from the hop's own
# address, each with a valid RTT, the hops parse_atlas takes without a
# vote.  The rest give every case the reader handles: repeated and bad hop
# numbers, responders seen on other hops (loops), bogons, IPv6 and invalid
# ``from``, null/bool/NaN/negative/string RTTs, short paths, and ids
# drawn from a small pool, so they collide.
BAD_RTTS = [None, True, False, float("nan"), float("inf"), -1.0, "7"]


valid_rtts = st.floats(min_value=0.0, max_value=50.0) | st.integers(0, 50)


@st.composite
def rtts(draw):
    """A plain RTT five times in six, else one that is no RTT."""
    if draw(st.integers(min_value=0, max_value=5)) < 5:
        return draw(valid_rtts)
    return draw(st.sampled_from(BAD_RTTS))


OTHER_FROM = ["10.0.0.1", "192.168.4.4", "2001:db8::1", "not-an-ip", "", 3325256705, None]


@st.composite
def atlas_records(draw):
    """One export record as a dict, before it is dumped as a line."""
    result = []
    hop = 0
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        hop += draw(st.sampled_from([1, 0, 2]))  # 0 repeats a hop number
        if draw(st.booleans()):  # uniform: the hop's own address, every RTT valid
            n = draw(st.integers(min_value=1, max_value=5))
            replies = [{"from": f"198.51.100.{hop}", "rtt": draw(valid_rtts)} for _ in range(n)]
            result.append({"hop": hop, "result": replies})
            continue
        replies = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            kind = draw(st.sampled_from(["own", "own", "seen", "other", "timeout"]))
            if kind == "timeout":
                replies.append({"x": "*"})
                continue
            ip = {
                "own": f"198.51.100.{hop}",
                "seen": f"198.51.100.{draw(st.integers(min_value=1, max_value=max(hop, 1)))}",
                "other": draw(st.sampled_from(OTHER_FROM)),
            }[kind]
            replies.append({"from": ip, "rtt": draw(rtts())})
        result.append({"hop": hop, "result": replies})
    if draw(st.booleans()):  # back to the first hop's address: a loop
        result.append({"hop": hop + 1, "result": [{"from": "198.51.100.1", "rtt": 9.0}]})
    result += draw(st.lists(st.sampled_from([
        {"hop": 0, "result": [{"from": "198.51.100.9", "rtt": 1.0}]},
        {"hop": "2", "result": []},
        {"hop": 3, "result": None},
        {"error": "no hop"},
        "junk",
    ]), max_size=2))
    return {
        "msm_id": draw(st.sampled_from([1, 2])),
        "prb_id": draw(st.sampled_from([7, "p"])),
        "timestamp": draw(st.sampled_from([100] * 4 + [101] * 4 + [-1, 1.5])),
        "result": result,
    }


@st.composite
def atlas_lines(draw):
    """A whole record six times in eight, else a cut-off one or junk."""
    roll = draw(st.integers(min_value=0, max_value=7))
    if roll < 7:
        line = json.dumps(draw(atlas_records()))
        return line if roll < 6 else line[:-3]
    return draw(st.sampled_from(["", "   ", "not json", '{"msm_id": 1, "timestamp": 100}', "[1]"]))


atlas_exports = st.lists(atlas_lines(), max_size=12)

# Hypothesis settings for the generated-input tests: a fixed example
# sequence and few enough examples to keep the suite fast.
GENERATED = settings(derandomize=True, max_examples=60, deadline=None)


def assert_matches_reference(lines):
    """``load_atlas`` gives the reference's paths and the same warnings,
    whose order alone may differ."""
    diag, ref_diag = RecordingDiagnostics(), RecordingDiagnostics()
    paths = load_atlas(lines, diag)
    expected = reference_load_atlas(lines, ref_diag)
    assert [(p.path_id, p.hops, p.source_traceroute) for p in paths] == [
        (p.path_id, p.hops, p.source_traceroute) for p in expected
    ]
    assert diag.counters == ref_diag.counters
    assert sorted(diag.warnings) == sorted(ref_diag.warnings)


class TestLoadAtlas:
    def test_matches_reference_on_sample(self, data_dir):
        assert_matches_reference((data_dir / "atlas_sample.jsonl").read_text().splitlines())

    @GENERATED
    @given(atlas_exports)
    def test_matches_reference_on_generated_exports(self, lines):
        assert_matches_reference(lines)

    def test_matches_reference_across_parts(self, data_dir):
        # Long enough for several parts: ids collide across part borders
        # and warnings past the first part give file line numbers.
        sample = (data_dir / "atlas_sample.jsonl").read_text().splitlines()
        assert_matches_reference((sample + ["", "not json"]) * 8)

    def test_disambiguates_id_collisions(self):
        lines = [
            atlas_line([[("198.51.100.1", 1.0)], [("198.51.100.9", 9.0)]]),
            atlas_line([[("198.51.100.2", 1.0)], [("198.51.100.8", 9.0)]]),
        ]
        paths = load_atlas(lines)
        assert [p.path_id for p in paths] == ["1-2-100", "1-2-100-2"]
        assert [p.source_traceroute for p in paths] == ["1-2-100", "1-2-100"]

    def test_streams_a_part_at_a_time(self):
        # A warning is given before the lines of the next part are read,
        # so no more than one part is held.
        part = ingest._ATLAS_PART
        loop = atlas_line([[("198.51.100.1", 1.0)], [("198.51.100.5", 3.0)], [("198.51.100.1", 5.0)]])
        good = atlas_line([[("198.51.100.1", 1.0)], [("198.51.100.9", 9.0)]])
        lines = LineIterator(["not json", loop] + [good] * (3 * part - 2))
        pulled_at = []

        class Watching(Diagnostics):
            def warn(self, name, message, n=1):
                super().warn(name, message, n)
                pulled_at.append((name, lines.pulled))

        paths = load_atlas(lines, Watching())
        assert len(paths) == 3 * part - 2
        assert pulled_at == [("atlas_malformed", part), ("path_loop", part)]
        assert lines.pulled == 3 * part

    def test_undecodable_line_is_counted(self, tmp_path, caplog):
        good = atlas_line([[("198.51.100.1", 1.0)], [("198.51.100.9", 9.0)]]).encode()
        f = tmp_path / "export.jsonl"
        f.write_bytes(good + b"\n" + good.replace(b"198.51.100.9", b"198.51.100.\xff") + b"\n")
        diag = Diagnostics()
        with caplog.at_level(logging.WARNING, logger="traceloc"):
            with f.open(encoding="utf-8", errors="surrogateescape") as fh:
                paths = load_atlas(fh, diag)
        assert [p.path_id for p in paths] == ["1-2-100"]
        assert diag.counters == {"atlas_malformed": 1}
        assert caplog.messages == ["atlas_malformed: line 2: not valid UTF-8"]

    @pytest.mark.parametrize(
        "line",
        ["[" * 100_000, '{"msm_id": ' + "1" * 5000 + "}"],
        ids=["deep-nesting", "huge-int"],
    )
    def test_unreadable_json_is_malformed(self, line):
        # json.loads raises RecursionError and a plain ValueError here, not
        # JSONDecodeError.
        diag = Diagnostics()
        assert load_atlas([line], diag) == []
        assert diag.counters == {"atlas_malformed": 1}


class TestSniffFormat:
    NATIVE = '{"path_id": "p", "hops": []}'
    ATLAS = '{"msm_id": 1, "prb_id": 2, "timestamp": 100, "result": []}'

    @pytest.mark.parametrize(
        "lines,expected,read",
        [
            ([NATIVE, ATLAS], "native", 1),
            ([ATLAS, NATIVE], "atlas", 1),
            (["", "   ", '{"path_id": "cut', NATIVE, ATLAS], "native", 4),
            (["[" * 100_000, NATIVE], "native", 2),
            # Only an object decides: a list or a string naming path_id does not.
            (['["path_id"]', '"path_id"', ATLAS], "atlas", 3),
            (["not json", '["path_id"]'], "atlas", 2),
            ([], "atlas", 0),
        ],
        ids=["native", "atlas", "past-blank-and-cut", "past-deep-nesting", "objects-only",
             "no-object", "empty"],
    )
    def test_first_json_object_decides(self, lines, expected, read):
        # The lines read to decide come back, so a stream need not be rewound.
        rest = iter(lines)
        fmt, head = sniff_format(rest)
        assert fmt == expected
        assert head == lines[:read]
        assert head + list(rest) == lines


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


def reference_serialize_native(path):
    """The native writer as it was before lines were built from strings: the
    whole document through one compact ``json.JSONEncoder``."""
    doc = {"path_id": path.path_id, "hops": [{"ip": ip, "rtt": rtt} for ip, rtt in path.hops]}
    return json.JSONEncoder(separators=(",", ":")).encode(doc)


class OddFloat(float):
    def __repr__(self):
        return "odd"


class OddStr(str):
    pass


# Every code point, lone surrogates, quotes, backslashes and control
# characters included.
any_text = st.text(st.characters(codec=None, exclude_categories=()), max_size=12)
writer_rtts = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, True, False]),
    st.integers(),
    st.floats(allow_nan=False).map(OddFloat),
)
writer_names = st.one_of(
    any_text, st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\ud800", "é€😀"]),
    st.integers(), st.none(), any_text.map(OddStr),
)
writer_paths = st.builds(
    lambda pid, hops: CleanPath(path_id=pid, hops=hops, source_traceroute=""),
    writer_names,
    st.lists(st.tuples(writer_names, writer_rtts), max_size=5),
)


class TestNativeFormat:
    @given(clean_path_strategy)
    def test_round_trip(self, path):
        (loaded,) = load_native([serialize_native(path)])
        assert loaded == path

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(writer_paths)
    def test_writer_matches_json_encoder(self, path):
        assert serialize_native(path) == reference_serialize_native(path)

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

    def test_undecodable_line_is_counted(self, tmp_path, caplog):
        # The bad byte sits inside a path_id; the line is still rejected.
        good = serialize_native(
            CleanPath("p", [("198.51.100.1", 1.0), ("198.51.100.2", 2.0)], "p")
        ).encode()
        f = tmp_path / "paths.jsonl"
        f.write_bytes(good.replace(b'"p"', b'"p\xff"') + b"\n" + good + b"\n")
        diag = Diagnostics()
        with caplog.at_level(logging.WARNING, logger="traceloc"):
            with f.open(encoding="utf-8", errors="surrogateescape") as fh:
                paths = load_native(fh, diag)
        assert [p.path_id for p in paths] == ["p"]
        assert diag.counters == {"native_malformed": 1}
        assert caplog.messages == ["native_malformed: line 1: not valid UTF-8"]

    @pytest.mark.parametrize(
        "line",
        ["[" * 100_000, '{"path_id": ' + "1" * 5000 + "}"],
        ids=["deep-nesting", "huge-int"],
    )
    def test_unreadable_json_is_malformed(self, line):
        diag = Diagnostics()
        assert load_native([line], diag) == []
        assert diag.counters == {"native_malformed": 1}


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)


@st.composite
def native_records(draw):
    """Mostly valid native records; the other draws give bad ids, addresses
    and RTTs, repeated addresses and missing fields."""
    hops = []
    for n in range(draw(st.integers(min_value=0, max_value=5))):
        ip = draw(st.sampled_from([f"198.51.100.{n}"] * 6 + ["198.51.100.1", *OTHER_FROM]))
        hop = {"ip": ip, "rtt": draw(rtts())}
        if draw(st.integers(min_value=0, max_value=9)) == 9:
            del hop[draw(st.sampled_from(["ip", "rtt"]))]
        hops.append(hop)
    return {"path_id": draw(st.sampled_from(["p", "p", "q", 7])), "hops": hops}


def reference_load_native(lines, diag):
    """The native reader as it was before it checked each hop as it read it:
    one list of hops, then a pass for the types, one for the addresses and
    RTTs and one for consecutive duplicates.  Kept to pin the reader's paths
    and warnings to its old ones."""
    version = ingest._ip_version
    out = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError):
            diag.warn("native_malformed", f"line {lineno}: bad native record")
            continue
        try:
            path_id = doc["path_id"]
            hops = [(h["ip"], float(h["rtt"])) for h in doc["hops"]]
            if not isinstance(path_id, str):
                raise ValueError("path_id must be a string")
            if not {type(h["rtt"]) for h in doc["hops"]} <= {int, float}:
                raise TypeError("rtt must be a number")
        except (KeyError, TypeError, ValueError, OverflowError):
            diag.warn("native_malformed", f"line {lineno}: bad native record")
            continue
        if len(hops) < 2 or any(
            not isinstance(ip, str) or version(ip) != 4 or not 0 <= rtt < math.inf
            for ip, rtt in hops
        ):
            diag.warn("native_malformed", f"line {lineno}: invalid hops")
            continue
        if any(a == b for (a, _), (b, _) in zip(hops, hops[1:])):
            diag.warn("native_malformed", f"line {lineno}: consecutive duplicate hop")
            continue
        out.append(CleanPath(path_id=path_id, hops=hops, source_traceroute=path_id))
    return out


# Native lines that native_records() does not draw: other JSON types where
# an object, a list or a hop is due, an RTT with no float value, and faults
# of each kind on one line.
ODD_NATIVE = [
    "[1]", '"p"', "7", '{"path_id": "p", "hops": "ab"}', '{"path_id": "p", "hops": {"ip": 1}}',
    '{"path_id": "p", "hops": [1, 2]}', '{"path_id": "p", "hops": null}', '{"hops": []}',
    '{"path_id": "p", "hops": [{"ip": "198.51.100.1", "rtt": 1' + "0" * 400 + "}]}",
    # A duplicate, then an invalid hop, then (on the first line) a bad RTT.
    '{"path_id": "p", "hops": [{"ip": "198.51.100.1", "rtt": 1.0}, {"ip": "198.51.100.1", "rtt": 1.0}, '
    '{"ip": "198.51.100.3", "rtt": -1.0}, {"ip": "198.51.100.2", "rtt": "7"}]}',
    '{"path_id": "p", "hops": [{"ip": "198.51.100.1", "rtt": 1.0}, {"ip": "198.51.100.1", "rtt": 1.0}, '
    '{"ip": "198.51.100.3", "rtt": -1.0}]}',
]


class TestLoadNativeMatchesReference:
    @GENERATED
    @given(st.lists(native_records().map(json.dumps) | st.sampled_from(ODD_NATIVE), max_size=8))
    def test_generated_lines(self, lines):
        diag, ref_diag = RecordingDiagnostics(), RecordingDiagnostics()
        assert load_native(lines, diag) == reference_load_native(lines, ref_diag)
        assert diag.warnings == ref_diag.warnings


# Arbitrary text, arbitrary JSON values, and lines close to each format.
any_lines = st.one_of(
    st.lists(st.text(max_size=40), max_size=8),
    st.lists(json_values.map(json.dumps), max_size=8),
    atlas_exports,
    st.lists(native_records().map(json.dumps), max_size=8),
)


def csv_rows(rows):
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


snapshot_fields = st.one_of(
    st.sampled_from(["198.51.100.1", "10.0.0.1", "2001:db8::1", "x", "", "db1",
                     "48.8", "2.3", "999", "nan", "inf", "1e400", "Paris", "fr"]),
    st.text(max_size=6),
)
# Snapshot bodies under a valid header: arbitrary text, or CSV rows of
# any width built from plausible and arbitrary fields.
snapshot_bodies = st.one_of(
    st.text(max_size=200),
    st.lists(st.lists(snapshot_fields, max_size=8), max_size=8).map(csv_rows),
)


def strict_csv_rows(text):
    """The non-blank rows of a strict csv reading of ``text``, a row with
    text after its closing quote among them; None if a row cannot be read
    to its end."""
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    rows = 0
    while True:
        try:
            rows += bool(next(reader))
        except StopIteration:
            return rows
        except csv.Error as exc:
            if "expected after" not in str(exc):
                return None
            rows += 1


def non_blank(lines):
    return sum(1 for line in lines if line.strip())


class TestReaderFuzz:
    """No reader raises on any input short of its documented fatal errors,
    and every non-blank line (snapshot row) is either kept or counted."""

    @GENERATED
    @given(any_lines)
    def test_load_atlas_keeps_or_counts_each_line(self, lines):
        diag = Diagnostics()
        paths = load_atlas(lines, diag)
        rejected = sum(diag.count(k) for k in ("atlas_malformed", "path_loop", "path_short"))
        assert len(paths) + rejected == non_blank(lines)

    @GENERATED
    @given(any_lines)
    def test_load_native_keeps_or_counts_each_line(self, lines):
        diag = Diagnostics()
        paths = load_native(lines, diag)
        assert len(paths) + diag.count("native_malformed") == non_blank(lines)

    @GENERATED
    @given(snapshot_bodies)
    def test_load_geo_snapshot_keeps_or_counts_each_row(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "snapshot.csv"
            f.write_text("ip,source,lat,lon,city,country\n" + body, encoding="utf-8", newline="")
            diag = Diagnostics()
            rows = strict_csv_rows(body)
            if rows is None:  # csv cannot read the body to its end: fatal
                with pytest.raises(ValueError):
                    load_geo_snapshot(f, diag)
                return
            by_ip = load_geo_snapshot(f, diag)
        kept = sum(len(records) for records in by_ip.values())
        rejected = sum(
            diag.count(k) for k in ("snapshot_malformed", "snapshot_range", "snapshot_duplicate")
        )
        assert kept + rejected == rows



def reference_load_geo_snapshot(path, diag):
    """The snapshot loader as it was before it read rows by position: one
    ``csv.DictReader`` dict per row, and warnings numbered by the rows it
    yields.  Kept to pin the loader's records and warnings to its old ones."""
    version = ingest._ip_version
    by_ip, seen = {}, set()
    with Path(path).open(newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.DictReader(fh)
        required = {"ip", "source", "lat", "lon", "city", "country"}
        header = set(reader.fieldnames or [])
        if not required.issubset(header):
            raise ValueError(f"snapshot {path} missing columns {sorted(required - header)}")
        for lineno, row in enumerate(reader, start=2):
            ip = (row["ip"] or "").strip()
            source = (row["source"] or "").strip()
            if version(ip) != 4 or not source:
                diag.warn("snapshot_malformed", f"{path}:{lineno}: bad ip/source")
                continue
            city = (row["city"] or "").strip()
            country = (row["country"] or "").strip().upper()
            try:
                (source + city + country).encode("utf-8")
            except UnicodeEncodeError:
                diag.warn("snapshot_malformed", f"{path}:{lineno}: not valid UTF-8")
                continue
            try:
                lat = float(row["lat"])
                lon = float(row["lon"])
            except (TypeError, ValueError):
                diag.warn("snapshot_malformed", f"{path}:{lineno}: bad coordinates")
                continue
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                diag.warn("snapshot_range", f"{path}:{lineno}: coordinates out of range")
                continue
            if (ip, source) in seen:
                diag.warn("snapshot_duplicate", f"{path}:{lineno}: duplicate ({ip}, {source})")
                continue
            seen.add((ip, source))
            by_ip.setdefault(ip, []).append(GeoRecord(ip, source, lat, lon, city, country))
    return by_ip


SNAPSHOT_COLUMNS = ["ip", "source", "lat", "lon", "city", "country"]
# Plausible and broken values per column; "\udcff" is written as the byte
# 0xff, which is not UTF-8.
SNAPSHOT_VALUES = {
    "ip": ["198.51.100.1", "198.51.100.2", " 198.51.100.3 ", "10.0.0.1", "2001:db8::1", "x", ""],
    "source": ["db1", "db2", " db1", "d\udcffb", ""],
    "lat": ["48.85", "-33.9", "91", "abc", "nan", ""],
    "lon": ["2.35", "151.2", "-181", "1e400", ""],
    "city": ["Paris", "Par\nis", "Par\udcffis", ""],
    "country": ["fr", "AU", "F\udcff", ""],
}


@st.composite
def snapshot_files(draw):
    """Snapshot CSV text: the six columns in any order, some repeated, one
    now and then missing, extra columns; rows that are short, long or
    blank, with any column's value drawn under any name."""
    header = list(draw(st.permutations(SNAPSHOT_COLUMNS)))
    for extra in draw(st.lists(st.sampled_from(SNAPSHOT_COLUMNS + ["asn", "note"]), max_size=3)):
        header.insert(draw(st.integers(0, len(header))), extra)
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(SNAPSHOT_COLUMNS)))
    values = st.sampled_from(sorted({v for vs in SNAPSHOT_VALUES.values() for v in vs}))
    rows = [header]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["full", "full", "full", "short", "long", "blank"]))
        if kind == "blank":
            rows.append([])
            continue
        row = [
            draw(st.sampled_from(SNAPSHOT_VALUES[name]) if name in SNAPSHOT_VALUES else values)
            for name in header
        ]
        if kind == "short":
            row = row[: draw(st.integers(1, max(1, len(row) - 1)))]
        elif kind == "long":
            row += draw(st.lists(values, min_size=1, max_size=3))
        rows.append(row)
    return csv_rows(rows)


def without_line(message, path):
    return re.sub(rf"^{re.escape(str(path))}:\d+: ", f"{path}: ", message)


class TestGeoSnapshotMatchesReference:
    @GENERATED
    @given(snapshot_files())
    def test_generated_snapshots(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "snapshot.csv"
            f.write_bytes(text.encode("utf-8", errors="surrogateescape"))
            results = []
            for load in (load_geo_snapshot, reference_load_geo_snapshot):
                diag = RecordingDiagnostics()
                try:
                    results.append((load(f, diag), None))
                except ValueError as exc:
                    results.append((None, str(exc)))
                warnings = [(name, without_line(m, f), n) for name, m, n in diag.warnings]
                results.append((diag.counters, warnings))
        got_records, got_warnings, want_records, want_warnings = results
        assert got_records == want_records
        assert got_warnings == want_warnings

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

    def test_bad_byte_costs_only_its_row(self, tmp_path, caplog):
        # A non-UTF-8 byte in source, city or country is counted against
        # its own row, with file and line; the rows around it still load.
        f = tmp_path / "snap.csv"
        f.write_bytes(
            b"ip,source,lat,lon,city,country\n"
            b"198.51.100.1,db\xff,48.85,2.35,Paris,FR\n"
            b"198.51.100.1,db2,48.85,2.35,Par\xffis,FR\n"
            b"198.51.100.1,db3,48.85,2.35,Paris,F\xff\n"
            b"198.51.100.1,db4,48.86,2.36,Paris,FR\n"
            b"198.51.100.2,db1,52.52,13.40,Berlin,DE\n"
        )
        diag = Diagnostics()
        with caplog.at_level(logging.WARNING, logger="traceloc"):
            loaded = load_geo_snapshot(f, diag)
        assert loaded == {
            "198.51.100.1": [GeoRecord("198.51.100.1", "db4", 48.86, 2.36, "Paris", "FR")],
            "198.51.100.2": [GeoRecord("198.51.100.2", "db1", 52.52, 13.40, "Berlin", "DE")],
        }
        assert diag.total() == diag.count("snapshot_malformed") == 3
        assert [r.getMessage() for r in caplog.records] == [
            f"snapshot_malformed: {f}:{line}: not valid UTF-8" for line in (2, 3, 4)
        ]

    def test_warnings_name_the_file_line(self, tmp_path, caplog):
        # A blank line 3 is skipped but still counts; a quoted city that
        # spans lines 5-6 is named by the line its row ends on.
        f = tmp_path / "snap.csv"
        f.write_text(
            "ip,source,lat,lon,city,country\n"
            "198.51.100.1,db1,48.85,2.35,Paris,FR\n"
            "\n"
            "198.51.100.2,db1,abc,2.35,Paris,FR\n"
            '198.51.100.3,db1,999,2.35,"Par\nis",FR\n'
            "198.51.100.1,db1,48.85,2.35,Paris,FR\n"
        )
        diag = Diagnostics()
        with caplog.at_level(logging.WARNING, logger="traceloc"):
            loaded = load_geo_snapshot(f, diag)
        assert list(loaded) == ["198.51.100.1"]
        assert caplog.messages == [
            f"snapshot_malformed: {f}:4: bad coordinates",
            f"snapshot_range: {f}:6: coordinates out of range",
            f"snapshot_duplicate: {f}:7: duplicate (198.51.100.1, db1)",
        ]

    def test_text_after_a_closing_quote_costs_only_its_row(self, tmp_path, caplog):
        f = tmp_path / "snap.csv"
        f.write_text(
            "ip,source,lat,lon,city,country\n"
            "198.51.100.1,db1,48.85,2.35,Paris,FR\n"
            '198.51.100.2,db1,48.85,2.35,"Paris"x,FR\n'
            '198.51.100.3,db1,52.52,13.40,"Ber\nlin",DE\n'
        )
        diag = Diagnostics()
        with caplog.at_level(logging.WARNING, logger="traceloc"):
            loaded = load_geo_snapshot(f, diag)
        assert loaded == {
            "198.51.100.1": [GeoRecord("198.51.100.1", "db1", 48.85, 2.35, "Paris", "FR")],
            "198.51.100.3": [GeoRecord("198.51.100.3", "db1", 52.52, 13.40, "Ber\nlin", "DE")],
        }
        assert diag.total() == diag.count("snapshot_malformed") == 1
        assert caplog.messages == [f"snapshot_malformed: {f}:3: ',' expected after '\"'"]

    @pytest.mark.parametrize(
        "bad_row, error",
        [
            ('203.0.1.9,db9,1.0,2.0,"Paris,XC', "unexpected end of data"),
            ('203.0.1.9,db9,1.0,2.0,"' + "x" * 140_000 + '",XC', "field larger than field limit"),
        ],
        ids=["quote-open-at-end", "field-over-limit"],
    )
    def test_a_row_csv_cannot_finish_is_fatal(self, tmp_path, bad_row, error):
        # The rows after the bad one would all be read into its field.
        good = [f"203.0.2.{i},db1,1.0,2.0,Paris,FR" for i in range(1, 200)]
        f = tmp_path / "snap.csv"
        f.write_text("\n".join(["ip,source,lat,lon,city,country", *good[:2], bad_row, *good[2:]]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(f))}:4: {error}"):
            load_geo_snapshot(f)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "ip,source,lat,lon,city,country\n198.51.100.1,db1,48.85,2.35,Paris,FR\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert load_geo_snapshot(marked) == load_geo_snapshot(plain) != {}

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_geo_snapshot(tmp_path / "nope.csv")

    def test_missing_columns_fatal(self, tmp_path):
        f = tmp_path / "snap.csv"
        f.write_text("ip,lat,lon\n")
        with pytest.raises(ValueError, match="missing columns"):
            load_geo_snapshot(f)
