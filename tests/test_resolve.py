"""Anchor selection with per-anchor medians, disc voting, classification."""
from __future__ import annotations

import bisect
import dataclasses
import json
import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceloc.geo import (
    CityCluster,
    CityPolygon,
    GeoPoint,
    SpatialIndex,
    haversine_km,
)
from traceloc.ingest import CleanPath, load_native
from traceloc.refine import CandidateState, IpStatus, make_states
from traceloc.resolve import (
    REASON_COUNTRY_DISPERSED,
    REASON_UNRESOLVABLE,
    AnchorSummary,
    LocationFix,
    ResolveConfig,
    Verdict,
    classify,
    disc_radius_km,
    mpls_country_filter,
    resolve_all,
    resolve_anomaly,
    resolve_location,
    select_anchors,
)
from tests.conftest import plane_latlon

X = "198.51.100.5"   # the anomalous IP under test
A1 = "198.51.100.1"
A2 = "198.51.100.2"
M = "198.51.100.3"   # multi-candidate hop, never an anchor
Y = "198.51.100.9"


def pt(x_km: float, y_km: float = 0.0) -> GeoPoint:
    return GeoPoint(*plane_latlon(x_km, y_km))


def cluster(cid: int, x_km: float, y_km: float = 0.0, country="FR", city=None) -> CityCluster:
    return CityCluster(
        cluster_id=cid,
        centroid=pt(x_km, y_km),
        city=city or f"city{cid}",
        country=country,
        supporting_sources={"db1"},
    )


def anchor_state(ip: str, x_km: float, country="FR") -> CandidateState:
    st = make_states({ip: [cluster(0, x_km, country=country)]})[ip]
    return st


def tagged_state(ip: str, clusters: list[CityCluster]) -> CandidateState:
    st = make_states({ip: clusters})[ip]
    st.status = IpStatus.ANOMALOUS
    return st


class TestSelectAnchors:
    def _states(self):
        return {
            A1: anchor_state(A1, -30),
            A2: anchor_state(A2, 30),
            X: tagged_state(X, [cluster(0, 1000)]),
            M: make_states({M: [cluster(0, 5), cluster(1, 400)]})[M],
        }

    def test_smaller_delta_side_wins(self):
        states = self._states()
        path = CleanPath("p", [(A1, 10.0), (X, 12.0), (A2, 30.0)])
        (summary,) = select_anchors([path], states).get(X, [])
        assert summary.anchor_ip == A1
        assert summary.median_delta_ms == pytest.approx(2.0)
        assert summary.median_anchor_rtt_ms == 10.0

    def test_tie_prefers_preceding(self):
        states = self._states()
        path = CleanPath("p", [(A1, 10.0), (X, 12.0), (A2, 14.0)])
        (summary,) = select_anchors([path], states).get(X, [])
        assert summary.anchor_ip == A1

    def test_following_only(self):
        states = self._states()
        path = CleanPath("p", [(X, 12.0), (A2, 14.0)])
        (summary,) = select_anchors([path], states).get(X, [])
        assert summary.anchor_ip == A2
        assert summary.median_delta_ms == pytest.approx(-2.0)

    def test_scan_skips_non_anchor_hops(self):
        states = self._states()
        # M has two candidate clusters; the scan must pass over it.
        path = CleanPath("p", [(A1, 10.0), (M, 11.0), (X, 12.0)])
        (summary,) = select_anchors([path], states).get(X, [])
        assert summary.anchor_ip == A1

    def test_anomalous_hop_is_not_an_anchor(self):
        states = self._states()
        states[A2].status = IpStatus.ANOMALOUS
        path = CleanPath("p", [(X, 12.0), (A2, 14.0), (Y, 16.0)])
        assert select_anchors([path], states).get(X, []) == []

    def test_paths_without_ip_contribute_nothing(self):
        states = self._states()
        path = CleanPath("p", [(A1, 10.0), (A2, 14.0)])
        assert select_anchors([path], states).get(X, []) == []

    def test_one_observation_per_path(self):
        states = self._states()
        paths = [
            CleanPath("p1", [(A1, 10.0), (X, 12.0)]),
            CleanPath("p2", [(A2, 13.0), (X, 12.0)]),
            CleanPath("p3", [(Y, 1.0), (M, 2.0)]),
        ]
        got = select_anchors(paths, states).get(X, [])
        assert [(s.anchor_ip, s.observation_count) for s in got] == [(A1, 1), (A2, 1)]


@dataclasses.dataclass
class Vote:
    """One path's vote: the nearest trustworthy hop and the RTT gap to it."""

    anomalous_ip: str
    anchor_ip: str
    anchor_location: GeoPoint
    anchor_country: str
    delta_rtt_ms: float
    anchor_rtt_ms: float


def reference_aggregate_medians(votes):
    """Group one IP's votes by anchor IP and take medians (an even count
    averages the middle two).  Anchors keep the order they are first seen."""
    by_anchor = {}
    for v in votes:
        by_anchor.setdefault(v.anchor_ip, []).append(v)
    return [
        AnchorSummary(
            anchor_ip=anchor_ip,
            location=group[0].anchor_location,
            country=group[0].anchor_country,
            median_delta_ms=float(statistics.median(v.delta_rtt_ms for v in group)),
            median_anchor_rtt_ms=float(statistics.median(v.anchor_rtt_ms for v in group)),
            observation_count=len(group),
        )
        for anchor_ip, group in by_anchor.items()
    ]


def reference_summaries(votes_by_ip):
    return {ip: reference_aggregate_medians(votes) for ip, votes in votes_by_ip.items()}


def reference_select_anchors(paths, states):
    """The per-IP scan that the one-pass :func:`select_anchors` replaced,
    kept as its reference: bucket each tagged IP's paths, then scan every
    such path outward from the IP's first position.  Each IP's votes come
    out in path order."""

    def is_anchor(state):
        return (
            state is not None
            and state.status is IpStatus.ACTIVE
            and len(state.candidates) == 1
        )

    paths_by_ip = {}
    for path in paths:
        for hop_ip, _ in path.hops:
            if hop_ip in states and states[hop_ip].status is IpStatus.ANOMALOUS:
                bucket = paths_by_ip.setdefault(hop_ip, [])
                if not bucket or bucket[-1] is not path:
                    bucket.append(path)
    out = {}
    for ip, ip_paths in paths_by_ip.items():
        for path in ip_paths:
            position = next(i for i, (hop, _) in enumerate(path.hops) if hop == ip)
            rtt_here = path.hops[position][1]

            def first_anchor(indices):
                for j in indices:
                    hop_ip, hop_rtt = path.hops[j]
                    if is_anchor(states.get(hop_ip)):
                        return hop_ip, hop_rtt
                return None

            before = first_anchor(range(position - 1, -1, -1))
            after = first_anchor(range(position + 1, len(path.hops)))
            if before and after:
                delta_b = abs(rtt_here - before[1])
                delta_a = abs(rtt_here - after[1])
                chosen = before if delta_b <= delta_a else after
            else:
                chosen = before or after
            if chosen is None:
                continue
            anchor_ip, anchor_rtt = chosen
            anchor_cluster = states[anchor_ip].candidates[0]
            out.setdefault(ip, []).append(
                Vote(
                    ip,
                    anchor_ip,
                    anchor_cluster.centroid,
                    anchor_cluster.country,
                    rtt_here - anchor_rtt,
                    anchor_rtt,
                )
            )
    return out


def random_anchor_world(rng):
    """States over 10 IPs with random roles (anchor, multi-candidate,
    tagged, no geolocation), and native paths read by ``load_native``:
    hops may repeat non-consecutively, and RTTs are small integers so
    the two sides often tie."""
    ips = [f"203.0.113.{i}" for i in range(1, 11)]
    clusters = {}
    roles = {}
    for ip in ips:
        role = rng.choice(["anchor", "anchor", "multi", "tagged", "tagged", "none"])
        if role == "none":
            continue
        n = 2 if role == "multi" else rng.choice([1, 2]) if role == "tagged" else 1
        clusters[ip] = [
            cluster(c, rng.uniform(-500, 500), country=rng.choice(["FR", "GB"]))
            for c in range(n)
        ]
        roles[ip] = role
    states = make_states(clusters)
    for ip, role in roles.items():
        if role == "tagged":
            states[ip].status = IpStatus.ANOMALOUS
    lines = []
    for p in range(30):
        hops = [rng.choice(ips)]
        for _ in range(rng.randint(1, 7)):
            hops.append(rng.choice([ip for ip in ips if ip != hops[-1]]))
        lines.append(
            json.dumps(
                {
                    "path_id": f"p{p}",
                    "hops": [{"ip": ip, "rtt": float(rng.randint(0, 8))} for ip in hops],
                }
            )
        )
    paths = load_native(lines)
    assert len(paths) == len(lines)
    return states, paths


class TestSelectAnchorsMatchesReference:
    def test_random_worlds(self):
        rng = random.Random(2024)
        seen = {"repeat": 0, "tie": 0, "no_anchor": 0}
        for trial in range(300):
            states, paths = random_anchor_world(rng)
            got = select_anchors(paths, states)
            want = reference_summaries(reference_select_anchors(paths, states))
            tagged = [ip for ip, st in states.items() if st.status is IpStatus.ANOMALOUS]
            for ip in tagged:
                assert got.get(ip, []) == want.get(ip, []), f"trial {trial}, ip {ip}"
            assert set(got) <= set(tagged)
            # Count the cases the worlds are drawn to contain.
            for path in paths:
                hops = [hop for hop, _ in path.hops]
                anchors = [
                    i for i, hop in enumerate(hops)
                    if hop in states
                    and states[hop].status is IpStatus.ACTIVE
                    and len(states[hop].candidates) == 1
                ]
                for ip in set(hops) & set(tagged):
                    i = hops.index(ip)
                    seen["repeat"] += hops.count(ip) > 1
                    seen["no_anchor"] += not anchors
                    before = [j for j in anchors if j < i]
                    after = [j for j in anchors if j > i]
                    if before and after:
                        rtt = path.hops[i][1]
                        seen["tie"] += abs(rtt - path.hops[before[-1]][1]) == abs(
                            rtt - path.hops[after[0]][1]
                        )
        assert all(n > 0 for n in seen.values()), seen


def reference_one_walk_select_anchors(paths, states):
    """:func:`select_anchors` before it compared the two sides directly and
    skipped paths with no tagged hop: every path walked once, the nearest
    anchor on each side found by bisect, and ``min`` over the two sides,
    which keeps the first of equals, so the preceding side wins ties.
    Each IP's votes come out in path order."""
    anchors = {
        ip: state.candidates[0]
        for ip, state in states.items()
        if state.status is IpStatus.ACTIVE and len(state.candidates) == 1
    }
    tagged = {ip for ip, state in states.items() if state.status is IpStatus.ANOMALOUS}
    observations = {}
    for path in paths:
        hops = path.hops
        marks, firsts = [], {}
        for i, (hop_ip, _) in enumerate(hops):
            if hop_ip in anchors:
                marks.append(i)
            elif hop_ip in tagged:
                firsts.setdefault(hop_ip, i)
        if not marks:
            continue
        for ip, position in firsts.items():
            rtt_here = hops[position][1]
            k = bisect.bisect_left(marks, position)
            sides = [hops[marks[j]] for j in (k - 1, k) if 0 <= j < len(marks)]
            anchor_ip, anchor_rtt = min(sides, key=lambda hop: abs(rtt_here - hop[1]))
            anchor_cluster = anchors[anchor_ip]
            observations.setdefault(ip, []).append(
                Vote(
                    anomalous_ip=ip,
                    anchor_ip=anchor_ip,
                    anchor_location=anchor_cluster.centroid,
                    anchor_country=anchor_cluster.country,
                    delta_rtt_ms=rtt_here - anchor_rtt,
                    anchor_rtt_ms=anchor_rtt,
                )
            )
    return observations


GENERATED = settings(derandomize=True, max_examples=60, deadline=None)
HOP_IPS = [f"203.0.113.{i}" for i in range(1, 7)]
ROLES = ("anchor", "multi", "tagged", "tagged_multi", "no_state")


@st.composite
def anchor_corpora(draw):
    """States for six IPs with drawn roles (an IP may also have no state),
    and paths over them with small integer RTTs, so both sides often tie,
    and IPs free to repeat on a path."""
    clusters, tagged = {}, set()
    for ip in HOP_IPS:
        role = draw(st.sampled_from(ROLES))
        if role == "no_state":
            continue
        n = 2 if role in ("multi", "tagged_multi") else 1
        clusters[ip] = [
            cluster(c, draw(st.integers(-500, 500)), country=draw(st.sampled_from(["FR", "GB"])))
            for c in range(n)
        ]
        if role.startswith("tagged"):
            tagged.add(ip)
    states = make_states(clusters)
    for ip in tagged:
        states[ip].status = IpStatus.ANOMALOUS
    hop = st.tuples(st.sampled_from(HOP_IPS), st.integers(0, 6).map(float))
    paths = [
        CleanPath(f"p{i}", hops)
        for i, hops in enumerate(draw(st.lists(st.lists(hop, min_size=1, max_size=8), max_size=12)))
    ]
    return states, paths


class TestSelectAnchorsMatchesOneWalk:
    def check(self, states, paths):
        want = reference_summaries(reference_one_walk_select_anchors(paths, states))
        assert select_anchors(paths, states) == want

    @GENERATED
    @given(anchor_corpora())
    def test_generated_corpora(self, corpus):
        self.check(*corpus)

    def cases(self):
        states = {
            A1: anchor_state(A1, -30),
            A2: anchor_state(A2, 30),
            X: tagged_state(X, [cluster(0, 1000)]),
            M: make_states({M: [cluster(0, 5), cluster(1, 400)]})[M],
        }
        return states, {
            "tie": [CleanPath("p", [(A1, 10.0), (X, 12.0), (A2, 14.0)])],
            "repeat": [CleanPath("p", [(A1, 10.0), (X, 12.0), (M, 13.0), (X, 15.0), (A2, 16.0)])],
            "repeat_after_anchor": [CleanPath("p", [(X, 9.0), (A2, 14.0), (X, 15.0), (A1, 20.0)])],
            "no_anchor": [CleanPath("p", [(M, 10.0), (X, 12.0), (Y, 14.0)])],
            "no_tagged_hop": [CleanPath("p", [(A1, 10.0), (M, 12.0), (A2, 14.0)])],
            "mixed": [
                CleanPath("p1", [(A1, 10.0), (A2, 14.0)]),
                CleanPath("p2", [(X, 3.0), (M, 4.0)]),
                CleanPath("p3", [(A2, 1.0), (X, 3.0), (A1, 5.0)]),
            ],
        }

    @pytest.mark.parametrize(
        "case", ["tie", "repeat", "repeat_after_anchor", "no_anchor", "no_tagged_hop", "mixed"]
    )
    def test_named_cases(self, case):
        states, corpora = self.cases()
        self.check(states, corpora[case])

    def test_tie_prefers_preceding_and_repeat_uses_first_position(self):
        states, corpora = self.cases()
        (summary,) = select_anchors(corpora["tie"], states)[X]
        assert (summary.anchor_ip, summary.median_delta_ms) == (A1, 2.0)
        (summary,) = select_anchors(corpora["repeat_after_anchor"], states)[X]
        assert (summary.anchor_ip, summary.median_delta_ms) == (A2, -5.0)
        assert select_anchors(corpora["no_anchor"], states) == {}


def vote(anchor_ip, delta, anchor_rtt=10.0):
    return anchor_ip, delta, anchor_rtt


def summarize_votes(votes):
    """X's anchor summaries over one two-hop path per ``(anchor, delta,
    anchor_rtt)`` vote; A1 is a French anchor and A2 a British one."""
    states = {
        A1: anchor_state(A1, 0, country="FR"),
        A2: anchor_state(A2, 30, country="GB"),
        X: tagged_state(X, [cluster(0, 1000)]),
    }
    paths = [
        CleanPath(f"p{i}", [(anchor_ip, anchor_rtt), (X, anchor_rtt + delta)])
        for i, (anchor_ip, delta, anchor_rtt) in enumerate(votes)
    ]
    return select_anchors(paths, states)[X]


class TestAggregateMedians:
    def test_median_damps_outlier(self):
        (summary,) = summarize_votes([vote(A1, d) for d in (2.0, 4.0, 100.0)])
        assert summary.median_delta_ms == 4.0
        assert summary.observation_count == 3

    def test_even_count_averages_middle(self):
        (summary,) = summarize_votes([vote(A1, d) for d in (2.0, 4.0)])
        assert summary.median_delta_ms == 3.0

    def test_groups_by_anchor_sorted(self):
        summaries = summarize_votes([vote(A2, 5.0), vote(A1, 1.0), vote(A2, 7.0)])
        assert [s.anchor_ip for s in summaries] == [A2, A1]
        assert summaries[0].median_delta_ms == 6.0

    def test_anchor_rtt_median_independent_of_delta(self):
        (summary,) = summarize_votes([vote(A1, 1.0, anchor_rtt=8.0), vote(A1, 9.0, anchor_rtt=12.0)])
        assert summary.median_anchor_rtt_ms == 10.0

    def test_many_paths_one_anchor_give_one_summary(self):
        n = 7
        (summary,) = summarize_votes([vote(A1, float(d)) for d in range(n)])
        assert summary.anchor_ip == A1
        assert summary.observation_count == n
        assert summary.median_delta_ms == 3.0


def summaries(countries):
    return [
        AnchorSummary(
            anchor_ip=f"198.51.{i // 250}.{1 + i % 250}",
            location=pt(float(i)),
            country=c,
            median_delta_ms=1.0,
            median_anchor_rtt_ms=10.0,
            observation_count=1,
        )
        for i, c in enumerate(countries)
    ]


class TestCountryFilter:
    def test_even_split_is_dispersed(self):
        assert mpls_country_filter(summaries(["US"] * 10 + ["DE"] * 10), ResolveConfig())

    def test_single_country_not_dispersed(self):
        assert not mpls_country_filter(summaries(["FR"] * 20), ResolveConfig())

    def test_dominance_boundary_is_exclusive_above(self):
        # 96/100 French anchors: share 0.96 > 0.95 → trusted.
        assert not mpls_country_filter(
            summaries(["FR"] * 96 + ["GB"] * 4), ResolveConfig()
        )
        # Exactly at the threshold still counts as dispersed.
        assert mpls_country_filter(summaries(["FR"] * 19 + ["GB"]), ResolveConfig())

    def test_counts_distinct_anchors_not_observations(self):
        base = [vote(A1, 1.0), vote(A2, 1.0)]  # A1 is French, A2 British
        duplicated = base + [vote(A1, 5.0)] * 10
        cfg = ResolveConfig()
        assert mpls_country_filter(summarize_votes(base), cfg) == mpls_country_filter(
            summarize_votes(duplicated), cfg
        )


class TestBuildBuffers:
    """The anchor discs' radii, from :func:`disc_radius_km`."""

    def test_allowance_only(self):
        radius = disc_radius_km(AnchorSummary(A1, pt(0), "FR", 0.0, 10.0, 1), ResolveConfig())
        assert radius == pytest.approx(100.0)  # sol_km(0 + 0.1*10)

    def test_floor(self):
        radius = disc_radius_km(AnchorSummary(A1, pt(0), "FR", 0.0, 0.0, 1), ResolveConfig())
        assert radius == 20.0

    def test_median_delta_term(self):
        radius = disc_radius_km(AnchorSummary(A1, pt(0), "FR", 10.0, 50.0, 1), ResolveConfig())
        assert radius == pytest.approx(1500.0)  # sol_km(10 + 5)

    def test_delta_sign_ignored(self):
        mk = lambda d: disc_radius_km(AnchorSummary(A1, pt(0), "FR", d, 50.0, 1), ResolveConfig())
        assert mk(-10.0) == mk(10.0)


def grid_catalog(xs, radius_km=20.0, country="FR"):
    return [
        CityPolygon(i, f"g{i}", country, pt(x), radius_km) for i, x in enumerate(xs)
    ]


def buffer_at(x_km, radius_km, y_km=0.0):
    return pt(x_km, y_km), radius_km


class TestResolveLocation:
    def test_single_winner_takes_centroid(self):
        catalog = grid_catalog([0, 300, 600])
        index = SpatialIndex(catalog)
        buffers = [buffer_at(-10, 40), buffer_at(15, 40), buffer_at(280, 40)]
        fix = resolve_location(buffers, index, ResolveConfig())
        assert fix.polygon_id == 0
        assert fix.max_overlap == 2
        assert fix.point == catalog[0].centroid
        assert fix.city_point == catalog[0].centroid

    def test_fewer_than_min_anchors_unresolvable(self):
        index = SpatialIndex(grid_catalog([0]))
        fix = resolve_location([buffer_at(0, 50)], index, ResolveConfig())
        assert fix.point is None
        assert fix.max_overlap == 0

    def test_no_overlapped_polygon_unresolvable(self):
        index = SpatialIndex(grid_catalog([5000]))
        fix = resolve_location([buffer_at(0, 30), buffer_at(10, 30)], index, ResolveConfig())
        assert fix.point is None

    def test_close_tie_merges_to_mean(self):
        catalog = grid_catalog([0, 15])
        index = SpatialIndex(catalog)
        buffers = [buffer_at(-5, 60), buffer_at(20, 60)]
        fix = resolve_location(buffers, index, ResolveConfig())
        assert fix.max_overlap == 2
        mean = GeoPoint(
            (catalog[0].centroid.lat + catalog[1].centroid.lat) / 2,
            (catalog[0].centroid.lon + catalog[1].centroid.lon) / 2,
        )
        assert fix.point == mean
        assert fix.polygon_id in (0, 1)
        assert fix.city_point == catalog[fix.polygon_id].centroid

    def test_tie_merge_escalates_to_100km(self):
        catalog = grid_catalog([0, 90])
        index = SpatialIndex(catalog)
        buffers = [buffer_at(20, 80), buffer_at(70, 80)]
        fix = resolve_location(buffers, index, ResolveConfig())
        assert fix.point is not None  # merged at the 100 km step

    def test_far_tie_stays_unresolvable(self):
        catalog = grid_catalog([0, 500])
        index = SpatialIndex(catalog)
        buffers = [buffer_at(0, 30), buffer_at(500, 30), buffer_at(250, 280)]
        fix = resolve_location(buffers, index, ResolveConfig())
        assert fix.point is None
        assert fix.max_overlap == 2

    def test_matches_brute_force_overlap_oracle(self):
        rng = random.Random(777)
        for trial in range(40):
            catalog = [
                CityPolygon(
                    i,
                    f"c{i}",
                    "FR",
                    GeoPoint(rng.uniform(40, 55), rng.uniform(-5, 15)),
                    rng.uniform(5, 40),
                )
                for i in range(rng.randint(2, 30))
            ]
            index = SpatialIndex(catalog)
            buffers = [
                (GeoPoint(rng.uniform(40, 55), rng.uniform(-5, 15)), rng.uniform(10, 400))
                for _ in range(rng.randint(2, 8))
            ]
            counts: dict[int, int] = {}
            for center, radius_km in buffers:
                for poly in catalog:
                    if haversine_km(center, poly.centroid) <= radius_km + poly.radius_km:
                        counts[poly.polygon_id] = counts.get(poly.polygon_id, 0) + 1
            fix = resolve_location(buffers, index, ResolveConfig())
            if not counts:
                assert fix.point is None, f"trial {trial}"
                continue
            top = max(counts.values())
            winners = [pid for pid, n in counts.items() if n == top]
            assert fix.max_overlap == top, f"trial {trial}"
            if len(winners) == 1 and fix.point is not None:
                assert fix.polygon_id == winners[0], f"trial {trial}"


class TestClassify:
    def _fix(self, x_km, city_x_km=None):
        p = pt(x_km)
        return LocationFix(
            point=p,
            polygon_id=0,
            max_overlap=3,
            city_point=pt(city_x_km) if city_x_km is not None else p,
        )

    def test_nearby_candidate_demotes(self):
        out = classify(X, self._fix(5), [cluster(0, 0)], ResolveConfig(), anchor_count=3)
        assert out.verdict is Verdict.FALSE_POSITIVE
        assert out.confirmed.cluster_id == 0
        assert out.anchor_count == 3

    def test_distant_resolution_is_interface(self):
        out = classify(X, self._fix(1500), [cluster(0, 0)], ResolveConfig())
        assert out.verdict is Verdict.INTERFACE_AFFECTED
        assert out.confirmed is None

    def test_boundary_is_inclusive(self):
        fix = self._fix(25)
        candidates = [cluster(0, 0)]
        d = haversine_km(fix.point, candidates[0].centroid)
        cfg = ResolveConfig(match_radius_km=d)
        assert classify(X, fix, candidates, cfg).verdict is Verdict.FALSE_POSITIVE
        cfg_tight = ResolveConfig(match_radius_km=d - 1e-9)
        assert classify(X, fix, candidates, cfg_tight).verdict is Verdict.INTERFACE_AFFECTED

    def test_candidate_order_invariance(self):
        candidates = [cluster(0, 0), cluster(1, 400), cluster(2, 12)]
        a = classify(X, self._fix(10), candidates, ResolveConfig())
        b = classify(X, self._fix(10), list(reversed(candidates)), ResolveConfig())
        assert a.verdict == b.verdict == Verdict.FALSE_POSITIVE
        assert a.confirmed.centroid == b.confirmed.centroid

    def test_city_point_governs_matching(self):
        # Merged-tie mean lands between cities, but the attributed city sits
        # on a candidate: city granularity demotes.
        out = classify(X, self._fix(50, city_x_km=0), [cluster(0, 0)], ResolveConfig())
        assert out.verdict is Verdict.FALSE_POSITIVE
        # And the reverse: mean point near a candidate, city attributed away.
        out2 = classify(X, self._fix(0, city_x_km=50), [cluster(0, 0)], ResolveConfig())
        assert out2.verdict is Verdict.INTERFACE_AFFECTED


def integration_world(a2_country="FR"):
    """Two anchors 60 km apart; the anomalous IP truly sits between them at
    the origin, but its databases all claim a city 1000 km east."""
    catalog = [
        CityPolygon(0, "truth", "FR", pt(0), 20.0),
        CityPolygon(1, "west", "FR", pt(-30), 20.0),
        CityPolygon(2, "east", a2_country, pt(30), 20.0),
        CityPolygon(3, "wrong", "FR", pt(1000), 20.0),
    ]
    states = {
        A1: anchor_state(A1, -30, country="FR"),
        A2: anchor_state(A2, 30, country=a2_country),
        X: tagged_state(X, [cluster(0, 1000, city="wrong")]),
    }
    paths = [
        CleanPath("p1", [(A1, 0.6), (X, 0.9)]),
        CleanPath("p2", [(A2, 0.6), (X, 0.9)]),
    ]
    return catalog, states, paths


class TestResolveAnomalyEndToEnd:
    def test_interface_affected_resolution(self):
        catalog, states, paths = integration_world()
        out = resolve_anomaly(
            X, select_anchors(paths, states).get(X, []), states, SpatialIndex(catalog), ResolveConfig()
        )
        assert out.verdict is Verdict.INTERFACE_AFFECTED
        assert out.polygon_id == 0  # the true city wins the overlap vote
        assert out.resolved_country == "FR"
        assert out.anchor_count == 2
        assert haversine_km(out.resolved, pt(0)) < 1.0

    def test_country_dispersed_verdict(self):
        catalog, states, paths = integration_world(a2_country="GB")
        out = resolve_anomaly(
            X, select_anchors(paths, states).get(X, []), states, SpatialIndex(catalog), ResolveConfig()
        )
        assert out.verdict is Verdict.MPLS_AFFECTED
        assert out.reason == REASON_COUNTRY_DISPERSED
        assert out.anchor_count == 2

    def test_no_anchors_is_unresolvable(self):
        catalog, states, _ = integration_world()
        out = resolve_anomaly(X, [], states, SpatialIndex(catalog), ResolveConfig())
        assert out.verdict is Verdict.MPLS_AFFECTED
        assert out.reason == REASON_UNRESOLVABLE
        assert out.anchor_count == 0

    def test_false_positive_demotion(self):
        catalog, states, paths = integration_world()
        # Same tag, but the databases actually agree with the anchors.
        states[X] = tagged_state(X, [cluster(0, 0, city="truth")])
        out = resolve_anomaly(
            X, select_anchors(paths, states).get(X, []), states, SpatialIndex(catalog), ResolveConfig()
        )
        assert out.verdict is Verdict.FALSE_POSITIVE
        assert out.confirmed.city == "truth"


class TestResolveAll:
    def test_resolves_only_tagged_ips(self):
        catalog, states, paths = integration_world()
        outcomes = resolve_all(states, paths, SpatialIndex(catalog), ResolveConfig())
        assert set(outcomes) == {X}

    def test_statuses_not_revised(self):
        catalog, states, paths = integration_world()
        states[X] = tagged_state(X, [cluster(0, 0, city="truth")])  # will demote
        resolve_all(states, paths, SpatialIndex(catalog), ResolveConfig())
        # Demotion is a verdict, not a status rewrite.
        assert states[X].status is IpStatus.ANOMALOUS
