"""Reporting layer: summary-table arithmetic, the single-pass
speed-of-light baseline, histograms, the correction-distance CDF, and
per-country deltas."""
from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceloc.cli import SynthSettings
from traceloc.diagnostics import Diagnostics
from traceloc.geo import (
    EARTH_RADIUS_KM,
    CityCluster,
    GeoPoint,
    cluster_candidates,
    haversine_km,
    load_city_catalog,
)
from traceloc.ingest import CleanPath, GeoRecord, ip_key
from traceloc.refine import (
    CandidateState,
    IpStatus,
    RefineConfig,
    budget_km,
    extract_pairs,
    iterate,
    make_states,
    pair_budgets,
)
from traceloc.report import (
    HIST_BUCKETS,
    cluster_histogram,
    country_delta,
    distance_cdf,
    sol_baseline,
    summarize,
    table_from_counts,
    write_country_delta_csv,
    write_distance_cdf_csv,
    write_histogram_csv,
    write_summary_csv,
)
from traceloc.resolve import ResolutionOutcome, Verdict
from traceloc.synth import corrupt_geodb, generate_world, simulate_traceroutes
from tests.conftest import pair_feasible, plane_latlon, single_cluster_fraction


def path(pid, *hops):
    return CleanPath(path_id=pid, hops=[(ip, float(rtt)) for ip, rtt in hops], source_traceroute=pid)


def links_and_ips(paths):
    """The links and the address set that `run` hands to `summarize`."""
    return [(p.ip_a, p.ip_b) for p in extract_pairs(paths)], {ip for p in paths for ip, _ in p.hops}


def outcome(ip, verdict, resolved=None, resolved_country=None):
    return ResolutionOutcome(
        ip=ip, verdict=verdict, resolved=resolved, resolved_country=resolved_country
    )


class TestTableFromCounts:
    def test_percentage_bases(self):
        table = table_from_counts(
            totals=(200, 300, 50),
            mpls=(20, 40, 10),
            interface=(30, 45, 12),
            total_affected=(45, 80, 18),
            corrected=(30, 36, 9),
        )
        assert table[0].ip_count == 200
        by_cat = {row.category: row for row in table}
        assert [r.category for r in table] == [
            "total",
            "mpls_affected",
            "interface_affected",
            "total_affected",
            "corrected",
        ]
        assert by_cat["total"].ip_pct == 100.0
        assert by_cat["mpls_affected"].ip_pct == pytest.approx(10.0)
        assert by_cat["mpls_affected"].link_pct == pytest.approx(100 * 40 / 300)
        assert by_cat["interface_affected"].traceroute_pct == pytest.approx(24.0)
        assert by_cat["total_affected"].ip_pct == pytest.approx(22.5)
        # The corrected row is relative to total-affected, not the totals.
        assert by_cat["corrected"].ip_pct == pytest.approx(100 * 30 / 45)
        assert by_cat["corrected"].link_pct == pytest.approx(45.0)
        assert by_cat["corrected"].traceroute_pct == pytest.approx(50.0)

    def test_zero_denominators(self):
        table = table_from_counts((0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
        for row in table:
            assert row.ip_pct == 0.0 and row.link_pct == 0.0


def ten_ip_corpus():
    """Ten IPs on four paths: one tunnel-distorted IP (A), two
    interface-corrected IPs (E, G), and a path crossing both kinds."""
    ips = {name: f"203.0.1.{i + 1}" for i, name in enumerate("ABCDEFGHIJ")}
    paths = [
        path("p1", (ips["A"], 1), (ips["B"], 2), (ips["C"], 3), (ips["D"], 4)),
        path("p2", (ips["C"], 1), (ips["D"], 2), (ips["E"], 3), (ips["F"], 4)),
        path("p3", (ips["F"], 1), (ips["G"], 2), (ips["H"], 3), (ips["A"], 4)),
        path("p4", (ips["I"], 1), (ips["J"], 2)),
    ]
    outcomes = {
        ips["A"]: outcome(ips["A"], Verdict.MPLS_AFFECTED),
        ips["E"]: outcome(ips["E"], Verdict.INTERFACE_AFFECTED, GeoPoint(1, 1)),
        ips["G"]: outcome(ips["G"], Verdict.INTERFACE_AFFECTED, GeoPoint(2, 2)),
        ips["B"]: outcome(ips["B"], Verdict.FALSE_POSITIVE),
        # An IP never observed on any path must not leak into the counts.
        "203.0.9.9": outcome("203.0.9.9", Verdict.MPLS_AFFECTED),
    }
    return ips, paths, outcomes


class TestSummarize:
    def test_hand_counted_table(self):
        _, paths, outcomes = ten_ip_corpus()
        table = summarize(outcomes, paths, *links_and_ips(paths))
        by_cat = {row.category: row for row in table}

        assert (table[0].ip_count, table[0].link_count, table[0].traceroute_count) == (10, 9, 4)
        assert by_cat["total"].ip_count == 10
        assert by_cat["total"].link_pct == 100.0

        # A touches links A-B and H-A and traceroutes p1, p3.
        assert by_cat["mpls_affected"].ip_count == 1
        assert by_cat["mpls_affected"].link_count == 2
        assert by_cat["mpls_affected"].traceroute_count == 2
        assert by_cat["mpls_affected"].ip_pct == pytest.approx(10.0)

        # E and G touch D-E, E-F, F-G, G-H and traceroutes p2, p3.
        assert by_cat["interface_affected"].ip_count == 2
        assert by_cat["interface_affected"].link_count == 4
        assert by_cat["interface_affected"].traceroute_count == 2

        # Union: p3 carries both kinds but counts once.
        assert by_cat["total_affected"].ip_count == 3
        assert by_cat["total_affected"].link_count == 6
        assert by_cat["total_affected"].traceroute_count == 3
        assert by_cat["total_affected"].traceroute_pct == pytest.approx(75.0)

        # Corrected: only elements untouched by the tunnel kind; p3 and
        # A's links drop out.  Percentages are over the affected row.
        assert by_cat["corrected"].ip_count == 2
        assert by_cat["corrected"].link_count == 4
        assert by_cat["corrected"].traceroute_count == 1
        assert by_cat["corrected"].ip_pct == pytest.approx(100 * 2 / 3)
        assert by_cat["corrected"].link_pct == pytest.approx(100 * 4 / 6)
        assert by_cat["corrected"].traceroute_pct == pytest.approx(100 * 1 / 3)

    def test_empty_corpus(self):
        table = summarize({}, [], [], set())
        assert table[0].ip_count == 0
        assert all(row.ip_pct == 0.0 for row in table)


def chain_snapshot():
    """A–B–C chain on a plane.  B has a decoy 1000 km out; C has a far
    candidate that only the decoy makes plausible."""

    def rec(ip, source, x_km, city):
        lat, lon = plane_latlon(x_km, 0.0)
        return GeoRecord(ip=ip, source=source, lat=lat, lon=lon, city=city, country="FR")

    a, b, c = "203.0.1.1", "203.0.1.2", "203.0.1.3"
    snapshot = {
        a: [rec(a, "db1", 0.0, "origin")],
        b: [rec(b, "db1", 150.0, "b-true"), rec(b, "db2", 1000.0, "b-decoy")],
        c: [rec(c, "db1", 300.0, "c-near"), rec(c, "db2", 1100.0, "c-far")],
    }
    # Budgets: A–B 3.5 ms (350 km), B–C 1.95 ms (195 km).
    paths = [
        path("q1", (a, 1.0), (b, 4.0)),
        path("q2", (b, 1.5), (c, 3.0)),
    ]
    return [a, b, c], snapshot, paths


def baseline_of(ips, snapshot, paths):
    """The baseline over a run's clusters and budgets, built as `run` does."""
    clusters = {ip: cluster_candidates(snapshot.get(ip, []), 20.0) for ip in ips}
    return sol_baseline(clusters, pair_budgets(extract_pairs(paths), RefineConfig()))


def reference_sol_baseline(ips, snapshot, paths):
    """The baseline as first written: every candidate against every
    observation of every neighbor, one `pair_feasible` call at a time."""
    cfg = RefineConfig()
    clusters_by_ip = {ip: cluster_candidates(snapshot.get(ip, []), 20.0) for ip in ips}
    by_ip = {}
    for pair in extract_pairs(paths):
        by_ip.setdefault(pair.ip_a, []).append((pair, True))
        by_ip.setdefault(pair.ip_b, []).append((pair, False))

    out = {}
    for ip in sorted(ips, key=ip_key):
        clusters = clusters_by_ip.get(ip, [])
        if not clusters:
            continue
        survivors = []
        for cand in clusters:
            ok = True
            for pair, is_a in by_ip.get(ip, []):
                other_ip = pair.ip_b if is_a else pair.ip_a
                other_clusters = clusters_by_ip.get(other_ip, [])
                if not other_clusters:
                    continue
                for rtt_a, rtt_b, _ in pair.observations:
                    rtt_self = rtt_a if is_a else rtt_b
                    rtt_other = rtt_b if is_a else rtt_a
                    if not any(
                        pair_feasible(cand.centroid, oc.centroid, rtt_self, rtt_other, cfg)
                        for oc in other_clusters
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                survivors.append(cand)
        out[ip] = CandidateState(ip=ip, candidates=survivors)
    return out


def decoy_heavy_world(catalog, seed, n_routers=60, n_cities=12):
    """A seeded world where half the IPs have a decoy cluster: its
    addresses, snapshot and paths."""
    world = generate_world(seed, n_routers, n_cities, 0.05, catalog)
    paths = simulate_traceroutes(world, 400, 0.05)
    spec = SynthSettings(
        interface_error_fraction=0.05,
        min_displacement_km=300.0,
        db_count=4,
        db_noise_km=2.0,
        decoy_fraction=0.5,
        decoy_db_count=1,
    )
    snapshot, _ = corrupt_geodb(world, spec, seed, catalog)
    ips = sorted({ip for p in paths for ip, _ in p.hops}, key=ip_key)
    return ips, snapshot, paths


class TestSolBaselineMatchesReference:
    def assert_matches_reference(self, ips, snapshot, paths):
        got = survivors(baseline_of(ips, snapshot, paths))
        assert got == survivors(reference_sol_baseline(ips, snapshot, paths))
        # The worlds exercise the filter: some candidates die, some live.
        total = sum(len(cluster_candidates(snapshot[ip], 20.0)) for ip in ips)
        assert 0 < sum(len(v) for v in got.values()) < total

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_same_survivors_on_decoy_heavy_worlds(self, grid_catalog, seed):
        self.assert_matches_reference(*decoy_heavy_world(grid_catalog, seed))

    def test_same_survivors_on_a_global_world(self, data_dir):
        # Candidate pairs more than a quarter of the circumference apart take
        # haversine_km's atan2 form, which is not exactly symmetric.
        ips, snapshot, paths = decoy_heavy_world(
            load_city_catalog(data_dir / "cities_global.csv"), 5, n_routers=80, n_cities=60
        )
        clusters = {ip: cluster_candidates(snapshot.get(ip, []), 20.0) for ip in ips}
        assert any(
            haversine_km(ca.centroid, cb.centroid) > EARTH_RADIUS_KM * math.pi / 2
            for pair in extract_pairs(paths)
            for ca in clusters[pair.ip_a]
            for cb in clusters[pair.ip_b]
        )
        self.assert_matches_reference(ips, snapshot, paths)


class TestDistancesMeasuredOnce:
    def test_iterate_and_sol_baseline_share_each_distance(self, grid_catalog, monkeypatch):
        ips, snapshot, paths = decoy_heavy_world(grid_catalog, 3)
        clusters = {ip: cluster_candidates(snapshot.get(ip, []), 20.0) for ip in ips}
        pairs = extract_pairs(paths)
        calls = Counter()

        def counting_haversine(a, b):
            calls[(a, b)] += 1
            return haversine_km(a, b)

        monkeypatch.setattr("traceloc.refine.haversine_km", counting_haversine)
        monkeypatch.setattr("traceloc.report.haversine_km", counting_haversine)
        cfg = RefineConfig()
        budgets = pair_budgets(pairs, cfg)
        iterate(make_states(clusters), budgets, cfg)
        sol_baseline(clusters, budgets)
        # One distance per (pair, cand_a, cand_b), always measured a to b.
        allowed = Counter(
            (ca.centroid, cb.centroid)
            for pair in pairs
            for ca in clusters[pair.ip_a]
            for cb in clusters[pair.ip_b]
        )
        assert calls
        assert {k: n for k, n in calls.items() if n > allowed[k]} == {}


def reference_pairs_sol_baseline(clusters_by_ip, pairs, cfg):
    """:func:`sol_baseline` before it read the budgets that `iterate` scores
    with: each pair's smallest budget recomputed from its observations."""
    limits = {}
    for pair in pairs:
        limit = min(budget_km(rtt_a, rtt_b, cfg) for rtt_a, rtt_b, _ in pair.observations)
        for ip, other in ((pair.ip_a, pair.ip_b), (pair.ip_b, pair.ip_a)):
            if clusters_by_ip.get(other):
                limits.setdefault(ip, []).append((clusters_by_ip[other], limit))
    out = {}
    for ip, clusters in clusters_by_ip.items():
        if not clusters:
            continue
        survivors = [
            cand
            for cand in clusters
            if all(
                min(haversine_km(cand.centroid, oc.centroid) for oc in others) <= limit
                for others, limit in limits.get(ip, ())
            )
        ]
        out[ip] = CandidateState(ip=ip, candidates=survivors)
    return out


def reference_path_walk_summarize(outcomes, paths):
    """:func:`summarize` before it took the run's links and addresses: both
    rebuilt from the paths, and a set built per path."""
    mpls_ips = {ip for ip, out in outcomes.items() if out.verdict is Verdict.MPLS_AFFECTED}
    iface_ips = {ip for ip, out in outcomes.items() if out.verdict is Verdict.INTERFACE_AFFECTED}
    all_ips, all_links = set(), set()
    for p in paths:
        hops = [ip for ip, _ in p.hops]
        all_ips.update(hops)
        for a, b in zip(hops, hops[1:]):
            all_links.add((a, b) if a <= b else (b, a))
    link_flags = [
        (a in mpls_ips or b in mpls_ips, a in iface_ips or b in iface_ips) for a, b in all_links
    ]
    path_flags = []
    for p in paths:
        hops = {ip for ip, _ in p.hops}
        path_flags.append((bool(hops & mpls_ips), bool(hops & iface_ips)))

    def counts(flags):
        return (
            sum(m for m, _ in flags),
            sum(i for _, i in flags),
            sum(m or i for m, i in flags),
            sum(i and not m for m, i in flags),
        )

    lm, li, lu, lc = counts(link_flags)
    tm, ti, tu, tc = counts(path_flags)
    union_ips = (mpls_ips | iface_ips) & all_ips
    return table_from_counts(
        totals=(len(all_ips), len(all_links), len(paths)),
        mpls=(len(mpls_ips & all_ips), lm, tm),
        interface=(len(iface_ips & all_ips), li, ti),
        total_affected=(len(union_ips), lu, tu),
        corrected=(len(iface_ips & all_ips), lc, tc),
    )


GENERATED = settings(derandomize=True, max_examples=60, deadline=None)
CORPUS_IPS = [f"203.0.113.{i}" for i in range(1, 7)]
hop_lists = st.lists(
    st.lists(
        st.tuples(st.sampled_from(CORPUS_IPS), st.integers(0, 30).map(float)),
        min_size=1,
        max_size=7,
    ),
    max_size=10,
)


def corpus_paths(hop_lists):
    return [CleanPath(f"p{i}", hops) for i, hops in enumerate(hop_lists)]


@st.composite
def baseline_inputs(draw):
    """Clusters for some of six IPs (some with none), on a 1,000 km line,
    and paths over them: some pairs are seen in one direction only."""
    clusters_by_ip = {}
    for ip in CORPUS_IPS:
        n = draw(st.integers(-1, 3))
        if n >= 0:
            clusters_by_ip[ip] = [
                CityCluster(c, GeoPoint(*plane_latlon(draw(st.integers(0, 1000)), 0.0)), f"c{c}", "FR")
                for c in range(n)
            ]
    cfg = RefineConfig(deviation_fraction=draw(st.sampled_from([0.0, 0.1, 0.5])))
    return clusters_by_ip, corpus_paths(draw(hop_lists)), cfg


@st.composite
def summary_inputs(draw):
    """Paths over six IPs and outcomes for some of them and for IPs on no
    path."""
    paths = corpus_paths(draw(hop_lists))
    outcomes = {}
    for ip in CORPUS_IPS + ["203.0.113.99"]:
        verdict = draw(st.sampled_from([None, *Verdict]))
        if verdict is not None:
            outcomes[ip] = outcome(ip, verdict)
    return outcomes, paths


def survivors(states):
    return {ip: [c.cluster_id for c in s.candidates] for ip, s in states.items()}


class TestRewrittenStagesMatchReferences:
    @GENERATED
    @given(baseline_inputs())
    def test_sol_baseline(self, inputs):
        clusters_by_ip, paths, cfg = inputs
        pairs = extract_pairs(paths)
        got = sol_baseline(clusters_by_ip, pair_budgets(pairs, cfg))
        assert survivors(got) == survivors(reference_pairs_sol_baseline(clusters_by_ip, pairs, cfg))

    def test_sol_baseline_one_direction_pairs(self):
        # A-B is seen only A first, B-C only C first: the smallest budget
        # sits in one direction's list, the other list is empty.
        a, b, c = CORPUS_IPS[:3]

        def at(cid, x_km):
            return CityCluster(cid, GeoPoint(*plane_latlon(x_km, 0.0)), f"c{cid}", "FR")

        clusters_by_ip = {a: [at(0, 0)], b: [at(0, 100), at(1, 900)], c: [at(0, 300), at(1, 150)]}
        paths = [
            path("q1", (a, 1.0), (b, 2.5)),
            path("q2", (a, 1.0), (b, 9.0)),
            path("q3", (c, 1.0), (b, 2.0)),
        ]
        pairs = extract_pairs(paths)
        assert {(p.ip_a, p.ip_b): {a_first for _, _, a_first in p.observations} for p in pairs} == {
            (a, b): {True}, (b, c): {False}
        }
        cfg = RefineConfig()
        got = sol_baseline(clusters_by_ip, pair_budgets(pairs, cfg))
        want = reference_pairs_sol_baseline(clusters_by_ip, pairs, cfg)
        assert survivors(got) == survivors(want) == {a: [0], b: [0], c: [1]}

    @GENERATED
    @given(summary_inputs())
    def test_summarize(self, inputs):
        outcomes, paths = inputs
        got = summarize(outcomes, paths, *links_and_ips(paths))
        assert got == reference_path_walk_summarize(outcomes, paths)


class TestSolBaseline:
    def test_single_pass_keeps_decoy_supported_candidates(self):
        ips, snapshot, paths = chain_snapshot()
        a, b, c = ips
        states = baseline_of(ips, snapshot, paths)
        assert [cl.city for cl in states[a].candidates] == ["origin"]
        # B's decoy dies even in one pass: A is 1000 km away on a 350 km
        # budget and A has nowhere else to be.
        assert [cl.city for cl in states[b].candidates] == ["b-true"]
        # But C's far candidate survives: the check runs against B's FULL
        # original clusters, and the decoy is 100 km from it.
        assert sorted(cl.city for cl in states[c].candidates) == ["c-far", "c-near"]

    def test_iteration_beats_single_pass(self):
        ips, snapshot, paths = chain_snapshot()
        c = ips[2]
        baseline = baseline_of(ips, snapshot, paths)

        refined = make_states(
            {ip: cluster_candidates(snapshot[ip], 20.0) for ip in ips}
        )
        refined, _ = iterate(refined, pair_budgets(extract_pairs(paths), RefineConfig()), RefineConfig())
        assert [cl.city for cl in refined[c].candidates] == ["c-near"]
        assert len(baseline[c].candidates) == 2
        assert single_cluster_fraction(refined) > single_cluster_fraction(baseline)

    def test_no_neighbors_keeps_everything(self):
        ips, snapshot, paths = chain_snapshot()
        loner = "203.0.1.9"
        snapshot[loner] = [
            GeoRecord(ip=loner, source="db1", lat=10.0, lon=10.0, city="x", country="FR"),
            GeoRecord(ip=loner, source="db2", lat=50.0, lon=50.0, city="y", country="FR"),
        ]
        states = baseline_of(ips + [loner], snapshot, paths)
        assert len(states[loner].candidates) == 2

    def test_can_strip_to_zero_clusters(self):
        def rec(ip, x_km):
            lat, lon = plane_latlon(x_km, 0.0)
            return GeoRecord(ip=ip, source="db1", lat=lat, lon=lon, city=ip, country="FR")

        a, b = "203.0.1.1", "203.0.1.2"
        snapshot = {a: [rec(a, 0.0)], b: [rec(b, 5000.0)]}
        states = baseline_of([a, b], snapshot, [path("q", (a, 1.0), (b, 1.2))])
        assert states[b].candidates == []

    def test_missing_snapshot_ip_omitted(self):
        ips, snapshot, paths = chain_snapshot()
        states = baseline_of(ips + ["203.0.1.50"], snapshot, paths)
        assert "203.0.1.50" not in states


def fake_state(ip, n_clusters):
    cands = [
        CityCluster(i, GeoPoint(float(i), 0.0), f"c{i}", "FR", {"db1"})
        for i in range(n_clusters)
    ]
    return CandidateState(ip=ip, candidates=cands)


class TestHistogram:
    def test_bucketing(self):
        refined = {f"203.0.1.{i + 1}": fake_state(f"203.0.1.{i + 1}", n) for i, n in enumerate([1, 1, 2, 3, 4, 5])}
        baseline = {f"203.0.2.{i + 1}": fake_state(f"203.0.2.{i + 1}", n) for i, n in enumerate([0, 1])}
        rows = cluster_histogram(refined, baseline)
        assert [r.method for r in rows] == ["refined"] * 4 + ["sol_baseline"] * 4
        assert [r.clusters for r in rows] == list(HIST_BUCKETS) * 2
        refined_counts = {r.clusters: (r.count, r.fraction) for r in rows[:4]}
        assert refined_counts["1"] == (2, pytest.approx(2 / 6))
        assert refined_counts["2"] == (1, pytest.approx(1 / 6))
        assert refined_counts["3"] == (1, pytest.approx(1 / 6))
        assert refined_counts["4plus"] == (2, pytest.approx(2 / 6))
        base_counts = {r.clusters: (r.count, r.fraction) for r in rows[4:]}
        # The zero-cluster state lands in no bucket but stays in the
        # denominator.
        assert base_counts["1"] == (1, pytest.approx(1 / 2))
        assert sum(c for c, _ in base_counts.values()) == 1

    def test_single_cluster_fraction(self):
        assert single_cluster_fraction({}) == 0.0
        states = {
            "203.0.1.1": fake_state("203.0.1.1", 1),
            "203.0.1.2": fake_state("203.0.1.2", 2),
            "203.0.1.3": fake_state("203.0.1.3", 1),
        }
        assert single_cluster_fraction(states) == pytest.approx(2 / 3)


def snap_records(ip, *entries):
    return [
        GeoRecord(ip=ip, source=f"db{i + 1}", lat=lat, lon=lon, city=city, country=country)
        for i, (lat, lon, city, country) in enumerate(entries)
    ]


class TestDistanceCdf:
    def test_distances_against_majority_vote(self):
        ip1, ip2, ip3, ip4 = "203.0.1.1", "203.0.1.2", "203.0.1.3", "203.0.1.4"
        snapshot = {
            # Majority for ip1: the two "paris" rows; their mean sits at
            # (40.0, 2.0005), one degree of latitude from the fix.
            ip1: snap_records(
                ip1,
                (40.0, 2.0, "paris", "FR"),
                (40.0, 2.001, "paris", "FR"),
                (10.0, 10.0, "elsewhere", "FR"),
            ),
            ip2: snap_records(ip2, (50.0, 3.0, "lille", "FR")),
        }
        outcomes = {
            ip1: outcome(ip1, Verdict.INTERFACE_AFFECTED, GeoPoint(41.0, 2.0005)),
            ip2: outcome(ip2, Verdict.INTERFACE_AFFECTED, GeoPoint(50.05, 3.0)),
            ip3: outcome(ip3, Verdict.MPLS_AFFECTED, GeoPoint(0.0, 0.0)),
            ip4: outcome(ip4, Verdict.INTERFACE_AFFECTED, None),
        }
        distances, fraction = distance_cdf(outcomes, snapshot)
        assert len(distances) == 2
        assert distances == sorted(distances)
        assert distances[0] == pytest.approx(111.19, abs=10.0) or distances[0] < 20.0
        assert distances[0] < 20.0  # ip2 moved ~5.6 km
        assert distances[1] == pytest.approx(111.19, abs=1.0)
        assert fraction == pytest.approx(0.5)

    def test_majority_tie_resolves_toward_fix(self):
        ip = "203.0.1.1"
        snapshot = {
            ip: snap_records(ip, (40.0, 2.0, "near", "FR"), (45.0, 2.0, "far", "FR"))
        }
        outcomes = {ip: outcome(ip, Verdict.INTERFACE_AFFECTED, GeoPoint(40.0, 2.0))}
        distances, fraction = distance_cdf(outcomes, snapshot)
        assert distances == [pytest.approx(0.0)]
        assert fraction == 1.0

    def test_missing_snapshot_warns_and_skips(self):
        diag = Diagnostics()
        ip = "203.0.1.1"
        outcomes = {ip: outcome(ip, Verdict.INTERFACE_AFFECTED, GeoPoint(0, 0))}
        distances, fraction = distance_cdf(outcomes, {}, diag)
        assert distances == [] and fraction is None
        assert diag.count("report_missing_snapshot") == 1


class TestCountryDelta:
    def test_cross_border_correction_balances(self):
        ip1, ip2 = "203.0.1.1", "203.0.1.2"
        snapshot = {
            ip1: snap_records(ip1, (48.85, 2.35, "paris", "FR")),
            ip2: snap_records(ip2, (45.76, 4.83, "lyon", "FR")),
        }
        outcomes = {
            ip1: outcome(ip1, Verdict.INTERFACE_AFFECTED, GeoPoint(51.5, -0.1), "GB"),
            ip2: outcome(ip2, Verdict.INTERFACE_AFFECTED, GeoPoint(45.0, 4.8), "FR"),
        }
        deltas, changed = country_delta(outcomes, snapshot)
        assert deltas == {"FR": -1, "GB": 1}
        assert sum(deltas.values()) == 0
        assert changed == pytest.approx(0.5)

    def test_unresolved_country_skipped(self):
        ip = "203.0.1.1"
        snapshot = {ip: snap_records(ip, (48.85, 2.35, "paris", "FR"))}
        outcomes = {ip: outcome(ip, Verdict.INTERFACE_AFFECTED, GeoPoint(0, 0), None)}
        deltas, changed = country_delta(outcomes, snapshot)
        assert deltas == {} and changed is None


class TestCsvWriters:
    def test_summary_golden(self, tmp_path):
        table = table_from_counts((4, 3, 2), (1, 1, 1), (2, 2, 1), (3, 3, 2), (2, 2, 1))
        out = write_summary_csv(table, tmp_path / "summary.csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "category,ips,ips_pct,links,links_pct,traceroutes,traceroutes_pct"
        assert lines[1] == "total,4,100.0,3,100.0,2,100.0"
        assert lines[2] == "mpls_affected,1,25.0,1,33.333333,1,50.0"
        assert lines[5].startswith("corrected,2,66.666667,2,66.666667,1,50.0")

    def test_histogram_and_cdf_and_delta(self, tmp_path):
        rows = cluster_histogram(
            {"203.0.1.1": fake_state("203.0.1.1", 1)},
            {"203.0.1.1": fake_state("203.0.1.1", 2)},
        )
        hist = write_histogram_csv(rows, tmp_path / "hist.csv")
        lines = hist.read_text().splitlines()
        assert lines[0] == "method,clusters,count,fraction"
        assert lines[1] == "refined,1,1,1.0"
        assert lines[6] == "sol_baseline,2,1,1.0"

        cdf = write_distance_cdf_csv([5.0, 25.0], tmp_path / "cdf.csv")
        assert cdf.read_text().splitlines() == [
            "rank,distance_km,cdf",
            "1,5.0,0.5",
            "2,25.0,1.0",
        ]

        delta = write_country_delta_csv({"GB": 1, "FR": -1}, tmp_path / "delta.csv")
        assert delta.read_text().splitlines() == ["country,delta", "FR,-1", "GB,1"]

    def test_writers_deterministic(self, tmp_path):
        table = table_from_counts((4, 3, 2), (1, 1, 1), (2, 2, 1), (3, 3, 2), (2, 2, 1))
        a = write_summary_csv(table, tmp_path / "a.csv").read_bytes()
        b = write_summary_csv(table, tmp_path / "b.csv").read_bytes()
        assert a == b
