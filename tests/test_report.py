"""Reporting layer: summary-table arithmetic, the single-pass
speed-of-light baseline, histograms, the correction-distance CDF, and
per-country deltas."""
from __future__ import annotations

import math

import pytest

from traceloc.diagnostics import Diagnostics
from traceloc.geo import CityCluster, GeoPoint, cluster_candidates
from traceloc.ingest import CleanPath, GeoRecord, ip_key
from traceloc.refine import (
    CandidateState,
    IpStatus,
    RefineConfig,
    extract_pairs,
    iterate,
    make_states,
    pair_feasible,
)
from traceloc.report import (
    HIST_BUCKETS,
    cluster_histogram,
    country_delta,
    distance_cdf,
    single_cluster_fraction,
    sol_baseline,
    summarize,
    table_from_counts,
    write_country_delta_csv,
    write_distance_cdf_csv,
    write_histogram_csv,
    write_summary_csv,
)
from traceloc.resolve import ResolutionOutcome, Verdict
from traceloc.synth import InjectionSpec, corrupt_geodb, generate_world, simulate_traceroutes
from tests.conftest import plane_latlon


def path(pid, *hops):
    return CleanPath(path_id=pid, hops=[(ip, float(rtt)) for ip, rtt in hops], source_traceroute=pid)


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
        assert table.total_ips == 200
        by_cat = {row.category: row for row in table.rows}
        assert [r.category for r in table.rows] == [
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
        for row in table.rows:
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
        table = summarize({}, outcomes, paths)
        by_cat = {row.category: row for row in table.rows}

        assert (table.total_ips, table.total_links, table.total_traceroutes) == (10, 9, 4)
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
        table = summarize({}, {}, [])
        assert table.total_ips == 0
        assert all(row.ip_pct == 0.0 for row in table.rows)


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
    """The baseline over a run's clusters and pairs, built as `run` does."""
    clusters = {ip: cluster_candidates(snapshot.get(ip, []), 20.0) for ip in ips}
    return sol_baseline(clusters, extract_pairs(paths))


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
                for obs in pair.observations:
                    rtt_self = obs.rtt_a if is_a else obs.rtt_b
                    rtt_other = obs.rtt_b if is_a else obs.rtt_a
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


class TestSolBaselineMatchesReference:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_same_survivors_on_decoy_heavy_worlds(self, grid_catalog, seed):
        world = generate_world(seed, 60, 12, 0.05, grid_catalog)
        paths = simulate_traceroutes(world, 400, 0.05)
        spec = InjectionSpec(
            interface_error_fraction=0.05,
            min_displacement_km=300.0,
            db_count=4,
            db_noise_km=2.0,
            decoy_fraction=0.5,
            decoy_db_count=1,
        )
        snapshot, _ = corrupt_geodb(world, spec, seed, grid_catalog)
        ips = sorted({ip for p in paths for ip, _ in p.hops}, key=ip_key)

        def survivors(states):
            return {ip: [c.cluster_id for c in s.candidates] for ip, s in states.items()}

        got = survivors(baseline_of(ips, snapshot, paths))
        assert got == survivors(reference_sol_baseline(ips, snapshot, paths))
        # The worlds exercise the filter: some candidates die, some live.
        total = sum(len(cluster_candidates(snapshot[ip], 20.0)) for ip in ips)
        assert 0 < sum(len(v) for v in got.values()) < total


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
        refined, _ = iterate(refined, extract_pairs(paths), RefineConfig())
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
