"""End-to-end acceptance gates.

Each test exercises one promised behaviour at its stated tolerance and
appends a PASS/FAIL line to the terminal summary, so a full run prints a
one-line verdict per gate.  Expected values are computed by independent
re-implementations (reference distance formula, linear scans, whole-path
enumeration) or by hand, never by the code under test.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import time
from types import SimpleNamespace

import pytest

from traceloc.cli import SynthSettings, main
from traceloc.geo import (
    CityPolygon,
    GeoPoint,
    SpatialIndex,
    cluster_candidates,
    haversine_km,
    load_city_catalog,
)
from traceloc.geo import CityCluster
from traceloc.ingest import CleanPath, ip_key
from traceloc.refine import (
    IpStatus,
    RefineConfig,
    extract_pairs,
    iterate,
    make_states,
    pair_budgets,
    tag_anomalies,
)
from traceloc.report import (
    country_delta,
    ip_records,
    sol_baseline,
    summarize,
)
from traceloc.resolve import (
    ResolveConfig,
    Verdict,
    disc_radius_km,
    resolve_all,
    select_anchors,
)
from traceloc.synth import (
    corrupt_geodb,
    generate_world,
    score_against_truth,
    simulate_traceroutes,
)
from tests.conftest import (
    ACCEPT_LINES,
    KM_PER_DEG_LAT,
    pair_feasible,
    plane_latlon,
    single_cluster_fraction,
)


def _gate(name: str, ok: bool, detail: str) -> None:
    ACCEPT_LINES.append(f"[ACCEPT] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# --- shared synthetic corpus -------------------------------------------------
#
# A hub-and-spokes catalog: one 26-city cluster in the middle, six 28-city
# clusters on a ring around it, and one single-city micro-country island on
# each spoke.  Each cluster is a tight disc (13 km ring), so databases
# disagreeing by a few km still collapse to one cluster, while displacements
# land in a different cluster entirely.  The islands give the anchor scan
# something to find between regions.


def write_hubring_catalog(path, gap=1600.0, radius=13.0):
    rows: list[str] = []

    def add(name, cc, x, y):
        lat = y / KM_PER_DEG_LAT
        lon = x / (KM_PER_DEG_LAT * math.cos(math.radians(lat)))
        rows.append(f"{name},{cc},{round(lat, 6)},{round(lon, 6)}")

    def cluster(cx, cy, n, cc):
        add(f"{cc.lower()}-00", cc, cx, cy)
        for i in range(n - 1):
            a = 2 * math.pi * i / (n - 1)
            add(f"{cc.lower()}-{i + 1:02d}", cc, cx + radius * math.cos(a), cy + radius * math.sin(a))

    cluster(0, 0, 26, "XC")
    spokes = zip(["XA", "XB", "XD", "XE", "XF", "XG"], ["IA", "IB", "IC", "ID", "IE", "IF"])
    for k, (cc, island) in enumerate(spokes):
        th = math.radians(k * 60)
        g = gap + 10 * k
        cluster(g * math.cos(th), g * math.sin(th), 28, cc)
        add(f"{island.lower()}-0", island, (0.4 * g) * math.cos(th), (0.4 * g) * math.sin(th))
    path.write_text("name,country,lat,lon\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """200 routers, 5000 traceroutes, 5% of routers displaced >=500 km with
    all eight databases agreeing on the lie, 3% tunnel fraction, 5% RTT
    noise — analysed end to end."""
    root = tmp_path_factory.mktemp("accept_world")
    catalog = load_city_catalog(write_hubring_catalog(root / "cities.csv"))

    t0 = time.perf_counter()
    world = generate_world(41, 200, 200, 0.03, catalog, tunnel_len=3)
    paths = simulate_traceroutes(world, 5000, 0.05)
    spec = SynthSettings(
        interface_error_fraction=0.05,
        min_displacement_km=500.0,
        db_count=8,
        db_noise_km=3.0,
    )
    snapshot, displaced = corrupt_geodb(world, spec, 41, catalog)

    states = make_states(
        {ip: cluster_candidates(recs, 20.0) for ip, recs in snapshot.items()}
    )
    iterate(states, pair_budgets(extract_pairs(paths), RefineConfig()), RefineConfig())
    tag_anomalies(states, RefineConfig())
    outcomes = resolve_all(states, paths, SpatialIndex(catalog), ResolveConfig())
    elapsed = time.perf_counter() - t0

    score = score_against_truth(list(ip_records(states, outcomes)), world, displaced)
    return SimpleNamespace(
        catalog=catalog,
        world=world,
        paths=paths,
        snapshot=snapshot,
        displaced=displaced,
        states=states,
        outcomes=outcomes,
        score=score,
        elapsed=elapsed,
    )


# --- gate 1: great-circle distance vs an independent reference ---------------


def reference_distance_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance via the atan2 formulation (independent of the
    library's asin form)."""
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = phi2 - phi1
    dlmb = math.radians(b.lon - a.lon)
    s = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2) ** 2
    return 6371.0 * 2 * math.atan2(math.sqrt(s), math.sqrt(1 - s))


def test_distance_reference_agreement():
    rng = random.Random(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        a = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
        b = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
        got = haversine_km(a, b)
        want = reference_distance_km(a, b)
        if want > 0:
            worst = max(worst, abs(got - want) / want)
    # Exact degenerate cases: zero for identity, half the circumference for
    # antipodes.
    exact_ok = haversine_km(GeoPoint(37.5, -12.25), GeoPoint(37.5, -12.25)) == 0.0
    for p, q in [
        (GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0)),
        (GeoPoint(0.0, 90.0), GeoPoint(0.0, -90.0)),
        (GeoPoint(90.0, 0.0), GeoPoint(-90.0, 0.0)),
    ]:
        exact_ok = exact_ok and haversine_km(p, q) == math.pi * 6371.0
    elapsed = time.perf_counter() - t0
    _gate(
        "distance-reference-agreement",
        worst <= 1e-3 and exact_ok and elapsed < 1.0,
        f"10000 pairs, worst rel err {worst:.2e}, degenerate cases exact={exact_ok}, {elapsed:.2f}s",
    )


# --- gate 2: indexed overlap queries match a linear scan ---------------------


def test_overlap_query_equivalence():
    rng = random.Random(2002)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1_000):
        n = rng.randint(5, 80)
        catalog = [
            CityPolygon(
                polygon_id=i,
                name=f"c{i}",
                country="FR",
                centroid=GeoPoint(rng.uniform(-85, 85), rng.uniform(-180, 180)),
                radius_km=rng.uniform(5, 120),
            )
            for i in range(n)
        ]
        index = SpatialIndex(catalog)
        center = GeoPoint(rng.uniform(-85, 85), rng.uniform(-180, 180))
        radius = rng.uniform(0, 2500)
        got = index.query(center, radius)
        want = [
            p.polygon_id
            for p in catalog
            if haversine_km(center, p.centroid) <= radius + p.radius_km
        ]
        if got != want:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _gate(
        "overlap-query-equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"1000 random instances, {mismatches} mismatches, {elapsed:.2f}s",
    )


# --- gate 3: refinement vs whole-path enumeration ----------------------------


def small_corpus(seed: int):
    """Eight IPs with exact (noise-free) RTTs on four short paths.

    Decoy candidates model displaced database entries: most IPs carry one
    or no decoy, a few carry two, all displaced 700-3000 km from the truth
    so a decoy is plausible only when geometry conspires.  Roughly 90% of
    decoys get pruned across the suite, so the enumeration cross-check
    below exercises real decisions, not a trivial corpus.
    """
    rng = random.Random(seed)
    ips = [f"203.0.2.{i + 1}" for i in range(8)]
    true_xy = {ip: (rng.uniform(-500, 500), rng.uniform(-500, 500)) for ip in ips}

    def point(xy):
        lat, lon = plane_latlon(*xy)
        return GeoPoint(lat, lon)

    clusters = {}
    for ip in ips:
        cands = [CityCluster(0, point(true_xy[ip]), f"{ip}-true", "FR", {"db1"})]
        n_dec = rng.choices([0, 1, 2], weights=(0.45, 0.40, 0.15))[0]
        for j in range(n_dec):
            th = rng.uniform(0, 2 * math.pi)
            d = rng.uniform(700, 3000)
            xy = (true_xy[ip][0] + d * math.cos(th), true_xy[ip][1] + d * math.sin(th))
            cands.append(CityCluster(j + 1, point(xy), f"{ip}-decoy{j}", "FR", {"db1"}))
        clusters[ip] = cands

    def dist(p, q):
        return math.hypot(p[0] - q[0], p[1] - q[1])

    paths = []
    for p in range(4):
        hops = rng.sample(ips, rng.randint(3, 5))
        rtt = rng.uniform(0.5, 3.0)
        out = []
        prev = None
        for ip in hops:
            if prev is not None:
                rtt += dist(true_xy[prev], true_xy[ip]) / 100.0
            out.append((ip, rtt))
            prev = ip
        paths.append(CleanPath(path_id=f"c{seed}-{p}", hops=out, source_traceroute=""))
    return ips, clusters, paths


def whole_path_feasible_sets(path, clusters, cfg):
    """For each hop, the candidates appearing in at least one globally
    feasible assignment of the whole path, enumerated brute-force over the
    corpus's full candidate space."""
    hop_ips = [ip for ip, _ in path.hops]
    rtts = [rtt for _, rtt in path.hops]
    options = [clusters[ip] for ip in hop_ips]
    feasible = [set() for _ in hop_ips]
    for combo in itertools.product(*options):
        ok = all(
            pair_feasible(a.centroid, b.centroid, rtts[i], rtts[i + 1], cfg)
            for i, (a, b) in enumerate(zip(combo, combo[1:]))
        )
        if ok:
            for slot, cand in zip(feasible, combo):
                slot.add(cand.cluster_id)
    return hop_ips, feasible


def test_chain_consistency():
    cfg = RefineConfig()
    t0 = time.perf_counter()
    total_ips = retained_true = 0
    violations = 0
    for seed in range(100):
        ips, clusters, paths = small_corpus(7000 + seed)
        states = make_states(clusters)
        iterate(states, pair_budgets(extract_pairs(paths), cfg), cfg)
        # Candidates appearing in a feasible whole-path assignment, per
        # path, computed before looking at what refine kept.
        enum_ok: dict[str, set[int]] = {ip: set(range(len(clusters[ip]))) for ip in ips}
        for path in paths:
            hop_ips, feasible = whole_path_feasible_sets(path, clusters, cfg)
            for ip, ok_ids in zip(hop_ips, feasible):
                enum_ok[ip] &= ok_ids
        for ip in ips:
            total_ips += 1
            if any(c.city == f"{ip}-true" for c in states[ip].candidates):
                retained_true += 1
            for cand in states[ip].candidates:
                if cand.cluster_id not in enum_ok[ip]:
                    violations += 1
    elapsed = time.perf_counter() - t0
    retention = retained_true / total_ips
    _gate(
        "chain-consistency",
        retention >= 0.95 and violations == 0 and elapsed < 60.0,
        f"100 corpora: true-location retention {retention:.3f}, "
        f"{violations} enumeration violations, {elapsed:.1f}s",
    )


# --- gate 4: detection quality on the full synthetic corpus ------------------


def test_synthetic_displacement_detection(corpus):
    s = corpus.score
    ok = (
        s.displaced_recall is not None
        and s.displaced_recall >= 0.8
        and s.displaced_precision is not None
        and s.displaced_precision >= 0.7
        and s.interface_within_100km_fraction is not None
        and s.interface_within_100km_fraction >= 0.7
        and s.tunnel_interior_recall is not None
        and s.tunnel_interior_recall >= 0.8
        and corpus.elapsed < 300.0
    )
    _gate(
        "synthetic-displacement-detection",
        ok,
        f"recall={s.displaced_recall:.3f} precision={s.displaced_precision:.3f} "
        f"within100={s.interface_within_100km_fraction:.3f} "
        f"tunnel_interior={s.tunnel_interior_recall:.3f} "
        f"median_err={s.interface_distance_median_km:.1f}km "
        f"runtime={corpus.elapsed:.1f}s",
    )


# --- gate 5: refinement beats the single-pass baseline -----------------------


def test_clutter_reduction(corpus):
    path_ips = sorted({ip for p in corpus.paths for ip, _ in p.hops}, key=ip_key)
    clusters = {ip: cluster_candidates(corpus.snapshot.get(ip, []), 20.0) for ip in path_ips}
    baseline = sol_baseline(clusters, pair_budgets(extract_pairs(corpus.paths), RefineConfig()))
    refined = {ip: corpus.states[ip] for ip in path_ips if ip in corpus.states}
    frac_refined = single_cluster_fraction(refined)
    frac_baseline = single_cluster_fraction(baseline)
    _gate(
        "clutter-reduction",
        frac_refined > frac_baseline,
        f"single-cluster fraction refined={frac_refined:.4f} > baseline={frac_baseline:.4f}",
    )


# --- gate 6: per-country corrections balance to zero -------------------------


def test_country_balance(corpus):
    deltas, _ = country_delta(corpus.outcomes, corpus.snapshot)
    corpus_sum = sum(deltas.values())

    # Hand fixture: one correction moving an IP from FR to GB.
    from traceloc.ingest import GeoRecord
    from traceloc.resolve import ResolutionOutcome

    ip = "203.0.5.1"
    snapshot = {ip: [GeoRecord(ip, "db1", 48.85, 2.35, "paris", "FR")]}
    outcomes = {
        ip: ResolutionOutcome(
            ip=ip,
            verdict=Verdict.INTERFACE_AFFECTED,
            resolved=GeoPoint(51.5, -0.12),
            resolved_country="GB",
        )
    }
    fixture_deltas, changed = country_delta(outcomes, snapshot)
    fixture_ok = (
        fixture_deltas == {"FR": -1, "GB": 1}
        and fixture_deltas["GB"] == -fixture_deltas["FR"]
        and changed == 1.0
    )
    _gate(
        "country-balance",
        corpus_sum == 0 and fixture_ok,
        f"corpus deltas sum={corpus_sum} over {len(deltas)} countries; "
        f"FR->GB fixture deltas={fixture_deltas}",
    )


# --- gate 7: affected-element summary, exact on a hand-counted fixture -------


def test_affected_summary_exactness():
    from traceloc.resolve import ResolutionOutcome

    ips = {name: f"203.0.1.{i + 1}" for i, name in enumerate("ABCDEFGHIJ")}

    def path(pid, *hops):
        return CleanPath(path_id=pid, hops=list(hops), source_traceroute=pid)

    paths = [
        path("p1", (ips["A"], 1.0), (ips["B"], 2.0), (ips["C"], 3.0), (ips["D"], 4.0)),
        path("p2", (ips["C"], 1.0), (ips["D"], 2.0), (ips["E"], 3.0), (ips["F"], 4.0)),
        path("p3", (ips["F"], 1.0), (ips["G"], 2.0), (ips["H"], 3.0), (ips["A"], 4.0)),
        path("p4", (ips["I"], 1.0), (ips["J"], 2.0)),
    ]
    outcomes = {
        ips["A"]: ResolutionOutcome(ip=ips["A"], verdict=Verdict.MPLS_AFFECTED),
        ips["E"]: ResolutionOutcome(
            ip=ips["E"], verdict=Verdict.INTERFACE_AFFECTED, resolved=GeoPoint(1, 1)
        ),
        ips["G"]: ResolutionOutcome(
            ip=ips["G"], verdict=Verdict.INTERFACE_AFFECTED, resolved=GeoPoint(2, 2)
        ),
    }
    links = [(p.ip_a, p.ip_b) for p in extract_pairs(paths)]
    table = summarize(outcomes, paths, links, {ip for p in paths for ip, _ in p.hops})
    got = {
        row.category: (
            row.ip_count, row.ip_pct, row.link_count, row.link_pct,
            row.traceroute_count, row.traceroute_pct,
        )
        for row in table
    }
    # Hand count: 10 IPs, 9 distinct links, 4 traceroutes.  A poisons links
    # A-B and H-A and paths p1/p3; E and G cover links D-E, E-F, F-G, G-H
    # and paths p2/p3.  Only p2 and the four interface links are repairable.
    want = {
        "total": (10, 100.0, 9, 100.0, 4, 100.0),
        "mpls_affected": (1, 10.0, 2, 100.0 * 2 / 9, 2, 50.0),
        "interface_affected": (2, 20.0, 4, 100.0 * 4 / 9, 2, 50.0),
        "total_affected": (3, 30.0, 6, 100.0 * 6 / 9, 3, 75.0),
        "corrected": (2, 100.0 * 2 / 3, 4, 100.0 * 4 / 6, 1, 100.0 * 1 / 3),
    }
    mismatched = [cat for cat in want if got.get(cat) != want[cat]]
    _gate(
        "affected-summary-exactness",
        not mismatched,
        "all 5 rows exact" if not mismatched else f"mismatched rows: {mismatched}",
    )


# --- gate 8: the whole pipeline is reproducible byte-for-byte ----------------


def test_run_determinism(tmp_path):
    catalog = tmp_path / "cities.csv"
    from tests.conftest import write_plane_catalog

    write_plane_catalog(
        catalog,
        [(f"g{r}{c}", "FR", 250.0 * c, 250.0 * r) for r in range(4) for c in range(5)],
    )

    def full_pass(tag: str):
        synth_dir = tmp_path / f"synth_{tag}"
        run_dir = tmp_path / f"run_{tag}"
        synth_cfg = tmp_path / f"synth_{tag}.conf"
        synth_cfg.write_text(
            "\n".join(
                [
                    f"city_catalog = {catalog}",
                    f"out_dir = {synth_dir}",
                    "seed = 11",
                    "synth.n_routers = 60",
                    "synth.n_cities = 20",
                    "synth.mpls_fraction = 0.05",
                    "synth.n_paths = 800",
                    "synth.noise_fraction = 0.05",
                    "synth.interface_error_fraction = 0.08",
                    "synth.min_displacement_km = 400",
                    "synth.db_count = 6",
                    "synth.db_noise_km = 3",
                    "synth.tunnel_len = 3",
                ]
            )
            + "\n"
        )
        run_cfg = tmp_path / f"run_{tag}.conf"
        run_cfg.write_text(
            "\n".join(
                [
                    f"traceroutes = {synth_dir / 'traceroutes.jsonl'}",
                    f"geo_snapshot = {synth_dir / 'snapshot.csv'}",
                    f"city_catalog = {catalog}",
                    f"out_dir = {run_dir}",
                ]
            )
            + "\n"
        )
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        assert main(["run", "--config", str(run_cfg)]) == 0
        assert main(["score", str(run_dir), str(synth_dir / "world.json")]) == 0
        return synth_dir, run_dir

    synth_a, run_a = full_pass("a")
    synth_b, run_b = full_pass("b")

    differing = []
    for dir_a, dir_b in ((synth_a, synth_b), (run_a, run_b)):
        names_a = sorted(p.name for p in dir_a.iterdir())
        names_b = sorted(p.name for p in dir_b.iterdir())
        if names_a != names_b:
            differing.append(f"{dir_a.name}: listing differs")
            continue
        for name in names_a:
            if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
                differing.append(f"{dir_a.name}/{name}")
    n_files = len(list(synth_a.iterdir())) + len(list(run_a.iterdir()))
    _gate(
        "run-determinism",
        not differing,
        f"{n_files} output files byte-identical across two synth+run+score passes"
        if not differing
        else f"differing: {differing}",
    )


# --- gate 9: median aggregation shrugs off a single outlier ------------------


def test_median_robustness():
    anchor, tagged = "203.0.7.1", "203.0.7.9"
    states = make_states(
        {
            anchor: [CityCluster(0, GeoPoint(0.0, 0.0), "a", "FR", {"db1"})],
            tagged: [CityCluster(0, GeoPoint(0.0, 10.0), "b", "FR", {"db1"})],
        }
    )
    states[tagged].status = IpStatus.ANOMALOUS

    def obs(delta, rtt):
        """One path on which ``tagged`` votes for ``anchor``."""
        return [(anchor, rtt), (tagged, rtt + delta)]

    def radius(votes):
        paths = [CleanPath(f"p{i}", hops) for i, hops in enumerate(votes)]
        (summary,) = select_anchors(paths, states)[tagged]
        return disc_radius_km(summary, cfg)

    cfg = ResolveConfig()
    clean = [obs(1.0, 10.0), obs(2.0, 10.0), obs(3.0, 10.0), obs(4.0, 10.0), obs(5.0, 10.0)]
    spiked = list(clean)
    spiked[-1] = obs(50.0, 100.0)  # one observation blown up tenfold
    r_clean = radius(clean)
    r_spiked = radius(spiked)
    shift = abs(r_spiked - r_clean)
    _gate(
        "median-robustness",
        shift == 0.0,
        f"buffer radius {r_clean:.1f} km, shift after 10x outlier = {shift} km",
    )
