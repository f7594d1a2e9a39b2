"""Synthetic worlds: generation invariants, simulation physics, database
corruption, and ground-truth scoring."""
from __future__ import annotations

import hashlib
import heapq
import ipaddress
import logging
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import traceloc
from traceloc.cli import MAX_SYNTH_ROUTERS, SynthSettings, broken_bound
from traceloc.diagnostics import Diagnostics
from traceloc.geo import (
    FIBER_KM_PER_MS,
    CityPolygon,
    GeoPoint,
    haversine_km,
    load_city_catalog,
)
from traceloc.ingest import CleanPath, write_geo_snapshot
from traceloc.refine import CandidateState, IpStatus, make_states
from traceloc.report import ip_records
from traceloc.resolve import ResolutionOutcome, Verdict
from traceloc.synth import (
    _ROUTE_VARIANTS,
    EXTRA_DEGREE,
    _TIE_EPS_KM,
    _apply_tunnels,
    Router,
    World,
    corrupt_geodb,
    generate_world,
    load_world,
    save_world,
    score_against_truth,
    _router_ip,
    _shortest_path,
    simulate_traceroutes,
    tunnel_interior_ips,
    tunnel_member_ips,
)
from traceloc.geo import CityCluster
from tests.conftest import write_plane_catalog
from tests.test_cli import BOUND_EDGES


@pytest.fixture(scope="module")
def line_catalog(tmp_path_factory):
    rows = [(f"l{i}", "FR", 100.0 * i, 0.0) for i in range(6)]
    path = tmp_path_factory.mktemp("catalog") / "line.csv"
    write_plane_catalog(path, rows)
    return load_city_catalog(path)


def connected(world: World) -> bool:
    n = len(world.routers)
    adj = {i: [] for i in range(n)}
    for a, b in world.links:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == n


def link_adjacency(world: World) -> dict[int, list[tuple[int, float]]]:
    """The weighted, sorted adjacency that ``simulate_traceroutes`` routes on."""
    adj = {i: [] for i in range(len(world.routers))}
    for a, b in world.links:
        w = haversine_km(world.routers[a].location, world.routers[b].location)
        adj[a].append((b, w))
        adj[b].append((a, w))
    for entries in adj.values():
        entries.sort()
    return adj


def shortest_km(world: World, src: int, dst: int) -> float:
    """Independent Dijkstra over the world's links."""
    adj = link_adjacency(world)
    dist = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == dst:
            return d
        if d > dist.get(u, math.inf):
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist.get(dst, math.inf)


def reference_shortest_path(adj, key, cache, route_seed):
    """The route search ``simulate_traceroutes`` used before searches were
    resumed and shared per source, kept as the reference: one Dijkstra over
    the whole graph per (source, variant), with the same coin-flip
    tie-breaking."""
    if key in cache:
        return cache[key]
    src, variant = key
    rng = random.Random(f"route:{route_seed}:{src}:{variant}")
    n = len(adj)
    dist = [math.inf] * n
    pred = [-1] * n
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v] - _TIE_EPS_KM:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
            elif abs(nd - dist[v]) <= _TIE_EPS_KM and w > _TIE_EPS_KM:
                if rng.random() < 0.5:
                    pred[v] = u
    cache[key] = (dist, pred)
    return dist, pred


def route(pred: list[int], src: int, dst: int) -> list[int]:
    nodes = [dst]
    while nodes[-1] != src:
        assert len(nodes) <= len(pred), f"no route back from {dst} to {src}"
        nodes.append(pred[nodes[-1]])
    return nodes[::-1]


def reference_links(world: World) -> list[tuple[int, int]]:
    """A world's links rebuilt from its router locations: Prim's backbone
    with (distance, node) tie-breaking, plus each router's ``EXTRA_DEGREE``
    nearest peers ranked as ``(distance, index)`` tuples."""
    n = len(world.routers)
    locs = [r.location for r in world.routers]
    # Measured in the router pair's i < j order, as generate_world does.
    dist = [[haversine_km(locs[min(i, j)], locs[max(i, j)]) for j in range(n)] for i in range(n)]
    in_tree, best, parent = [False] * n, [math.inf] * n, [-1] * n
    best[0] = 0.0
    heap, links = [(0.0, 0)], set()
    while heap:
        _, u = heapq.heappop(heap)
        if in_tree[u]:
            continue
        in_tree[u] = True
        if parent[u] >= 0:
            links.add((min(u, parent[u]), max(u, parent[u])))
        for v in range(n):
            if not in_tree[v] and dist[u][v] < best[v]:
                best[v], parent[v] = dist[u][v], u
                heapq.heappush(heap, (dist[u][v], v))
    for i in range(n):
        ranked = sorted((dist[i][j], j) for j in range(n) if j != i)
        links.update((min(i, j), max(i, j)) for _, j in ranked[:EXTRA_DEGREE])
    return sorted(links)


def reference_simulate_traceroutes(world: World, n_paths: int, noise_fraction: float):
    """``simulate_traceroutes`` as it was before each path was built in one
    pass: a running list of cumulative km, RTTs for every node, then
    ``Random.uniform`` noise and router lookups hop by hop."""
    rng = random.Random(f"paths:{world.rng_seed}")
    n = len(world.routers)
    adj = link_adjacency(world)
    link_km = {}
    for a, b in world.links:
        loc_a, loc_b = world.routers[a].location, world.routers[b].location
        link_km[a, b] = haversine_km(loc_a, loc_b)
        link_km[b, a] = haversine_km(loc_b, loc_a)
    member_of = {}
    for t_idx, tunnel in enumerate(world.mpls_tunnels):
        for pos, node in enumerate(tunnel):
            member_of[node] = (t_idx, pos)
    cache, paths, attempts = {}, [], 0
    while len(paths) < n_paths and attempts < max(n_paths * 50, 1000):
        attempts += 1
        src = rng.randrange(n)
        dst = rng.randrange(n)
        if src == dst:
            continue
        variant = rng.randrange(_ROUTE_VARIANTS)
        dist, preds = _shortest_path(adj, src, dst, cache, f"{world.rng_seed}")
        if math.isinf(dist[dst]):
            continue
        pred = preds[variant]
        nodes = [dst]
        while nodes[-1] != src:
            nodes.append(pred[nodes[-1]])
        nodes.reverse()
        if len(nodes) < 3:
            continue
        cumulative = [0.0]
        for link in zip(nodes, nodes[1:]):
            cumulative.append(cumulative[-1] + link_km[link])
        rtts = [2.0 * c / FIBER_KM_PER_MS for c in cumulative]
        hops_nodes = nodes[1:]
        hop_rtts = rtts[1:]
        _apply_tunnels(hops_nodes, hop_rtts, member_of)
        if noise_fraction > 0.0:
            hop_rtts = [
                r * (1.0 + rng.uniform(-noise_fraction, noise_fraction)) for r in hop_rtts
            ]
        paths.append(
            CleanPath(
                path_id=f"synth-{len(paths)}",
                hops=[(world.routers[node].ip, rtt) for node, rtt in zip(hops_nodes, hop_rtts)],
                source_traceroute=f"router-{src}",
            )
        )
    return paths


@pytest.fixture(scope="module")
def lopsided_catalog(tmp_path_factory):
    """Two cities whose distance differs in the last bits between the two
    argument orders of haversine_km (its far-pair form is not symmetric)."""
    path = tmp_path_factory.mktemp("catalog") / "lopsided.csv"
    rows = "aa,AA,45.4461,-166.35\nbb,BB,-32.6695,41.3821\n"
    path.write_text("name,country,lat,lon\n" + rows, encoding="utf-8")
    return load_city_catalog(path)


def wrap_lon(lon: float) -> float:
    return (lon + 180.0) % 360.0 - 180.0


@st.composite
def mixed_catalogs(draw):
    """A seed, a router count above the city count, and 2–6 cities: a base
    city off the equator, up to two more near it, and one to three near its
    antipode.  Each far city is nudged within a 0.01° square until its
    distance to the base city differs between the two argument orders of
    haversine_km (on the equator they never do)."""
    def offset(limit: float) -> float:
        return draw(st.integers(-round(limit * 10000), round(limit * 10000))) / 10000

    lat = draw(st.integers(1, 60)) * draw(st.sampled_from([1, -1]))
    lon = draw(st.integers(-179, 179))
    base = GeoPoint(lat + offset(0.3), wrap_lon(lon + offset(0.3)))
    points = [base]
    for _ in range(draw(st.integers(0, 2))):
        points.append(GeoPoint(lat + offset(3), wrap_lon(lon + offset(3))))
    for _ in range(draw(st.integers(1, 3))):
        far_lat, far_lon = -lat + offset(3), lon + 180.0 + offset(3)
        nudged = (
            GeoPoint(far_lat + k % 100 / 10000, wrap_lon(far_lon + k // 100 / 10000))
            for k in range(10000)
        )
        points.append(next(p for p in nudged if haversine_km(base, p) != haversine_km(p, base)))
    cities = [
        CityPolygon(k, f"c{k}", "FR", point, 20.0)
        for k, point in enumerate(draw(st.permutations(points)))
    ]
    n_routers = draw(st.integers(len(cities) + 1, 4 * len(cities)))
    return draw(st.integers(0, 10**6)), n_routers, cities


class TestGenerateWorld:
    def test_deterministic(self, grid_catalog):
        w1 = generate_world(5, 20, 12, 0.1, grid_catalog)
        w2 = generate_world(5, 20, 12, 0.1, grid_catalog)
        assert w1 == w2
        w3 = generate_world(6, 20, 12, 0.1, grid_catalog)
        assert w1 != w3

    def test_connected_graph(self, grid_catalog):
        for seed in range(5):
            assert connected(generate_world(seed, 25, 12, 0.0, grid_catalog))

    def test_round_robin_city_assignment(self, grid_catalog):
        world = generate_world(1, 10, 4, 0.0, grid_catalog)
        per_city: dict[str, int] = {}
        for r in world.routers:
            per_city[r.city] = per_city.get(r.city, 0) + 1
        assert sorted(per_city.values()) == [2, 2, 3, 3]

    def test_routers_sit_on_city_centroids(self, grid_catalog):
        world = generate_world(2, 12, 12, 0.0, grid_catalog)
        by_name = {p.name: p for p in grid_catalog}
        for r in world.routers:
            assert r.location == by_name[r.city].centroid
            assert r.country == by_name[r.city].country

    def test_validation(self, grid_catalog):
        with pytest.raises(ValueError):
            generate_world(1, 1, 4, 0.0, grid_catalog)
        with pytest.raises(ValueError):
            generate_world(1, 10, 99, 0.0, grid_catalog)
        with pytest.raises(ValueError):
            generate_world(1, 10, 4, 1.5, grid_catalog)
        with pytest.raises(ValueError):
            generate_world(1, 10, 4, 0.1, grid_catalog, tunnel_len=1)

    def test_router_count_is_capped_at_the_address_plan(self, grid_catalog):
        assert _router_ip(MAX_SYNTH_ROUTERS - 1) == "203.0.255.250"
        with pytest.raises(ValueError):
            ipaddress.IPv4Address(_router_ip(MAX_SYNTH_ROUTERS))
        # Rejected before any router or distance is built, so this is quick.
        with pytest.raises(ValueError, match=rf"^n_routers in \[2,{MAX_SYNTH_ROUTERS}\]$"):
            generate_world(1, MAX_SYNTH_ROUTERS + 1, 4, 0.0, grid_catalog)

    # The stage that reads each synth knob; corrupt_geodb reads the rest.
    STAGE_OF = {
        **dict.fromkeys(("n_routers", "n_cities", "mpls_fraction", "tunnel_len"), "generate_world"),
        **dict.fromkeys(("n_paths", "noise_fraction"), "simulate_traceroutes"),
    }

    @pytest.mark.parametrize(
        "name, raw, words",
        [
            (key.removeprefix("synth."), raw, None if raw in accepted else words)
            for key, accepted, rejected, words in BOUND_EDGES if key.startswith("synth.")
            for raw in accepted + rejected
        ],
    )
    def test_stages_share_the_config_bounds(self, grid_catalog, name, raw, words):
        """The stage that reads a knob rejects a value past its bound with
        the words of the config error, and the shared check passes each
        value the config accepts."""
        value = type(getattr(SynthSettings, name))(raw)
        if words is None:
            assert broken_bound(SynthSettings, **{name: value}) is None
            return
        s = SynthSettings(n_routers=6, n_cities=4, n_paths=5)
        world = generate_world(1, s.n_routers, s.n_cities, 0.0, grid_catalog)
        setattr(s, name, value)
        stage = self.STAGE_OF.get(name, "corrupt_geodb")
        with pytest.raises(ValueError) as exc:
            if stage == "generate_world":
                generate_world(
                    1, s.n_routers, s.n_cities, s.mpls_fraction, grid_catalog,
                    tunnel_len=s.tunnel_len,
                )
            elif stage == "simulate_traceroutes":
                simulate_traceroutes(world, s.n_paths, s.noise_fraction)
            else:
                corrupt_geodb(world, s, 1, grid_catalog)
        assert str(exc.value) == f"{name} {words}"

    def test_tunnel_runs_shape(self, grid_catalog):
        world = generate_world(3, 24, 12, 0.15, grid_catalog, tunnel_len=4)
        # round(0.15 * 23 backbone edges) = 3 tunnels of 4 nodes each.
        assert len(world.mpls_tunnels) == 3
        links = set(world.links)
        used: set[int] = set()
        for run in world.mpls_tunnels:
            assert len(run) == 4
            assert used.isdisjoint(run)
            used.update(run)
            for a, b in zip(run, run[1:]):
                assert (min(a, b), max(a, b)) in links

    def test_links_rank_nearest_peers_by_distance_then_index(self, grid_catalog, data_dir):
        # Co-located worlds (more routers than cities) tie at 0 km and at
        # equal grid spacings; the lower index must win, as with the
        # (distance, index) tuples the ranking once sorted.
        global_catalog = load_city_catalog(data_dir / "cities_global.csv")
        for catalog, n_routers in ((grid_catalog, 30), (global_catalog, 40)):
            for seed in (1, 7):
                world = generate_world(seed, n_routers, 12, 0.1, catalog, tunnel_len=3)
                assert world.links == reference_links(world), (n_routers, seed)

    def test_lopsided_city_pair_matches_reference(self, lopsided_catalog):
        # A router pair's distance is its cities' in the pair's index order;
        # reading one order for every pair of a city pair builds other links.
        a, b = (c.centroid for c in lopsided_catalog)
        assert haversine_km(a, b) != haversine_km(b, a)
        for seed in range(1, 9):
            for n_routers in range(2, 10):
                world = generate_world(seed, n_routers, 2, 0.0, lopsided_catalog)
                assert world.links == reference_links(world), (seed, n_routers)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(mixed_catalogs())
    def test_near_and_antipodal_catalogs_match_reference(self, drawn):
        seed, n_routers, cities = drawn
        world = generate_world(seed, n_routers, len(cities), 0.0, cities)
        assert world.links == reference_links(world)

    def test_memory_stays_far_below_a_router_matrix(self, tmp_path):
        # 1,000 routers over 100 cities: a router-pair distance matrix alone
        # would hold 10**6 list slots, 8 MB.
        rows = [(f"p{k}", "FR", 150.0 * (k % 10), 150.0 * (k // 10)) for k in range(100)]
        catalog = load_city_catalog(write_plane_catalog(tmp_path / "plane.csv", rows))
        n_routers = 1000
        tracemalloc.start()
        try:
            world = generate_world(1, n_routers, 100, 0.0, catalog)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert connected(world)
        assert peak < 8 * n_routers**2 / 4, peak

    def test_city_tables_cover_only_cities_that_host_a_router(self, tmp_path):
        # 50 routers over 1,000 sampled cities: router i sits on city i, so
        # a table over all of them, 10**6 list slots (8 MB), buys nothing.
        rows = [(f"p{k}", "FR", 50.0 * (k % 40), 50.0 * (k // 40)) for k in range(1000)]
        catalog = load_city_catalog(write_plane_catalog(tmp_path / "plane.csv", rows))
        n_cities = 1000
        tracemalloc.start()
        try:
            world = generate_world(1, 50, n_cities, 0.0, catalog)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_cities**2, peak
        assert world.links == reference_links(world)

    def test_zero_fraction_means_no_tunnels(self, grid_catalog):
        assert generate_world(3, 24, 12, 0.0, grid_catalog).mpls_tunnels == []


class TestSimulateTraceroutes:
    def test_noise_free_physics(self, grid_catalog):
        world = generate_world(7, 18, 12, 0.0, grid_catalog)
        paths = simulate_traceroutes(world, 60, 0.0)
        assert len(paths) == 60
        ip_to_idx = {r.ip: i for i, r in enumerate(world.routers)}
        links = set(world.links)
        for path in paths:
            src = int(path.source_traceroute.split("-")[1])
            hops = [(ip_to_idx[ip], rtt) for ip, rtt in path.hops]
            # The probing source never reports itself.
            assert all(node != src for node, _ in hops)
            # First hop: RTT is the out-and-back time over the first link.
            first, rtt0 = hops[0]
            assert (min(src, first), max(src, first)) in links
            d0 = haversine_km(world.routers[src].location, world.routers[first].location)
            assert rtt0 == pytest.approx(d0 / 100.0, rel=1e-9)
            # Every later step: adjacent hops are linked and the RTT
            # increment is exactly the link distance at fiber speed.
            for (a, ra), (b, rb) in zip(hops, hops[1:]):
                assert (min(a, b), max(a, b)) in links
                d = haversine_km(world.routers[a].location, world.routers[b].location)
                assert rb - ra == pytest.approx(d / 100.0, rel=1e-9)

    def test_routes_are_shortest_paths(self, grid_catalog):
        world = generate_world(7, 18, 12, 0.0, grid_catalog)
        paths = simulate_traceroutes(world, 40, 0.0)
        ip_to_idx = {r.ip: i for i, r in enumerate(world.routers)}
        for path in paths:
            src = int(path.source_traceroute.split("-")[1])
            dst = ip_to_idx[path.hops[-1][0]]
            assert path.hops[-1][1] == pytest.approx(
                2.0 * shortest_km(world, src, dst) / 200.0, rel=1e-9
            )

    def test_deterministic(self, grid_catalog):
        world = generate_world(7, 18, 12, 0.0, grid_catalog)
        a = simulate_traceroutes(world, 30, 0.05)
        b = simulate_traceroutes(world, 30, 0.05)
        assert a == b

    def test_noise_bounds(self, grid_catalog):
        # The clean RTT is implied by the hop geometry, so the jitter
        # envelope can be checked without a paired noise-free corpus.
        world = generate_world(7, 18, 12, 0.0, grid_catalog)
        noisy = simulate_traceroutes(world, 30, 0.05)
        ip_to_idx = {r.ip: i for i, r in enumerate(world.routers)}
        perturbed = 0
        for path in noisy:
            src = int(path.source_traceroute.split("-")[1])
            nodes = [src] + [ip_to_idx[ip] for ip, _ in path.hops]
            cum = 0.0
            for (a, b), (_, rtt) in zip(zip(nodes, nodes[1:]), path.hops):
                cum += haversine_km(
                    world.routers[a].location, world.routers[b].location
                )
                clean = cum / 100.0
                assert abs(rtt - clean) <= 0.05 * clean + 1e-12
                if abs(rtt - clean) > 1e-9:
                    perturbed += 1
        assert perturbed > 0

    def test_tunnel_hops_report_exit_rtt(self, line_catalog):
        # One 3-node tunnel on a 6-router line; same seed without tunnels
        # gives the honest reference RTTs.
        tunneled = generate_world(11, 6, 6, 0.2, line_catalog, tunnel_len=3)
        honest = generate_world(11, 6, 6, 0.0, line_catalog)
        assert len(tunneled.mpls_tunnels) == 1
        assert tunneled.links == honest.links
        run = tunneled.mpls_tunnels[0]
        positions = {node: i for i, node in enumerate(run)}
        paths_t = simulate_traceroutes(tunneled, 50, 0.0)
        paths_h = simulate_traceroutes(honest, 50, 0.0)
        ip_to_idx = {r.ip: i for i, r in enumerate(tunneled.routers)}
        rewritten = 0
        for pt_, ph in zip(paths_t, paths_h):
            assert [ip for ip, _ in pt_.hops] == [ip for ip, _ in ph.hops]
            nodes = [ip_to_idx[ip] for ip, _ in pt_.hops]
            i = 0
            while i < len(nodes):
                j = i
                while (
                    j + 1 < len(nodes)
                    and nodes[j] in positions
                    and nodes[j + 1] in positions
                    and abs(positions[nodes[j + 1]] - positions[nodes[j]]) == 1
                ):
                    j += 1
                if j > i:
                    exit_rtt = ph.hops[j][1]
                    for k in range(i, j + 1):
                        assert pt_.hops[k][1] == pytest.approx(exit_rtt, rel=1e-9)
                    rewritten += 1
                else:
                    assert pt_.hops[i][1] == pytest.approx(ph.hops[i][1], rel=1e-9)
                i = j + 1
        assert rewritten > 0  # the corpus did cross the tunnel

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_matches_reference(self, grid_catalog, line_catalog, data_dir, noise):
        # Exact equality: the same draws in the same order give the same floats.
        global_catalog = load_city_catalog(data_dir / "cities_global.csv")
        worlds = {
            "tunnel line": generate_world(11, 6, 6, 0.2, line_catalog, tunnel_len=3),
            "tunnel grid": generate_world(13, 24, 12, 0.15, grid_catalog, tunnel_len=3),
            "tie-heavy grid": generate_world(3, 30, 12, 0.1, grid_catalog, tunnel_len=3),
            "co-located": generate_world(7, 40, 12, 0.1, global_catalog, tunnel_len=3),
        }
        for name, world in worlds.items():
            assert world.mpls_tunnels, name
            want = reference_simulate_traceroutes(world, 300, noise)
            assert simulate_traceroutes(world, 300, noise) == want, name

    def test_noise_validation(self, grid_catalog):
        world = generate_world(7, 18, 12, 0.0, grid_catalog)
        with pytest.raises(ValueError):
            simulate_traceroutes(world, 5, 1.0)


class TestResumableRouteSearch:
    """One search per source carries every variant's route tree, stops once
    the destination is settled and resumes on the next query; each variant
    must answer as its own full search."""

    def assert_matches_reference(self, world, route_seed):
        adj = link_adjacency(world)
        n = len(adj)
        queries = [
            (src, variant, dst)
            for src in range(n)
            for variant in range(_ROUTE_VARIANTS)
            for dst in range(n)
            if dst != src
        ]
        # Interleave sources, variants and destinations so searches stop
        # and resume.
        random.Random(route_seed).shuffle(queries)
        cache, reference, stopped_early, sources = {}, {}, 0, set()
        for src, variant, dst in queries:
            key = (src, variant)
            want_dist, want_pred = reference_shortest_path(adj, key, reference, route_seed)
            dist, preds = _shortest_path(adj, src, dst, cache, route_seed)
            assert len(preds) == _ROUTE_VARIANTS
            assert dist[dst] == want_dist[dst], (key, dst)
            assert route(preds[variant], src, dst) == route(want_pred, src, dst), (key, dst)
            stopped_early += not all(cache[src][2])
            sources.add(src)
            assert cache.keys() == sources
        assert stopped_early > 0
        return cache

    def test_co_located_routers(self, data_dir):
        # Three to four routers per city: zero-weight links and tied routes.
        catalog = load_city_catalog(data_dir / "cities_global.csv")
        for seed in (1, 7):
            world = generate_world(seed, 40, 12, 0.1, catalog, tunnel_len=3)
            assert any(
                world.routers[a].location == world.routers[b].location for a, b in world.links
            )
            self.assert_matches_reference(world, f"{seed}")

    def test_tie_heavy_grid(self, grid_catalog):
        # A 200 km grid has many equal-cost routes, so coins are flipped.
        for seed in (3, 5):
            world = generate_world(seed, 30, 12, 0.0, grid_catalog)
            cache = self.assert_matches_reference(world, f"{seed}")
            # Some source met a tie and copied the shared list per variant,
            # so the reference also checked the routes after that copy.
            assert any(
                preds[k] is not preds[0]
                for _, preds, *_ in cache.values()
                for k in range(1, _ROUTE_VARIANTS)
            )


# ``traceloc synth`` with noise, decoys, tunnels and co-located routers; the
# sha256 of each file it writes was recorded before route searches were
# resumed per key and distances computed per city pair.
GOLDEN_SYNTH_CONFIG = [
    "seed = 11",
    "synth.n_routers = 60",
    "synth.n_cities = 30",
    "synth.mpls_fraction = 0.1",
    "synth.n_paths = 400",
    "synth.noise_fraction = 0.05",
    "synth.interface_error_fraction = 0.1",
    "synth.min_displacement_km = 500",
    "synth.db_count = 4",
    "synth.db_noise_km = 3",
    "synth.tunnel_len = 3",
    "synth.decoy_fraction = 0.3",
    "synth.decoy_db_count = 2",
]
GOLDEN_SYNTH_SHA256 = {
    "world.json": "550753c19973fe2d30cb1f87f785563e5511c8f7e04812f224375bb2fcd9695a",
    "traceroutes.jsonl": "78d9acc95feefcf6e1c9ed172cb31984442d49f4ba39259907c0c74fcd837fc0",
    "snapshot.csv": "e14bb214cafc09860296baa8f0e3afe4a91a53b07c7ab62f94b4b41eff35f6cd",
    "displaced.json": "0027af3ce1de6a2c909dace2c003a6c85ca009d295c3d82bdafb963ad5917663",
}


# A tie-heavy ``traceloc synth`` on the 200 km grid, with noise: every source
# meets an equal-cost tie, so each copies its shared predecessor list per
# variant and flips coins.  Digests recorded before the variants shared a
# list until their first tie.
GOLDEN_GRID_SYNTH_CONFIG = [
    "seed = 3",
    "synth.n_routers = 30",
    "synth.n_cities = 12",
    "synth.mpls_fraction = 0.1",
    "synth.n_paths = 300",
    "synth.noise_fraction = 0.05",
    "synth.interface_error_fraction = 0.1",
    "synth.min_displacement_km = 300",
    "synth.db_count = 3",
    "synth.db_noise_km = 3",
    "synth.tunnel_len = 3",
    "synth.decoy_fraction = 0.2",
]
GOLDEN_GRID_SYNTH_SHA256 = {
    "world.json": "7803aae9d5ebaced874e382a9fdfe3422910c56507853ea12925188f1a5db8ed",
    "traceroutes.jsonl": "c6b846e0ce0444e81290863067b2484ef2adfd094d03b4ac3750d70468b9aeff",
    "snapshot.csv": "a083afd6b4cc7ee999497ee4a2034d6ac1c101461c18dc1d29b96dc4ac95edec",
    "displaced.json": "4a0a5324f3b66fb170b32f517281dae3fceee3b91148ac62aecdbc7af449be3b",
}


class TestSynthGolden:
    @staticmethod
    def assert_digests(catalog, config, want, tmp_path):
        src_dir = Path(traceloc.__file__).resolve().parents[1]
        pythonpath = os.pathsep.join(filter(None, [str(src_dir), os.environ.get("PYTHONPATH")]))
        for hash_seed in ("0", "1"):
            out = tmp_path / f"hashseed{hash_seed}"
            conf = tmp_path / f"synth{hash_seed}.conf"
            conf.write_text(
                "\n".join([f"city_catalog = {catalog}", f"out_dir = {out}", *config]) + "\n",
                encoding="utf-8",
            )
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": pythonpath}
            done = subprocess.run(
                [sys.executable, "-m", "traceloc.cli", "synth", "--config", str(conf)],
                env=env, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
            digests = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in want
            }
            assert digests == want, hash_seed

    def test_outputs_match_recorded_digests_across_processes(self, data_dir, tmp_path):
        self.assert_digests(
            data_dir / "cities_global.csv", GOLDEN_SYNTH_CONFIG, GOLDEN_SYNTH_SHA256, tmp_path
        )

    def test_tie_heavy_grid_matches_recorded_digests(self, tmp_path):
        catalog = write_plane_catalog(
            tmp_path / "grid.csv",
            [(f"g{r}{c}", "FR", 200.0 * c, 200.0 * r) for r in range(3) for c in range(4)],
        )
        self.assert_digests(catalog, GOLDEN_GRID_SYNTH_CONFIG, GOLDEN_GRID_SYNTH_SHA256, tmp_path)


class TestCorruptGeodb:
    def spec(self, **kw):
        defaults = dict(
            interface_error_fraction=0.25,
            min_displacement_km=300.0,
            db_count=4,
            db_noise_km=5.0,
        )
        defaults.update(kw)
        return SynthSettings(**defaults)

    def test_displacement_counts_and_agreement(self, grid_catalog):
        world = generate_world(9, 16, 12, 0.0, grid_catalog)
        snapshot, displaced = corrupt_geodb(world, self.spec(), 9, grid_catalog)
        assert len(displaced) == round(0.25 * 16)
        truth = {r.ip: r for r in world.routers}
        for ip in displaced:
            records = snapshot[ip]
            assert len(records) == 4
            cities = {(r.city, r.lat, r.lon) for r in records}
            assert len(cities) == 1  # all databases agree on the same lie
            assert haversine_km(
                GeoPoint(records[0].lat, records[0].lon), truth[ip].location
            ) >= 300.0

    def test_untouched_routers_keep_true_city_with_jitter(self, grid_catalog):
        world = generate_world(9, 16, 12, 0.0, grid_catalog)
        snapshot, displaced = corrupt_geodb(world, self.spec(), 9, grid_catalog)
        truth = {r.ip: r for r in world.routers}
        for ip, records in snapshot.items():
            if ip in displaced:
                continue
            for rec in records:
                assert rec.city == truth[ip].city
                assert (
                    haversine_km(GeoPoint(rec.lat, rec.lon), truth[ip].location)
                    <= 5.0 + 0.1
                )

    def test_deterministic(self, grid_catalog, tmp_path):
        world = generate_world(9, 16, 12, 0.0, grid_catalog)
        s1, d1 = corrupt_geodb(world, self.spec(), 9, grid_catalog)
        s2, d2 = corrupt_geodb(world, self.spec(), 9, grid_catalog)
        assert d1 == d2
        f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        write_geo_snapshot(s1, f1)
        write_geo_snapshot(s2, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_decoys_add_candidates_without_hiding_truth(self, grid_catalog):
        world = generate_world(9, 16, 12, 0.0, grid_catalog)
        spec = self.spec(interface_error_fraction=0.0, decoy_fraction=0.5, decoy_db_count=1)
        snapshot, displaced = corrupt_geodb(world, spec, 9, grid_catalog)
        assert displaced == set()
        truth = {r.ip: r for r in world.routers}
        decoyed = 0
        for ip, records in snapshot.items():
            cities = {r.city for r in records}
            if len(cities) == 2:
                decoyed += 1
                wrong = [r for r in records if r.city != truth[ip].city]
                assert len(wrong) == 1
        assert decoyed == round(0.5 * 16)

    def test_unplaceable_displacement_keeps_truth_and_warns(self, grid_catalog, caplog):
        # No two cities of the 600 x 400 km grid are 1,000 km apart.
        world = generate_world(9, 16, 12, 0.0, grid_catalog)
        diag = Diagnostics()
        with caplog.at_level(logging.WARNING, logger="traceloc"):
            snapshot, displaced = corrupt_geodb(
                world, self.spec(min_displacement_km=1000.0), 9, grid_catalog, diag
            )
        assert displaced == set()
        warned = [r.getMessage().split(": ")[1] for r in caplog.records]
        assert len(warned) == len(set(warned)) == diag.count("synth_no_displacement_target")
        assert len(warned) == round(0.25 * 16)
        truth = {r.ip: r for r in world.routers}
        assert set(warned) <= set(truth)
        for ip, records in snapshot.items():
            assert [r.source for r in records] == ["db1", "db2", "db3", "db4"]
            for rec in records:
                assert rec.city == truth[ip].city
                assert haversine_km(GeoPoint(rec.lat, rec.lon), truth[ip].location) <= 5.0 + 0.1

    def decoyed(self, grid_catalog, **kw):
        """The sources naming the true city and those naming another, per
        router whose records name two cities."""
        world = generate_world(9, 16, 12, 0.0, grid_catalog)
        spec = self.spec(interface_error_fraction=0.0, decoy_fraction=0.5, **kw)
        snapshot, _ = corrupt_geodb(world, spec, 9, grid_catalog)
        split = {}
        for router in world.routers:
            records = snapshot[router.ip]
            wrong = [r for r in records if r.city != router.city]
            if wrong:
                assert len({(r.city, r.lat, r.lon) for r in wrong}) == 1
                split[router.ip] = (
                    [r.source for r in records if r.city == router.city],
                    [r.source for r in wrong],
                )
        return split

    # A decoy count of db_count or more still leaves db1 true.
    @pytest.mark.parametrize("decoy_db_count, n_true", [(2, 2), (4, 1), (9, 1)])
    def test_decoy_records_are_the_last_sources(self, grid_catalog, decoy_db_count, n_true):
        split = self.decoyed(grid_catalog, decoy_db_count=decoy_db_count)
        assert len(split) == round(0.5 * 16)
        sources = ["db1", "db2", "db3", "db4"]
        for true_and_wrong in split.values():
            assert true_and_wrong == (sources[:n_true], sources[n_true:])

    def test_one_database_gets_no_decoy(self, grid_catalog):
        assert self.decoyed(grid_catalog, db_count=1, decoy_db_count=1) == {}


class TestWorldSerialization:
    def test_round_trip(self, grid_catalog, tmp_path):
        world = generate_world(13, 14, 12, 0.15, grid_catalog, tunnel_len=3)
        path = save_world(world, tmp_path / "world.json")
        assert load_world(path) == world

    def test_save_is_deterministic(self, grid_catalog, tmp_path):
        world = generate_world(13, 14, 12, 0.15, grid_catalog)
        a = save_world(world, tmp_path / "a.json").read_bytes()
        b = save_world(world, tmp_path / "b.json").read_bytes()
        assert a == b


def mini_world():
    """Six routers; nodes 1-2-3 form a tunnel; router 4 is displaced."""
    routers = [
        Router(ip=f"203.0.1.{i + 1}", location=GeoPoint(40.0 + i, 2.0), city=f"c{i}", country="FR")
        for i in range(6)
    ]
    return World(
        routers=routers,
        links=[(i, i + 1) for i in range(5)],
        mpls_tunnels=[[1, 2, 3]],
        rng_seed=0,
    )


def state_for(ip, status, city="x", country="FR", lat=40.0, lon=2.0):
    st = make_states(
        {ip: [CityCluster(0, GeoPoint(lat, lon), city, country, {"db1"})]}
    )[ip]
    st.status = status
    return st


class TestScoreAgainstTruth:
    def test_hand_computed_confusion_matrix(self):
        world = mini_world()
        r = [x.ip for x in world.routers]
        displaced = {r[4]}
        states = {
            r[0]: state_for(r[0], IpStatus.ACTIVE, city="c0", lat=40.0),  # true city kept
            r[1]: state_for(r[1], IpStatus.ACTIVE, city="other"),          # true city lost
            r[2]: state_for(r[2], IpStatus.ANOMALOUS),                     # tunnel interior
            r[3]: state_for(r[3], IpStatus.ACTIVE, city="c3", lat=43.0),
            r[4]: state_for(r[4], IpStatus.ANOMALOUS),                     # the displaced one
            r[5]: state_for(r[5], IpStatus.ANOMALOUS),                     # spurious tag
        }
        resolved_at = GeoPoint(44.27, 2.0)  # ~30 km north of router 4's truth
        outcomes = {
            r[2]: ResolutionOutcome(ip=r[2], verdict=Verdict.MPLS_AFFECTED),
            r[4]: ResolutionOutcome(ip=r[4], verdict=Verdict.INTERFACE_AFFECTED, resolved=resolved_at),
            r[5]: ResolutionOutcome(
                ip=r[5],
                verdict=Verdict.FALSE_POSITIVE,
                confirmed=states[r[5]].candidates[0],
            ),
        }
        report = score_against_truth(list(ip_records(states, outcomes)), world, displaced)
        assert report.total_ips == 6
        assert report.tagged_total == 3
        assert report.false_positive_count == 1
        assert report.detected_total == 2          # r2 and r4 survive demotion
        assert report.displaced_detected == 1
        assert report.displaced_recall == 1.0
        assert report.detected_non_tunnel == 1     # r4 only; r2 is a member
        assert report.displaced_precision == 1.0
        assert report.overall_precision == 1.0     # both detections are real anomalies
        assert report.tunnel_interior_total == 1
        assert report.tunnel_interior_flagged == 1
        assert report.tunnel_interior_recall == 1.0
        assert report.interface_count == 1
        assert report.interface_within_100km == 1
        assert report.interface_within_100km_fraction == 1.0
        assert report.interface_distance_median_km == pytest.approx(30.0, abs=1.0)
        # Actives: r0, r1, r3; r1 lost its true city.
        assert report.active_total == 3
        assert report.active_with_true_city == 2
        assert report.true_city_retention == pytest.approx(2 / 3)

    def test_degenerate_denominators_are_none(self):
        world = mini_world()
        world.mpls_tunnels = []
        states = {
            r.ip: state_for(r.ip, IpStatus.ACTIVE, city=r.city, lat=r.location.lat)
            for r in world.routers
        }
        report = score_against_truth(list(ip_records(states, {})), world, set())
        assert report.displaced_recall is None
        assert report.displaced_precision is None
        assert report.overall_precision is None
        assert report.tunnel_interior_recall is None
        assert report.interface_within_100km_fraction is None

    def test_member_and_interior_helpers(self):
        world = mini_world()
        ips = [r.ip for r in world.routers]
        assert tunnel_member_ips(world) == {ips[1], ips[2], ips[3]}
        assert tunnel_interior_ips(world) == {ips[2]}
