"""Synthetic ground-truth worlds: routers at known city locations, a
connected link graph, simulated traceroutes with tunnel distortion, and
corrupted geolocation databases — everything a scored end-to-end
experiment needs.

Determinism matters more than realism here: identical seeds must yield
byte-identical corpora, so the module carries its own Dijkstra with
explicit tie-breaking and derives all randomness from string-seeded
generators (stable across processes).  A world is built from its
city-pair distances, in O(``n_cities``² + ``n_routers``) memory.  Each
source has one route search, kept and resumed only as far as the next
destination needs.  It carries one predecessor list and one tie-break coin
per route variant: a coin flip changes a predecessor, never a distance or
the heap, so the variants share every push and pop.  Each variant gets the
same coin flips in the same order as its own search over the whole graph
would, so the routes depend neither on which destinations were asked for
nor on sharing the search.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
import random
from dataclasses import dataclass, fields
from pathlib import Path

from .cli import SynthSettings, broken_bound
from .diagnostics import Diagnostics
from .geo import (
    FIBER_KM_PER_MS,
    KM_PER_DEG_LAT,
    CityPolygon,
    GeoPoint,
    haversine_km,
    normalize_city,
)
from .ingest import CleanPath, GeoRecord, csv_number, median
from .refine import IpStatus
from .resolve import Verdict

# Links each router adds to its nearest peers, on top of the backbone.
EXTRA_DEGREE = 2


@dataclass
class Router:
    ip: str
    location: GeoPoint
    city: str
    country: str


@dataclass
class World:
    routers: list[Router]
    links: list[tuple[int, int]]
    mpls_tunnels: list[list[int]]
    rng_seed: int


def _router_ip(i: int) -> str:
    return f"203.0.{1 + i // 250}.{1 + i % 250}"


def generate_world(
    seed: int,
    n_routers: int,
    n_cities: int,
    mpls_fraction: float,
    catalog: list[CityPolygon],
    *,
    tunnel_len: int = SynthSettings.tunnel_len,
    diag: Diagnostics | None = None,
) -> World:
    """Build a connected router graph over ``n_cities`` catalog cities.

    Router *i* sits exactly on the centroid of city ``i % n_cities``, and
    routers *i* < *j* are as far apart as their cities measured in that
    order, so the graph is built city by city from the city distances.  The
    backbone is the minimum spanning tree of router distances; each router
    additionally links to its ``EXTRA_DEGREE`` nearest peers.
    ``mpls_fraction`` of backbone segments (rounded) become tunnels:
    node-disjoint runs of ``tunnel_len`` routers contiguous along the
    backbone, preferring the geographically longest runs (long-haul trunks
    are where tunnels live).  Fewer come back, with a
    ``synth_tunnels_short`` warning in ``diag``, when not enough disjoint
    runs exist.  Identical arguments produce identical worlds.
    """
    if broken := broken_bound(SynthSettings, n_routers=n_routers, n_cities=n_cities,
                              mpls_fraction=mpls_fraction, tunnel_len=tunnel_len):
        raise ValueError(broken)
    if n_cities > len(catalog):
        raise ValueError(
            f"n_cities={n_cities} exceeds catalog size {len(catalog)}"
        )
    diag = diag or Diagnostics()

    rng = random.Random(f"world:{seed}")
    cities = rng.sample(sorted(catalog, key=lambda p: p.polygon_id), n_cities)
    routers: list[Router] = []
    for i in range(n_routers):
        # Deal cities round-robin so multi-router cities host an even
        # number of co-sited interfaces rather than a lopsided draw.
        city = cities[i % n_cities]
        routers.append(
            Router(
                ip=_router_ip(i),
                location=city.centroid,
                city=city.name,
                country=city.country,
            )
        )

    # Only the first n cities host a router, so the tables cover those; for
    # every router i, i % nc is i % n_cities.
    n = len(routers)
    nc = min(n_cities, n)
    hosts = cities[:nc]
    # Routers i < j are city_dist[i % nc][j % nc] apart.  A city pair is
    # lopsided when its two orders differ (haversine_km's far form can).
    city_dist = [[haversine_km(a.centroid, b.centroid) for b in hosts] for a in hosts]
    lopsided = [
        [c for c in range(nc) if row[c] != city_dist[c][a]] for a, row in enumerate(city_dist)
    ]

    # Prim's MST with (distance, node) tie-breaking.  The first router of a
    # city to join offers its distance to every router outside the tree; a
    # later one offers the same across a symmetric city pair, which cannot
    # strictly improve a best, so it scans only its lopsided pairs.
    in_tree = [False] * n
    city_joined = [False] * nc
    best = [math.inf] * n
    parent = [-1] * n
    best[0] = 0.0
    heap: list[tuple[float, int]] = [(0.0, 0)]
    backbone: list[tuple[int, int]] = []
    while heap:
        d, u = heapq.heappop(heap)
        if in_tree[u]:
            continue
        in_tree[u] = True
        if parent[u] >= 0:
            backbone.append((min(u, parent[u]), max(u, parent[u])))
        cu = u % nc
        for c in lopsided[cu] if city_joined[cu] else range(nc):
            below, above = city_dist[c][cu], city_dist[cu][c]  # to members below / above u
            for v in range(c, n, nc):
                if not in_tree[v]:
                    dv = above if v > u else below
                    if dv < best[v]:
                        best[v] = dv
                        parent[v] = u
                        heapq.heappush(heap, (dv, v))
        city_joined[cu] = True

    # Each router's EXTRA_DEGREE nearest peers, ranked by (distance, index).
    # A city's members on one side of router i are all equally far from it,
    # so only the lowest-index ones can rank; cities are walked nearest first
    # until the next cannot beat the last place.
    links = set(backbone)
    bound = [list(map(min, row, column)) for row, column in zip(city_dist, zip(*city_dist))]
    nearest_cities = [sorted(range(nc), key=row.__getitem__) for row in bound]
    for i in range(n):
        ci, ranked = i % nc, []
        for c in nearest_cities[ci]:
            if len(ranked) == EXTRA_DEGREE and bound[ci][c] > ranked[-1][0]:
                break
            first_above = i + 1 + (c - i - 1) % nc
            ranked += [(city_dist[c][ci], j) for j in range(c, i, nc)[:EXTRA_DEGREE]]
            ranked += [(city_dist[ci][c], j) for j in range(first_above, n, nc)[:EXTRA_DEGREE]]
            ranked.sort()
            del ranked[EXTRA_DEGREE:]
        links.update((min(i, j), max(i, j)) for _, j in ranked)

    mst_adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in backbone:
        mst_adj[a].append(b)
        mst_adj[b].append(a)
    for neighbors in mst_adj.values():
        neighbors.sort()

    # A share of the backbone, which always has n - 1 links.
    n_tunnels = round(mpls_fraction * (n - 1))
    tunnels: list[list[int]] = []
    if n_tunnels > 0:
        runs: list[list[int]] = []

        def extend(path: list[int]) -> None:
            if len(path) == tunnel_len:
                if path[0] < path[-1]:  # one orientation per run
                    runs.append(list(path))
                return
            for nxt in mst_adj[path[-1]]:
                if nxt not in path:
                    path.append(nxt)
                    extend(path)
                    path.pop()

        for start in range(n):
            extend([start])

        def run_length(run: list[int]) -> float:
            return sum(city_dist[min(a, b) % nc][max(a, b) % nc] for a, b in zip(run, run[1:]))

        runs.sort(key=lambda r: (-run_length(r), r))
        used: set[int] = set()
        for run in runs:
            if len(tunnels) == n_tunnels:
                break
            if used.isdisjoint(run):
                tunnels.append(run)
                used.update(run)
    if len(tunnels) < n_tunnels:
        diag.warn("synth_tunnels_short", f"placed {len(tunnels)} of {n_tunnels} tunnels")

    return World(
        routers=routers,
        links=sorted(links),
        mpls_tunnels=tunnels,
        rng_seed=seed,
    )


_TIE_EPS_KM = 1e-6

# Independently tie-broken route trees kept per source.  Real campaigns
# observe several equal-cost routes between the same pair as hashing and
# churn shuffle flows, so each probe draws one of these variants.
_ROUTE_VARIANTS = 4


def _shortest_path(
    adj: dict[int, list[tuple[int, float]]],
    src: int,
    dst: int,
    cache: dict[int, list],
    route_seed: str,
) -> tuple[list[float], tuple[list[int], ...]]:
    """Distances from ``src`` and one predecessor list per route variant,
    searched until ``dst`` is settled or the graph is exhausted.

    The search state (distances, settled flags, heap, and per variant a
    predecessor list and a tie-breaking coin seeded by source and variant)
    stays in ``cache`` under ``src``, and the next query for that source
    resumes where this one stopped.  A strict improvement sets every
    variant's predecessor; at an equal-cost tie each variant flips its own
    coin, in variant order.  Neither moves a distance or the heap, so each
    variant sees exactly the pushes, pops and coin flips of its own search
    over the whole graph, in the same order.  Until the first tie, then,
    every variant's list holds the same values: the variants share one list
    and seed no coins until then, and the list is copied per variant there.
    Pops come in non-decreasing distance, so a settled node can be neither
    improved nor tied later (a tie needs ``w > eps``, and then
    ``nd - dist[v] >= w``): every node on the route back from a settled
    ``dst`` already has its final predecessor.  For the same reason the
    search skips settled nodes, both popped again and as neighbours; that
    skips no coin flip, so it changes no route.
    """
    state = cache.get(src)
    if state is None:
        n = len(adj)
        dist = [math.inf] * n
        dist[src] = 0.0
        state = cache[src] = [dist, ([-1] * n,) * _ROUTE_VARIANTS, [False] * n, [(0.0, src)], ()]
    dist, preds, settled, heap, flips = state
    if settled[dst]:
        return dist, preds
    written = preds if flips else preds[:1]  # the lists an improvement writes
    pop, push, eps = heapq.heappop, heapq.heappush, _TIE_EPS_KM
    while heap:
        d, u = pop(heap)
        if settled[u]:
            continue
        settled[u] = True
        for v, w in adj[u]:
            if settled[v]:
                continue
            nd = d + w
            dv = dist[v]
            if nd < dv - eps:
                dist[v] = nd
                for pred in written:
                    pred[v] = u
                push(heap, (nd, v))
            elif w > eps and -eps <= nd - dv <= eps:
                # Equal-cost alternative: flip a coin so flows spread across
                # the tied routes instead of funnelling down one tree, the way
                # hash-based multipath does.  Distance is unchanged, so no
                # re-push; the new parent popped strictly earlier (w > 0),
                # which keeps the predecessor graph a tree.  Zero-weight ties
                # (co-located routers) stay excluded — re-parenting through
                # them can chain into a predecessor cycle.
                if not flips:
                    written = preds = state[1] = tuple(map(list, preds))
                    flips = state[4] = tuple(
                        (pred, random.Random(f"route:{route_seed}:{src}:{variant}").random)
                        for variant, pred in enumerate(preds)
                    )
                for pred, coin in flips:
                    if coin() < 0.5:
                        pred[v] = u
        if u == dst:
            break
    return dist, preds


def simulate_traceroutes(
    world: World, n_paths: int, noise_fraction: float, diag: Diagnostics | None = None
) -> list[CleanPath]:
    """Shortest routes between random router pairs, with physical RTTs.

    Fewer than ``n_paths`` come back, with a ``synth_paths_short`` warning
    in ``diag``, when ``max(50 * n_paths, 1000)`` source/destination draws
    do not find that many routes of at least two reported hops.

    The cumulative RTT at each hop is twice the along-path distance over
    the fiber propagation speed.  Hops crossing a tunnel in sequence all
    report the RTT of the hop where the tunnel run exits the path —
    applied before the per-hop multiplicative noise of ±``noise_fraction``.
    The reported path omits the probing source itself.
    """
    if broken := broken_bound(SynthSettings, n_paths=n_paths, noise_fraction=noise_fraction):
        raise ValueError(broken)
    diag = diag or Diagnostics()
    rng = random.Random(f"paths:{world.rng_seed}")
    n = len(world.routers)
    adj: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
    link_km: dict[tuple[int, int], float] = {}  # (from, to) in path order
    for a, b in world.links:
        loc_a, loc_b = world.routers[a].location, world.routers[b].location
        w = link_km[a, b] = haversine_km(loc_a, loc_b)
        link_km[b, a] = haversine_km(loc_b, loc_a)
        adj[a].append((b, w))
        adj[b].append((a, w))
    for entries in adj.values():
        entries.sort()

    member_of: dict[int, tuple[int, int]] = {}
    for t_idx, tunnel in enumerate(world.mpls_tunnels):
        for pos, node in enumerate(tunnel):
            member_of[node] = (t_idx, pos)

    ips = [r.ip for r in world.routers]
    # Random.uniform(lo, hi) is lo + (hi - lo) * random(): drawn inline below.
    lo, span, rand = -noise_fraction, noise_fraction - -noise_fraction, rng.random
    cache: dict[int, list] = {}
    paths: list[CleanPath] = []
    attempts = 0
    max_attempts = max(n_paths * 50, 1000)
    while len(paths) < n_paths and attempts < max_attempts:
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
        node, nodes = dst, [dst]
        while node != src:
            node = pred[node]
            nodes.append(node)
        if len(nodes) < 3:
            continue  # need at least two reported hops
        nodes.reverse()
        km = itertools.accumulate(map(link_km.__getitem__, zip(nodes, nodes[1:])))
        rtts = [2.0 * c / FIBER_KM_PER_MS for c in km]  # ms out and back over fiber
        hop_nodes = nodes[1:]
        _apply_tunnels(hop_nodes, rtts, member_of)
        if noise_fraction > 0.0:
            hops = [(ips[v], r * (1.0 + (lo + span * rand()))) for v, r in zip(hop_nodes, rtts)]
        else:
            hops = list(zip(map(ips.__getitem__, hop_nodes), rtts))
        paths.append(CleanPath(f"synth-{len(paths)}", hops, f"router-{src}"))
    if len(paths) < n_paths:
        diag.warn(
            "synth_paths_short",
            f"wrote {len(paths)} of {n_paths} paths after {max_attempts} attempts",
        )
    return paths


def _apply_tunnels(
    nodes: list[int], rtts: list[float], member_of: dict[int, tuple[int, int]]
) -> None:
    """Rewrite RTTs inside tunnel runs to the run's exit-hop RTT.

    A run is a maximal stretch of path hops occupying consecutive tunnel
    positions in either direction; the exit is the run's last hop in path
    order.  Runs of a single hop are untouched.
    """
    i = 0
    while i < len(nodes):
        info = member_of.get(nodes[i])
        if info is None:
            i += 1
            continue
        t_idx, pos = info
        j = i
        direction = 0
        while j + 1 < len(nodes):
            nxt = member_of.get(nodes[j + 1])
            if nxt is None or nxt[0] != t_idx:
                break
            step = nxt[1] - member_of[nodes[j]][1]
            if step not in (1, -1) or (direction and step != direction):
                break
            direction = step
            j += 1
        if j > i:
            for k in range(i, j + 1):
                rtts[k] = rtts[j]
        i = j + 1


def corrupt_geodb(
    world: World,
    settings: SynthSettings,
    seed: int,
    catalog: list[CityPolygon],
    diag: Diagnostics | None = None,
) -> tuple[dict[str, list[GeoRecord]], set[str]]:
    """Produce per-database geolocation records for every router by the
    one rule of :class:`~traceloc.cli.SynthSettings`, after checking each
    of its fields against its bound.

    A router drawn for displacement with no catalog city at least
    ``min_displacement_km`` from the truth is warned about
    (``synth_no_displacement_target``), keeps the truth in every database
    and stays out of the displaced set.  Returns the snapshot and the
    displaced-IP set.
    """
    if broken := broken_bound(SynthSettings, **vars(settings)):
        raise ValueError(broken)
    diag = diag or Diagnostics()
    rng = random.Random(f"geodb:{seed}")
    sources = [f"db{i + 1}" for i in range(settings.db_count)]
    n = len(world.routers)
    displaced_target = round(settings.interface_error_fraction * n)
    displaced_idx = set(rng.sample(range(n), min(displaced_target, n)))
    decoy_pool = [i for i in range(n) if i not in displaced_idx]
    decoy_target = round(settings.decoy_fraction * n)
    decoy_idx = set(rng.sample(decoy_pool, min(decoy_target, len(decoy_pool))))

    snapshot: dict[str, list[GeoRecord]] = {}
    displaced_ips: set[str] = set()
    catalog_sorted = sorted(catalog, key=lambda p: p.polygon_id)
    catalog_names = [normalize_city(c.name) for c in catalog_sorted]
    # Both candidate lists depend only on the router's site, which routers
    # share, so each is built once per location or city name.
    @functools.cache
    def far_from(location: GeoPoint) -> list[CityPolygon]:
        far = settings.min_displacement_km
        return [c for c in catalog_sorted if haversine_km(c.centroid, location) >= far]

    @functools.cache
    def named_other_than(city: str) -> list[CityPolygon]:
        return [c for c, name in zip(catalog_sorted, catalog_names) if name != city]

    for i, router in enumerate(world.routers):
        k, wrong = 0, None
        if i in displaced_idx:
            eligible = far_from(router.location)
            if eligible:
                k, wrong = settings.db_count, rng.choice(eligible)
                displaced_ips.add(router.ip)
            else:
                diag.warn(
                    "synth_no_displacement_target",
                    f"{router.ip}: no catalog city ≥ {settings.min_displacement_km} km away",
                )
        elif i in decoy_idx:
            others = named_other_than(normalize_city(router.city))
            if others:
                k, wrong = min(settings.decoy_db_count, settings.db_count - 1), rng.choice(others)
        records = snapshot[router.ip] = []
        for j, src in enumerate(sources):
            if j < settings.db_count - k:
                bearing = rng.uniform(0.0, 2.0 * math.pi)
                offset_km = rng.uniform(0.0, settings.db_noise_km)
                lat, lon = _offset(router.location, bearing, offset_km)
                city, country = router.city, router.country
            else:
                lat, lon = wrong.centroid.lat, wrong.centroid.lon
                city, country = wrong.name, wrong.country
            records.append(
                GeoRecord(ip=router.ip, source=src, lat=lat, lon=lon, city=city, country=country)
            )
    return snapshot, displaced_ips


def _offset(point: GeoPoint, bearing_rad: float, distance_km: float) -> tuple[float, float]:
    dlat = distance_km * math.cos(bearing_rad) / KM_PER_DEG_LAT
    denom = KM_PER_DEG_LAT * max(0.01, math.cos(math.radians(point.lat)))
    dlon = distance_km * math.sin(bearing_rad) / denom
    lat = max(-90.0, min(90.0, point.lat + dlat))
    lon = ((point.lon + dlon + 180.0) % 360.0) - 180.0
    return lat, lon


# --- world (de)serialization ----------------------------------------------


def save_world(world: World, path: str | Path) -> Path:
    """Write ``world`` as JSON with sorted keys; :func:`load_world` reads
    it back to an equal :class:`World`."""
    doc = {
        "rng_seed": world.rng_seed,
        "routers": [
            {
                "ip": r.ip,
                "lat": r.location.lat,
                "lon": r.location.lon,
                "city": r.city,
                "country": r.country,
            }
            for r in world.routers
        ],
        "links": world.links,
        "mpls_tunnels": world.mpls_tunnels,
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_world(path: str | Path) -> World:
    """Read a world :func:`save_world` wrote; a link or tunnel naming a
    router index outside the router list raises ``ValueError``."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    world = World(
        routers=[
            Router(
                ip=r["ip"],
                location=GeoPoint(float(r["lat"]), float(r["lon"])),
                city=r["city"],
                country=r["country"],
            )
            for r in doc["routers"]
        ],
        links=[(int(a), int(b)) for a, b in doc["links"]],
        mpls_tunnels=[[int(x) for x in t] for t in doc["mpls_tunnels"]],
        rng_seed=int(doc["rng_seed"]),
    )
    n = len(world.routers)
    for node in itertools.chain(*world.links, *world.mpls_tunnels):
        if not 0 <= node < n:
            raise ValueError(f"router index {node} out of range for {n} routers")
    return world


# --- scoring ---------------------------------------------------------------


def tunnel_member_ips(world: World) -> set[str]:
    return {
        world.routers[node].ip for tunnel in world.mpls_tunnels for node in tunnel
    }


def tunnel_interior_ips(world: World) -> set[str]:
    """Members that misreport their RTT in *every* traversal direction:
    everything but a tunnel's two endpoint hops."""
    interior: set[str] = set()
    for tunnel in world.mpls_tunnels:
        for node in tunnel[1:-1]:
            interior.add(world.routers[node].ip)
    return interior


@dataclass
class ScoreReport:
    """Detection and correction quality against synthetic ground truth.

    Ratio fields are ``None`` when their denominator is empty, rendered
    as ``NA`` in CSV output.
    """

    total_ips: int = 0
    tagged_total: int = 0
    detected_total: int = 0
    false_positive_count: int = 0
    displaced_total: int = 0
    displaced_detected: int = 0
    displaced_recall: float | None = None
    detected_non_tunnel: int = 0
    displaced_precision: float | None = None
    overall_precision: float | None = None
    tunnel_interior_total: int = 0
    tunnel_interior_flagged: int = 0
    tunnel_interior_recall: float | None = None
    interface_count: int = 0
    interface_within_100km: int = 0
    interface_within_100km_fraction: float | None = None
    interface_distance_mean_km: float | None = None
    interface_distance_median_km: float | None = None
    interface_distance_max_km: float | None = None
    active_total: int = 0
    active_with_true_city: int = 0
    true_city_retention: float | None = None

    def rows(self) -> list[tuple[str, str]]:
        return [(f.name, csv_number(getattr(self, f.name))) for f in fields(self)]


def score_against_truth(
    records: list[dict],
    world: World,
    displaced_set: set[str],
) -> ScoreReport:
    """Grade a run's ``ips.jsonl`` records, as
    :func:`traceloc.report.ip_records` yields them, against the world that
    generated its corpus.

    Detection counts an IP once it is tagged anomalous and not demoted to
    a false positive.  Precision against displacement excludes tunnel
    members from the denominator (they are genuine anomalies of the other
    kind); ``overall_precision`` scores detections against the union of
    both ground-truth sets.
    """
    truth = {r.ip: r for r in world.routers}
    t_members = tunnel_member_ips(world)
    t_interior = tunnel_interior_ips(world)

    def ips(field: str, value: str) -> set[str]:
        return {rec["ip"] for rec in records if rec[field] == value}

    tagged = ips("status", IpStatus.ANOMALOUS.value)
    false_pos = ips("verdict", Verdict.FALSE_POSITIVE.value)
    detected = tagged - false_pos

    report = ScoreReport(
        total_ips=len(records),
        tagged_total=len(tagged),
        detected_total=len(detected),
        false_positive_count=len(false_pos),
        displaced_total=len(displaced_set),
    )

    report.displaced_detected = len(detected & displaced_set)
    if displaced_set:
        report.displaced_recall = report.displaced_detected / len(displaced_set)
    non_tunnel_detected = detected - t_members
    report.detected_non_tunnel = len(non_tunnel_detected)
    if non_tunnel_detected:
        report.displaced_precision = (
            len(non_tunnel_detected & displaced_set) / len(non_tunnel_detected)
        )
    if detected:
        report.overall_precision = (
            len(detected & (displaced_set | t_members)) / len(detected)
        )

    report.tunnel_interior_total = len(t_interior)
    flagged = t_interior & (tagged | ips("verdict", Verdict.MPLS_AFFECTED.value))
    report.tunnel_interior_flagged = len(flagged)
    if t_interior:
        report.tunnel_interior_recall = len(flagged) / len(t_interior)

    distances = []
    for rec in records:
        resolved = rec["resolved"]
        if rec["verdict"] == Verdict.INTERFACE_AFFECTED.value and resolved and rec["ip"] in truth:
            point = GeoPoint(resolved["lat"], resolved["lon"])
            distances.append(haversine_km(point, truth[rec["ip"]].location))
    report.interface_count = len(distances)
    if distances:
        report.interface_within_100km = sum(1 for d in distances if d <= 100.0)
        report.interface_within_100km_fraction = (
            report.interface_within_100km / len(distances)
        )
        report.interface_distance_mean_km = math.fsum(distances) / len(distances)
        report.interface_distance_median_km = median(distances)
        report.interface_distance_max_km = max(distances)

    active = [
        rec for rec in records if rec["status"] == IpStatus.ACTIVE.value and rec["ip"] in truth
    ]
    report.active_total = len(active)
    for rec in active:
        router = truth[rec["ip"]]
        key = (normalize_city(router.city), router.country)
        if any((normalize_city(c["city"]), c["country"]) == key for c in rec["clusters"]):
            report.active_with_true_city += 1
    if active:
        report.true_city_retention = report.active_with_true_city / len(active)
    return report
