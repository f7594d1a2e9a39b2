"""Synthetic ground-truth worlds: routers at known city locations, a
connected link graph, simulated traceroutes with tunnel distortion, and
corrupted geolocation databases — everything a scored end-to-end
experiment needs.

Determinism matters more than realism here: identical seeds must yield
byte-identical corpora, so the module carries its own Dijkstra with
explicit tie-breaking and derives all randomness from string-seeded
generators (stable across processes).  Each source has one route search,
kept and resumed only as far as the next destination needs.  It carries
one predecessor list and one tie-break coin per route variant: a coin flip
changes a predecessor, never a distance or the heap, so the variants share
every push and pop.  Each variant gets the same coin flips in the same
order as its own search over the whole graph would, so the routes depend
neither on which destinations were asked for nor on sharing the search.
"""
from __future__ import annotations

import heapq
import itertools
import json
import math
import random
from dataclasses import dataclass, fields
from pathlib import Path

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


@dataclass
class InjectionSpec:
    """Database corruption plan.

    ``interface_error_fraction`` of routers get every record displaced to
    one consistent wrong catalog city at least ``min_displacement_km``
    away.  Everyone else keeps the true city with per-database jitter of
    at most ``db_noise_km``.  Optionally, ``decoy_fraction`` of the
    untouched routers additionally have ``decoy_db_count`` databases name
    a different catalog city, producing multi-candidate IPs without
    hiding the truth.
    """

    interface_error_fraction: float
    min_displacement_km: float
    db_count: int
    db_noise_km: float
    decoy_fraction: float = 0.0
    decoy_db_count: int = 1


def _router_ip(i: int) -> str:
    return f"203.0.{1 + i // 250}.{1 + i % 250}"


# Router addresses run 203.0.1.1 to 203.0.255.250: 255 blocks of 250.
MAX_ROUTERS = 255 * 250


def requested_tunnels(n_routers: int, mpls_fraction: float) -> int:
    """How many tunnels :func:`generate_world` tries to place: a share of
    the backbone, which always has ``n_routers - 1`` links."""
    return round(mpls_fraction * (n_routers - 1))


def generate_world(
    seed: int,
    n_routers: int,
    n_cities: int,
    mpls_fraction: float,
    catalog: list[CityPolygon],
    *,
    tunnel_len: int = 4,
) -> World:
    """Build a connected router graph over ``n_cities`` catalog cities.

    Routers sit exactly on city centroids.  The backbone is the minimum
    spanning tree of router distances; each router additionally links to
    its ``EXTRA_DEGREE`` nearest peers.  ``mpls_fraction`` of backbone
    segments (rounded) become tunnels: node-disjoint runs of
    ``tunnel_len`` routers contiguous along the backbone, preferring the
    geographically longest runs (long-haul trunks are where tunnels live).
    Fewer come back when not enough disjoint runs exist.  Identical
    arguments produce identical worlds.
    """
    if n_routers < 2:
        raise ValueError("n_routers must be at least 2")
    if n_routers > MAX_ROUTERS:
        raise ValueError(f"n_routers must be at most {MAX_ROUTERS}")
    if n_cities < 1:
        raise ValueError("n_cities must be at least 1")
    if n_cities > len(catalog):
        raise ValueError(
            f"n_cities={n_cities} exceeds catalog size {len(catalog)}"
        )
    if not 0.0 <= mpls_fraction <= 1.0:
        raise ValueError("mpls_fraction must be within [0, 1]")
    if tunnel_len < 2:
        raise ValueError("tunnel_len must be at least 2")

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

    n = len(routers)
    # Router i sits on city i % n_cities, so every router distance is a
    # city-pair distance: compute those once (in both argument orders, as
    # the router pair i < j would) and index them.
    city_dist = [[haversine_km(a.centroid, b.centroid) for b in cities] for a in cities]
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        row, city_row = dist[i], city_dist[i % n_cities]
        for j in range(i + 1, n):
            row[j] = dist[j][i] = city_row[j % n_cities]

    # Prim's MST with (distance, node) tie-breaking.
    in_tree = [False] * n
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
        for v in range(n):
            if not in_tree[v] and dist[u][v] < best[v]:
                best[v] = dist[u][v]
                parent[v] = u
                heapq.heappush(heap, (dist[u][v], v))

    links = set(backbone)
    for i in range(n):
        row = dist[i]
        # Ranked by key, which nsmallest keeps stable: ties go to the lower index.
        peers = itertools.chain(range(i), range(i + 1, n))
        for j in heapq.nsmallest(EXTRA_DEGREE, peers, key=row.__getitem__):
            links.add((min(i, j), max(i, j)))

    mst_adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in backbone:
        mst_adj[a].append(b)
        mst_adj[b].append(a)
    for neighbors in mst_adj.values():
        neighbors.sort()

    n_tunnels = requested_tunnels(n, mpls_fraction)
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
            return sum(dist[a][b] for a, b in zip(run, run[1:]))

        runs.sort(key=lambda r: (-run_length(r), r))
        used: set[int] = set()
        for run in runs:
            if len(tunnels) == n_tunnels:
                break
            if used.isdisjoint(run):
                tunnels.append(run)
                used.update(run)

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
    ``dst`` already has its final predecessor.
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
        if d > dist[u]:
            continue
        settled[u] = True
        for v, w in adj[u]:
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


def max_path_attempts(n_paths: int) -> int:
    """How many source/destination draws :func:`simulate_traceroutes` makes
    at most for ``n_paths`` paths."""
    return max(n_paths * 50, 1000)


def simulate_traceroutes(
    world: World, n_paths: int, noise_fraction: float
) -> list[CleanPath]:
    """Shortest routes between random router pairs, with physical RTTs.

    Fewer than ``n_paths`` come back when :func:`max_path_attempts` draws
    do not find that many routes of at least two reported hops.

    The cumulative RTT at each hop is twice the along-path distance over
    the fiber propagation speed.  Hops crossing a tunnel in sequence all
    report the RTT of the hop where the tunnel run exits the path —
    applied before the per-hop multiplicative noise of ±``noise_fraction``.
    The reported path omits the probing source itself.
    """
    if not 0.0 <= noise_fraction < 1.0:
        raise ValueError("noise_fraction must be within [0, 1)")
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
    max_attempts = max_path_attempts(n_paths)
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
    spec: InjectionSpec,
    seed: int,
    catalog: list[CityPolygon],
    diag: Diagnostics | None = None,
) -> tuple[dict[str, list[GeoRecord]], set[str]]:
    """Produce per-database geolocation records for every router.

    Displaced routers have *all* databases agree on one wrong catalog city
    at least ``min_displacement_km`` from the truth; if no catalog city
    qualifies the router is skipped with a warning.  Everyone else keeps
    the true city, jittered independently per database by at most
    ``db_noise_km``.  Returns the snapshot and the displaced-IP set.
    """
    diag = diag or Diagnostics()
    if spec.db_count < 1:
        raise ValueError("db_count must be at least 1")
    rng = random.Random(f"geodb:{seed}")
    sources = [f"db{i + 1}" for i in range(spec.db_count)]
    n = len(world.routers)
    displaced_target = round(spec.interface_error_fraction * n)
    displaced_idx = set(rng.sample(range(n), min(displaced_target, n)))
    decoy_pool = [i for i in range(n) if i not in displaced_idx]
    decoy_target = round(spec.decoy_fraction * n)
    decoy_idx = set(rng.sample(decoy_pool, min(decoy_target, len(decoy_pool))))

    snapshot: dict[str, list[GeoRecord]] = {}
    displaced_ips: set[str] = set()
    catalog_sorted = sorted(catalog, key=lambda p: p.polygon_id)
    catalog_names = [normalize_city(c.name) for c in catalog_sorted]
    for i, router in enumerate(world.routers):
        records: list[GeoRecord] = []
        if i in displaced_idx:
            eligible = [
                c
                for c in catalog_sorted
                if haversine_km(c.centroid, router.location) >= spec.min_displacement_km
            ]
            if not eligible:
                diag.warn(
                    "synth_no_displacement_target",
                    f"{router.ip}: no catalog city ≥ {spec.min_displacement_km} km away",
                )
            else:
                wrong = rng.choice(eligible)
                records = [
                    GeoRecord(
                        ip=router.ip,
                        source=src,
                        lat=wrong.centroid.lat,
                        lon=wrong.centroid.lon,
                        city=wrong.name,
                        country=wrong.country,
                    )
                    for src in sources
                ]
                displaced_ips.add(router.ip)
        if not records:
            decoy_sources: set[str] = set()
            decoy_city: CityPolygon | None = None
            if i in decoy_idx and len(catalog_sorted) > 1:
                city = normalize_city(router.city)
                others = [c for c, name in zip(catalog_sorted, catalog_names) if name != city]
                if others:
                    decoy_city = rng.choice(others)
                    take = min(spec.decoy_db_count, max(0, spec.db_count - 1))
                    decoy_sources = set(sources[spec.db_count - take :])
            for src in sources:
                if decoy_city is not None and src in decoy_sources:
                    records.append(
                        GeoRecord(
                            ip=router.ip,
                            source=src,
                            lat=decoy_city.centroid.lat,
                            lon=decoy_city.centroid.lon,
                            city=decoy_city.name,
                            country=decoy_city.country,
                        )
                    )
                    continue
                bearing = rng.uniform(0.0, 2.0 * math.pi)
                offset_km = rng.uniform(0.0, spec.db_noise_km)
                lat, lon = _offset(router.location, bearing, offset_km)
                records.append(
                    GeoRecord(
                        ip=router.ip,
                        source=src,
                        lat=lat,
                        lon=lon,
                        city=router.city,
                        country=router.country,
                    )
                )
        snapshot[router.ip] = records
    return snapshot, displaced_ips


def _offset(point: GeoPoint, bearing_rad: float, distance_km: float) -> tuple[float, float]:
    dlat = distance_km * math.cos(bearing_rad) / KM_PER_DEG_LAT
    denom = KM_PER_DEG_LAT * max(0.01, math.cos(math.radians(point.lat)))
    dlon = distance_km * math.sin(bearing_rad) / denom
    lat = max(-90.0, min(90.0, point.lat + dlat))
    lon = ((point.lon + dlon + 180.0) % 360.0) - 180.0
    return lat, lon


# --- world (de)serialization ----------------------------------------------


def world_to_dict(world: World) -> dict:
    return {
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
        "links": [list(link) for link in world.links],
        "mpls_tunnels": [list(t) for t in world.mpls_tunnels],
    }


def world_from_dict(doc: dict) -> World:
    """Inverse of :func:`world_to_dict`; a link or tunnel naming a router
    index outside the router list raises ``ValueError``."""
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


def save_world(world: World, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps(world_to_dict(world), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_world(path: str | Path) -> World:
    return world_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


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
