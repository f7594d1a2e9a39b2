"""Geometric core: great-circle distance, RTT-to-distance budgets, candidate
clustering, the city-disc catalog, and a latitude-sorted spatial index.

All distances are kilometres on a sphere of radius 6371 km.  Propagation
budgets assume signals travel at ~200 km/ms one way in optical fiber, i.e.
a round-trip millisecond buys 100 km of separation.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Sequence

from .ingest import GeoRecord, read_csv

EARTH_RADIUS_KM = 6371.0
FIBER_KM_PER_MS = 200.0  # one-way speed of light in fiber, km per millisecond
DEFAULT_CITY_RADIUS_KM = 20.0
DEFAULT_MERGE_RADIUS_KM = 20.0

KM_PER_DEG_LAT = EARTH_RADIUS_KM * math.pi / 180.0  # km in one degree of latitude


@dataclass(frozen=True)
class GeoPoint:
    """A latitude/longitude pair in decimal degrees."""

    lat: float
    lon: float


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in kilometres.

    Uses the haversine formulation, which is numerically stable for the
    small angles that dominate hop-to-hop distances.  Past a quarter of the
    circumference (``h > 0.5``) the arcsine loses precision near the
    antipode, enough to break the triangle inequality, so those distances
    take Vincenty's ``atan2`` form instead.
    """
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    if h <= 0.5:
        return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))
    sin1, cos1, sin2, cos2 = math.sin(lat1), math.cos(lat1), math.sin(lat2), math.cos(lat2)
    y = math.hypot(cos2 * math.sin(dlon), cos1 * sin2 - sin1 * cos2 * math.cos(dlon))
    x = sin1 * sin2 + cos1 * cos2 * math.cos(dlon)
    return EARTH_RADIUS_KM * math.atan2(y, x)


def sol_km(delta_ms: float) -> float:
    """Maximum distance a signal can cover during ``delta_ms`` of round-trip
    time: half the delta (one way) times the fiber propagation speed.
    """
    return (delta_ms / 2.0) * FIBER_KM_PER_MS


_lat, _lon = attrgetter("lat"), attrgetter("lon")


def mean_point(points: Sequence) -> GeoPoint:
    """The mean latitude and mean longitude of ``points``, anything with
    ``lat`` and ``lon``, each summed in order."""
    n = len(points)
    return GeoPoint(sum(map(_lat, points)) / n, sum(map(_lon, points)) / n)


def normalize_city(name: str) -> str:
    return name.strip().casefold()


@dataclass
class CityCluster:
    """A group of geolocation records that agree on one candidate location."""

    cluster_id: int
    centroid: GeoPoint
    city: str
    country: str
    supporting_sources: set[str] = field(default_factory=set)


def cluster_candidates(
    records: Sequence["GeoRecord"], merge_radius_km: float = DEFAULT_MERGE_RADIUS_KM
) -> list[CityCluster]:
    """Group one IP's geolocation records into candidate location clusters.

    Records naming the same (city, country) — compared case-insensitively
    after trimming — always share a cluster.  Records with an empty city
    name join the nearest existing cluster whose running centroid lies
    within ``merge_radius_km``, and otherwise found their own cluster.

    Returns clusters sorted by (country, city, cluster_id), with centroids
    as the arithmetic mean of member coordinates and supporting_sources as
    the union of member sources.  Output is a partition of the input and
    does not depend on input order.
    """
    if not records:
        return []

    # Each record's key once: (city, country, source, lat, lon), normalised.
    keyed = sorted(
        (((normalize_city(r.city), r.country.strip().upper(), r.source, r.lat, r.lon), r)
         for r in records),
        key=itemgetter(0),
    )
    named: dict[tuple[str, str], list] = {}
    unnamed: list = []
    for key, rec in keyed:
        if key[0]:
            named.setdefault(key[:2], []).append(rec)
        else:
            unnamed.append((key[:2], rec))

    # Per group: its first record's (city, country), its members and their mean.
    labels = sorted(named)
    groups: list[list] = [named[label] for label in labels]
    means = [mean_point(members) for members in groups]

    for label, rec in unnamed:
        point = GeoPoint(rec.lat, rec.lon)
        best_idx = -1
        best_dist = math.inf
        for idx, mean in enumerate(means):
            d = haversine_km(point, mean)
            if d <= merge_radius_km and d < best_dist:
                best_idx, best_dist = idx, d
        if best_idx >= 0:
            groups[best_idx].append(rec)
            means[best_idx] = mean_point(groups[best_idx])
        else:
            labels.append(label)
            groups.append([rec])
            means.append(mean_point([rec]))

    order = sorted(
        range(len(groups)),
        key=lambda g: (labels[g][1], labels[g][0], means[g].lat, means[g].lon),
    )
    return [
        CityCluster(
            cluster_id=cid,
            centroid=means[g],
            city=groups[g][0].city.strip(),
            country=labels[g][1],
            supporting_sources={m.source for m in groups[g]},
        )
        for cid, g in enumerate(order)
    ]


@dataclass(frozen=True)
class CityPolygon:
    """A city footprint approximated as a disc around its centroid."""

    polygon_id: int
    name: str
    country: str
    centroid: GeoPoint
    radius_km: float


def load_city_catalog(path: str | Path) -> list[CityPolygon]:
    """Load the city catalog CSV: ``name,country,lat,lon,radius_km``.

    ``radius_km`` may be omitted (column or value) and defaults to 20 km.
    Duplicate (name, country) rows are kept and receive distinct polygon
    ids.  Rows are read as ``csv.DictReader`` reads them: a repeated column
    name reads its last column, a short row lacks its missing fields and
    blank lines are skipped.  A missing file, a malformed row or a row that
    csv cannot parse is fatal.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"city catalog not found: {path}")
    polygons: list[CityPolygon] = []
    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = read_csv(fh, path)
        column = {name: i for i, name in enumerate(next(rows, (0, []))[1])}
        required = {"name", "country", "lat", "lon"}
        if missing := sorted(required - column.keys()):
            raise ValueError(f"city catalog {path} missing columns {missing}")
        for lineno, values in rows:
            if not values:
                continue
            row = {name: values[i] for name, i in column.items() if i < len(values)}
            try:
                lat = float(row.get("lat"))
                lon = float(row.get("lon"))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"city catalog {path} row {lineno}: bad coordinates") from exc
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                raise ValueError(f"city catalog {path} row {lineno}: coordinates out of range")
            raw_radius = (row.get("radius_km") or "").strip()
            try:
                radius = float(raw_radius) if raw_radius else DEFAULT_CITY_RADIUS_KM
                if not math.isfinite(radius):
                    raise ValueError(f"non-finite radius {raw_radius!r}")
            except ValueError as exc:
                raise ValueError(f"city catalog {path} row {lineno}: bad radius") from exc
            if radius < 0:
                raise ValueError(f"city catalog {path} row {lineno}: negative radius")
            if row.get("name") is None or row.get("country") is None:
                raise ValueError(f"city catalog {path} row {lineno}: missing name or country")
            polygons.append(
                CityPolygon(
                    polygon_id=len(polygons),
                    name=row["name"].strip(),
                    country=row["country"].strip().upper(),
                    centroid=GeoPoint(lat, lon),
                    radius_km=radius,
                )
            )
    return polygons


class SpatialIndex:
    """City discs sorted by centroid latitude.

    A query gives the exact haversine test only to centroids within its
    radius plus the widest catalog radius (and 1e-9 degree for rounding) of
    its latitude: a great-circle distance is never shorter than its distance
    along the meridian.  So results equal a linear scan over the catalog.
    """

    def __init__(self, polygons: Sequence[CityPolygon]) -> None:
        self._polygons: dict[int, CityPolygon] = {p.polygon_id: p for p in polygons}
        self._by_lat = sorted(self._polygons.values(), key=lambda p: p.centroid.lat)
        self._lats = [p.centroid.lat for p in self._by_lat]
        self._max_radius_km = max((p.radius_km for p in self._by_lat), default=0.0)

    def polygon(self, polygon_id: int) -> CityPolygon:
        return self._polygons[polygon_id]

    def query(self, center: GeoPoint, radius_km: float) -> list[int]:
        """Polygon ids whose disc intersects the query disc (boundary
        touching counts), sorted ascending."""
        reach = (radius_km + self._max_radius_km) / KM_PER_DEG_LAT + 1e-9
        lo = bisect.bisect_left(self._lats, center.lat - reach)
        hi = bisect.bisect_right(self._lats, center.lat + reach)
        return sorted(
            p.polygon_id
            for p in self._by_lat[lo:hi]
            if haversine_km(center, p.centroid) <= radius_km + p.radius_km
        )
