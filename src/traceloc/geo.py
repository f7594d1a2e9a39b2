"""Geometric core: great-circle distance, RTT-to-distance budgets, candidate
clustering, the city-disc catalog, and a degree-grid spatial index.

All distances are kilometres on a sphere of radius 6371 km.  Propagation
budgets assume signals travel at ~200 km/ms one way in optical fiber, i.e.
a round-trip millisecond buys 100 km of separation.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotation only
    from .ingest import GeoRecord

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

    def canon_key(r: "GeoRecord") -> tuple:
        return (normalize_city(r.city), r.country.strip().upper(), r.source, r.lat, r.lon)

    ordered = sorted(records, key=canon_key)
    named: dict[tuple[str, str], list] = {}
    unnamed: list = []
    for rec in ordered:
        city = normalize_city(rec.city)
        if city:
            named.setdefault((city, rec.country.strip().upper()), []).append(rec)
        else:
            unnamed.append(rec)

    groups: list[list] = [named[key] for key in sorted(named)]

    def centroid_of(members: list) -> GeoPoint:
        return GeoPoint(
            sum(m.lat for m in members) / len(members),
            sum(m.lon for m in members) / len(members),
        )

    for rec in unnamed:
        point = GeoPoint(rec.lat, rec.lon)
        best_idx = -1
        best_dist = math.inf
        for idx, members in enumerate(groups):
            d = haversine_km(point, centroid_of(members))
            if d <= merge_radius_km and d < best_dist:
                best_idx, best_dist = idx, d
        if best_idx >= 0:
            groups[best_idx].append(rec)
        else:
            groups.append([rec])

    def cluster_sort_key(members: list) -> tuple:
        first = members[0]
        c = centroid_of(members)
        return (first.country.strip().upper(), normalize_city(first.city), c.lat, c.lon)

    clusters = []
    for cid, members in enumerate(sorted(groups, key=cluster_sort_key)):
        first = members[0]
        clusters.append(
            CityCluster(
                cluster_id=cid,
                centroid=centroid_of(members),
                city=first.city.strip(),
                country=first.country.strip().upper(),
                supporting_sources={m.source for m in members},
            )
        )
    return clusters


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
    ids.  A missing file or malformed row is fatal.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"city catalog not found: {path}")
    polygons: list[CityPolygon] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"name", "country", "lat", "lon"}
        header = set(reader.fieldnames or [])
        if not required.issubset(header):
            raise ValueError(f"city catalog {path} missing columns {sorted(required - header)}")
        for lineno, row in enumerate(reader):
            try:
                lat = float(row["lat"])
                lon = float(row["lon"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"city catalog {path} row {lineno + 2}: bad coordinates") from exc
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                raise ValueError(f"city catalog {path} row {lineno + 2}: coordinates out of range")
            raw_radius = (row.get("radius_km") or "").strip()
            try:
                radius = float(raw_radius) if raw_radius else DEFAULT_CITY_RADIUS_KM
                if not math.isfinite(radius):
                    raise ValueError(f"non-finite radius {raw_radius!r}")
            except ValueError as exc:
                raise ValueError(f"city catalog {path} row {lineno + 2}: bad radius") from exc
            if radius < 0:
                raise ValueError(f"city catalog {path} row {lineno + 2}: negative radius")
            if row["name"] is None or row["country"] is None:
                raise ValueError(f"city catalog {path} row {lineno + 2}: missing name or country")
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


def _disc_cells(center: GeoPoint, radius_km: float) -> Iterable[tuple[int, int]]:
    """Yield the 1-degree grid cells a spherical disc can touch.

    The latitude band is exact; the longitude span uses the bounding-box
    formula for a spherical cap (asin(sin r / cos lat)), which widens
    toward the poles.  A disc that reaches a pole wraps every longitude.
    """
    ang = min(math.pi, radius_km / EARTH_RADIUS_KM + 1e-12)
    lat0 = math.radians(center.lat)
    lat_lo = math.degrees(lat0 - ang)
    lat_hi = math.degrees(lat0 + ang)

    full_wrap = False
    if lat_hi >= 90.0 or lat_lo <= -90.0:
        full_wrap = True
        lat_lo = max(lat_lo, -90.0)
        lat_hi = min(lat_hi, 90.0)
    else:
        ratio = math.sin(ang) / math.cos(lat0)
        if ratio >= 1.0:
            full_wrap = True
        else:
            dlon = math.degrees(math.asin(ratio)) + 1e-9

    lat_cells = range(
        max(-90, math.floor(lat_lo)), min(89, math.floor(min(lat_hi, 89.999999))) + 1
    )
    if full_wrap:
        lon_cells = list(range(-180, 180))
    else:
        lon_lo = center.lon - dlon
        lon_hi = center.lon + dlon
        lon_cells = []
        seen = set()
        for j in range(math.floor(lon_lo), math.floor(lon_hi) + 1):
            wrapped = (j + 180) % 360 - 180
            if wrapped not in seen:
                seen.add(wrapped)
                lon_cells.append(wrapped)
    for i in lat_cells:
        for j in lon_cells:
            yield (i, j)


class SpatialIndex:
    """Buckets city discs into a 1-degree lat/lon grid.

    The grid only prunes candidates: every query ends with an exact
    haversine test, so results are identical to a linear scan over the
    catalog.  The implementation is deliberately swappable — anything
    honoring ``query(center, radius_km)`` can stand in.
    """

    def __init__(self, polygons: Sequence[CityPolygon]) -> None:
        self._polygons: dict[int, CityPolygon] = {p.polygon_id: p for p in polygons}
        self._grid: dict[tuple[int, int], list[int]] = {}
        for poly in polygons:
            for cell in _disc_cells(poly.centroid, poly.radius_km):
                self._grid.setdefault(cell, []).append(poly.polygon_id)

    def polygon(self, polygon_id: int) -> CityPolygon:
        return self._polygons[polygon_id]

    @property
    def polygons(self) -> list[CityPolygon]:
        return [self._polygons[pid] for pid in sorted(self._polygons)]

    def query(self, center: GeoPoint, radius_km: float) -> list[int]:
        """Polygon ids whose disc intersects the query disc (boundary
        touching counts), sorted ascending."""
        candidates: set[int] = set()
        for cell in _disc_cells(center, radius_km):
            candidates.update(self._grid.get(cell, ()))
        hits = []
        for pid in candidates:
            poly = self._polygons[pid]
            if haversine_km(center, poly.centroid) <= radius_km + poly.radius_km:
                hits.append(pid)
        return sorted(hits)
