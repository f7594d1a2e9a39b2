"""Geometry core: distance oracle, clustering, catalog, spatial index."""
from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceloc.geo import (
    DEFAULT_CITY_RADIUS_KM,
    EARTH_RADIUS_KM,
    CityCluster,
    CityPolygon,
    GeoPoint,
    SpatialIndex,
    cluster_candidates,
    haversine_km,
    load_city_catalog,
    mean_point,
    normalize_city,
    sol_km,
)
from traceloc.ingest import GeoRecord


def reference_distance_km(a: GeoPoint, b: GeoPoint) -> float:
    """Independent great-circle distance via the atan2 formulation
    (numerically solid at every separation, unlike the plain law of
    cosines)."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    dlon = lon2 - lon1
    y = math.hypot(
        math.cos(lat2) * math.sin(dlon),
        math.cos(lat1) * math.sin(lat2) - math.sin(lat1) * math.cos(lat2) * math.cos(dlon),
    )
    x = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(dlon)
    return EARTH_RADIUS_KM * math.atan2(y, x)


rand_points = st.builds(
    GeoPoint,
    st.floats(min_value=-90.0, max_value=90.0),
    st.floats(min_value=-180.0, max_value=180.0),
)


class TestHaversine:
    def test_identity_is_zero(self):
        p = GeoPoint(48.8566, 2.3522)
        assert haversine_km(p, p) == 0.0

    def test_antipodal_is_half_circumference(self):
        d = haversine_km(GeoPoint(90.0, 0.0), GeoPoint(-90.0, 0.0))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, abs=1e-6)

    def test_known_city_pair(self):
        paris = GeoPoint(48.8566, 2.3522)
        lyon = GeoPoint(45.7640, 4.8357)
        assert haversine_km(paris, lyon) == pytest.approx(392.0, abs=2.0)

    def test_against_reference_random_pairs(self):
        rng = random.Random(20240915)
        for _ in range(2000):
            a = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            ref = reference_distance_km(a, b)
            got = haversine_km(a, b)
            assert got == pytest.approx(ref, rel=1e-3, abs=1e-6)

    @given(rand_points, rand_points)
    def test_symmetry(self, a, b):
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), abs=1e-9)

    @given(rand_points, rand_points, rand_points)
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-6

    def test_triangle_inequality_near_antipode(self):
        # A triple drawn by the test above: the arcsine form put d(a, c)
        # 1.3e-5 km above d(a, b) + d(b, c).
        a, b, c = GeoPoint(0.0, 0.0), GeoPoint(1.0, 0.0), GeoPoint(1.192092896e-07, 180.0)
        assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-6

    def test_sol_km_round_trip_ms(self):
        # A round-trip millisecond buys 100 km of one-way separation.
        assert sol_km(2.0) == 200.0
        assert sol_km(0.0) == 0.0
        assert sol_km(1.0) == 100.0


# --- candidate clustering ----------------------------------------------------


def rec(ip="198.51.100.7", source="db1", lat=48.85, lon=2.35, city="Paris", country="FR"):
    return GeoRecord(ip=ip, source=source, lat=lat, lon=lon, city=city, country=country)


def brute_force_clusters(records, merge_radius_km=20.0):
    """Oracle mirror of the clustering contract: same-(city, country) names
    always merge; unnamed records join the nearest named-or-unnamed group
    within the radius, else stand alone."""
    named: dict[tuple[str, str], list] = {}
    unnamed = []
    key_order = lambda r: (normalize_city(r.city), r.country.strip().upper(), r.source, r.lat, r.lon)
    for r in sorted(records, key=key_order):
        k = normalize_city(r.city)
        if k:
            named.setdefault((k, r.country.strip().upper()), []).append(r)
        else:
            unnamed.append(r)
    groups = [named[k] for k in sorted(named)]

    def centroid(ms):
        return GeoPoint(sum(m.lat for m in ms) / len(ms), sum(m.lon for m in ms) / len(ms))

    for r in unnamed:
        best, best_d = -1, math.inf
        for i, ms in enumerate(groups):
            d = haversine_km(GeoPoint(r.lat, r.lon), centroid(ms))
            if d <= merge_radius_km and d < best_d:
                best, best_d = i, d
        if best >= 0:
            groups[best].append(r)
        else:
            groups.append([r])
    return sorted(
        [sorted(key_order(m) for m in ms) for ms in groups]
    )


class TestClusterCandidates:
    def test_empty_input(self):
        assert cluster_candidates([]) == []

    def test_same_city_merges_regardless_of_distance(self):
        # Two databases disagree on coordinates but agree on the city name.
        a = rec(source="db1", lat=48.0, lon=2.0)
        b = rec(source="db2", lat=49.5, lon=3.0)
        clusters = cluster_candidates([a, b])
        assert len(clusters) == 1
        assert clusters[0].supporting_sources == {"db1", "db2"}
        assert clusters[0].centroid == GeoPoint(48.75, 2.5)

    def test_city_name_comparison_is_case_insensitive(self):
        clusters = cluster_candidates([rec(city="Paris "), rec(source="db2", city="paris")])
        assert len(clusters) == 1

    def test_unnamed_joins_nearest_within_radius(self):
        base = rec()
        stray = rec(source="db2", city="", lat=48.90, lon=2.35)  # ~5.6 km away
        clusters = cluster_candidates([base, stray])
        assert len(clusters) == 1

    def test_unnamed_far_away_founds_own_cluster(self):
        base = rec()
        loner = rec(source="db2", city="", lat=50.0, lon=8.0)
        clusters = cluster_candidates([base, loner])
        assert len(clusters) == 2

    def test_different_countries_do_not_merge_by_name(self):
        clusters = cluster_candidates([rec(), rec(source="db2", country="DE")])
        assert len(clusters) == 2

    def test_order_independence(self):
        records = [
            rec(source="db1"),
            rec(source="db2", city="Lyon", lat=45.76, lon=4.83),
            rec(source="db3", city="", lat=48.84, lon=2.36),
            rec(source="db4", city="", lat=10.0, lon=10.0),
        ]
        expected = cluster_candidates(records)
        rng = random.Random(7)
        for _ in range(10):
            shuffled = records[:]
            rng.shuffle(shuffled)
            got = cluster_candidates(shuffled)
            assert [
                (c.city, c.country, c.centroid, sorted(c.supporting_sources)) for c in got
            ] == [(c.city, c.country, c.centroid, sorted(c.supporting_sources)) for c in expected]

    def test_matches_brute_force_oracle_on_random_instances(self):
        rng = random.Random(99)
        cities = ["Alpha", "Beta", "Gamma", ""]
        for trial in range(50):
            records = [
                GeoRecord(
                    ip="198.51.100.7",
                    source=f"db{i}",
                    lat=rng.uniform(40, 50),
                    lon=rng.uniform(0, 10),
                    city=rng.choice(cities),
                    country=rng.choice(["FR", "DE"]),
                )
                for i in range(rng.randint(1, 8))
            ]
            got = cluster_candidates(records)
            got_partition = sorted(
                sorted(
                    (normalize_city(r.city), r.country.strip().upper(), r.source, r.lat, r.lon)
                    for r in records
                    if r.source in c.supporting_sources
                )
                for c in got
            )
            assert got_partition == brute_force_clusters(records), f"trial {trial}"

    def test_mean_point_is_the_inline_mean(self):
        rng = random.Random(5)
        records = [
            rec(source=f"db{i}", lat=rng.uniform(-90, 90), lon=rng.uniform(-180, 180))
            for i in range(7)
        ]
        points = [GeoPoint(r.lat, r.lon) for r in records]
        for items in (records, points, points[:1]):
            assert mean_point(items) == GeoPoint(
                sum(p.lat for p in items) / len(items), sum(p.lon for p in items) / len(items)
            )
        # Summed in order, not exactly: 1e16 + 1 rounds back to 1e16.
        assert mean_point([GeoPoint(1e16, 0), GeoPoint(1, 0), GeoPoint(-1e16, 0)]).lat == 0.0

    def test_cluster_ids_are_stable_ascending(self):
        clusters = cluster_candidates(
            [rec(), rec(source="db2", city="Lyon", lat=45.76, lon=4.83)]
        )
        assert [c.cluster_id for c in clusters] == [0, 1]


def reference_cluster_candidates(records, merge_radius_km=20.0):
    """``cluster_candidates`` as it was before it keyed each record once:
    every key and group mean recomputed where it is read."""
    if not records:
        return []

    def canon_key(r):
        return (normalize_city(r.city), r.country.strip().upper(), r.source, r.lat, r.lon)

    ordered = sorted(records, key=canon_key)
    named = {}
    unnamed = []
    for rec in ordered:
        city = normalize_city(rec.city)
        if city:
            named.setdefault((city, rec.country.strip().upper()), []).append(rec)
        else:
            unnamed.append(rec)

    groups = [named[key] for key in sorted(named)]

    for rec in unnamed:
        point = GeoPoint(rec.lat, rec.lon)
        best_idx = -1
        best_dist = math.inf
        for idx, members in enumerate(groups):
            d = haversine_km(point, mean_point(members))
            if d <= merge_radius_km and d < best_dist:
                best_idx, best_dist = idx, d
        if best_idx >= 0:
            groups[best_idx].append(rec)
        else:
            groups.append([rec])

    def cluster_sort_key(members):
        first = members[0]
        c = mean_point(members)
        return (first.country.strip().upper(), normalize_city(first.city), c.lat, c.lon)

    clusters = []
    for cid, members in enumerate(sorted(groups, key=cluster_sort_key)):
        first = members[0]
        clusters.append(
            CityCluster(
                cluster_id=cid,
                centroid=mean_point(members),
                city=first.city.strip(),
                country=first.country.strip().upper(),
                supporting_sources={m.source for m in members},
            )
        )
    return clusters


def cluster_bits(clusters):
    """Every field of each cluster, centroids bit for bit (``-0.0`` too)."""
    return [
        (c.cluster_id, c.centroid.lat.hex(), c.centroid.lon.hex(), c.city, c.country,
         c.supporting_sources)
        for c in clusters
    ]


# Paris and points 0.1 degree (about 11 km) and 0.2 degree of latitude from
# it, so an unnamed record can lie within 20 km of two groups; zeros of
# either sign; and any coordinate at all.
_near_points = [(48.85, 2.35), (48.95, 2.35), (49.05, 2.35), (48.75, 2.35),
                (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.1, -0.0)]
candidate_records = st.lists(
    st.builds(
        lambda source, point, city, country: GeoRecord(
            ip="198.51.100.7", source=source, lat=point[0], lon=point[1], city=city, country=country
        ),
        st.sampled_from(["db1", "db2", "db3", "db4"]),
        st.one_of(
            st.sampled_from(_near_points),
            st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)),
        ),
        st.sampled_from(["Paris", " paris", "PARIS ", "Lyon", "lyon\t", "", "  "]),
        st.sampled_from(["FR", "fr", " Fr ", "DE", ""]),
    ),
    max_size=12,
)


class TestClusterCandidatesMatchesReference:
    @given(candidate_records, st.sampled_from([0.0, 20.0, 50.0]))
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_generated_records(self, records, merge_radius_km):
        assert cluster_bits(cluster_candidates(records, merge_radius_km)) == cluster_bits(
            reference_cluster_candidates(records, merge_radius_km)
        )

    def test_unnamed_record_between_two_groups(self):
        # The first stray is 11 km from both named groups and joins one; the
        # second then finds that group's moved mean the nearer.
        records = [
            rec(source="db1", lat=48.75, city="Paris"),
            rec(source="db2", lat=48.95, city="Meaux"),
            rec(source="db3", lat=48.85, city=""),
            rec(source="db4", lat=48.85, city=" "),
        ]
        got = cluster_candidates(records)
        assert sorted(map(len, (c.supporting_sources for c in got))) == [1, 3]
        assert cluster_bits(got) == cluster_bits(reference_cluster_candidates(records))

    def test_signed_zero_centroids(self):
        # A mean sums from 0, so even a lone unnamed record at -0.0 has a
        # centroid of +0.0.
        for lat in (0.0, -0.0):
            records = [rec(source="db1", lat=lat, lon=-0.0, city=""),
                       rec(source="db2", lat=-0.0, lon=-0.0, city="Null Island"),
                       rec(source="db3", lat=-0.0, lon=90.0, city="")]
            assert cluster_bits(cluster_candidates(records)) == cluster_bits(
                reference_cluster_candidates(records)
            )


# --- catalog loading ---------------------------------------------------------


class TestCityCatalog:
    def test_loads_with_default_and_explicit_radius(self, data_dir):
        catalog = load_city_catalog(data_dir / "cities.csv")
        by_name = {p.name: p for p in catalog}
        assert by_name["Paris"].radius_km == DEFAULT_CITY_RADIUS_KM
        assert by_name["Istanbul"].radius_km == 30.0
        assert by_name["Paris"].country == "FR"
        assert [p.polygon_id for p in catalog] == list(range(len(catalog)))

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_city_catalog(tmp_path / "nope.csv")

    def test_missing_column_is_fatal(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("name,lat,lon\nParis,48.85,2.35\n")
        with pytest.raises(ValueError, match="missing columns"):
            load_city_catalog(p)

    def test_bad_coordinates_are_fatal(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("name,country,lat,lon\nParis,FR,abc,2.35\n")
        with pytest.raises(ValueError, match="bad coordinates"):
            load_city_catalog(p)

    def test_out_of_range_coordinates_are_fatal(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("name,country,lat,lon\nParis,FR,91.0,2.35\n")
        with pytest.raises(ValueError, match="out of range"):
            load_city_catalog(p)

    def test_short_row_is_fatal(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("lat,lon,name,country\n1.0,2.0\n")
        with pytest.raises(ValueError, match=r"short\.csv row 2: missing name or country"):
            load_city_catalog(p)

    @pytest.mark.parametrize("radius", ["nan", "inf", "abc"])
    def test_bad_radius_is_fatal(self, tmp_path, radius):
        # A NaN disc matches no query and an infinite one every grid cell.
        p = tmp_path / "bad.csv"
        p.write_text(f"name,country,lat,lon,radius_km\nParis,FR,48.85,2.35,{radius}\n")
        with pytest.raises(ValueError, match=r"bad\.csv row 2: bad radius"):
            load_city_catalog(p)

    def test_error_names_the_file_line_past_blank_lines(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("name,country,lat,lon\na,FR,1,2\n\n\nb,FR,x,2\n")
        with pytest.raises(ValueError, match=r"gaps\.csv row 5: bad coordinates"):
            load_city_catalog(p)

    @pytest.mark.parametrize(
        "bad_row, error",
        [
            ('"Paris"x,FR,48.85,2.35,', "',' expected after '\"'"),
            ('Paris,FR,48.85,2.35,"note', "unexpected end of data"),
            ('Paris,FR,48.85,2.35,"' + "x" * 140_000 + '"', "field larger than field limit"),
        ],
        ids=["text-after-quote", "quote-open-at-end", "field-over-limit"],
    )
    def test_csv_it_cannot_parse_is_fatal(self, tmp_path, bad_row, error):
        # A row csv rejects names the line it starts on.
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(["name,country,lat,lon,note", "Lyon,FR,45.76,4.84,", bad_row,
                                "Nice,FR,43.70,7.27,"]) + "\n")
        with pytest.raises(ValueError, match=f"bad\\.csv:3: {error}"):
            load_city_catalog(p)

    def test_quoted_field_may_span_lines(self, tmp_path):
        p = tmp_path / "multi.csv"
        p.write_text('name,country,lat,lon\n"Saint\nDenis",FR,48.94,2.36\nLyon,FR,45.76,4.84\n')
        assert [c.name for c in load_city_catalog(p)] == ["Saint\nDenis", "Lyon"]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "name,country,lat,lon\nParis,FR,48.85,2.35\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert load_city_catalog(marked) == load_city_catalog(plain) != []

    def test_duplicate_rows_keep_distinct_ids(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("name,country,lat,lon\nParis,FR,48.85,2.35\nParis,FR,48.85,2.35\n")
        catalog = load_city_catalog(p)
        assert len(catalog) == 2
        assert catalog[0].polygon_id != catalog[1].polygon_id


# --- spatial index -----------------------------------------------------------


def linear_scan(polygons, center, radius_km):
    return sorted(
        p.polygon_id
        for p in polygons
        if haversine_km(center, p.centroid) <= radius_km + p.radius_km
    )


def random_catalog(rng, n):
    return [
        CityPolygon(
            polygon_id=i,
            name=f"c{i}",
            country="XX",
            centroid=GeoPoint(rng.uniform(-89.9, 89.9), rng.uniform(-180, 180)),
            radius_km=rng.uniform(5.0, 40.0),
        )
        for i in range(n)
    ]


class TestSpatialIndex:
    def test_equals_linear_scan_random(self):
        rng = random.Random(4242)
        for trial in range(120):
            polygons = random_catalog(rng, rng.randint(1, 60))
            if trial % 2:
                # Radii from 0 to 3,000 km in one catalog, with latitudes
                # repeated and some discs exactly at a pole.
                lats = [rng.uniform(-90, 90) for _ in range(4)] + [90.0, -90.0]
                polygons = [
                    dataclasses.replace(
                        p,
                        centroid=GeoPoint(rng.choice(lats), p.centroid.lon),
                        radius_km=rng.choice([0.0, rng.uniform(0.0, 3000.0)]),
                    )
                    for p in polygons
                ]
            index = SpatialIndex(polygons)
            for _ in range(4):
                center = GeoPoint(
                    rng.choice([90.0, -90.0, rng.uniform(-90, 90)]),
                    rng.choice([180.0, -180.0, rng.uniform(-180, 180)]),
                )
                radius = rng.choice([0.0, rng.uniform(1.0, 3000.0), rng.uniform(20015.0, 25000.0)])
                assert index.query(center, radius) == linear_scan(
                    polygons, center, radius
                )

    def test_near_pole_query(self):
        polygons = [
            CityPolygon(0, "pole", "XX", GeoPoint(89.5, 10.0), 30.0),
            CityPolygon(1, "far", "XX", GeoPoint(0.0, 0.0), 20.0),
        ]
        index = SpatialIndex(polygons)
        center = GeoPoint(89.8, -170.0)  # other side of the pole
        assert index.query(center, 100.0) == linear_scan(polygons, center, 100.0)

    def test_date_line_query(self):
        polygons = [
            CityPolygon(0, "west", "XX", GeoPoint(10.0, 179.8), 20.0),
            CityPolygon(1, "east", "XX", GeoPoint(10.0, -179.8), 20.0),
            CityPolygon(2, "away", "XX", GeoPoint(10.0, 0.0), 20.0),
        ]
        index = SpatialIndex(polygons)
        hits = index.query(GeoPoint(10.0, 180.0), 50.0)
        assert hits == [0, 1]
        assert hits == linear_scan(polygons, GeoPoint(10.0, 180.0), 50.0)

    def test_boundary_touching_counts(self):
        # Disc centers 40 km apart, radii 20 + 20: tangent discs intersect.
        a = GeoPoint(0.0, 0.0)
        b_lat = 40.0 / (EARTH_RADIUS_KM * math.pi / 180.0)
        polygons = [CityPolygon(0, "t", "XX", GeoPoint(b_lat, 0.0), 20.0)]
        index = SpatialIndex(polygons)
        d = haversine_km(a, polygons[0].centroid)
        assert index.query(a, d - 20.0) == [0]
        assert index.query(a, d - 20.0 - 0.5) == []

    def test_polygon_accessors(self):
        polygons = random_catalog(random.Random(1), 5)
        index = SpatialIndex(polygons)
        assert index.polygon(3).polygon_id == 3
