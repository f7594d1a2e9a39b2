"""Corpus-level statistics: affected-element summary, cluster histograms
against a speed-of-light baseline, correction distance CDF, and per-country
correction deltas.  All CSV output is UTF-8 with deterministic row order,
and every percentage ships next to the raw counts that produce it.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .diagnostics import Diagnostics
from .geo import CityCluster, GeoPoint, haversine_km, normalize_city
from .ingest import CleanPath, GeoRecord
from .refine import CandidateState, NeighborPair, RefineConfig, budget_km
from .resolve import ResolutionOutcome, Verdict


def _fmt(value: float | int | None) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return repr(round(value, 6))
    return str(value)


@dataclass
class SummaryRow:
    category: str
    ip_count: int
    ip_pct: float
    link_count: int
    link_pct: float
    traceroute_count: int
    traceroute_pct: float


@dataclass
class SummaryTable:
    total_ips: int
    total_links: int
    total_traceroutes: int
    rows: list[SummaryRow] = field(default_factory=list)


def _pct(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0


def table_from_counts(
    totals: tuple[int, int, int],
    mpls: tuple[int, int, int],
    interface: tuple[int, int, int],
    total_affected: tuple[int, int, int],
    corrected: tuple[int, int, int],
) -> SummaryTable:
    """Assemble the summary table from raw (ips, links, traceroutes)
    counts.  Affected percentages are relative to the totals; corrected
    percentages are relative to the total-affected counts."""
    t_ips, t_links, t_trs = totals
    table = SummaryTable(total_ips=t_ips, total_links=t_links, total_traceroutes=t_trs)

    def row(name: str, counts: tuple[int, int, int], base: tuple[int, int, int]) -> SummaryRow:
        return SummaryRow(
            category=name,
            ip_count=counts[0],
            ip_pct=_pct(counts[0], base[0]),
            link_count=counts[1],
            link_pct=_pct(counts[1], base[1]),
            traceroute_count=counts[2],
            traceroute_pct=_pct(counts[2], base[2]),
        )

    table.rows = [
        row("total", totals, totals),
        row("mpls_affected", mpls, totals),
        row("interface_affected", interface, totals),
        row("total_affected", total_affected, totals),
        row("corrected", corrected, total_affected),
    ]
    return table


def summarize(
    outcomes: dict[str, ResolutionOutcome],
    paths: list[CleanPath],
) -> SummaryTable:
    """Count affected IPs, links (unordered adjacent IP pairs), and
    traceroutes per anomaly kind.  Only counts come out, so a link is
    keyed by its two IP strings in string order; no address is parsed.

    An element is affected by a kind when it involves at least one IP of
    that kind; total-affected uses union semantics, so an element touched
    by both kinds counts once.  Corrected elements are those affected
    exclusively by interface-kind IPs — a traceroute also crossing a
    tunnel-distorted IP cannot be fully repaired.
    """
    mpls_ips = {
        ip for ip, out in outcomes.items() if out.verdict is Verdict.MPLS_AFFECTED
    }
    iface_ips = {
        ip for ip, out in outcomes.items() if out.verdict is Verdict.INTERFACE_AFFECTED
    }

    all_ips: set[str] = set()
    all_links: set[tuple[str, str]] = set()
    for path in paths:
        hops = [ip for ip, _ in path.hops]
        all_ips.update(hops)
        for a, b in zip(hops, hops[1:]):
            all_links.add((a, b) if a <= b else (b, a))

    def link_counts(link: tuple[str, str]) -> tuple[bool, bool]:
        a, b = link
        return (a in mpls_ips or b in mpls_ips, a in iface_ips or b in iface_ips)

    mpls_links = iface_links = union_links = corrected_links = 0
    for link in all_links:
        has_mpls, has_iface = link_counts(link)
        mpls_links += has_mpls
        iface_links += has_iface
        union_links += has_mpls or has_iface
        corrected_links += has_iface and not has_mpls

    mpls_trs = iface_trs = union_trs = corrected_trs = 0
    for path in paths:
        hops = {ip for ip, _ in path.hops}
        has_mpls = bool(hops & mpls_ips)
        has_iface = bool(hops & iface_ips)
        mpls_trs += has_mpls
        iface_trs += has_iface
        union_trs += has_mpls or has_iface
        corrected_trs += has_iface and not has_mpls

    union_ips = (mpls_ips | iface_ips) & all_ips
    return table_from_counts(
        totals=(len(all_ips), len(all_links), len(paths)),
        mpls=(len(mpls_ips & all_ips), mpls_links, mpls_trs),
        interface=(len(iface_ips & all_ips), iface_links, iface_trs),
        total_affected=(len(union_ips), union_links, union_trs),
        corrected=(len(iface_ips & all_ips), corrected_links, corrected_trs),
    )


def sol_baseline(
    clusters_by_ip: dict[str, list[CityCluster]],
    pairs: list[NeighborPair],
    cfg: RefineConfig | None = None,
) -> dict[str, CandidateState]:
    """Single-pass speed-of-light filtering of the run's candidate clusters
    over its neighbor pairs, with no iteration and no pruning feedback.

    A cluster survives when every observation of every neighbor holding
    clusters has at least one neighbor cluster within the observation's
    budget (:func:`traceloc.refine.budget_km`, as in
    :func:`traceloc.refine.pair_feasible`).  That is tested per pair as:
    the nearest neighbor cluster lies within the pair's smallest budget.
    Neighbor candidate sets are always the full original clusters.  IPs
    with no neighbors keep everything; IPs can end up with zero clusters;
    IPs without clusters are left out.
    """
    cfg = cfg or RefineConfig()
    limits: dict[str, list[tuple[list[CityCluster], float]]] = {}
    for pair in pairs:
        limit = min(budget_km(o.rtt_a, o.rtt_b, cfg) for o in pair.observations)
        for ip, other in ((pair.ip_a, pair.ip_b), (pair.ip_b, pair.ip_a)):
            if clusters_by_ip.get(other):
                limits.setdefault(ip, []).append((clusters_by_ip[other], limit))

    out: dict[str, CandidateState] = {}
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


HIST_BUCKETS = ("1", "2", "3", "4plus")


@dataclass
class HistRow:
    method: str
    clusters: str
    count: int
    fraction: float


def cluster_histogram(
    states: dict[str, CandidateState],
    baseline_states: dict[str, CandidateState],
) -> list[HistRow]:
    """Fraction of IPs ending with 1, 2, 3, or ≥4 surviving clusters,
    for the refined states and the speed-of-light baseline.  Fractions
    are over all IPs of each method (baseline IPs stripped to zero
    clusters fall in no bucket)."""

    def rows(method: str, st: dict[str, CandidateState]) -> list[HistRow]:
        counts = dict.fromkeys(HIST_BUCKETS, 0)
        for state in st.values():
            n = len(state.candidates)
            if n == 0:
                continue
            bucket = str(n) if n < 4 else "4plus"
            counts[bucket] += 1
        total = len(st)
        return [
            HistRow(method, bucket, counts[bucket], counts[bucket] / total if total else 0.0)
            for bucket in HIST_BUCKETS
        ]

    return rows("refined", states) + rows("sol_baseline", baseline_states)


def single_cluster_fraction(states: dict[str, CandidateState]) -> float:
    if not states:
        return 0.0
    singles = sum(1 for s in states.values() if len(s.candidates) == 1)
    return singles / len(states)


def _majority_location(
    records: list[GeoRecord], tie_point: GeoPoint
) -> tuple[GeoPoint, str]:
    """Modal (city, country) group's mean location; ties pick the group
    nearest ``tie_point``."""
    groups: dict[tuple[str, str], list[GeoRecord]] = {}
    for rec in records:
        groups.setdefault((normalize_city(rec.city), rec.country), []).append(rec)

    def centroid(members: list[GeoRecord]) -> GeoPoint:
        return GeoPoint(
            sum(m.lat for m in members) / len(members),
            sum(m.lon for m in members) / len(members),
        )

    top = max(len(m) for m in groups.values())
    tied = [key for key, members in groups.items() if len(members) == top]
    best_key = min(
        tied, key=lambda key: (haversine_km(centroid(groups[key]), tie_point), key)
    )
    return centroid(groups[best_key]), groups[best_key][0].country


def distance_cdf(
    outcomes: dict[str, ResolutionOutcome],
    snapshot: dict[str, list[GeoRecord]],
    diag: Diagnostics | None = None,
) -> tuple[list[float], float | None]:
    """Sorted distances from each corrected location to the majority-vote
    database location, plus the fraction under 20 km.  Corrected IPs
    missing from the snapshot are excluded with a warning, in the order
    of ``outcomes``."""
    diag = diag or Diagnostics()
    distances: list[float] = []
    for ip, out in outcomes.items():
        if out.verdict is not Verdict.INTERFACE_AFFECTED or out.resolved is None:
            continue
        records = snapshot.get(ip)
        if not records:
            diag.warn("report_missing_snapshot", f"{ip}: corrected IP absent from snapshot")
            continue
        majority, _ = _majority_location(records, out.resolved)
        distances.append(haversine_km(out.resolved, majority))
    distances.sort()
    fraction = (
        sum(1 for d in distances if d < 20.0) / len(distances) if distances else None
    )
    return distances, fraction


def country_delta(
    outcomes: dict[str, ResolutionOutcome],
    snapshot: dict[str, list[GeoRecord]],
) -> tuple[dict[str, int], float | None]:
    """Net corrected-IP movement per country: (+1 where an IP landed,
    −1 where the database consensus had it).  Deltas sum to zero.  Also
    returns the fraction of corrected IPs whose country changed."""
    gained: dict[str, int] = {}
    lost: dict[str, int] = {}
    changed = 0
    considered = 0
    for ip, out in outcomes.items():
        if out.verdict is not Verdict.INTERFACE_AFFECTED or out.resolved is None:
            continue
        records = snapshot.get(ip)
        if not records or out.resolved_country is None:
            continue
        _, consensus_country = _majority_location(records, out.resolved)
        gained[out.resolved_country] = gained.get(out.resolved_country, 0) + 1
        lost[consensus_country] = lost.get(consensus_country, 0) + 1
        considered += 1
        if out.resolved_country != consensus_country:
            changed += 1
    deltas = {
        country: gained.get(country, 0) - lost.get(country, 0)
        for country in sorted(set(gained) | set(lost))
    }
    return deltas, (changed / considered if considered else None)


def ip_records(
    states: dict[str, CandidateState], outcomes: dict[str, ResolutionOutcome]
) -> Iterator[dict]:
    """Each IP's ``ips.jsonl`` record, in the order of ``states``."""
    for ip, state in states.items():
        out = outcomes.get(ip)
        resolved = out.resolved if out else None
        yield {
            "ip": ip,
            "status": state.status.value,
            "verdict": out.verdict.value if out else None,
            "clusters": [
                {"lat": c.centroid.lat, "lon": c.centroid.lon, "city": c.city,
                 "country": c.country, "ratio": state.ratio.get(c.cluster_id, 1.0)}
                for c in state.candidates
            ],
            "resolved": {"lat": resolved.lat, "lon": resolved.lon} if resolved else None,
            "anchors": out.anchor_count if out else 0,
        }


# --- CSV writers -----------------------------------------------------------


def write_summary_csv(table: SummaryTable, path: str | Path) -> Path:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["category", "ips", "ips_pct", "links", "links_pct", "traceroutes", "traceroutes_pct"]
        )
        for row in table.rows:
            writer.writerow(
                [
                    row.category,
                    row.ip_count,
                    _fmt(row.ip_pct),
                    row.link_count,
                    _fmt(row.link_pct),
                    row.traceroute_count,
                    _fmt(row.traceroute_pct),
                ]
            )
    return path


def write_histogram_csv(rows: list[HistRow], path: str | Path) -> Path:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "clusters", "count", "fraction"])
        for row in rows:
            writer.writerow([row.method, row.clusters, row.count, _fmt(row.fraction)])
    return path


def write_distance_cdf_csv(distances: list[float], path: str | Path) -> Path:
    path = Path(path)
    n = len(distances)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "distance_km", "cdf"])
        for rank, dist in enumerate(distances, start=1):
            writer.writerow([rank, _fmt(dist), _fmt(rank / n)])
    return path


def write_country_delta_csv(deltas: dict[str, int], path: str | Path) -> Path:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "delta"])
        for country in sorted(deltas):
            writer.writerow([country, deltas[country]])
    return path
