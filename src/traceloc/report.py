"""Corpus-level statistics: affected-element summary, cluster histograms
against a speed-of-light baseline, correction distance CDF, and per-country
correction deltas.  All CSV output is UTF-8 with deterministic row order,
and every percentage ships next to the raw counts that produce it.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Collection, Iterable, Iterator

from .diagnostics import Diagnostics
from .geo import CityCluster, GeoPoint, haversine_km, mean_point, normalize_city
from .ingest import CleanPath, GeoRecord, csv_number, write_csv
from .refine import CandidateState, PairBudgets
from .resolve import ResolutionOutcome, Verdict


@dataclass
class SummaryRow:
    category: str
    ip_count: int
    ip_pct: float
    link_count: int
    link_pct: float
    traceroute_count: int
    traceroute_pct: float


def _pct(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0


def table_from_counts(
    totals: tuple[int, int, int],
    mpls: tuple[int, int, int],
    interface: tuple[int, int, int],
    total_affected: tuple[int, int, int],
    corrected: tuple[int, int, int],
) -> list[SummaryRow]:
    """The five summary rows from raw (ips, links, traceroutes) counts; the
    ``total`` row carries the totals.  Affected percentages are relative to
    the totals; corrected percentages are relative to the total-affected
    counts."""

    def row(name: str, counts: tuple[int, int, int], base: tuple[int, int, int]) -> SummaryRow:
        (ips, links, trs), (ips_base, links_base, trs_base) = counts, base
        return SummaryRow(name, ips, _pct(ips, ips_base), links, _pct(links, links_base),
                          trs, _pct(trs, trs_base))

    return [
        row("total", totals, totals),
        row("mpls_affected", mpls, totals),
        row("interface_affected", interface, totals),
        row("total_affected", total_affected, totals),
        row("corrected", corrected, total_affected),
    ]


def summarize(
    outcomes: dict[str, ResolutionOutcome],
    paths: list[CleanPath],
    links: Collection[tuple[str, str]],
    ips: AbstractSet[str],
) -> list[SummaryRow]:
    """Count affected IPs, links (unordered adjacent IP pairs), and
    traceroutes per anomaly kind.  ``links`` holds each link of ``paths``
    once, as ``(ip_a, ip_b)`` of :func:`traceloc.refine.extract_pairs`, and
    ``ips`` every address on ``paths``; outcomes of other IPs are ignored.

    An element is affected by a kind when it involves at least one IP of
    that kind; total-affected uses union semantics, so an element touched
    by both kinds counts once.  Corrected elements are those affected
    exclusively by interface-kind IPs — a traceroute also crossing a
    tunnel-distorted IP cannot be fully repaired.
    """
    verdicts = {ip: out.verdict for ip, out in outcomes.items() if ip in ips}
    mpls_ips = {ip for ip, verdict in verdicts.items() if verdict is Verdict.MPLS_AFFECTED}
    iface_ips = {ip for ip, verdict in verdicts.items() if verdict is Verdict.INTERFACE_AFFECTED}

    def tally(elements: Iterable[Collection[str]]) -> tuple[int, int, int, int, int]:
        """(elements, mpls, interface, either, interface only), each element an IP collection."""
        n = mpls = iface = either = iface_only = 0
        for element in elements:
            has_mpls = not mpls_ips.isdisjoint(element)
            has_iface = not iface_ips.isdisjoint(element)
            n += 1
            mpls += has_mpls
            iface += has_iface
            either += has_mpls or has_iface
            iface_only += has_iface and not has_mpls
        return n, mpls, iface, either, iface_only

    by_ip = tally((ip,) for ip in ips)
    by_link = tally(links)
    by_path = tally([ip for ip, _ in path.hops] for path in paths)
    return table_from_counts(*zip(by_ip, by_link, by_path))


def sol_baseline(
    clusters_by_ip: dict[str, list[CityCluster]],
    budgets: list[PairBudgets],
) -> dict[str, CandidateState]:
    """Single-pass speed-of-light filtering of the run's candidate clusters
    over its neighbor pairs, with no iteration and no pruning feedback.

    A cluster survives when every observation of every neighbor holding
    clusters has at least one neighbor cluster within the observation's
    budget, the budgets :func:`traceloc.refine.iterate` scores with.  That
    is tested per pair as: some neighbor cluster fits all the pair's budgets
    in the feasibility table ``iterate`` fills.  Neighbor candidate sets are
    always the full original clusters.  IPs with no neighbors keep
    everything; IPs can end up with zero clusters; IPs without clusters are
    left out.
    """
    sides: dict[str, list[tuple[PairBudgets, bool, int, list[CityCluster]]]] = {}
    for pb in budgets:
        n = len(pb.budgets_a_first) + len(pb.budgets_b_first)
        for ip, other, is_a in ((pb.ip_a, pb.ip_b, True), (pb.ip_b, pb.ip_a, False)):
            if clusters_by_ip.get(other):
                sides.setdefault(ip, []).append((pb, is_a, n, clusters_by_ip[other]))

    out: dict[str, CandidateState] = {}
    for ip, clusters in clusters_by_ip.items():
        if not clusters:
            continue
        ip_sides = sides.get(ip, ())
        survivors = []
        for cand in clusters:
            for pb, is_a, n, ocs in ip_sides:  # until a pair that no neighbor cluster fits
                for oc in ocs:
                    f_a, f_b = pb.feasible(cand, oc) if is_a else pb.feasible(oc, cand)
                    if f_a + f_b == n:
                        break
                else:
                    break
            else:
                survivors.append(cand)
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


def _majority_location(
    records: list[GeoRecord], tie_point: GeoPoint
) -> tuple[GeoPoint, str]:
    """Modal (city, country) group's mean location; ties pick the group
    nearest ``tie_point``."""
    groups: dict[tuple[str, str], list[GeoRecord]] = {}
    for rec in records:
        groups.setdefault((normalize_city(rec.city), rec.country), []).append(rec)

    top = max(len(m) for m in groups.values())
    tied = [key for key, members in groups.items() if len(members) == top]
    best_key = min(
        tied, key=lambda key: (haversine_km(mean_point(groups[key]), tie_point), key)
    )
    return mean_point(groups[best_key]), groups[best_key][0].country


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


def write_summary_csv(rows: list[SummaryRow], path: str | Path) -> Path:
    header = ("category", "ips", "ips_pct", "links", "links_pct", "traceroutes", "traceroutes_pct")
    return write_csv(path, header, (
        (r.category, r.ip_count, csv_number(r.ip_pct), r.link_count, csv_number(r.link_pct),
         r.traceroute_count, csv_number(r.traceroute_pct)) for r in rows
    ))


def write_histogram_csv(rows: list[HistRow], path: str | Path) -> Path:
    lines = ((r.method, r.clusters, r.count, csv_number(r.fraction)) for r in rows)
    return write_csv(path, ("method", "clusters", "count", "fraction"), lines)


def write_distance_cdf_csv(distances: list[float], path: str | Path) -> Path:
    n = len(distances)
    lines = ((rank, csv_number(d), csv_number(rank / n))
             for rank, d in enumerate(distances, start=1))
    return write_csv(path, ("rank", "distance_km", "cdf"), lines)


def write_country_delta_csv(deltas: dict[str, int], path: str | Path) -> Path:
    return write_csv(path, ("country", "delta"), ((c, deltas[c]) for c in sorted(deltas)))
