"""Resolution of anomalous IPs against trusted neighboring anchors.

For each anomalous IP, the paths it appears on are scanned outward for the
nearest hop in each direction whose geolocation is trustworthy — an anchor:
an IP still marked active that kept exactly one candidate cluster.  Per
path, the side with the smaller absolute RTT difference wins and casts one
vote for its anchor.  The votes are collected per anchor during that walk
and summarised by their medians.  Anchors spread across countries mark the
IP as tunnel-distorted; otherwise each anchor casts a disc whose radius is
the light-in-fiber budget of its median RTT difference (plus an allowance,
floored at 20 km).  The city disc overlapped by the most anchor discs
becomes the corrected location, attributed to that city.  Tied cities
merge when single linkage within ``tie_merge_max_km`` joins them into one
group: their mean centroid is the location, attributed to the tied city
nearest it; a tie that stays apart leaves the IP unresolvable.  A corrected
city landing back on one of the IP's own surviving candidates (those refine
kept) demotes the anomaly to a false positive.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter

from .diagnostics import Diagnostics
from .geo import CityCluster, CityPolygon, GeoPoint, SpatialIndex, haversine_km, mean_point, sol_km
from .ingest import CleanPath, median
from .refine import CandidateState, IpStatus

BUFFER_FLOOR_KM = 20.0


@dataclass
class ResolveConfig:
    country_dominance: float = field(default=0.95, metadata={"in": "[0,1]"})
    anchor_allowance_fraction: float = field(default=0.10, metadata={"in": "[0,inf]"})
    tie_merge_max_km: float = field(default=100.0, metadata={"in": "(0,inf]"})
    match_radius_km: float = field(default=20.0, metadata={"in": "[0,inf]"})
    min_anchors: int = field(default=2, metadata={"in": "[1,inf]"})


class Verdict(Enum):
    INTERFACE_AFFECTED = "interface_affected"
    MPLS_AFFECTED = "mpls_affected"
    FALSE_POSITIVE = "false_positive"


REASON_COUNTRY_DISPERSED = "country_dispersed"
REASON_UNRESOLVABLE = "unresolvable"


@dataclass
class AnchorSummary:
    """Medians over every path vote an anomalous IP cast for one anchor."""

    anchor_ip: str
    location: GeoPoint
    country: str
    median_delta_ms: float
    median_anchor_rtt_ms: float
    observation_count: int


@dataclass
class LocationFix:
    """Outcome of disc-overlap voting; ``point`` and ``city`` are None when
    unresolvable.

    ``city`` is the polygon the fix is attributed to — the corrected
    location at city granularity.  ``point`` is its centroid for a single
    winner and the mean of the tied centroids after a merge.
    """

    point: GeoPoint | None
    city: CityPolygon | None
    max_overlap: int


@dataclass
class ResolutionOutcome:
    ip: str
    verdict: Verdict
    resolved: GeoPoint | None = None
    polygon_id: int | None = None
    resolved_country: str | None = None
    reason: str | None = None
    confirmed: CityCluster | None = None
    anchor_count: int = 0
    max_overlap: int = 0


_hop_ip = itemgetter(0)


def select_anchors(
    paths: list[CleanPath], states: dict[str, CandidateState]
) -> dict[str, list[AnchorSummary]]:
    """Each anomalous IP's anchors, in the order their first vote is cast.

    An anchor is an IP still marked active that kept exactly one
    candidate.  Each path with an anomalous hop is walked once: at the
    first occurrence of each anomalous hop, the nearest anchor before it
    and the nearest after it are compared and the side with the smaller
    absolute RTT difference wins (ties prefer the preceding side).  A path
    with no anchor casts no vote.  Each anchor's votes are summarised by
    the median RTT difference and the median anchor RTT (an even count
    averages the middle two)."""
    anchors = {
        ip: state.candidates[0]
        for ip, state in states.items()
        if state.status is IpStatus.ACTIVE and len(state.candidates) == 1
    }
    tagged = {ip for ip, state in states.items() if state.status is IpStatus.ANOMALOUS}
    # tagged IP -> anchor IP -> (RTT differences, anchor RTTs), in path order
    votes: dict[str, dict[str, tuple[list[float], list[float]]]] = {}
    for path in paths:
        hops = path.hops
        if tagged.isdisjoint(map(_hop_ip, hops)):
            continue
        marks: list[int] = []
        firsts: dict[str, int] = {}
        for i, (hop_ip, _) in enumerate(hops):
            if hop_ip in anchors:
                marks.append(i)
            elif hop_ip in tagged:
                firsts.setdefault(hop_ip, i)
        if not marks:
            continue
        for ip, position in firsts.items():
            rtt_here = hops[position][1]
            k = bisect_left(marks, position)
            before = hops[marks[k - 1]] if k else None
            after = hops[marks[k]] if k < len(marks) else None
            if before is None or (
                after is not None and abs(rtt_here - after[1]) < abs(rtt_here - before[1])
            ):
                anchor_ip, anchor_rtt = after
            else:  # the preceding side wins ties
                anchor_ip, anchor_rtt = before
            deltas, anchor_rtts = votes.setdefault(ip, {}).setdefault(anchor_ip, ([], []))
            deltas.append(rtt_here - anchor_rtt)
            anchor_rtts.append(anchor_rtt)
    return {
        ip: [
            AnchorSummary(
                anchor_ip=anchor_ip,
                location=anchors[anchor_ip].centroid,
                country=anchors[anchor_ip].country,
                median_delta_ms=median(deltas),
                median_anchor_rtt_ms=median(anchor_rtts),
                observation_count=len(deltas),
            )
            for anchor_ip, (deltas, anchor_rtts) in by_anchor.items()
        ]
        for ip, by_anchor in votes.items()
    }


def mpls_country_filter(anchors: list[AnchorSummary], cfg: ResolveConfig) -> bool:
    """True when no single country dominates the distinct anchors — the
    dispersion signature of a tunnel reporting its exit's RTT everywhere.
    The share comparison is inclusive: a maximum share exactly at the
    dominance threshold still counts as dispersed."""
    if not anchors:
        return False
    counts = Counter(a.country for a in anchors)
    top_share = max(counts.values()) / len(anchors)
    return top_share <= cfg.country_dominance


def disc_radius_km(anchor: AnchorSummary, cfg: ResolveConfig) -> float:
    """Radius of an anchor's disc: the fiber budget of the median RTT
    difference plus an allowance fraction of the median anchor RTT,
    floored at 20 km.  The sign of the median difference is ignored."""
    budget_ms = abs(anchor.median_delta_ms) + cfg.anchor_allowance_fraction * (
        anchor.median_anchor_rtt_ms
    )
    return max(sol_km(budget_ms), BUFFER_FLOOR_KM)


def _one_group(points: list[GeoPoint], threshold_km: float) -> bool:
    """True when linking points within ``threshold_km`` of each other
    (single linkage) joins them all into one group.  Each pair's distance
    is measured lower index first, as ``haversine_km`` can differ in the
    last bit when its arguments swap."""
    group, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for j in range(len(points)):
            if j not in group and haversine_km(points[min(i, j)], points[max(i, j)]) <= threshold_km:
                group.add(j)
                frontier.append(j)
    return len(group) == len(points)


def resolve_location(
    discs: list[tuple[GeoPoint, float]], index: SpatialIndex, cfg: ResolveConfig
) -> LocationFix:
    """Vote city discs by overlap with the anchors' ``(center, radius_km)``
    discs and return the winner.

    Fewer discs than ``min_anchors`` — or no overlapped polygon at all —
    is unresolvable.  Tied winners merge when single linkage within
    ``tie_merge_max_km`` makes them one group: their mean centroid wins,
    attributed to the tied polygon nearest it.  Otherwise the tie stands
    and the IP is unresolvable.
    """
    if len(discs) < cfg.min_anchors:
        return LocationFix(point=None, city=None, max_overlap=0)
    counts: Counter[int] = Counter()
    for center, radius_km in discs:
        for pid in index.query(center, radius_km):
            counts[pid] += 1
    if not counts:
        return LocationFix(point=None, city=None, max_overlap=0)
    top = max(counts.values())
    tied = [index.polygon(pid) for pid in sorted(pid for pid, n in counts.items() if n == top)]
    if len(tied) == 1:
        return LocationFix(point=tied[0].centroid, city=tied[0], max_overlap=top)
    if not _one_group([poly.centroid for poly in tied], cfg.tie_merge_max_km):
        return LocationFix(point=None, city=None, max_overlap=top)
    mean = mean_point([poly.centroid for poly in tied])
    nearest = min(tied, key=lambda poly: (haversine_km(mean, poly.centroid), poly.polygon_id))
    return LocationFix(point=mean, city=nearest, max_overlap=top)


def classify(
    ip: str,
    fix: LocationFix,
    candidates: list[CityCluster],
    cfg: ResolveConfig,
    *,
    anchor_count: int = 0,
) -> ResolutionOutcome:
    """Interface error or false alarm?  The comparison runs at city
    granularity — ``match_radius_km`` is one city radius — so the fix's
    attributed city stands in for the (possibly between-cities) mean
    point.  A corrected city within the radius (inclusive) of any of the
    IP's surviving candidates confirms the nearest such candidate and demotes
    the anomaly; otherwise the IP's database locations were genuinely
    wrong.  Candidate order does not matter."""
    assert fix.city is not None, "classify requires a resolved location"
    matched = fix.city.centroid
    confirmed = min(
        (c for c in candidates if haversine_km(matched, c.centroid) <= cfg.match_radius_km),
        key=lambda c: (haversine_km(matched, c.centroid), c.cluster_id),
        default=None,
    )
    return ResolutionOutcome(
        ip=ip,
        verdict=Verdict.INTERFACE_AFFECTED if confirmed is None else Verdict.FALSE_POSITIVE,
        resolved=fix.point,
        polygon_id=fix.city.polygon_id,
        resolved_country=fix.city.country,
        confirmed=confirmed,
        anchor_count=anchor_count,
        max_overlap=fix.max_overlap,
    )


def resolve_anomaly(
    ip: str,
    anchors: list[AnchorSummary],
    states: dict[str, CandidateState],
    index: SpatialIndex,
    cfg: ResolveConfig,
) -> ResolutionOutcome:
    """Full resolution of one anomalous IP from its anchor summaries
    (see :func:`select_anchors`).

    Country-dispersed anchors yield the dispersed tunnel verdict; too few
    anchors (none at all among them) or a tie that stays apart yields the
    unresolvable tunnel verdict; otherwise the corrected location is
    classified against the IP's surviving candidates, the ones refine kept.
    """
    reason, max_overlap = REASON_COUNTRY_DISPERSED, 0
    if not mpls_country_filter(anchors, cfg):
        discs = [(anchor.location, disc_radius_km(anchor, cfg)) for anchor in anchors]
        fix = resolve_location(discs, index, cfg)
        if fix.city is not None:
            return classify(ip, fix, states[ip].candidates, cfg, anchor_count=len(anchors))
        reason, max_overlap = REASON_UNRESOLVABLE, fix.max_overlap
    return ResolutionOutcome(
        ip=ip,
        verdict=Verdict.MPLS_AFFECTED,
        reason=reason,
        anchor_count=len(anchors),
        max_overlap=max_overlap,
    )


def resolve_all(
    states: dict[str, CandidateState],
    paths: list[CleanPath],
    index: SpatialIndex,
    cfg: ResolveConfig,
    diag: Diagnostics | None = None,
) -> dict[str, ResolutionOutcome]:
    """Resolve every anomalous IP, in the order of ``states``.  IPs demoted
    to false positives keep anchor duty off-limits for the whole run: anchor
    selection reads the tagging statuses, which are not revised mid-run."""
    diag = diag or Diagnostics()
    tagged = [ip for ip, state in states.items() if state.status is IpStatus.ANOMALOUS]
    anchors = select_anchors(paths, states)
    outcomes: dict[str, ResolutionOutcome] = {}
    for ip in tagged:
        outcome = resolve_anomaly(ip, anchors.get(ip, []), states, index, cfg)
        if outcome.verdict is Verdict.MPLS_AFFECTED and outcome.reason == REASON_UNRESOLVABLE:
            diag.warn("resolve_unresolvable", f"{ip}: no usable anchor consensus")
        outcomes[ip] = outcome
    return outcomes
