"""Resolution of anomalous IPs against trusted neighboring anchors.

For each anomalous IP, the paths it appears on are scanned outward for the
nearest hop in each direction whose geolocation is trustworthy — an anchor:
an IP still marked active that kept exactly one candidate cluster.  Per
path, the side with the smaller absolute RTT difference wins.  Observations
are aggregated per anchor by median, anchors spread across countries mark
the IP as tunnel-distorted, and otherwise each anchor casts a disc whose
radius is the light-in-fiber budget of its median RTT difference (plus an
allowance, floored at 20 km).  The city disc overlapped by the most anchor
discs becomes the corrected location; ties merge by proximity.  A corrected
location landing back on one of the IP's own original candidates demotes
the anomaly to a false positive.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .diagnostics import Diagnostics
from .geo import CityCluster, GeoPoint, SpatialIndex, haversine_km, sol_km
from .ingest import CleanPath
from .refine import CandidateState, IpStatus

BUFFER_FLOOR_KM = 20.0


@dataclass
class ResolveConfig:
    country_dominance: float = 0.95
    anchor_allowance_fraction: float = 0.10
    tie_merge_km: float = 20.0
    tie_merge_max_km: float = 100.0
    tie_merge_step_km: float = 20.0
    match_radius_km: float = 20.0
    min_anchors: int = 2


class Verdict(Enum):
    INTERFACE_AFFECTED = "interface_affected"
    MPLS_AFFECTED = "mpls_affected"
    FALSE_POSITIVE = "false_positive"


REASON_COUNTRY_DISPERSED = "country_dispersed"
REASON_UNRESOLVABLE = "unresolvable"


@dataclass(slots=True)
class AnchorObservation:
    """One path's vote: the nearest trustworthy hop and the RTT gap to it."""

    anomalous_ip: str
    anchor_ip: str
    anchor_location: GeoPoint
    anchor_country: str
    delta_rtt_ms: float
    anchor_rtt_ms: float


@dataclass
class AnchorSummary:
    """Per-anchor aggregate over every path observation of that anchor."""

    anchor_ip: str
    location: GeoPoint
    country: str
    median_delta_ms: float
    median_anchor_rtt_ms: float
    observation_count: int


@dataclass
class BufferRegion:
    anchor_ip: str
    center: GeoPoint
    radius_km: float


@dataclass
class LocationFix:
    """Outcome of disc-overlap voting; ``point`` is None when unresolvable.

    ``city_point`` is the centroid of the polygon the fix is attributed
    to — the corrected location at city granularity.  It coincides with
    ``point`` for a single winner and is the nearest tied centroid after
    a merge.
    """

    point: GeoPoint | None
    polygon_id: int | None
    max_overlap: int
    city_point: GeoPoint | None = None


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
) -> dict[str, list[AnchorObservation]]:
    """Each anomalous IP's observations, in path order.

    An anchor is an IP still marked active that kept exactly one
    candidate.  Each path with an anomalous hop is walked once: at the
    first occurrence of each anomalous hop, the nearest anchor before it
    and the nearest after it are compared and the side with the smaller
    absolute RTT difference wins (ties prefer the preceding side).  A path
    with no anchor contributes nothing."""
    anchors = {
        ip: state.candidates[0]
        for ip, state in states.items()
        if state.status is IpStatus.ACTIVE and len(state.candidates) == 1
    }
    tagged = {ip for ip, state in states.items() if state.status is IpStatus.ANOMALOUS}
    observations: dict[str, list[AnchorObservation]] = {}
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
            anchor_cluster = anchors[anchor_ip]
            observations.setdefault(ip, []).append(
                AnchorObservation(
                    anomalous_ip=ip,
                    anchor_ip=anchor_ip,
                    anchor_location=anchor_cluster.centroid,
                    anchor_country=anchor_cluster.country,
                    delta_rtt_ms=rtt_here - anchor_rtt,
                    anchor_rtt_ms=anchor_rtt,
                )
            )
    return observations


def _median(values: list[float]) -> float:
    """The middle value, or the mean of the middle two for an even count."""
    values = sorted(values)
    mid = len(values) // 2
    return float(values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2)


def aggregate_medians(observations: list[AnchorObservation]) -> list[AnchorSummary]:
    """Group observations by anchor IP and take medians (an even count
    averages the middle two).  Anchors keep the order they are first seen."""
    by_anchor: dict[str, list[AnchorObservation]] = {}
    for obs in observations:
        by_anchor.setdefault(obs.anchor_ip, []).append(obs)
    summaries = []
    for anchor_ip, group in by_anchor.items():
        summaries.append(
            AnchorSummary(
                anchor_ip=anchor_ip,
                location=group[0].anchor_location,
                country=group[0].anchor_country,
                median_delta_ms=_median([o.delta_rtt_ms for o in group]),
                median_anchor_rtt_ms=_median([o.anchor_rtt_ms for o in group]),
                observation_count=len(group),
            )
        )
    return summaries


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


def build_buffers(anchors: list[AnchorSummary], cfg: ResolveConfig) -> list[BufferRegion]:
    """One disc per anchor: radius is the fiber budget of the median RTT
    difference plus an allowance fraction of the median anchor RTT,
    floored at 20 km.  The sign of the median difference is ignored."""
    buffers = []
    for anchor in anchors:
        budget_ms = abs(anchor.median_delta_ms) + cfg.anchor_allowance_fraction * (
            anchor.median_anchor_rtt_ms
        )
        buffers.append(
            BufferRegion(
                anchor_ip=anchor.anchor_ip,
                center=anchor.location,
                radius_km=max(sol_km(budget_ms), BUFFER_FLOOR_KM),
            )
        )
    return buffers


def _single_linkage(ids: list[int], points: dict[int, GeoPoint], threshold_km: float) -> int:
    """Number of connected components when linking ids whose points sit
    within ``threshold_km`` of each other."""
    parent = {i: i for i in ids}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if haversine_km(points[a], points[b]) <= threshold_km:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    return len({find(i) for i in ids})


def resolve_location(
    buffers: list[BufferRegion], index: SpatialIndex, cfg: ResolveConfig
) -> LocationFix:
    """Vote city discs by anchor-buffer overlap and return the winner.

    Fewer buffers than ``min_anchors`` — or no overlapped polygon at all —
    is unresolvable.  Tied winners merge by single linkage starting at
    ``tie_merge_km`` and widening stepwise to ``tie_merge_max_km``; if one
    merged group emerges its mean centroid wins (attributed to the nearest
    polygon), otherwise the tie stands and the IP is unresolvable.
    """
    if len(buffers) < cfg.min_anchors:
        return LocationFix(point=None, polygon_id=None, max_overlap=0)
    counts: Counter[int] = Counter()
    for buf in buffers:
        for pid in index.query(buf.center, buf.radius_km):
            counts[pid] += 1
    if not counts:
        return LocationFix(point=None, polygon_id=None, max_overlap=0)
    top = max(counts.values())
    tied = sorted(pid for pid, n in counts.items() if n == top)
    if len(tied) == 1:
        poly = index.polygon(tied[0])
        return LocationFix(
            point=poly.centroid,
            polygon_id=poly.polygon_id,
            max_overlap=top,
            city_point=poly.centroid,
        )

    centroids = {pid: index.polygon(pid).centroid for pid in tied}
    threshold = cfg.tie_merge_km
    while True:
        if _single_linkage(tied, centroids, threshold) == 1:
            mean = GeoPoint(
                sum(c.lat for c in centroids.values()) / len(tied),
                sum(c.lon for c in centroids.values()) / len(tied),
            )
            nearest = min(tied, key=lambda pid: (haversine_km(mean, centroids[pid]), pid))
            return LocationFix(
                point=mean,
                polygon_id=nearest,
                max_overlap=top,
                city_point=centroids[nearest],
            )
        if threshold >= cfg.tie_merge_max_km:
            return LocationFix(point=None, polygon_id=None, max_overlap=top)
        threshold = min(threshold + cfg.tie_merge_step_km, cfg.tie_merge_max_km)


def classify(
    ip: str,
    fix: LocationFix,
    original_candidates: list[CityCluster],
    cfg: ResolveConfig,
    *,
    anchor_count: int = 0,
) -> ResolutionOutcome:
    """Interface error or false alarm?  The comparison runs at city
    granularity — ``match_radius_km`` is one city radius — so the fix's
    attributed city stands in for the (possibly between-cities) mean
    point.  A corrected city within the radius (inclusive) of any
    original candidate confirms that candidate and demotes the anomaly;
    otherwise the IP's database locations were genuinely wrong.
    Candidate order does not matter."""
    assert fix.point is not None, "classify requires a resolved location"
    matched = fix.city_point if fix.city_point is not None else fix.point
    within = [
        c
        for c in original_candidates
        if haversine_km(matched, c.centroid) <= cfg.match_radius_km
    ]
    if within:
        confirmed = min(
            within,
            key=lambda c: (haversine_km(matched, c.centroid), c.cluster_id),
        )
        return ResolutionOutcome(
            ip=ip,
            verdict=Verdict.FALSE_POSITIVE,
            resolved=fix.point,
            polygon_id=fix.polygon_id,
            confirmed=confirmed,
            anchor_count=anchor_count,
            max_overlap=fix.max_overlap,
        )
    return ResolutionOutcome(
        ip=ip,
        verdict=Verdict.INTERFACE_AFFECTED,
        resolved=fix.point,
        polygon_id=fix.polygon_id,
        anchor_count=anchor_count,
        max_overlap=fix.max_overlap,
    )


def resolve_anomaly(
    ip: str,
    observations: list[AnchorObservation],
    states: dict[str, CandidateState],
    index: SpatialIndex,
    cfg: ResolveConfig,
) -> ResolutionOutcome:
    """Full resolution of one anomalous IP from its anchor observations
    (see :func:`select_anchors`).

    No anchors at all, or a tie that survives merging, yields an
    unresolvable tunnel verdict; country-dispersed anchors yield the
    dispersed tunnel verdict; otherwise the corrected location is
    classified against the IP's original candidates.
    """
    anchors = aggregate_medians(observations)
    if not anchors:
        return ResolutionOutcome(
            ip=ip,
            verdict=Verdict.MPLS_AFFECTED,
            reason=REASON_UNRESOLVABLE,
            anchor_count=0,
        )
    if mpls_country_filter(anchors, cfg):
        return ResolutionOutcome(
            ip=ip,
            verdict=Verdict.MPLS_AFFECTED,
            reason=REASON_COUNTRY_DISPERSED,
            anchor_count=len(anchors),
        )
    buffers = build_buffers(anchors, cfg)
    fix = resolve_location(buffers, index, cfg)
    if fix.point is None:
        return ResolutionOutcome(
            ip=ip,
            verdict=Verdict.MPLS_AFFECTED,
            reason=REASON_UNRESOLVABLE,
            anchor_count=len(anchors),
            max_overlap=fix.max_overlap,
        )
    outcome = classify(
        ip, fix, states[ip].candidates, cfg, anchor_count=len(anchors)
    )
    if outcome.polygon_id is not None:
        outcome.resolved_country = index.polygon(outcome.polygon_id).country
    return outcome


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
    observations = select_anchors(paths, states)
    outcomes: dict[str, ResolutionOutcome] = {}
    for ip in tagged:
        outcome = resolve_anomaly(ip, observations.get(ip, []), states, index, cfg)
        if outcome.verdict is Verdict.MPLS_AFFECTED and outcome.reason == REASON_UNRESOLVABLE:
            diag.warn("resolve_unresolvable", f"{ip}: no usable anchor consensus")
        outcomes[ip] = outcome
    return outcomes
