"""Iterative neighbor-consistency scoring of geolocation candidates.

Every candidate location of every IP is scored against the RTT budget of
its neighboring hops: two adjacent hops cannot sit farther apart than the
distance light travels in fiber during their RTT difference, padded by a
fraction of the two RTTs summed.  Scores are performance ratios (feasible
evaluations over total evaluations).  Candidates far below an IP's best
ratio are pruned, and the process repeats — each round rescoring against
the *previous* round's surviving candidate sets — until candidate sets
stop changing.  IPs whose best candidate still scores poorly, either
overall or in exactly one travel direction, are tagged anomalous.
"""
from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field

from .diagnostics import Diagnostics
from .geo import CityCluster, GeoPoint, haversine_km, sol_km
from .ingest import CleanPath


@dataclass
class RefineConfig:
    """Knobs for candidate scoring, pruning, and anomaly tagging."""

    deviation_fraction: float = 0.10
    prune_fraction: float = 0.90
    anomaly_ratio_threshold: float = 0.5
    direction_threshold: float = 0.5
    max_iterations: int = 20
    min_observations: int = 3


class IpStatus(enum.Enum):
    ACTIVE = "active"
    ANOMALOUS = "anomalous"


@dataclass
class PairObservation:
    """One adjacency sighting: RTTs for the string-lower ip (``rtt_a``) and
    the string-higher ip (``rtt_b``), plus which one the packet reached
    first."""

    rtt_a: float
    rtt_b: float
    a_first: bool


@dataclass
class NeighborPair:
    """All observations of two IPs appearing adjacent in some path.

    ``ip_a`` < ``ip_b`` as strings; observations accumulate across every
    path regardless of travel direction.
    """

    ip_a: str
    ip_b: str
    observations: list[PairObservation] = field(default_factory=list)


@dataclass
class CandidateState:
    """Surviving candidates for one IP plus the ratios of the last scoring
    round.  Ratio maps are keyed by cluster_id; directional ratios are
    ``None`` until evidence exists for that direction."""

    ip: str
    candidates: list[CityCluster]
    ratio: dict[int, float] = field(default_factory=dict)
    prev_ratio: dict[int, float | None] = field(default_factory=dict)
    next_ratio: dict[int, float | None] = field(default_factory=dict)
    status: IpStatus = IpStatus.ACTIVE
    evaluations: int = 0


def make_states(clusters_by_ip: dict[str, list[CityCluster]]) -> dict[str, CandidateState]:
    """Initial states, in the order of ``clusters_by_ip``: every candidate
    starts with a vacuous perfect ratio.  IPs without clusters are left out."""
    states: dict[str, CandidateState] = {}
    for ip, clusters in clusters_by_ip.items():
        if not clusters:
            continue
        states[ip] = CandidateState(
            ip=ip,
            candidates=list(clusters),
            ratio={c.cluster_id: 1.0 for c in clusters},
            prev_ratio={c.cluster_id: None for c in clusters},
            next_ratio={c.cluster_id: None for c in clusters},
        )
    return states


def extract_pairs(paths: list[CleanPath]) -> list[NeighborPair]:
    """Collect unordered adjacent-IP pairs and their RTT observations.

    Each pair is oriented by string comparison of its two addresses, and
    pairs come out in the order they are first seen.  No address is parsed.
    """
    acc: dict[tuple[str, str], list[PairObservation]] = {}
    for path in paths:
        for (ip_x, rtt_x), (ip_y, rtt_y) in zip(path.hops, path.hops[1:]):
            if ip_x <= ip_y:
                key, obs = (ip_x, ip_y), PairObservation(rtt_x, rtt_y, a_first=True)
            else:
                key, obs = (ip_y, ip_x), PairObservation(rtt_y, rtt_x, a_first=False)
            acc.setdefault(key, []).append(obs)
    return [NeighborPair(ip_a=a, ip_b=b, observations=obs) for (a, b), obs in acc.items()]


def pair_feasible(
    loc_a: GeoPoint, loc_b: GeoPoint, rtt_a: float, rtt_b: float, cfg: RefineConfig
) -> bool:
    """Can these two locations be adjacent hops given their RTTs?

    True when the great-circle distance fits within the light-in-fiber
    budget of the RTT difference plus ``deviation_fraction`` of the RTT
    sum (boundary inclusive).  Symmetric in the two (location, RTT) roles.
    """
    return haversine_km(loc_a, loc_b) <= budget_km(rtt_a, rtt_b, cfg)


def budget_km(rtt_a: float, rtt_b: float, cfg: RefineConfig) -> float:
    """The distance budget of one observation: light in fiber during the
    RTT difference plus ``deviation_fraction`` of the RTT sum."""
    return sol_km(abs(rtt_a - rtt_b) + cfg.deviation_fraction * (rtt_a + rtt_b))


class _PairView:
    """A NeighborPair pre-digested for scoring: distance budgets in km,
    sorted per travel direction, so a candidate-pair distance turns into
    feasible/total counts with one bisect."""

    __slots__ = ("ip_a", "ip_b", "budgets_a_first", "budgets_b_first", "_dist")

    def __init__(self, pair: NeighborPair, cfg: RefineConfig) -> None:
        self.ip_a = pair.ip_a
        self.ip_b = pair.ip_b
        a_first: list[float] = []
        b_first: list[float] = []
        for obs in pair.observations:
            (a_first if obs.a_first else b_first).append(budget_km(obs.rtt_a, obs.rtt_b, cfg))
        a_first.sort()
        b_first.sort()
        self.budgets_a_first = a_first
        self.budgets_b_first = b_first
        self._dist: dict[tuple[int, int], float] = {}

    def distance(self, cand_a: CityCluster, cand_b: CityCluster) -> float:
        key = (cand_a.cluster_id, cand_b.cluster_id)
        d = self._dist.get(key)
        if d is None:
            d = haversine_km(cand_a.centroid, cand_b.centroid)
            self._dist[key] = d
        return d


def _feasible_count(sorted_budgets: list[float], distance_km: float) -> int:
    # budget >= distance means feasible; budgets are sorted ascending.
    return len(sorted_budgets) - bisect_left(sorted_budgets, distance_km)


def _score_ip(
    state: CandidateState,
    views: list[tuple[_PairView, bool]],
    states: dict[str, CandidateState],
) -> None:
    """Score one IP's candidates against the candidate sets its neighbors
    currently hold and store the ratios.  Every candidate meets the same
    neighbor candidates and observations, so the evaluation totals are per
    IP and only the feasible counts are per candidate.  When no neighbor
    holds candidates the ratios carry over."""
    prev_feas = {c.cluster_id: 0 for c in state.candidates}
    next_feas = dict(prev_feas)
    prev_total = next_total = 0
    evaluated = False
    for view, is_a in views:
        other = states.get(view.ip_b if is_a else view.ip_a)
        if other is None or not other.candidates:
            continue
        evaluated = True
        # Budgets where the neighbor came first count toward the previous-
        # direction ratio; the rest toward the next-direction ratio.
        prev_budgets = view.budgets_b_first if is_a else view.budgets_a_first
        next_budgets = view.budgets_a_first if is_a else view.budgets_b_first
        prev_total += len(prev_budgets) * len(other.candidates)
        next_total += len(next_budgets) * len(other.candidates)
        for cand in state.candidates:
            cid = cand.cluster_id
            for other_cand in other.candidates:
                d = view.distance(cand, other_cand) if is_a else view.distance(other_cand, cand)
                prev_feas[cid] += _feasible_count(prev_budgets, d)
                next_feas[cid] += _feasible_count(next_budgets, d)
    if not evaluated:
        return
    total = prev_total + next_total
    state.ratio = {k: (prev_feas[k] + next_feas[k]) / total if total else 1.0 for k in prev_feas}
    state.prev_ratio = {k: f / prev_total if prev_total else None for k, f in prev_feas.items()}
    state.next_ratio = {k: f / next_total if next_total else None for k, f in next_feas.items()}
    state.evaluations = total


def _views_by_ip(
    pairs: list[NeighborPair], cfg: RefineConfig
) -> dict[str, list[tuple[_PairView, bool]]]:
    by_ip: dict[str, list[tuple[_PairView, bool]]] = {}
    for pair in pairs:
        view = _PairView(pair, cfg)
        by_ip.setdefault(view.ip_a, []).append((view, True))
        by_ip.setdefault(view.ip_b, []).append((view, False))
    return by_ip


def score_iteration(
    states: dict[str, CandidateState],
    pairs: list[NeighborPair],
    cfg: RefineConfig,
) -> dict[str, CandidateState]:
    """Score one round: every candidate of every IP against every neighbor
    candidate and every observation.  Updates ratios in place and returns
    the states.  Scoring an IP reads only candidate lists and writes only
    ratio maps and evaluation counts, so every IP is scored against the
    same candidate sets whatever the order."""
    by_ip = _views_by_ip(pairs, cfg)
    for ip, state in states.items():
        _score_ip(state, by_ip.get(ip, []), states)
    return states


def prune(state: CandidateState, cfg: RefineConfig) -> CandidateState:
    """Drop candidates scoring below ``prune_fraction`` of the IP's best
    ratio.  A best ratio of zero prunes nothing, and the last remaining
    candidate is never dropped."""
    if not state.candidates:
        return state
    r_star = max(state.ratio.get(c.cluster_id, 0.0) for c in state.candidates)
    if r_star <= 0.0:
        return state
    cutoff = cfg.prune_fraction * r_star
    keep = [c for c in state.candidates if state.ratio.get(c.cluster_id, 0.0) >= cutoff]
    if not keep:  # unreachable while prune_fraction <= 1, kept as a guard
        keep = [
            max(
                state.candidates,
                key=lambda c: (state.ratio.get(c.cluster_id, 0.0), -c.cluster_id),
            )
        ]
    if len(keep) != len(state.candidates):
        kept_ids = {c.cluster_id for c in keep}
        state.candidates = keep
        state.ratio = {k: v for k, v in state.ratio.items() if k in kept_ids}
        state.prev_ratio = {k: v for k, v in state.prev_ratio.items() if k in kept_ids}
        state.next_ratio = {k: v for k, v in state.next_ratio.items() if k in kept_ids}
    return state


def iterate(
    states: dict[str, CandidateState],
    pairs: list[NeighborPair],
    cfg: RefineConfig,
    diag: Diagnostics | None = None,
) -> tuple[dict[str, CandidateState], int]:
    """Alternate scoring and pruning until a fixed point of the candidate
    sets, or ``max_iterations`` rounds (logged as a warning).

    Candidate updates are simultaneous: a round scores every IP against
    the sets that survived the previous round, then prunes all IPs at
    once.  Returns ``(states, iterations_run)``.
    """
    diag = diag or Diagnostics()
    by_ip = _views_by_ip(pairs, cfg)
    iterations = 0
    for _ in range(max(1, cfg.max_iterations)):
        iterations += 1
        for ip, state in states.items():
            _score_ip(state, by_ip.get(ip, []), states)
        changed = 0
        for state in states.values():
            before = len(state.candidates)
            prune(state, cfg)
            if len(state.candidates) != before:
                changed += 1
        if changed == 0:
            break
    else:
        diag.warn(
            "refine_no_convergence",
            f"candidate sets still changing after {iterations} iterations",
        )
    return states, iterations


def tag_anomalies(
    states: dict[str, CandidateState], cfg: RefineConfig
) -> dict[str, CandidateState]:
    """Tag IPs whose best candidate stays infeasible.

    An IP turns anomalous when its best ratio falls below the anomaly
    threshold, or when exactly one of the best candidate's directional
    ratios (previous-hop side vs next-hop side) is below the direction
    threshold.  IPs with fewer than ``min_observations`` total evaluations
    are never tagged.  A missing directional ratio counts as healthy.
    """
    for state in states.values():
        if not state.candidates or state.evaluations < cfg.min_observations:
            continue
        best = max(
            state.candidates,
            key=lambda c: (state.ratio.get(c.cluster_id, 0.0), -c.cluster_id),
        )
        best_ratio = state.ratio.get(best.cluster_id, 0.0)
        bp = state.prev_ratio.get(best.cluster_id)
        bn = state.next_ratio.get(best.cluster_id)
        prev_low = bp is not None and bp < cfg.direction_threshold
        next_low = bn is not None and bn < cfg.direction_threshold
        if best_ratio < cfg.anomaly_ratio_threshold or (prev_low != next_low):
            state.status = IpStatus.ANOMALOUS
    return states
