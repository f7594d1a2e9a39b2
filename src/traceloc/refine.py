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

Observations are plain ``(rtt_a, rtt_b, a_first)`` tuples.  A pair's
:class:`PairBudgets` holds their sorted budgets and a feasibility table per
candidate pair, which every round and :func:`traceloc.report.sol_baseline` read.
"""
from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field

from .diagnostics import Diagnostics
from .geo import CityCluster, haversine_km, sol_km
from .ingest import CleanPath


@dataclass
class RefineConfig:
    """Knobs for candidate scoring, pruning, and anomaly tagging.  Each
    field's ``in`` metadata is the interval a config may set it to."""

    deviation_fraction: float = field(default=0.10, metadata={"in": "[0,1]"})
    prune_fraction: float = field(default=0.90, metadata={"in": "[0,1]"})
    anomaly_ratio_threshold: float = field(default=0.5, metadata={"in": "[0,1]"})
    direction_threshold: float = field(default=0.5, metadata={"in": "[0,1]"})
    max_iterations: int = field(default=20, metadata={"in": "[1,inf]"})
    min_observations: int = field(default=3, metadata={"in": "[0,inf]"})


class IpStatus(enum.Enum):
    ACTIVE = "active"
    ANOMALOUS = "anomalous"


@dataclass
class NeighborPair:
    """All observations of two IPs appearing adjacent in some path.

    ``ip_a`` < ``ip_b`` as strings; observations accumulate across every
    path regardless of travel direction, each as ``(rtt_a, rtt_b, a_first)``:
    the two RTTs, and whether the packet reached ``ip_a`` first.
    """

    ip_a: str
    ip_b: str
    observations: list[tuple[float, float, bool]] = field(default_factory=list)


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

    def best(self) -> CityCluster:
        """The candidate with the highest ratio; a tie goes to the lowest
        cluster_id.  There must be a candidate."""
        ratio = self.ratio
        return max(self.candidates, key=lambda c: (ratio.get(c.cluster_id, 0.0), -c.cluster_id))


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
    acc: dict[tuple[str, str], list[tuple[float, float, bool]]] = {}
    for path in paths:
        for (ip_x, rtt_x), (ip_y, rtt_y) in zip(path.hops, path.hops[1:]):
            if ip_x <= ip_y:
                key, obs = (ip_x, ip_y), (rtt_x, rtt_y, True)
            else:
                key, obs = (ip_y, ip_x), (rtt_y, rtt_x, False)
            seen = acc.get(key)
            if seen is None:
                acc[key] = [obs]
            else:
                seen.append(obs)
    return [NeighborPair(ip_a=a, ip_b=b, observations=obs) for (a, b), obs in acc.items()]


def budget_km(rtt_a: float, rtt_b: float, cfg: RefineConfig) -> float:
    """The distance budget of one observation: light in fiber during the
    RTT difference plus ``deviation_fraction`` of the RTT sum."""
    return sol_km(abs(rtt_a - rtt_b) + cfg.deviation_fraction * (rtt_a + rtt_b))


class PairBudgets:
    """A NeighborPair's distance budgets in km, sorted per travel direction,
    and its feasibility table: per (cand_a, cand_b) cluster-id pair, how many
    budgets of each direction their distance fits.  :func:`iterate` and
    :func:`traceloc.report.sol_baseline` both read it."""

    __slots__ = ("ip_a", "ip_b", "budgets_a_first", "budgets_b_first", "_table")

    def __init__(self, pair: NeighborPair, cfg: RefineConfig) -> None:
        self.ip_a = pair.ip_a
        self.ip_b = pair.ip_b
        obs = pair.observations
        self.budgets_a_first = sorted([budget_km(a, b, cfg) for a, b, a_first in obs if a_first])
        self.budgets_b_first = sorted([budget_km(a, b, cfg) for a, b, a_first in obs if not a_first])
        self._table: dict[tuple[int, int], tuple[int, int]] = {}

    def feasible(self, cand_a: CityCluster, cand_b: CityCluster) -> tuple[int, int]:
        """How many a-first and b-first budgets fit the distance from
        ``cand_a`` (a candidate of ``ip_a``) to ``cand_b``, measured once."""
        key = (cand_a.cluster_id, cand_b.cluster_id)
        counts = self._table.get(key)
        if counts is None:
            d = haversine_km(cand_a.centroid, cand_b.centroid)
            # budget >= distance means feasible; budgets are sorted ascending.
            a, b = self.budgets_a_first, self.budgets_b_first
            counts = (len(a) - bisect_left(a, d), len(b) - bisect_left(b, d))
            self._table[key] = counts
        return counts


def pair_budgets(pairs: list[NeighborPair], cfg: RefineConfig) -> list[PairBudgets]:
    """Every pair's budgets under ``cfg.deviation_fraction``, in pair order."""
    return [PairBudgets(pair, cfg) for pair in pairs]


def score_iteration(
    states: dict[str, CandidateState], budgets: list[PairBudgets]
) -> dict[str, CandidateState]:
    """Score one round: every candidate of every IP against every neighbor
    candidate and every observation.  Updates ratios in place and returns
    the states.  One pass reads each pair's feasibility once per candidate
    pair and credits each end whose other end holds candidates: an a-first
    budget counts toward ``ip_a``'s next and ``ip_b``'s previous direction,
    a b-first one the other way round.  Every candidate of an IP meets the
    same neighbor candidates, so the totals are per IP.  An IP never
    credited keeps its ratios, and scoring reads only candidate lists, so
    every IP is scored against the same candidate sets."""
    # Per credited IP: previous- and next-direction feasible counts per
    # candidate, and the two totals.
    sums: dict[str, tuple[dict[int, int], dict[int, int], list[int]]] = {}

    def credit(ip: str, state: CandidateState, n_prev: int, n_next: int):
        got = sums.get(ip)
        if got is None:
            zero = {c.cluster_id: 0 for c in state.candidates}
            got = sums[ip] = (zero, dict(zero), [0, 0])
        got[2][0] += n_prev
        got[2][1] += n_next
        return got

    for pb in budgets:
        a, b = states.get(pb.ip_a), states.get(pb.ip_b)
        if a is None or b is None:
            continue
        n_a, n_b = len(pb.budgets_a_first), len(pb.budgets_b_first)
        if b.candidates:
            prev_a, next_a, _ = credit(pb.ip_a, a, n_b * len(b.candidates), n_a * len(b.candidates))
        if a.candidates:
            prev_b, next_b, _ = credit(pb.ip_b, b, n_a * len(a.candidates), n_b * len(a.candidates))
        for cand_a in a.candidates:  # both ends hold candidates, so both were credited
            for cand_b in b.candidates:
                f_a, f_b = pb.feasible(cand_a, cand_b)
                next_a[cand_a.cluster_id] += f_a
                prev_a[cand_a.cluster_id] += f_b
                prev_b[cand_b.cluster_id] += f_a
                next_b[cand_b.cluster_id] += f_b
    for ip, (prev_feas, next_feas, (prev_total, next_total)) in sums.items():
        state = states[ip]
        total = prev_total + next_total
        state.ratio = {k: (prev_feas[k] + next_feas[k]) / total if total else 1.0 for k in prev_feas}
        state.prev_ratio = {k: f / prev_total if prev_total else None for k, f in prev_feas.items()}
        state.next_ratio = {k: f / next_total if next_total else None for k, f in next_feas.items()}
        state.evaluations = total
    return states


def prune(state: CandidateState, cfg: RefineConfig) -> CandidateState:
    """Drop candidates scoring below ``prune_fraction`` of the IP's best
    ratio.  A best ratio of zero prunes nothing, and the last remaining
    candidate is never dropped."""
    if not state.candidates:
        return state
    best = state.best()
    r_star = state.ratio.get(best.cluster_id, 0.0)
    if r_star <= 0.0:
        return state
    cutoff = cfg.prune_fraction * r_star
    keep = [c for c in state.candidates if state.ratio.get(c.cluster_id, 0.0) >= cutoff]
    if not keep:  # unreachable while prune_fraction <= 1, kept as a guard
        keep = [best]
    if len(keep) != len(state.candidates):
        kept_ids = {c.cluster_id for c in keep}
        state.candidates = keep
        state.ratio = {k: v for k, v in state.ratio.items() if k in kept_ids}
        state.prev_ratio = {k: v for k, v in state.prev_ratio.items() if k in kept_ids}
        state.next_ratio = {k: v for k, v in state.next_ratio.items() if k in kept_ids}
    return state


def iterate(
    states: dict[str, CandidateState],
    budgets: list[PairBudgets],
    cfg: RefineConfig,
    diag: Diagnostics | None = None,
) -> tuple[dict[str, CandidateState], int]:
    """Alternate scoring and pruning until a fixed point of the candidate
    sets, or ``max_iterations`` rounds (logged as a warning).

    Candidate updates are simultaneous: a round scores every IP against
    the sets that survived the previous round, then prunes all IPs at
    once.  ``budgets`` come from :func:`pair_budgets`.  Returns
    ``(states, iterations_run)``.
    """
    diag = diag or Diagnostics()
    iterations = 0
    for _ in range(max(1, cfg.max_iterations)):
        iterations += 1
        score_iteration(states, budgets)
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
        best = state.best()
        best_ratio = state.ratio.get(best.cluster_id, 0.0)
        bp = state.prev_ratio.get(best.cluster_id)
        bn = state.next_ratio.get(best.cluster_id)
        prev_low = bp is not None and bp < cfg.direction_threshold
        next_low = bn is not None and bn < cfg.direction_threshold
        if best_ratio < cfg.anomaly_ratio_threshold or (prev_low != next_low):
            state.status = IpStatus.ANOMALOUS
    return states
