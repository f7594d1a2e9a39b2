"""Refinement engine: pair extraction, feasibility, iteration, tagging."""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceloc.cli import SynthSettings
from traceloc.diagnostics import Diagnostics
from traceloc.geo import CityCluster, GeoPoint, cluster_candidates, haversine_km
from traceloc.ingest import CleanPath, ip_key
from traceloc.refine import (
    CandidateState,
    IpStatus,
    PairBudgets,
    RefineConfig,
    budget_km,
    extract_pairs,
    iterate,
    make_states,
    pair_budgets,
    prune,
    score_iteration,
    tag_anomalies,
)
from traceloc.synth import corrupt_geodb, generate_world, simulate_traceroutes
from tests.conftest import pair_feasible, plane_latlon

IP_A = "198.51.100.1"
IP_B = "198.51.100.2"
IP_C = "198.51.100.3"


def cand(cluster_id: int, x_km: float, y_km: float = 0.0, city="c", country="XX") -> CityCluster:
    lat, lon = plane_latlon(x_km, y_km)
    return CityCluster(
        cluster_id=cluster_id,
        centroid=GeoPoint(lat, lon),
        city=f"{city}{cluster_id}",
        country=country,
        supporting_sources={"db1"},
    )


class TestExtractPairs:
    def test_orders_and_directions(self):
        paths = [
            CleanPath("p1", [(IP_B, 2.0), (IP_A, 1.0), (IP_C, 3.0)]),
            CleanPath("p2", [(IP_A, 1.1), (IP_B, 2.1)]),
        ]
        pairs = extract_pairs(paths)
        assert [(p.ip_a, p.ip_b) for p in pairs] == [(IP_A, IP_B), (IP_A, IP_C)]
        ab, ac = pairs
        # p1 saw B before A; p2 saw A before B.
        assert [(rtt_a, rtt_b, a_first) for rtt_a, rtt_b, a_first in ab.observations] == [
            (1.0, 2.0, False),
            (1.1, 2.1, True),
        ]
        assert [(rtt_a, rtt_b, a_first) for rtt_a, rtt_b, a_first in ac.observations] == [
            (1.0, 3.0, True)
        ]

    def test_no_pairs_from_single_hop(self):
        assert extract_pairs([CleanPath("p", [(IP_A, 1.0)])]) == []


class TestPairFeasible:
    def test_budget_formula_boundary(self):
        cfg = RefineConfig()
        a = GeoPoint(*plane_latlon(0, 0))
        # |Δ| = 3 ms, sum = 5 ms → budget 3.5 ms → 350 km of separation.
        near = GeoPoint(*plane_latlon(349, 0))
        far = GeoPoint(*plane_latlon(351, 0))
        assert pair_feasible(a, near, 1.0, 4.0, cfg)
        assert not pair_feasible(a, far, 1.0, 4.0, cfg)

    def test_zero_rtts_require_colocation(self):
        cfg = RefineConfig()
        a = GeoPoint(*plane_latlon(0, 0))
        assert pair_feasible(a, a, 0.0, 0.0, cfg)
        assert not pair_feasible(a, GeoPoint(*plane_latlon(1, 0)), 0.0, 0.0, cfg)

    @given(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
    )
    def test_symmetric_in_roles(self, rtt_a, rtt_b, lat, lon):
        cfg = RefineConfig()
        p = GeoPoint(lat, lon)
        q = GeoPoint(lat + 1.0, lon)
        assert pair_feasible(p, q, rtt_a, rtt_b, cfg) == pair_feasible(q, p, rtt_b, rtt_a, cfg)


def two_ip_fixture():
    """IP_A fixed at x=0; IP_B has a true candidate at 150 km and a decoy at
    1000 km.  One adjacency observation with a 350 km budget."""
    states = make_states(
        {
            IP_A: [cand(0, 0)],
            IP_B: [cand(0, 150), cand(1, 1000)],
        }
    )
    paths = [CleanPath("p", [(IP_A, 1.0), (IP_B, 4.0)])]
    return states, pair_budgets(extract_pairs(paths), RefineConfig())


class TestScoringAndIteration:
    def test_hand_computed_ratios(self):
        states, budgets = two_ip_fixture()
        score_iteration(states, budgets)
        # IP_B: true candidate fits the 350 km budget, decoy does not.
        assert states[IP_B].ratio[0] == 1.0
        assert states[IP_B].ratio[1] == 0.0
        # IP_A is evaluated against both of B's candidates: one feasible of two.
        assert states[IP_A].ratio[0] == 0.5

    def test_iterate_prunes_decoy_and_converges(self):
        states, budgets = two_ip_fixture()
        _, iterations = iterate(states, budgets, RefineConfig())
        assert [c.cluster_id for c in states[IP_B].candidates] == [0]
        # Round 1 prunes the decoy; round 2 rescores clean and stops.
        assert iterations == 2
        # With the decoy gone, IP_A's score recovers — the iterative gain.
        assert states[IP_A].ratio[0] == 1.0

    def test_iterate_is_idempotent_at_fixed_point(self):
        states, budgets = two_ip_fixture()
        iterate(states, budgets, RefineConfig())
        before = {ip: [c.cluster_id for c in st.candidates] for ip, st in states.items()}
        _, iterations = iterate(states, budgets, RefineConfig())
        assert iterations == 1
        assert before == {
            ip: [c.cluster_id for c in st.candidates] for ip, st in states.items()
        }

    def test_iteration_cap_warns(self):
        states, budgets = two_ip_fixture()
        diag = Diagnostics()
        _, iterations = iterate(states, budgets, RefineConfig(max_iterations=1), diag=diag)
        assert iterations == 1
        assert diag.count("refine_no_convergence") == 1

    def test_iteration_cap_without_diagnostics_logs_once(self, caplog):
        states, budgets = two_ip_fixture()
        with caplog.at_level(logging.WARNING, logger="traceloc"):
            iterate(states, budgets, RefineConfig(max_iterations=1))
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            (
                "WARNING",
                "refine_no_convergence: candidate sets still changing after 1 iterations",
            )
        ]

    def test_zero_iteration_cap_runs_and_reports_one_round(self, caplog):
        # The library takes max_iterations=0 (the CLI rejects it); one
        # round still runs, and the warning names that round.
        states, budgets = two_ip_fixture()
        with caplog.at_level(logging.WARNING, logger="traceloc"):
            _, iterations = iterate(states, budgets, RefineConfig(max_iterations=0))
        assert iterations == 1
        assert [r.getMessage() for r in caplog.records] == [
            "refine_no_convergence: candidate sets still changing after 1 iterations"
        ]

    def test_neighbor_without_candidates_contributes_nothing(self):
        states = make_states({IP_A: [cand(0, 0)]})
        paths = [CleanPath("p", [(IP_A, 1.0), (IP_B, 4.0)])]
        score_iteration(states, pair_budgets(extract_pairs(paths), RefineConfig()))
        # No evaluations happened; the vacuous perfect ratio stands.
        assert states[IP_A].ratio[0] == 1.0
        assert states[IP_A].evaluations == 0


@dataclass
class _Tally:
    feas: int = 0
    total: int = 0
    prev_feas: int = 0
    prev_total: int = 0
    next_feas: int = 0
    next_total: int = 0


def reference_score_round(states, pairs, cfg):
    """The scoring round as first written: six counters per candidate, four
    of them the same for every candidate of an IP, tallied against the
    previous round's candidate sets and then applied."""
    by_ip = {}
    for pair in pairs:
        a_first = [budget_km(ra, rb, cfg) for ra, rb, is_a_first in pair.observations if is_a_first]
        b_first = [budget_km(ra, rb, cfg) for ra, rb, is_a_first in pair.observations if not is_a_first]
        by_ip.setdefault(pair.ip_a, []).append((pair.ip_b, True, b_first, a_first))
        by_ip.setdefault(pair.ip_b, []).append((pair.ip_a, False, a_first, b_first))
    all_tallies = {}
    for ip, state in states.items():
        tallies = {c.cluster_id: _Tally() for c in state.candidates}
        any_eval = False
        for other_ip, is_a, prev_budgets, next_budgets in by_ip.get(ip, []):
            other = states.get(other_ip)
            if other is None or not other.candidates:
                continue
            for c in state.candidates:
                t = tallies[c.cluster_id]
                for oc in other.candidates:
                    if is_a:
                        d = haversine_km(c.centroid, oc.centroid)
                    else:
                        d = haversine_km(oc.centroid, c.centroid)
                    pf = sum(b >= d for b in prev_budgets)
                    nf = sum(b >= d for b in next_budgets)
                    t.prev_feas += pf
                    t.prev_total += len(prev_budgets)
                    t.next_feas += nf
                    t.next_total += len(next_budgets)
                    t.feas += pf + nf
                    t.total += len(prev_budgets) + len(next_budgets)
                    any_eval = True
        if any_eval:
            all_tallies[ip] = tallies
    for ip, tallies in all_tallies.items():
        state = states[ip]
        state.ratio, state.prev_ratio, state.next_ratio = {}, {}, {}
        for c in state.candidates:
            t = tallies[c.cluster_id]
            state.ratio[c.cluster_id] = t.feas / t.total if t.total else 1.0
            state.prev_ratio[c.cluster_id] = t.prev_feas / t.prev_total if t.prev_total else None
            state.next_ratio[c.cluster_id] = t.next_feas / t.next_total if t.next_total else None
            state.evaluations = t.total
    return states


def reference_iterate(states, pairs, cfg):
    for iterations in range(1, cfg.max_iterations + 1):
        reference_score_round(states, pairs, cfg)
        sizes = [len(s.candidates) for s in states.values()]
        for state in states.values():
            prune(state, cfg)
        if sizes == [len(s.candidates) for s in states.values()]:
            break
    return states, iterations


def gappy_world(grid_catalog, seed):
    """A seeded world with decoys where every seventh IP has no candidates."""
    world = generate_world(seed, 60, 12, 0.05, grid_catalog)
    paths = simulate_traceroutes(world, 300, 0.05)
    spec = SynthSettings(
        interface_error_fraction=0.05,
        min_displacement_km=300.0,
        db_count=4,
        db_noise_km=2.0,
        decoy_fraction=0.5,
        decoy_db_count=1,
    )
    snapshot, _ = corrupt_geodb(world, spec, seed, grid_catalog)
    ips = sorted({ip for p in paths for ip, _ in p.hops}, key=ip_key)
    clusters = {
        ip: cluster_candidates(snapshot.get(ip, []), 20.0)
        for i, ip in enumerate(ips)
        if i % 7 != 3
    }
    return clusters, extract_pairs(paths)


def scored_fields(states):
    return {
        ip: (
            [c.cluster_id for c in s.candidates],
            s.ratio,
            s.prev_ratio,
            s.next_ratio,
            s.evaluations,
        )
        for ip, s in states.items()
    }


WORLD_SEEDS = range(6)


class TestScoringMatchesReference:
    def test_score_iteration(self, grid_catalog):
        cases = {"stateless neighbor": 0, "one direction": 0, "no evaluations": 0}
        for seed in WORLD_SEEDS:
            clusters, pairs = gappy_world(grid_catalog, seed)
            want = reference_score_round(make_states(clusters), pairs, RefineConfig())
            got = score_iteration(make_states(clusters), pair_budgets(pairs, RefineConfig()))
            assert scored_fields(got) == scored_fields(want)
            cases["stateless neighbor"] += sum(
                p.ip_a not in got or p.ip_b not in got for p in pairs
            )
            for s in got.values():
                c = s.candidates[0].cluster_id
                cases["one direction"] += (s.prev_ratio[c] is None) != (s.next_ratio[c] is None)
                cases["no evaluations"] += s.evaluations == 0
        assert all(cases.values()), cases

    @pytest.mark.parametrize("max_iterations", [1, 2, 3])
    def test_iterate(self, grid_catalog, max_iterations):
        cfg = RefineConfig(max_iterations=max_iterations)
        for seed in WORLD_SEEDS:
            clusters, pairs = gappy_world(grid_catalog, seed)
            want, want_n = reference_iterate(make_states(clusters), pairs, cfg)
            got, got_n = iterate(make_states(clusters), pair_budgets(pairs, cfg), cfg)
            assert got_n == want_n
            assert scored_fields(got) == scored_fields(want)



def reference_per_side_score_iteration(
    states: dict[str, CandidateState], budgets: list[PairBudgets]
) -> dict[str, CandidateState]:
    """The scoring round before it took one pass over the pairs: each IP is
    scored on its own, from a list of the pair sides it sits on, so every
    pair's feasibility table is read twice, once from each end."""
    by_ip: dict[str, list[tuple[PairBudgets, bool]]] = {}
    for pb in budgets:
        by_ip.setdefault(pb.ip_a, []).append((pb, True))
        by_ip.setdefault(pb.ip_b, []).append((pb, False))
    for ip, state in states.items():
        prev_feas = {c.cluster_id: 0 for c in state.candidates}
        next_feas = dict(prev_feas)
        prev_total = next_total = 0
        evaluated = False
        for pb, is_a in by_ip.get(ip, []):
            other = states.get(pb.ip_b if is_a else pb.ip_a)
            if other is None or not other.candidates:
                continue
            evaluated = True
            n_a_first, n_b_first = len(pb.budgets_a_first), len(pb.budgets_b_first)
            prev_total += (n_b_first if is_a else n_a_first) * len(other.candidates)
            next_total += (n_a_first if is_a else n_b_first) * len(other.candidates)
            for c in state.candidates:
                for oc in other.candidates:
                    if is_a:
                        next_f, prev_f = pb.feasible(c, oc)
                    else:
                        prev_f, next_f = pb.feasible(oc, c)
                    prev_feas[c.cluster_id] += prev_f
                    next_feas[c.cluster_id] += next_f
        if not evaluated:
            continue
        total = prev_total + next_total
        state.ratio = {k: (prev_feas[k] + next_feas[k]) / total if total else 1.0 for k in prev_feas}
        state.prev_ratio = {k: f / prev_total if prev_total else None for k, f in prev_feas.items()}
        state.next_ratio = {k: f / next_total if next_total else None for k, f in next_feas.items()}
        state.evaluations = total
    return states


@st.composite
def scoring_corpora(draw):
    """Up to eight IPs with zero to three candidates on a 3,000 km line, and
    paths over them with RTTs from 0 to 30 ms.  An IP without candidates is
    left out of the states or, as the library allows, holds an empty state;
    a path may repeat an address, next to itself or further on."""
    ips = [f"198.51.100.{i}" for i in range(1, draw(st.integers(2, 8)) + 1)]
    xs = st.floats(min_value=0.0, max_value=3000.0)
    clusters = {
        ip: [cand(cid, draw(xs)) for cid in range(draw(st.integers(0, 3)))] for ip in ips
    }
    routes = st.lists(st.lists(st.sampled_from(ips), min_size=2, max_size=6), min_size=1, max_size=12)
    rtts = st.floats(min_value=0.0, max_value=30.0)
    paths = [
        CleanPath(f"p{n}", [(ip, draw(rtts)) for ip in hops])
        for n, hops in enumerate(draw(routes))
    ]
    empty = [ip for ip in ips if not clusters[ip] and draw(st.booleans())]
    return clusters, empty, paths


def ordered_scores(states):
    """Ratio maps as ordered item lists, and evaluation counts, per IP."""
    return {
        ip: (
            [c.cluster_id for c in s.candidates],
            list(s.ratio.items()),
            list(s.prev_ratio.items()),
            list(s.next_ratio.items()),
            s.evaluations,
        )
        for ip, s in states.items()
    }


class TestOnePassScoringMatchesPerSide:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(scoring_corpora(), st.sampled_from([0.0, 0.1, 0.5]))
    def test_rounds_match(self, corpus, deviation_fraction):
        clusters, empty, paths = corpus
        cfg = RefineConfig(deviation_fraction=deviation_fraction)
        budgets = pair_budgets(extract_pairs(paths), cfg)
        got, want = (
            make_states(clusters) | {ip: CandidateState(ip=ip, candidates=[]) for ip in empty}
            for _ in range(2)
        )
        for _ in range(4):
            score_iteration(got, budgets)
            reference_per_side_score_iteration(want, budgets)
            assert ordered_scores(got) == ordered_scores(want)
            for state in [*got.values(), *want.values()]:
                prune(state, cfg)


class TestPrune:
    def _state(self, ratios):
        candidates = [cand(i, 100.0 * i) for i in range(len(ratios))]
        st = make_states({IP_A: candidates})[IP_A]
        st.ratio = dict(enumerate(ratios))
        return st

    def test_drops_below_cutoff(self):
        st = self._state([1.0, 0.95, 0.5])
        prune(st, RefineConfig(prune_fraction=0.9))
        assert [c.cluster_id for c in st.candidates] == [0, 1]
        assert set(st.ratio) == {0, 1}

    def test_zero_best_prunes_nothing(self):
        st = self._state([0.0, 0.0])
        prune(st, RefineConfig())
        assert len(st.candidates) == 2

    def test_last_candidate_never_dropped(self):
        st = self._state([0.2])
        prune(st, RefineConfig())
        assert len(st.candidates) == 1

    def test_best_tie_goes_to_lowest_id(self):
        st = self._state([0.5, 0.9, 0.9])
        st.candidates.reverse()  # by cluster_id, not by list position
        assert st.best().cluster_id == 1


def anomaly_fixture():
    """X looks consistent toward its previous hop but impossible toward the
    next one: P–X distance 50 km inside a 75 km budget, X–N distance 500 km
    against an 85 km budget."""
    states = make_states(
        {
            IP_A: [cand(0, 0)],       # P
            IP_B: [cand(0, 50)],      # X
            IP_C: [cand(0, 550)],     # N
        }
    )
    paths = [
        CleanPath("p1", [(IP_A, 1.0), (IP_B, 1.5)]),
        CleanPath("p2", [(IP_A, 1.0), (IP_B, 1.5)]),
        CleanPath("p3", [(IP_B, 1.5), (IP_C, 2.0)]),
    ]
    return states, pair_budgets(extract_pairs(paths), RefineConfig())


class TestTagAnomalies:
    def test_directional_asymmetry_tags(self):
        states, budgets = anomaly_fixture()
        score_iteration(states, budgets)
        tag_anomalies(states, RefineConfig())
        assert states[IP_B].status is IpStatus.ANOMALOUS
        # One healthy direction, one impossible one.
        assert states[IP_B].prev_ratio[0] == 1.0
        assert states[IP_B].next_ratio[0] == 0.0

    def test_min_observations_gate(self):
        states, budgets = anomaly_fixture()
        score_iteration(states, budgets)
        # N fails its only evaluation, but one observation is not evidence.
        assert states[IP_C].ratio[0] == 0.0
        tag_anomalies(states, RefineConfig())
        assert states[IP_C].status is IpStatus.ACTIVE
        # Lowering the gate tags it through the overall-ratio rule.
        states2, budgets2 = anomaly_fixture()
        score_iteration(states2, budgets2)
        tag_anomalies(states2, RefineConfig(min_observations=1))
        assert states2[IP_C].status is IpStatus.ANOMALOUS

    def test_low_overall_ratio_tags(self):
        states, budgets = anomaly_fixture()
        score_iteration(states, budgets)
        tag_anomalies(states, RefineConfig(min_observations=1, direction_threshold=0.0))
        # With the directional rule neutralized, N still tags on ratio 0.
        assert states[IP_C].status is IpStatus.ANOMALOUS

    def test_missing_direction_counts_healthy(self):
        states, budgets = anomaly_fixture()
        score_iteration(states, budgets)
        tag_anomalies(states, RefineConfig())
        # P opens both paths, so it has no previous-side evidence at all.
        assert states[IP_A].prev_ratio[0] is None
        assert states[IP_A].status is IpStatus.ACTIVE

    def test_both_directions_bad_is_not_asymmetry(self):
        # Symmetric failure must not trip the direction rule (it trips the
        # overall-ratio rule instead, when low enough).
        states = make_states({IP_A: [cand(0, 0)], IP_B: [cand(0, 500)]})
        paths = [
            CleanPath("p1", [(IP_A, 1.0), (IP_B, 1.5)]),
            CleanPath("p2", [(IP_B, 1.5), (IP_A, 1.0)]),
            CleanPath("p3", [(IP_A, 1.0), (IP_B, 1.5)]),
        ]
        score_iteration(states, pair_budgets(extract_pairs(paths), RefineConfig()))
        tag_anomalies(states, RefineConfig())
        assert states[IP_B].prev_ratio[0] == 0.0
        assert states[IP_B].next_ratio[0] == 0.0
        assert states[IP_B].status is IpStatus.ANOMALOUS  # via best_ratio < 0.5

    def test_healthy_world_tags_nothing(self):
        states, budgets = two_ip_fixture()
        iterate(states, budgets, RefineConfig())
        tag_anomalies(states, RefineConfig(min_observations=1))
        assert all(st.status is IpStatus.ACTIVE for st in states.values())


class TestMakeStates:
    def test_skips_empty_and_sorts(self):
        states = make_states({IP_C: [cand(0, 0)], IP_A: [], IP_B: [cand(0, 10)]})
        assert list(states) == [IP_C, IP_B]
        assert states[IP_B].ratio == {0: 1.0}
        assert states[IP_B].status is IpStatus.ACTIVE
