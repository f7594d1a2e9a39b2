"""Refinement engine: pair extraction, feasibility, iteration, tagging."""
from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from traceloc.diagnostics import Diagnostics
from traceloc.geo import CityCluster, GeoPoint
from traceloc.ingest import CleanPath
from traceloc.refine import (
    IpStatus,
    RefineConfig,
    extract_pairs,
    iterate,
    make_states,
    pair_feasible,
    prune,
    score_iteration,
    tag_anomalies,
)
from tests.conftest import plane_latlon

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
        assert [(o.rtt_a, o.rtt_b, o.a_first) for o in ab.observations] == [
            (1.0, 2.0, False),
            (1.1, 2.1, True),
        ]
        assert [(o.rtt_a, o.rtt_b, o.a_first) for o in ac.observations] == [(1.0, 3.0, True)]

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
    return states, extract_pairs(paths)


class TestScoringAndIteration:
    def test_hand_computed_ratios(self):
        states, pairs = two_ip_fixture()
        score_iteration(states, pairs, RefineConfig())
        # IP_B: true candidate fits the 350 km budget, decoy does not.
        assert states[IP_B].ratio[0] == 1.0
        assert states[IP_B].ratio[1] == 0.0
        # IP_A is evaluated against both of B's candidates: one feasible of two.
        assert states[IP_A].ratio[0] == 0.5

    def test_iterate_prunes_decoy_and_converges(self):
        states, pairs = two_ip_fixture()
        _, iterations = iterate(states, pairs, RefineConfig())
        assert [c.cluster_id for c in states[IP_B].candidates] == [0]
        # Round 1 prunes the decoy; round 2 rescores clean and stops.
        assert iterations == 2
        # With the decoy gone, IP_A's score recovers — the iterative gain.
        assert states[IP_A].ratio[0] == 1.0

    def test_iterate_is_idempotent_at_fixed_point(self):
        states, pairs = two_ip_fixture()
        iterate(states, pairs, RefineConfig())
        before = {ip: [c.cluster_id for c in st.candidates] for ip, st in states.items()}
        _, iterations = iterate(states, pairs, RefineConfig())
        assert iterations == 1
        assert before == {
            ip: [c.cluster_id for c in st.candidates] for ip, st in states.items()
        }

    def test_iteration_cap_warns(self):
        states, pairs = two_ip_fixture()
        diag = Diagnostics()
        _, iterations = iterate(states, pairs, RefineConfig(max_iterations=1), diag=diag)
        assert iterations == 1
        assert diag.count("refine_no_convergence") == 1

    def test_neighbor_without_candidates_contributes_nothing(self):
        states = make_states({IP_A: [cand(0, 0)]})
        paths = [CleanPath("p", [(IP_A, 1.0), (IP_B, 4.0)])]
        score_iteration(states, extract_pairs(paths), RefineConfig())
        # No evaluations happened; the vacuous perfect ratio stands.
        assert states[IP_A].ratio[0] == 1.0
        assert states[IP_A].evaluations == 0


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
    return states, extract_pairs(paths)


class TestTagAnomalies:
    def test_directional_asymmetry_tags(self):
        states, pairs = anomaly_fixture()
        score_iteration(states, pairs, RefineConfig())
        tag_anomalies(states, RefineConfig())
        assert states[IP_B].status is IpStatus.ANOMALOUS
        # One healthy direction, one impossible one.
        assert states[IP_B].prev_ratio[0] == 1.0
        assert states[IP_B].next_ratio[0] == 0.0

    def test_min_observations_gate(self):
        states, pairs = anomaly_fixture()
        score_iteration(states, pairs, RefineConfig())
        # N fails its only evaluation, but one observation is not evidence.
        assert states[IP_C].ratio[0] == 0.0
        tag_anomalies(states, RefineConfig())
        assert states[IP_C].status is IpStatus.ACTIVE
        # Lowering the gate tags it through the overall-ratio rule.
        states2, pairs2 = anomaly_fixture()
        score_iteration(states2, pairs2, RefineConfig())
        tag_anomalies(states2, RefineConfig(min_observations=1))
        assert states2[IP_C].status is IpStatus.ANOMALOUS

    def test_low_overall_ratio_tags(self):
        states, pairs = anomaly_fixture()
        score_iteration(states, pairs, RefineConfig())
        tag_anomalies(states, RefineConfig(min_observations=1, direction_threshold=0.0))
        # With the directional rule neutralized, N still tags on ratio 0.
        assert states[IP_C].status is IpStatus.ANOMALOUS

    def test_missing_direction_counts_healthy(self):
        states, pairs = anomaly_fixture()
        score_iteration(states, pairs, RefineConfig())
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
        score_iteration(states, extract_pairs(paths), RefineConfig())
        tag_anomalies(states, RefineConfig())
        assert states[IP_B].prev_ratio[0] == 0.0
        assert states[IP_B].next_ratio[0] == 0.0
        assert states[IP_B].status is IpStatus.ANOMALOUS  # via best_ratio < 0.5

    def test_healthy_world_tags_nothing(self):
        states, pairs = two_ip_fixture()
        iterate(states, pairs, RefineConfig())
        tag_anomalies(states, RefineConfig(min_observations=1))
        assert all(st.status is IpStatus.ACTIVE for st in states.values())


class TestMakeStates:
    def test_skips_empty_and_sorts(self):
        states = make_states({IP_C: [cand(0, 0)], IP_A: [], IP_B: [cand(0, 10)]})
        assert list(states) == [IP_B, IP_C]
        assert states[IP_B].ratio == {0: 1.0}
        assert states[IP_B].status is IpStatus.ACTIVE
