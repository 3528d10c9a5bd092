"""Unit tests for the joint (move-count, ring) movement-scheme chain."""

import math

import numpy as np
import pytest

from repro import (
    CostParams,
    MobilityParams,
    ParameterError,
    movement_based_costs,
    movement_staged_costs,
    optimal_staged_movement_threshold,
)
from repro.core.movement_chain import _joint_steady_state, _ring_probs
from repro.geometry import HexTopology, LineTopology, SquareTopology

MOBILITY = MobilityParams(0.2, 0.02)
COSTS = CostParams(30.0, 2.0)
LINE = LineTopology()
HEX = HexTopology()


def dense_steady_state(topology, mobility, M):
    """The joint chain's full transition matrix, solved by dense LU: the
    independent check of the level-by-level recursion (small M only)."""
    states = [(k, i) for k in range(M) for i in range(k + 1)]
    index = {state: n for n, state in enumerate(states)}
    q, c = mobility.q, mobility.c
    P = np.zeros((len(states), len(states)))
    for (k, i), row in index.items():
        P[row, index[(0, 0)]] += c
        if k == M - 1:
            P[row, index[(0, 0)]] += q  # the M-th move updates
        else:
            plus, same, minus = _ring_probs(topology, i)
            P[row, index[(k + 1, i + 1)]] += q * plus
            P[row, index[(k + 1, i)]] += q * same
            if i > 0:
                P[row, index[(k + 1, i - 1)]] += q * minus
        P[row, row] += 1.0 - c - q
    A = P.T - np.eye(len(states))
    A[-1, :] = 1.0
    rhs = np.zeros(len(states))
    rhs[-1] = 1.0
    pi = np.linalg.solve(A, rhs)
    return {state: float(pi[n]) for state, n in index.items()}


class TestJointSteadyState:
    @pytest.mark.parametrize("topology", [LINE, HEX, SquareTopology()])
    @pytest.mark.parametrize("q,c", [(0.2, 0.02), (0.05, 0.01), (0.5, 0.3)])
    @pytest.mark.parametrize("M", [1, 2, 5, 12])
    def test_matches_a_dense_solve(self, topology, q, c, M):
        mobility = MobilityParams(q, c)
        joint = _joint_steady_state(topology, mobility, M)
        dense = dense_steady_state(topology, mobility, M)
        assert joint.keys() == dense.keys()
        assert list(joint.values()) == pytest.approx(list(dense.values()), abs=1e-14)

    @pytest.mark.parametrize("topology", [LINE, HEX, SquareTopology()])
    @pytest.mark.parametrize("M", [1, 3, 6])
    def test_is_distribution(self, topology, M):
        joint = _joint_steady_state(topology, MOBILITY, M)
        assert sum(joint.values()) == pytest.approx(1.0)
        assert all(value >= 0 for value in joint.values())

    def test_ring_never_exceeds_move_count(self):
        joint = _joint_steady_state(HEX, MOBILITY, 5)
        assert all(i <= k for (k, i) in joint)

    def test_line_parity(self):
        # On the line every move changes the ring by exactly 1, so
        # i and k share parity; opposite-parity states carry no mass.
        joint = _joint_steady_state(LINE, MOBILITY, 6)
        for (k, i), mass in joint.items():
            if (k - i) % 2 == 1:
                assert mass == pytest.approx(0.0, abs=1e-15)

    def test_count_marginal_matches_blanket_chain(self):
        # Summing the joint over rings must reproduce the 1-D count
        # chain's truncated geometric.
        q, c = MOBILITY.q, MOBILITY.c
        M = 5
        joint = _joint_steady_state(HEX, MOBILITY, M)
        marginal = [
            sum(mass for (k, i), mass in joint.items() if k == count)
            for count in range(M)
        ]
        r = q / (q + c)
        weights = [r**count for count in range(M)]
        expected = [w / sum(weights) for w in weights]
        assert marginal == pytest.approx(expected, abs=1e-12)


class TestStagedCosts:
    @pytest.mark.parametrize("topology", [LINE, HEX])
    @pytest.mark.parametrize("M", [1, 2, 5])
    def test_m1_reduces_to_blanket_model(self, topology, M):
        blanket = movement_based_costs(topology, MOBILITY, COSTS, M)
        staged = movement_staged_costs(topology, MOBILITY, COSTS, M, 1)
        assert staged.update_cost == pytest.approx(blanket.update_cost, rel=1e-9)
        assert staged.paging_cost == pytest.approx(blanket.paging_cost, rel=1e-9)

    def test_staging_never_hurts(self):
        for m in (1, 2, 3, math.inf):
            previous = None
            value = movement_staged_costs(HEX, MOBILITY, COSTS, 5, m).paging_cost
            if previous is not None:
                assert value <= previous + 1e-12
            previous = value

    def test_paging_cost_monotone_in_delay(self):
        values = [
            movement_staged_costs(HEX, MOBILITY, COSTS, 5, m).paging_cost
            for m in (1, 2, 3, math.inf)
        ]
        assert values == sorted(values, reverse=True)

    def test_update_cost_independent_of_delay(self):
        a = movement_staged_costs(HEX, MOBILITY, COSTS, 4, 1)
        b = movement_staged_costs(HEX, MOBILITY, COSTS, 4, 3)
        assert a.update_cost == pytest.approx(b.update_cost)

    def test_simulation_agreement_line(self):
        from repro.simulation import run_replicated
        from repro.strategies import MovementStrategy

        analytic = movement_staged_costs(LINE, MOBILITY, COSTS, 4, 2)
        sim = run_replicated(
            LINE,
            lambda: MovementStrategy(4, max_delay=2),
            MOBILITY,
            COSTS,
            slots=100_000,
            replications=3,
            seed=12,
        )
        assert sim.mean_total_cost == pytest.approx(analytic.total_cost, rel=0.03)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True])
    def test_invalid_threshold(self, bad):
        with pytest.raises(ParameterError):
            movement_staged_costs(HEX, MOBILITY, COSTS, bad, 2)


class TestOptimalStagedThreshold:
    def test_is_global_over_range(self):
        best = optimal_staged_movement_threshold(
            HEX, MOBILITY, COSTS, 2, max_threshold=20
        )
        for M in range(1, 21):
            assert best.total_cost <= movement_staged_costs(
                HEX, MOBILITY, COSTS, M, 2
            ).total_cost + 1e-12

    def test_staged_beats_blanket_optimum(self):
        from repro import optimal_movement_threshold

        blanket = optimal_movement_threshold(HEX, MOBILITY, COSTS)
        staged = optimal_staged_movement_threshold(HEX, MOBILITY, COSTS, 3)
        assert staged.total_cost <= blanket.total_cost + 1e-12
