"""The band-limited MCKP DP against the full-grid DP it replaces.

``_solve_mckp_dp`` updates each class only over the states that can
still end feasibly.  ``full_grid_dp`` below is the full-grid DP it
replaced, kept verbatim as the reference: on seeded instances the two
must select the same items and raise the same exceptions with the same
arguments.  A work guard pins the band itself, so a regression to
full-grid sweeps fails here even though it would stay correct.
"""

import math
import random

import numpy as np
import pytest

from repro.errors import QoSInfeasibleError, SolverError
from repro.optimize import MCKPItem, solve_mckp_bruteforce, solve_mckp_dp
from repro.optimize import mckp
from repro.optimize.greedy import solve_mckp_greedy


def full_grid_dp(classes, budget, resolution):
    """The grid DP over all ``resolution + 1`` states (reference)."""
    mckp._validate_classes(classes)
    if budget < 0:
        raise SolverError(f"budget must be >= 0, got {budget}")
    if resolution < 1:
        raise SolverError("resolution must be >= 1")
    tightest = mckp.min_total_weight(classes)
    if tightest > budget:
        raise QoSInfeasibleError(qos_s=budget, min_latency_s=tightest)

    step = budget / resolution if budget > 0 else 1.0
    n_states = resolution + 1

    def discretize(weight):
        return int(math.ceil(weight / step - 1e-12))

    inf = float("inf")
    dp = np.full(n_states, inf)
    dp[0] = 0.0
    choices = []
    candidate = np.empty(n_states)
    better = np.empty(n_states, dtype=bool)
    for k, cls in enumerate(classes):
        new_dp = np.full(n_states, inf)
        choice = np.full(n_states, -1, dtype=np.int32)
        for j, item in enumerate(cls):
            w = discretize(item.weight)
            if w >= n_states:
                continue
            span_n = n_states - w
            cand = np.add(dp[:span_n], item.value, out=candidate[:span_n])
            tail = new_dp[w:]
            mask = np.less(cand, tail, out=better[:span_n])
            np.copyto(tail, cand, where=mask)
            np.copyto(choice[w:], j, where=mask)
        if not np.isfinite(new_dp).any():
            raise QoSInfeasibleError(qos_s=budget, min_latency_s=tightest)
        dp = new_dp
        choices.append(choice)

    best_t = int(np.argmin(dp))
    best = dp[best_t]
    if not math.isfinite(best):
        raise QoSInfeasibleError(qos_s=budget, min_latency_s=tightest)
    selected = []
    t = best_t
    for k in range(len(classes) - 1, -1, -1):
        j = int(choices[k][t])
        if j < 0:
            raise SolverError("DP reconstruction failed (corrupt tables)")
        item = classes[k][j]
        selected.append(item)
        t -= discretize(item.weight)
    selected.reverse()
    return mckp.MCKPSolution(items=selected)


def outcome(solve, classes, budget, resolution):
    """Selected payloads, or the exception's class and arguments."""
    try:
        solution = solve(classes, budget, resolution)
        return [item.payload for item in solution.items]
    except QoSInfeasibleError as exc:
        return ("infeasible", exc.qos_s, exc.min_latency_s)


def random_instance(rng):
    """A small instance on a coarse grid, so ties, exact grid hits,
    zero weights, weights past the grid and grid-only infeasibility
    all come up often."""
    resolution = rng.choice((1, 2, 3, 5, 8, 17, 64, 400, 4000))
    budget = rng.choice((0.25, 1.0, 3.0, 7.5)) * rng.choice((1, 1, 0.1))
    weights = [0.0, budget / resolution, budget / 3, budget / 2, budget]
    classes = []
    for k in range(rng.randint(1, 5)):
        cls = []
        for j in range(rng.randint(1, 6)):
            kind = rng.random()
            if kind < 0.4:
                weight = rng.choice(weights) * rng.choice((0.5, 1, 1, 1.5))
            elif kind < 0.95:
                weight = rng.uniform(0, 1.2 * budget / 2)
            else:
                weight = 2.5 * budget  # past the grid
            value = float(rng.randint(0, 4)) if rng.random() < 0.5 else (
                rng.uniform(0, 10)
            )
            cls.append(MCKPItem(weight, value, payload=(k, j)))
        classes.append(cls)
    return classes, budget, resolution


class TestBandMatchesFullGrid:
    N_INSTANCES = 2500

    def test_seeded_instances(self):
        rng = random.Random(20241)
        infeasible = feasible = 0
        for _ in range(self.N_INSTANCES):
            classes, budget, resolution = random_instance(rng)
            want = outcome(full_grid_dp, classes, budget, resolution)
            got = outcome(mckp._solve_mckp_dp, classes, budget, resolution)
            assert got == want, (classes, budget, resolution)
            if isinstance(want, tuple):
                infeasible += 1
            else:
                feasible += 1
        # Both outcomes are exercised, not just one.
        assert infeasible > 100 and feasible > 1000

    def test_infeasible_only_on_the_grid(self):
        # Continuous total 1.0 fits the budget; rounding each 1/3 up on
        # a 2-step grid gives 1 step each, 3 steps > 2.
        classes = [[MCKPItem(1 / 3, 1.0)] for _ in range(3)]
        assert solve_mckp_bruteforce(classes, 1.0).total_weight <= 1.0
        for solve in (full_grid_dp, mckp._solve_mckp_dp):
            with pytest.raises(QoSInfeasibleError) as info:
                solve(classes, 1.0, 2)
            assert info.value.qos_s == 1.0
            assert info.value.min_latency_s == pytest.approx(1.0)

    def test_resolution_one(self):
        classes = [
            [MCKPItem(0.0, 5.0, "free"), MCKPItem(1.0, 1.0, "all")],
            [MCKPItem(0.0, 2.0, "free"), MCKPItem(0.5, 0.0, "half")],
        ]
        assert outcome(mckp._solve_mckp_dp, classes, 1.0, 1) == outcome(
            full_grid_dp, classes, 1.0, 1
        )


class CountingNumpy:
    """Forwards to numpy, recording the state count of every array the
    DP allocates or compares."""

    def __init__(self):
        self.compared = []
        self.allocated = []

    def __getattr__(self, name):
        return getattr(np, name)

    def less(self, a, b, out=None):
        self.compared.append(len(a))
        return np.less(a, b, out=out)

    def full(self, shape, *args, **kwargs):
        self.allocated.append(shape)
        return np.full(shape, *args, **kwargs)


class TestWorkGuard:
    def test_states_per_class_bounded_by_the_band(self, monkeypatch):
        rng = random.Random(7)
        classes = [
            [MCKPItem(rng.uniform(0.1, 0.3), rng.uniform(1, 5))
             for _ in range(6)]
            for _ in range(10)
        ]
        budget, resolution = 2.4, 4000
        step = budget / resolution
        floors = [
            min(math.ceil(i.weight / step - 1e-12) for i in cls)
            for cls in classes
        ]
        band = resolution + 1 - sum(floors)
        assert band < (resolution + 1) // 2  # a real restriction
        counting = CountingNumpy()
        monkeypatch.setattr(mckp, "np", counting)
        band_pick = solve_mckp_dp(classes, budget, resolution)
        monkeypatch.undo()
        assert [i.payload for i in band_pick.items] == [
            i.payload for i in full_grid_dp(classes, budget, resolution).items
        ]
        assert counting.compared and max(counting.compared) <= band
        assert set(counting.allocated) == {band}


class TestZeroBudget:
    ZERO_OR_HALF = [[MCKPItem(0.0, 1.0, "zero"), MCKPItem(0.5, 0.0, "half")]]

    def test_positive_weight_does_not_fit_a_zero_budget(self):
        # A zero budget has a zero-width grid step: only zero-weight
        # items fit, as brute force and greedy agree.
        picks = {
            solve(self.ZERO_OR_HALF, 0.0).items[0].payload
            for solve in (
                solve_mckp_dp, solve_mckp_bruteforce, solve_mckp_greedy
            )
        }
        assert picks == {"zero"}

    def test_zero_budget_every_resolution(self):
        for resolution in (1, 7, 4000):
            solution = solve_mckp_dp(self.ZERO_OR_HALF, 0.0, resolution)
            assert solution.total_weight == 0.0

    def test_zero_budget_with_only_positive_weights_is_infeasible(self):
        classes = [[MCKPItem(0.0, 1.0)], [MCKPItem(1e-9, 1.0)]]
        with pytest.raises(QoSInfeasibleError) as info:
            solve_mckp_dp(classes, 0.0)
        assert info.value.min_latency_s == 1e-9
