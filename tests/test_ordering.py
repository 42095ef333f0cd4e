import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiroute import ordering
from multiroute.generate import random_complete_destgraph, random_incomplete_destgraph
from multiroute.ordering import (
    Action,
    _action_deltas,
    _cheapest_plan,
    DestGraph,
    GaConfig,
    InsertionPlan,
    NoSequenceError,
    OracleStats,
    _metric_closure,
    apply_insertion,
    brute_force_oracle,
    cheapest_insertion,
    crossover,
    genetic_refine,
    hamiltonian_path_exists,
    make_sequence,
    mutate,
    oracle_stats,
    selection_weights,
    sequence_cost,
    solve,
    validate_sequence,
)

from multiroute.planner import destinations_connected
from oracles import (
    per_destination_cheapest_insertion,
    rebuild_sequence_cost,
    reference_mutate,
    scalar_metric_closure,
)

INF = math.inf


def dg_from(rows, source=0, target=None, required=None):
    n = len(rows)
    return DestGraph(np.array(rows, dtype=float), source, n - 1 if target is None else target, required)


def closure_of(dg):
    """The complete metric graph ``solve`` orders: closure distances between required destinations."""
    closure, _ = _metric_closure(dg)
    keep = [i for i in range(dg.n) if dg.required[i]]
    sub = closure[np.ix_(keep, keep)]
    return DestGraph(np.minimum(sub, sub.T), keep.index(dg.source), keep.index(dg.target))


def random_theta(rng, n, edge_prob, integer=False, blocks=1):
    """Random symmetric matrix; ``blocks`` > 1 splits the indices into unlinked groups."""
    theta = np.full((n, n), INF)
    np.fill_diagonal(theta, 0.0)
    for i in range(n):
        for j in range(i + 1, n):
            if i % blocks == j % blocks and rng.random() < edge_prob:
                theta[i, j] = theta[j, i] = float(rng.randint(1, 3)) if integer else rng.uniform(0.1, 10.0)
    return theta


def triangle_with_detour():
    # Non-metric triangle: the best route from 0 to 2 revisits node 0.
    return dg_from(
        [
            [0.0, 2.0, 3.0],
            [2.0, 0.0, 10.0],
            [3.0, 10.0, 0.0],
        ]
    )


def spur_graph():
    # 0-1-3 path with a spur 2 hanging off 1: visiting 2 forces a second pass of 1.
    return dg_from(
        [
            [0.0, 1.0, INF, INF],
            [1.0, 0.0, 1.0, 1.0],
            [INF, 1.0, 0.0, INF],
            [INF, 1.0, INF, 0.0],
        ]
    )


# ---------------------------------------------------------------------------
# Insertion costs
# ---------------------------------------------------------------------------

def action_deltas(dg, order, d, action):
    """The solver's deltas keyed by anchor."""
    deltas, offset = _action_deltas(dg, np.asarray(order, dtype=int), d, action)
    return {offset + j: float(x) for j, x in enumerate(deltas)}


def test_in_sequence_formula():
    dg = dg_from([[0.0, 3.0, 5.0], [3.0, 0.0, 4.0], [5.0, 4.0, 0.0]])
    # theta(anchor, d)=3, theta(d, next)=4, theta(anchor, next)=5 -> 2
    assert action_deltas(dg, [0, 2], 1, Action.IN_SEQUENCE) == {0: 2.0}


def rebuild(order, i, d, action):
    s = list(order)
    if action is Action.IN_SEQUENCE:
        return s[: i + 1] + [d] + s[i + 1 :]
    if action is Action.SWAP_LEFT:
        return s[: i - 1] + [s[i], s[i - 1], d] + s[i + 1 :]
    if action is Action.SWAP_RIGHT:
        return s[: i + 1] + [d, s[i + 2], s[i + 1]] + s[i + 3 :]
    return s[: i - 1] + [s[i], s[i - 1], d, s[i + 2], s[i + 1]] + s[i + 3 :]


def legal_anchors(action, length):
    if action is Action.IN_SEQUENCE:
        return range(length - 1)
    if action is Action.SWAP_LEFT:
        return range(2, length - 1)
    if action is Action.SWAP_RIGHT:
        return range(length - 3)
    return range(2, length - 3)


def test_all_actions_match_rebuild_oracle_on_random_instances():
    rng = random.Random(23)
    for trial in range(40):
        dg = random_complete_destgraph(7, seed=2000 + trial)
        middles = list(range(1, 6))
        rng.shuffle(middles)
        d = middles.pop()
        # Lengths 2 to 8 reach every action's empty and non-empty anchor
        # ranges; repeats stand in for revisits.
        order = [0, *rng.choices(middles, k=rng.randint(0, 6)), 6]
        before = rebuild_sequence_cost(dg.rows, order)
        for action in Action:
            deltas = action_deltas(dg, order, d, action)
            assert list(deltas) == list(legal_anchors(action, len(order)))
            for i, delta in deltas.items():
                after = rebuild_sequence_cost(dg.rows, rebuild(order, i, d, action))
                assert delta == pytest.approx(after - before, rel=1e-9, abs=1e-9)
                rebuilt = apply_insertion(order, InsertionPlan(action, i, d, delta))
                assert rebuilt == rebuild(order, i, d, action)


# ---------------------------------------------------------------------------
# Best single insertion
# ---------------------------------------------------------------------------

def test_matches_exhaustive_enumeration_on_random_instances():
    rng = random.Random(29)
    for trial in range(60):
        if trial % 2 == 0:
            dg = random_complete_destgraph(7, seed=3000 + trial)
        else:
            dg = closure_of(random_incomplete_destgraph(7, seed=3000 + trial))
        middles = dg.required_intermediates()
        rng.shuffle(middles)
        d = middles.pop()
        order = [dg.source, *middles[: rng.randint(0, len(middles))], dg.target]
        before = rebuild_sequence_cost(dg.rows, order)
        candidates = [
            (rebuild_sequence_cost(dg.rows, rebuild(order, i, d, action)) - before, int(action), i)
            for action in Action
            for i in legal_anchors(action, len(order))
        ]
        exp_delta, exp_action, exp_anchor = min(candidates)
        plan = _cheapest_plan(dg, order, [d])
        assert plan.delta_cost == pytest.approx(exp_delta, rel=1e-9, abs=1e-9)
        second = sorted(c[0] for c in candidates)
        if len(second) < 2 or second[1] > exp_delta + 1e-9:
            assert (int(plan.action), plan.anchor) == (exp_action, exp_anchor)


def test_tie_breaks_prefer_in_sequence_then_smaller_anchor():
    # Uniform theta: every action at every anchor adds 2, so in-sequence at
    # anchor 0 wins over both later in-sequence anchors and every swap.
    uniform = dg_from([[0.0 if i == j else 2.0 for j in range(5)] for i in range(5)])
    order = [0, 1, 2, 4]
    for action in (Action.IN_SEQUENCE, Action.SWAP_LEFT, Action.SWAP_RIGHT):
        assert set(action_deltas(uniform, order, 3, action).values()) == {2.0}
    plan = _cheapest_plan(uniform, order, [3])
    assert plan.action is Action.IN_SEQUENCE
    assert plan.anchor == 0
    assert plan.delta_cost == 2.0


# ---------------------------------------------------------------------------
# cheapest_insertion
# ---------------------------------------------------------------------------

def test_infinite_entry_rejected():
    with pytest.raises(ValueError):
        cheapest_insertion(spur_graph())


def test_within_twice_optimal_on_complete_metric_instances():
    for trial in range(60):
        dg = random_complete_destgraph(6, seed=4000 + trial)
        seq = cheapest_insertion(dg)
        validate_sequence(dg, seq)
        opt, _ = brute_force_oracle(dg)
        assert seq.total_cost <= 2.0 * opt + 1e-9


def test_closure_insertion_visits_every_destination_once():
    for order in range(3, 13):
        for i in range(200):
            dg = closure_of(random_incomplete_destgraph(order, 77_000 + 31 * order + i))
            seq = cheapest_insertion(dg)
            assert sorted(seq.order) == list(range(dg.n))


def test_batched_insertion_matches_per_destination_loop():
    # The reference queries one destination at a time, so equal orders pin
    # the batched tie-break: delta, then position in ``remaining``, then
    # action, then anchor. Uniform and small-integer weights tie everywhere.
    rng = random.Random(41)
    for trial in range(120):
        n = 3 + trial % 10
        kind = trial // 10 % 4
        if kind == 0:
            dg = random_complete_destgraph(n, seed=14_000 + trial)
        elif kind == 1:
            dg = closure_of(random_incomplete_destgraph(n, seed=14_000 + trial))
        elif kind == 2:
            dg = dg_from([[0.0 if i == j else 2.0 for j in range(n)] for i in range(n)])
        else:
            dg = dg_from(random_theta(rng, n, edge_prob=1.0, integer=True))
        assert cheapest_insertion(dg) == per_destination_cheapest_insertion(dg)


# ---------------------------------------------------------------------------
# mutate
# ---------------------------------------------------------------------------

def test_length_three_mutation_is_identity():
    dg = dg_from([[0.0, 1.0, INF], [1.0, 0.0, 1.0], [INF, 1.0, 0.0]])
    parent = make_sequence(dg, [0, 1, 2])
    child = mutate(dg, parent, random.Random(3))
    assert child.order == parent.order


def test_fixed_seed_reproducible_offspring():
    dg = random_complete_destgraph(9, seed=55)
    parent = cheapest_insertion(dg)
    a = [mutate(dg, parent, random.Random(99)).order for _ in range(1)]
    b = [mutate(dg, parent, random.Random(99)).order for _ in range(1)]
    assert a == b
    stream1 = random.Random(7)
    stream2 = random.Random(7)
    seq1 = [mutate(dg, parent, stream1).order for _ in range(50)]
    seq2 = [mutate(dg, parent, stream2).order for _ in range(50)]
    assert seq1 == seq2


def test_offspring_validity_and_cost_fuzz():
    rng = random.Random(61)
    dg = closure_of(random_incomplete_destgraph(8, seed=606))
    parent = cheapest_insertion(dg)
    for _ in range(10_000):
        child = mutate(dg, parent, rng)
        validate_sequence(dg, child)
        assert sorted(child.order) == sorted(parent.order)
        assert child.total_cost == pytest.approx(
            rebuild_sequence_cost(dg.rows, list(child.order)), rel=1e-12
        )


def test_mutate_draws_what_randint_sample_and_shuffle_draw():
    # mutate takes randint's, sample's and shuffle's draws straight from
    # getrandbits. The reference calls them, so this checks the copy of their
    # rules against the running interpreter. Above length 22, sample keeps
    # up to five cuts in a set instead of a pool list.
    for L in range(4, 71):
        dg = random_complete_destgraph(L, seed=L)
        for seed in range(200):
            rng = random.Random(seed)
            middles = list(range(1, L - 1))
            rng.shuffle(middles)
            parent = make_sequence(dg, [0, *middles, L - 1])
            ours, ref = random.Random(seed + 1), random.Random(seed + 1)
            for _ in range(5):
                child, expected = mutate(dg, parent, ours), reference_mutate(dg, parent, ref)
                assert child.order == expected.order
                assert child.total_cost.hex() == expected.total_cost.hex()
            assert ours.getstate() == ref.getstate()


def test_ga_and_solve_unchanged_under_the_reference_mutate(monkeypatch):
    cases = []
    for order in range(5, 13):
        for make in (random_complete_destgraph, random_incomplete_destgraph):
            for seed in range(3):
                dg = make(order, seed=100 * order + seed)
                cfg = GaConfig(mutation_count=200, crossover_count=200, generations=3, rng_seed=seed)
                reduced = closure_of(dg)
                cases.append((dg, reduced, cheapest_insertion(reduced), cfg))

    def run():
        return [(genetic_refine(r, start, cfg), solve(dg, cfg)) for dg, r, start, cfg in cases]

    ours = run()
    monkeypatch.setattr(ordering, "mutate", reference_mutate)
    for (ga, sol), (ref_ga, ref_sol) in zip(ours, run()):
        assert (ga.order, ga.total_cost.hex()) == (ref_ga.order, ref_ga.total_cost.hex())
        assert (sol.order, sol.total_cost.hex()) == (ref_sol.order, ref_sol.total_cost.hex())


def test_mutation_preserves_pinned_endpoints():
    dg = random_complete_destgraph(10, seed=77)
    parent = cheapest_insertion(dg)
    rng = random.Random(5)
    for _ in range(200):
        child = mutate(dg, parent, rng)
        assert child.order[0] == dg.source
        assert child.order[-1] == dg.target


# ---------------------------------------------------------------------------
# crossover
# ---------------------------------------------------------------------------

def test_identical_parents_give_equal_cost_copy():
    dg = random_complete_destgraph(8, seed=13)
    p = cheapest_insertion(dg)
    child = crossover(dg, p, p, random.Random(1))
    assert child.order == p.order
    assert child.total_cost == p.total_cost


def test_selection_weights_inverse_cost():
    w = selection_weights([10.0, 30.0])
    assert w[0] == pytest.approx(0.75)
    assert w[1] == pytest.approx(0.25)


def test_crossover_children_valid_and_multiset_preserving():
    rng = random.Random(101)
    dg = random_complete_destgraph(9, seed=909)
    base = cheapest_insertion(dg)
    parents = []
    while len(parents) < 2:
        cand = mutate(dg, base, rng)
        if cand.order != base.order:
            parents.append(cand)
    pa, pb = parents
    for _ in range(2000):
        child = crossover(dg, pa, pb, rng)
        validate_sequence(dg, child)
        assert sorted(child.order) == sorted(pa.order)
        assert child.order[0] == dg.source
        assert child.order[-1] == dg.target


def test_incompatible_parents_rejected():
    dg = random_complete_destgraph(6, seed=3)
    pa = make_sequence(dg, [0, 1, 2, 3, 4, 5])
    pb = make_sequence(dg, [0, 2, 1, 3, 5])
    with pytest.raises(ValueError):
        crossover(dg, pa, pb, random.Random(0))


def test_offspring_costs_equal_sequence_cost_exactly():
    # Seeds and offspring are priced left to right (mutate inlines
    # sequence_cost's loop), so an offspring's cost has the same bits as
    # sequence_cost of its order.
    rng = random.Random(29)
    for n in (5, 8, 12):
        dg = random_complete_destgraph(n, seed=400 + n)
        middles = list(range(1, n - 1))
        for _ in range(300):
            rng.shuffle(middles)
            pa = make_sequence(dg, [0, *middles, n - 1])
            rng.shuffle(middles)
            pb = make_sequence(dg, [0, *middles, n - 1])
            for child in (mutate(dg, pa, rng), crossover(dg, pa, pb, rng)):
                assert child.total_cost == sequence_cost(dg, child.order)


# ---------------------------------------------------------------------------
# genetic_refine / solve
# ---------------------------------------------------------------------------

def test_zero_survivors_returns_seed():
    # Destinations on a line: insertion already visits them in line order at
    # the optimal cost 5, so no offspring is strictly cheaper.
    dg = dg_from([[float(abs(i - j)) for j in range(6)] for i in range(6)])
    seed = cheapest_insertion(dg)
    assert seed.order == (0, 1, 2, 3, 4, 5)
    out = genetic_refine(dg, seed, GaConfig(mutation_count=200, generations=2))
    assert out.order == seed.order
    assert out.total_cost == 5.0


def test_ga_never_worse_than_insertion_stage():
    for trial in range(30):
        dg = random_complete_destgraph(7, seed=7000 + trial)
        eci_seq = cheapest_insertion(dg)
        cfg = GaConfig(mutation_count=300, crossover_count=300, generations=4, rng_seed=trial)
        out = genetic_refine(dg, eci_seq, cfg)
        validate_sequence(dg, out)
        assert out.total_cost <= eci_seq.total_cost


def test_ga_batch_optimality_at_least_insertion_batch():
    eci_pairs = []
    ga_pairs = []
    for trial in range(40):
        dg = random_complete_destgraph(7, seed=8000 + trial)
        opt, _ = brute_force_oracle(dg)
        eci_seq = cheapest_insertion(dg)
        cfg = GaConfig(mutation_count=400, crossover_count=400, generations=5, rng_seed=trial)
        ga_seq = genetic_refine(dg, eci_seq, cfg)
        eci_pairs.append((opt, eci_seq.total_cost))
        ga_pairs.append((opt, ga_seq.total_cost))
    assert oracle_stats(ga_pairs).rho_optimality >= oracle_stats(eci_pairs).rho_optimality


def test_solve_line_graph_visits_in_line_order():
    rows = [
        [0.0, 1.0, INF, INF],
        [1.0, 0.0, 1.0, INF],
        [INF, 1.0, 0.0, 1.0],
        [INF, INF, 1.0, 0.0],
    ]
    seq = solve(dg_from(rows), GaConfig(mutation_count=50, crossover_count=50, generations=2))
    assert seq.order == (0, 1, 2, 3)
    assert seq.total_cost == 3.0


def test_incomplete_spur_forces_duplicate():
    dg = spur_graph()
    seq = solve(dg, GaConfig(mutation_count=50, crossover_count=50, generations=2))
    validate_sequence(dg, seq)
    assert seq.order == (0, 1, 2, 1, 3)


def test_unreachable_required_destination_raises():
    rows = [
        [0.0, 1.0, INF],
        [1.0, 0.0, INF],
        [INF, INF, 0.0],
    ]
    with pytest.raises(NoSequenceError):
        solve(dg_from(rows, source=0, target=1), GaConfig(mutation_count=10, crossover_count=10, generations=1))


def test_solve_two_destinations():
    dg = dg_from([[0.0, 4.0], [4.0, 0.0]])
    seq = solve(dg, GaConfig(mutation_count=10, crossover_count=10, generations=1))
    assert seq.order == (0, 1)


def test_solve_acyclic_hub_graph_revisits_hub():
    # Star of destinations around a hub (index 2): every leg passes the hub.
    rows = [
        [0.0, INF, 1.0, INF, INF],
        [INF, 0.0, 1.0, INF, INF],
        [1.0, 1.0, 0.0, 1.0, 1.0],
        [INF, INF, 1.0, 0.0, INF],
        [INF, INF, 1.0, INF, 0.0],
    ]
    dg = dg_from(rows)
    seq = solve(dg, GaConfig(mutation_count=100, crossover_count=100, generations=2))
    validate_sequence(dg, seq)
    assert len(seq.order) != len(set(seq.order))
    counts = {d: list(seq.order).count(d) for d in set(seq.order)}
    assert counts[2] >= 2


def test_solve_detour_fixture_returns_seven():
    dg = triangle_with_detour()
    seq = solve(dg, GaConfig(mutation_count=100, crossover_count=100, generations=2))
    assert seq.total_cost == 7.0
    assert seq.order == (0, 1, 0, 2)


def test_solve_order_batches_report_stats():
    pairs_by_order = {}
    for order in (5, 6, 7, 8, 9):
        pairs = []
        for trial in range(12):
            dg = random_complete_destgraph(order, seed=9000 + 37 * order + trial)
            seq = solve(dg, GaConfig(mutation_count=200, crossover_count=200, generations=3, rng_seed=trial))
            validate_sequence(dg, seq)
            opt, _ = brute_force_oracle(dg)
            assert opt <= seq.total_cost + 1e-9
            pairs.append((opt, seq.total_cost))
        stats = oracle_stats(pairs)
        assert stats.rho_worst <= stats.rho_mean <= 1.0 + 1e-12
        pairs_by_order[order] = stats
    for order, stats in pairs_by_order.items():
        print(f"order {order}: rho_mean={stats.rho_mean:.4f} rho_opt={stats.rho_optimality:.3f}")


def test_solve_bridges_through_optional_pseudo_destination():
    # Destination 1 is reached only through the optional destination 2, which
    # is off the seed path 0-3; the optimum goes 0, 2, 1, 2, 0, 3.
    rows = [
        [0.0, INF, 1.0, 1.0],
        [INF, 0.0, 1.0, INF],
        [1.0, 1.0, 0.0, INF],
        [1.0, INF, INF, 0.0],
    ]
    dg = dg_from(rows, required=[True, True, False, True])
    seq = solve(dg, GaConfig(mutation_count=50, crossover_count=50, generations=2))
    validate_sequence(dg, seq)
    assert seq.total_cost == 5.0
    assert seq.total_cost == brute_force_oracle(dg)[0]


@st.composite
def incomplete_instances(draw):
    n = draw(st.integers(4, 8))
    weight = st.one_of(st.just(INF), st.integers(1, 9).map(float), st.floats(0.1, 10.0))
    theta = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            theta[i, j] = theta[j, i] = draw(weight)
    middle = draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2))
    return theta, [True, *middle, True]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(incomplete_instances())
def test_solve_succeeds_whenever_required_destinations_connect(instance):
    theta, required = instance
    dg = dg_from(theta, required=required)
    cfg = GaConfig(mutation_count=30, crossover_count=30, generations=2)
    if not destinations_connected(theta, required):
        with pytest.raises(NoSequenceError):
            solve(dg, cfg)
        return
    seq = solve(dg, cfg)
    validate_sequence(dg, seq)
    opt, _ = brute_force_oracle(dg)
    assert seq.total_cost >= opt - 1e-9 * opt


# ---------------------------------------------------------------------------
# Metric closure
# ---------------------------------------------------------------------------

def test_metric_closure_matches_scalar_reference():
    rng = random.Random(43)
    for trial in range(110):
        n = 2 + trial % 11
        kind = trial // 11 % 5
        edge_prob = (1.0, 0.4, 0.4, 1.0, 0.7)[kind]
        blocks = 2 if kind == 2 and n >= 4 else 1
        theta = random_theta(rng, n, edge_prob, integer=kind >= 3, blocks=blocks)
        dist, nxt = _metric_closure(dg_from(theta))
        ref_dist, ref_nxt = scalar_metric_closure(theta)
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(nxt, np.array(ref_nxt))


# ---------------------------------------------------------------------------
# brute_force_oracle
# ---------------------------------------------------------------------------

def test_oracle_detour_fixture_uses_closure():
    dg = triangle_with_detour()
    opt, witness = brute_force_oracle(dg)
    assert opt == 7.0
    assert witness.order == (0, 1, 0, 2)


def test_oracle_metric_triangle_direct_path():
    dg = dg_from([[0.0, 1.0, 2.0], [1.0, 0.0, 1.2], [2.0, 1.2, 0.0]])
    opt, witness = brute_force_oracle(dg)
    assert opt == pytest.approx(2.2)
    assert witness.order == (0, 1, 2)


def test_oracle_dominates_solver_on_random_batch():
    for trial in range(40):
        dg = random_incomplete_destgraph(6, seed=11_000 + trial)
        opt, witness = brute_force_oracle(dg)
        validate_sequence(dg, witness)
        seq = solve(dg, GaConfig(mutation_count=150, crossover_count=150, generations=3))
        assert opt <= seq.total_cost + 1e-9


def test_oracle_refuses_large_instances():
    dg = random_complete_destgraph(13, seed=0)
    with pytest.raises(ValueError):
        brute_force_oracle(dg)


def test_hamiltonian_existence_detects_spur():
    assert hamiltonian_path_exists(spur_graph()) is False
    assert hamiltonian_path_exists(random_complete_destgraph(6, seed=1)) is True


# ---------------------------------------------------------------------------
# oracle_stats
# ---------------------------------------------------------------------------

def test_stats_all_optimal_batch():
    stats = oracle_stats([(5.0, 5.0), (7.0, 7.0)])
    assert stats == OracleStats(rho_mean=1.0, rho_std=0.0, rho_optimality=1.0, rho_worst=1.0)


def test_stats_sum_formula_not_mean_of_ratios():
    stats = oracle_stats([(10.0, 10.0), (8.0, 10.0)])
    assert stats.rho_mean == pytest.approx(18.0 / 20.0)
    assert stats.rho_worst == pytest.approx(0.8)
    assert stats.rho_optimality == pytest.approx(0.5)
    assert stats.rho_std == pytest.approx(0.1)


def test_stats_empty_batch_rejected():
    with pytest.raises(ValueError):
        oracle_stats([])


def test_stats_match_independent_recomputation():
    rng = random.Random(3)
    pairs = []
    for _ in range(300):
        solver = rng.uniform(5.0, 10.0)
        oracle = solver * rng.uniform(0.8, 1.0)
        if rng.random() < 0.3:
            oracle = solver
        pairs.append((oracle, solver))
    stats = oracle_stats(pairs)
    ratios = [o / s for o, s in pairs]
    mean_r = sum(ratios) / len(ratios)
    var = sum((r - mean_r) ** 2 for r in ratios) / len(ratios)
    assert stats.rho_mean == pytest.approx(sum(o for o, _ in pairs) / sum(s for _, s in pairs), rel=1e-12)
    assert stats.rho_std == pytest.approx(math.sqrt(var), rel=1e-9)
    assert stats.rho_worst == pytest.approx(min(ratios), rel=1e-12)
    assert stats.rho_optimality == pytest.approx(
        sum(1 for o, s in pairs if abs(o - s) <= 1e-9 * max(o, s)) / len(pairs)
    )


# ---------------------------------------------------------------------------
# Pipeline invariants
# ---------------------------------------------------------------------------

def test_full_pipeline_determinism():
    dg = random_incomplete_destgraph(9, seed=12345)
    cfg = GaConfig(mutation_count=500, crossover_count=500, generations=4, rng_seed=42)
    a = solve(dg, cfg)
    b = solve(dg, cfg)
    assert a == b


def test_every_stage_returns_valid_sequences():
    for trial in range(30):
        raw = random_incomplete_destgraph(8, seed=13_000 + trial)
        validate_sequence(raw, solve(raw, GaConfig(mutation_count=50, crossover_count=50, generations=1)))
        dg = closure_of(raw)
        eci_seq = cheapest_insertion(dg)
        validate_sequence(dg, eci_seq)
        out = genetic_refine(dg, eci_seq, GaConfig(mutation_count=200, crossover_count=200, generations=3))
        validate_sequence(dg, out)
        assert out.total_cost <= eci_seq.total_cost
