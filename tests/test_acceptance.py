"""Acceptance suite: the package's top-level correctness and performance gates.

Each test prints one `ACCEPTANCE <n> ...: PASS/FAIL` line to the terminal.
The Monte Carlo gates (7, 8) run the frozen configs under configs/ and share
their trial records through session fixtures.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from eternal_coloring.audit import hoeffding_check
from eternal_coloring.engine import (
    GameState,
    Player,
    RuleVariant,
    apply_move,
    legal_colors,
    play_game,
)
from eternal_coloring.experiments import ExperimentConfig, run_experiment, win_rates
from eternal_coloring.graph import GnpSpec, Graph, gnp_generate, make_named
from eternal_coloring.partitions import (
    build_color_plan,
    plan_coverage_ok,
    weight_identity_check,
)
from eternal_coloring.solver import solve_eternal
from eternal_coloring.strategies import GreedyFirstFit, RandomLegal

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _verdict(announce, number, name, ok):
    announce(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


# --- shared exact solves (criteria 1, 2, 9) ---------------------------------

SOLVE_TABLE = [
    # (label, graph kind, leaves, k, variant, expected winner)
    ("star5-k1-gboth", 5, 1, RuleVariant.GREEDY_BOTH, Player.BOB),
    ("star5-k2-gboth", 5, 2, RuleVariant.GREEDY_BOTH, Player.BOB),
    ("star5-k3-gboth", 5, 3, RuleVariant.GREEDY_BOTH, Player.ALICE),
    ("star7-k2-gboth", 7, 2, RuleVariant.GREEDY_BOTH, Player.BOB),
    ("star7-k3-gboth", 7, 3, RuleVariant.GREEDY_BOTH, Player.ALICE),
    ("star4-k3-gbob", 4, 3, RuleVariant.GREEDY_BOB, Player.BOB),
    ("star4-k3-gboth", 4, 3, RuleVariant.GREEDY_BOTH, Player.BOB),
    ("star4-k4-gbob", 4, 4, RuleVariant.GREEDY_BOB, Player.ALICE),
]
# reachable positions of each SOLVE_TABLE solve, pinned so that a change to
# the solver's exploration shows even where the verdict survives it
SOLVE_TABLE_STATES = {
    "star5-k1-gboth": 33,
    "star5-k2-gboth": 95,
    "star5-k3-gboth": 471,
    "star7-k2-gboth": 383,
    "star7-k3-gboth": 1911,
    "star4-k3-gbob": 2631,
    "star4-k3-gboth": 417,
    "star4-k4-gbob": 18078,
}


@pytest.fixture(scope="session")
def solved():
    out = {}
    for label, leaves, k, variant, expected in SOLVE_TABLE:
        graph = make_named("star", leaves)
        t0 = time.monotonic()
        res = solve_eternal(graph, k, variant)
        out[label] = (res, expected, time.monotonic() - t0)
    return out


@pytest.fixture(scope="session")
def sweep():
    config = ExperimentConfig.from_file(str(CONFIGS / "bob-odd-sweep.json"))
    t0 = time.monotonic()
    records = run_experiment(config)
    return records, time.monotonic() - t0


@pytest.fixture(scope="session")
def defence():
    config = ExperimentConfig.from_file(str(CONFIGS / "alice-defence.json"))
    t0 = time.monotonic()
    records = run_experiment(config)
    return records, time.monotonic() - t0


def test_criterion_1_star_exact_values(solved, announce):
    ok = all(res.winner is expected for res, expected, _ in solved.values())
    # the forced-greedy-for-both value of the 5-leaf and 7-leaf stars is 3
    ok &= solved["star5-k2-gboth"][0].winner is Player.BOB
    ok &= solved["star5-k3-gboth"][0].winner is Player.ALICE
    ok &= solved["star7-k2-gboth"][0].winner is Player.BOB
    ok &= solved["star7-k3-gboth"][0].winner is Player.ALICE
    # the 4-leaf star defeats Alice at k = 3 under both greedy variants
    ok &= solved["star4-k3-gbob"][0].winner is Player.BOB
    ok &= solved["star4-k3-gboth"][0].winner is Player.BOB
    ok &= all(elapsed < 60 for _, _, elapsed in solved.values())
    _verdict(announce, 1, "star exact values", ok)


def test_solve_table_state_counts(solved):
    assert {label: res.states_explored for label, (res, _, _) in solved.items()} == SOLVE_TABLE_STATES


def test_criterion_2_subgraph_monotonicity_counterexample(solved, announce):
    # forced-greedy-for-both number of the 5-leaf star is 3 (criterion 1);
    # the greedy-Bob number of the 4-leaf star is 4, certified by Bob winning
    # at k=3 and Alice at k=4 -- although the smaller star sits inside the
    # larger one as an induced subgraph
    ok = solved["star5-k3-gboth"][0].winner is Player.ALICE
    ok &= solved["star5-k2-gboth"][0].winner is Player.BOB
    ok &= solved["star4-k3-gbob"][0].winner is Player.BOB
    ok &= solved["star4-k4-gbob"][0].winner is Player.ALICE
    big, small = make_named("star", 5), make_named("star", 4)
    induced = Graph(5, [(u, v) for u, v in big.edges() if u < 5 and v < 5])
    ok &= induced == small
    _verdict(announce, 2, "subgraph monotonicity counterexample", ok)


def test_criterion_3_weight_identity(announce):
    t0 = time.monotonic()
    ok = True
    for k in range(2, 7):
        for l in range(1, 8):
            ok &= all(weight_identity_check(k, l).values())
    ok &= not all(weight_identity_check(2, 3, form="display").values())
    ok &= time.monotonic() - t0 < 10
    _verdict(announce, 3, "partition weight identity", ok)


def test_criterion_4_plan_coverage(announce):
    ok = True
    for k in (2, 3, 4):
        for l in (1, 2, 3):
            for num_colors in (10, 40):
                plan = build_color_plan(l, k, num_colors)
                ok &= plan_coverage_ok(plan)
                ok &= sum(len(plan.intervals[T]) for T in plan.partitions) == num_colors
    _verdict(announce, 4, "colour plan coverage", ok)


def test_criterion_5_hoeffding_grid(announce):
    ok = True
    for n in range(10, 201):
        for i in range(1, 10):  # p = 0.1 .. 0.9
            for j in range(5, 50, 5):  # epsilon = 0.05 .. 0.45
                check = hoeffding_check(n, Fraction(i, 10), Fraction(j, 100))
                # every grid point passes the certified comparison, by a relative margin >= 0.47
                ok &= check["holds"] and check["decided_by"] == "certified"
    _verdict(announce, 5, "exact tails within exponential bound", ok)


def test_criterion_6_engine_invariants(announce):
    pool = [make_named(kind, size) for kind, size in
            [("star", 3), ("star", 5), ("path", 5), ("cycle", 5), ("complete", 4), ("empty", 3)]]
    pool += [gnp_generate(GnpSpec(n, p, s)) for s, (n, p) in
             enumerate((n, p) for n in (4, 6, 7, 9) for p in (0.25, 0.5, 0.75))]
    master = random.Random(2024)
    ok = True
    for playout in range(10**4):
        rng = random.Random(master.randrange(2**62))
        g = rng.choice(pool)
        variant = rng.choice(list(RuleVariant))
        safety = playout % 3 == 0  # a third of the playouts pin k = max degree + 2
        k = g.max_degree() + 2 if safety else rng.randint(1, g.max_degree() + 2)
        state = GameState(g, k, variant)
        seen: set[int] = set()
        current_round = 1
        while state.round <= 3 and ok:
            if state.round != current_round:
                opener = Player.BOB if (g.n % 2 == 1 and state.round % 2 == 0) else Player.ALICE
                ok &= state.to_move is opener  # round-start parity
                ok &= len(seen) == g.n  # a completed round played every vertex once
                seen = set()
                current_round = state.round
            unplayed = [v for v in range(g.n) if not state.is_played(v)]
            if safety:
                ok &= all(legal_colors(state, v) for v in unplayed)  # max-degree+2 never stuck
            v = rng.choice(unplayed)
            legal = legal_colors(state, v)
            if not legal:
                ok &= not safety
                break
            c = rng.choice(sorted(legal))
            ok &= v not in seen  # no vertex plays twice in a round
            ok &= not (g.adj[v] & state.color_pos[c])  # properness of the move
            seen.add(v)
            apply_move(state, v, c)
        if not ok:
            break
    _verdict(announce, 6, "engine invariants over 10^4 playouts", ok)


def test_criterion_7_strategy_gates(sweep, defence, announce):
    sweep_records, sweep_time = sweep
    defence_records, defence_time = defence
    # (a) single-target Bob vs greedy Alice at k = 20: win by end of round 2
    cell = [r for r in sweep_records if r.k == 20]
    bob_fast = sum(1 for r in cell if r.winner == "bob" and r.termination_round <= 2)
    rate_a = bob_fast / len(cell)
    # (b) priority Alice vs single-target Bob at k = 32: 10-round survival
    cell_b = [r for r in defence_records if r.k == 32]
    rate_b = sum(1 for r in cell_b if r.winner == "alice") / len(cell_b)
    ok = len(cell) == 200 and len(cell_b) == 200
    ok &= rate_a >= 0.90 and rate_b >= 0.90
    ok &= sweep_time + defence_time <= 900
    announce(
        f"  criterion 7 detail: bob-by-round-2 rate {rate_a:.3f}, "
        f"alice survival rate {rate_b:.3f}, runtime {sweep_time + defence_time:.0f}s"
    )
    _verdict(announce, 7, "empirical strategy gates", ok)


def test_criterion_8_monotone_win_rate_curve(sweep, announce):
    records, _ = sweep
    rates = win_rates(records)
    ks = sorted(rates)
    ok = ks == list(range(15, 36))
    curve = [rates[k]["bob_win_rate"] for k in ks]
    for lo, hi in zip(curve[1:], curve):
        ok &= lo <= hi + 0.07  # non-increasing up to sampling tolerance
    announce(f"  criterion 8 detail: bob win rate {curve[0]:.2f} at k=15 down to {curve[-1]:.2f} at k=35")
    _verdict(announce, 8, "monotone win-rate curve", ok)


def test_criterion_9_witness_cross_checks(solved, announce):
    ok = True
    for label, leaves, k, variant, expected in SOLVE_TABLE:
        res, _, _ = solved[label]
        graph = make_named("star", leaves)
        baselines = lambda: [GreedyFirstFit(), RandomLegal(0), RandomLegal(1), RandomLegal(2)]
        if res.winner is Player.BOB:
            witness = res.witness_strategy(Player.BOB)
            for alice in baselines():
                out = play_game(graph, k, alice, witness, variant, max_rounds=60)
                ok &= out.winner is Player.BOB and out.fault is None
        else:
            witness = res.witness_strategy(Player.ALICE)
            for bob in baselines():
                out = play_game(graph, k, witness, bob, variant, max_rounds=50)
                ok &= out.winner is Player.ALICE and out.rounds_completed == 50
        if not ok:
            break
    _verdict(announce, 9, "solver/simulation witness cross-checks", ok)
