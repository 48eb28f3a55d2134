"""The storage recursion that solves every policy, against LP oracles.

Every program the package builds is one battery on a line of periods, and
a nonanticipativity group couples only through its first purchase, so
``solve_policies`` solves them all by one backward recursion and a
one-dimensional merge per group. These tests hold it to the dense
deterministic equivalent solved by ``bspower.lp`` and by HiGHS, and pin
its rule for tied optima: the lowest next battery level, and hold its
column-major layout to the row-major form kept in
``tests/row_major_recursion.py``, byte for byte.
"""

import contextlib
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402
from row_major_recursion import _storage_recursion as row_major  # noqa: E402

from bspower import lp as lp_mod  # noqa: E402
from bspower.calibration import DEFAULT_CONFIG, calibration_from_config  # noqa: E402
from bspower.cli import main  # noqa: E402
from bspower.scenarios import (  # noqa: E402
    CompositeScenario,
    ScenarioSpace,
    parse_scenario_document,
)
from bspower.stochastic import (  # noqa: E402
    StorageConfig,
    _nonanticipativity_groups,
    _storage_recursion,
    build_deterministic_equivalent,
    solve_policy,
    verify_policy,
)
from bspower.units import Horizon  # noqa: E402

# the recursion's cost and the simplex's agree to rounding: the largest gap
# seen on random programs was 4.6e-15 relative
REL = 1e-12


def lp_cost(horizon, storage, space, **modes):
    program, _ = build_deterministic_equivalent(horizon, storage, space, **modes)
    solution = lp_mod.solve(program)
    assert solution.status == "optimal"
    return solution.objective


def space_of(*scenarios):
    """A space of (label, probability, price, renewable, consumption) rows."""
    return ScenarioSpace(tuple(
        CompositeScenario(label, p, *(np.asarray(trace, dtype=float) for trace in traces))
        for label, p, *traces in scenarios))


# ---------------------------------------------------------------------------
# ties: the lowest next level
# ---------------------------------------------------------------------------

def test_buying_now_or_later_at_one_price_buys_later():
    # storing 100 Wh bought in period 1 costs what buying it in period 2 does
    horizon = Horizon(T=3)
    storage = StorageConfig(capacity=1000.0, initial=0.0, terminal=0.0)
    space = space_of(("only", 1.0, [10, 10, 10], [0, 0, 0], [0, 100, 0]))
    policy = solve_policy(horizon, storage, space)
    assert policy.purchase[0].tolist() == [0.0, 100.0, 0.0]
    assert policy.battery[0].tolist() == [0.0, 0.0, 0.0]
    assert policy.expected_cost == 1.0


def test_storing_a_surplus_or_buying_it_back_free_dumps_it():
    # the surplus of period 1 can be stored, or dumped and bought back at
    # price 0; both cost nothing
    horizon = Horizon(T=3)
    storage = StorageConfig(capacity=1000.0, initial=0.0, terminal=0.0)
    space = space_of(("only", 1.0, [10, 0, 0], [100, 0, 0], [0, 100, 0]))
    policy = solve_policy(horizon, storage, space)
    assert policy.battery[0].tolist() == [0.0, 0.0, 0.0]
    assert policy.excess[0].tolist() == [100.0, 0.0, 0.0]
    assert policy.purchase[0].tolist() == [0.0, 100.0, 0.0]


def test_a_group_whose_members_all_tie_keeps_the_lowest_level():
    # both members may buy in period 1 or 2 at one price. Summed as c_0
    # times the group mass plus the members' terms, the merged slope at
    # level 0 reads -8.7e-19 or -1.7e-18 with these probabilities, by the
    # order of the sum; summed per member as p_w (c_0 + min(g_w, 0)) it is
    # exactly 0, so the group keeps what each member does alone
    horizon = Horizon(T=3)
    storage = StorageConfig(capacity=1000.0, initial=0.0, terminal=0.0)
    space = space_of(("a", 0.9, [10, 10, 10], [0, 0, 0], [0, 100, 0]),
                     ("b", 0.1, [10, 10, 10], [0, 0, 0], [0, 50, 0]))
    ws = solve_policy(horizon, storage, space)
    na = solve_policy(horizon, storage, space, nonanticipative=True)
    assert ws.purchase[:, 0].tolist() == [0.0, 0.0]
    for field in ("purchase", "battery", "excess"):
        assert np.array_equal(getattr(na, field), getattr(ws, field)), field


# ---------------------------------------------------------------------------
# random programs against the simplex on the dense program
# ---------------------------------------------------------------------------

# whole-number prices, 0 included, make tied optima common
prices = st.integers(0, 40).map(float)
supplies = st.integers(0, 300).map(float)
demands = st.integers(0, 400).map(float)


@st.composite
def programs(draw):
    """Horizon, storage and a space of 1-3 scenarios that may share period 1.

    Capacity may be 0 or below the drawn endpoint levels, which are then
    clamped to it as the battery sweep clamps them; the loss cost is 0 half
    of the time, so ties are not broken by holding costs.
    """
    T = draw(st.integers(2, 8))
    capacity = float(draw(st.one_of(st.just(0), st.integers(1, 3000))))
    initial, terminal = (min(float(draw(st.integers(0, 3000))), capacity) for _ in "it")
    storage = StorageConfig(
        capacity=capacity, initial=initial, terminal=terminal,
        self_discharge=draw(st.floats(0.0, 0.1)),
        loss_cost_coeff=draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-4))))
    first = draw(st.tuples(prices, supplies, demands))
    rows = []
    for w in range(draw(st.integers(1, 3))):
        later = [draw(st.lists(kind, min_size=T - 1, max_size=T - 1))
                 for kind in (prices, supplies, demands)]
        start = first if draw(st.booleans()) else draw(st.tuples(prices, supplies, demands))
        rows.append([[v, *rest] for v, rest in zip(start, later)])
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=len(rows),
                                     max_size=len(rows))), dtype=float)
    space = space_of(*((f"w{w}", float(p), *traces)
                       for w, (p, traces) in enumerate(zip(weights / weights.sum(), rows))))
    return Horizon(T=T), storage, space


@settings(max_examples=150, deadline=None, database=None, print_blob=True)
@given(program=programs(), nonanticipative=st.booleans(), physical=st.booleans())
def test_random_programs_match_the_simplex(program, nonanticipative, physical):
    horizon, storage, space = program
    modes = {"nonanticipative": nonanticipative, "physical_discharge": physical}
    policy = solve_policy(horizon, storage, space, **modes)
    assert verify_policy(policy, horizon, space) == []
    want = lp_cost(horizon, storage, space, **modes)
    assert abs(policy.expected_cost - want) <= REL * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# one large group: the coupled program the dense LP could not afford
# ---------------------------------------------------------------------------

def cliff_instance(*sizes):
    """The benchmark's generated scenario file at seed 3 with every
    marginal's period-1 value made its first scenario's and the period-1
    price 1.0, so the whole space is one nonanticipativity group."""
    from test_reference_digests import WORKLOADS

    doc = WORKLOADS.storage_document(3, *sizes)
    for kind in ("price", "renewable", "consumption"):
        for scenario in doc[kind]["scenarios"]:
            scenario["values"][0] = doc[kind]["scenarios"][0]["values"][0]
    for scenario in doc["price"]["scenarios"]:
        scenario["values"][0] = 1.0
    cal = calibration_from_config(DEFAULT_CONFIG, parse_scenario_document(doc))
    return cal.horizon, cal.storage, cal.scenario_space(0)


def highs_cost(horizon, storage, space, physical):
    """The group's coupled program solved by HiGHS, assembled sparse from
    each scenario's own deterministic equivalent, weighted by its
    probability, plus one row per member after the first equating its
    first purchase with the first member's."""
    from scipy.optimize import linprog
    from scipy.sparse import block_diag, coo_array, csr_array, vstack

    blocks = [build_deterministic_equivalent(
        horizon, storage, space_of((label, 1.0, s.price, s.renewable, s.consumption)),
        physical_discharge=physical)[0]
        for label, s in zip(space.labels, space.scenarios)]
    n, S = blocks[0].n_vars, len(blocks)
    coupling = coo_array((np.r_[np.ones(S - 1), -np.ones(S - 1)],
                          (np.r_[np.arange(S - 1), np.arange(S - 1)],
                           np.r_[np.zeros(S - 1, dtype=int), n * np.arange(1, S)])),
                         shape=(S - 1, n * S))
    a_eq = vstack([block_diag([csr_array(b.a_eq) for b in blocks]), coupling]).tocsr()
    c = np.concatenate([p * b.c for p, b in zip(space.probabilities, blocks)])
    scale = 1.0 / np.abs(c).max()
    res = linprog(c * scale, A_eq=a_eq,
                  b_eq=np.concatenate([*(b.b_eq for b in blocks), np.zeros(S - 1)]),
                  bounds=np.column_stack([np.concatenate([b.lower for b in blocks]),
                                          np.concatenate([b.upper for b in blocks])]),
                  method="highs", options={"dual_feasibility_tolerance": 1e-10,
                                           "primal_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return res.fun / scale


@pytest.mark.parametrize("physical", [False, True], ids=("book", "physical"))
@pytest.mark.parametrize("sizes, book_cost", [((2, 2, 5), 58.1130207983152),
                                               ((5, 4, 5), 61.78647713143645)],
                         ids=("S20", "S100"))
def test_one_group_of_the_whole_space_matches_highs(sizes, book_cost, physical):
    pytest.importorskip("scipy")
    horizon, storage, space = cliff_instance(*sizes)
    assert len(space) == np.prod(sizes)
    assert len(_nonanticipativity_groups(space, True)) == 1
    tracemalloc.start()
    try:
        policy = solve_policy(horizon, storage, space, True, physical)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense coupled program of S=100 took 457 MB
    assert peak < 4 * 2**20
    assert verify_policy(policy, horizon, space) == []
    assert len(set(policy.purchase[:, 0])) == 1
    want = highs_cost(horizon, storage, space, physical)
    assert policy.expected_cost == pytest.approx(want, rel=1e-9)
    if not physical:
        assert policy.expected_cost == pytest.approx(book_cost, rel=REL)


# ---------------------------------------------------------------------------
# the column-major layout against the row-major form
# ---------------------------------------------------------------------------

def assert_same_schedules(*args):
    """The shipped recursion and the row-major form return byte-equal
    purchase, battery and excess schedules for one call's arguments."""
    with np.errstate(over="ignore", invalid="ignore"):
        want, got = row_major(*args), _storage_recursion(*args)
    for name, a, b in zip(("purchase", "battery", "excess"), want, got):
        assert a.tobytes() == b.tobytes(), name


@st.composite
def batches(draw):
    """The arguments of one recursion call: 1-40 programs of 2-14 periods.

    Whole-number prices and net loads make tied optima common; capacity 0
    may sit beside 1e300 in one call, so columns hold very different knot
    counts; retention may be below 1. Some rows may be scaled so that
    their net loads reach 1.6e308 and the images of their knots overflow,
    and one group of two or more programs may share its first period and
    its battery.
    """
    P, T = draw(st.integers(1, 40)), draw(st.integers(2, 14))

    def matrix(lo, hi):
        return draw(hnp.arrays(float, (P, T), elements=st.integers(lo, hi).map(float)))

    def vector(elements):
        return draw(hnp.arrays(float, P, elements=elements))

    price, net_load = matrix(0, 40), matrix(-400, 400)
    capacity = vector(st.sampled_from([0.0, 1.0, 300.0, 1000.0, 3000.0, 1e300]))
    keep = vector(st.sampled_from([0.5, 0.999, 1.0]))
    loss = vector(st.sampled_from([0.0, 1e-5, 1e-3]))
    initial, terminal = (np.minimum(vector(st.integers(0, 3000).map(float)), capacity)
                         for _ in "it")
    probabilities = vector(st.integers(1, 9).map(float))
    probabilities /= probabilities.sum()
    scaled = draw(hnp.arrays(bool, P))
    scale = draw(st.sampled_from([1e100, 1e300, 4e305]))
    price[scaled] *= scale
    net_load[scaled] *= scale
    groups = []
    if P > 1 and draw(st.booleans()):
        members = np.array(sorted(draw(st.sets(st.integers(0, P - 1), min_size=2))))
        lead = members[0]
        price[members, 0], net_load[members, 0] = price[lead, 0], net_load[lead, 0]
        for shared in (keep, loss, capacity, initial, terminal):
            shared[members] = shared[lead]
        groups = [members]
    return (price, net_load, keep, loss, capacity, initial, terminal, probabilities,
            groups)


@settings(max_examples=150, deadline=None, database=None, print_blob=True)
@given(args=batches())
def test_random_batches_match_the_row_major_form(args):
    assert_same_schedules(*args)


def test_the_storage_sweep_call_matches_the_row_major_form(tmp_path, recursion_calls):
    # the benchmark's storage sweep at seed 1: 80 scenarios x 16 cells
    from test_reference_digests import WORKLOADS

    storage = WORKLOADS.write_storage_file(tmp_path, 1)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "battery", "--scenarios", str(storage), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 0
    call, = recursion_calls
    assert len(call.price) == 80 * 16
    args = [getattr(call, field.name) for field in dataclasses.fields(call)]
    assert_same_schedules(*args)
    # and it holds no more memory at once than the row-major form
    peaks = []
    for recursion in (row_major, _storage_recursion):
        tracemalloc.start()
        try:
            recursion(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]


# ---------------------------------------------------------------------------
# edge cases of each period's run of new knots, against the row-major form
# ---------------------------------------------------------------------------

def call(price, net_load, capacity, initial, terminal, keep, loss=0.0, groups=()):
    """The arguments of one recursion call: one program per row of price and
    net load; every other argument is one value for all programs or one per
    program; equal probabilities."""
    price, net_load = np.array(price, dtype=float), np.array(net_load, dtype=float)
    P = len(price)

    def each(value):
        return np.broadcast_to(np.asarray(value, dtype=float), (P,)).copy()

    return (price, net_load, each(keep), each(loss), each(capacity), each(initial),
            each(terminal), np.full(P, 1.0 / P), [np.array(g) for g in groups])


def surplus_fills_the_battery(keep):
    # the period-2 surplus leaves the image of every knot of W_3 at or below
    # 0: z0 equals capacity, exceeds it, or (last row, a non-empty run)
    # falls just short. Period 1 then builds W_1 from that W_2
    return call([[10, 28, 20, 30, 40]] * 3,
                [[100, 257, -300, 100, 100], [100, 257, -500, 100, 100],
                 [100, 257, -299, 100, 100]],
                300.0, 0.0, 0.0, keep, loss=1e-5)


def capacity_cuts_the_run(keep):
    # falling prices make every stored Wh worth holding, so U_1 is the
    # highest knot; its image lies past capacity, the lower images do not.
    # The last program's period-0 surplus would fill the battery past
    # capacity if U_0 were that image
    return call([[50, 30, 20, 10, 10]] * 3,
                [[400] * 5, [250, 400, 400, 400, 400], [-1500, 400, 400, 400, 400]],
                1000.0, 0.0, 0.0, keep)


def prices_tie(keep):
    # price_{t+1} = price_t / keep, so keep c_{t+1} equals c_t to the bit and
    # a slope of W_{t+1} ties -c_t; zero prices tie as well, and the first two
    # programs form a group
    rising = [10.0 / keep**t for t in range(6)]
    return call([rising, rising, [0.0] * 6, [0, 10, 0, 10, 0, 10]],
                [[100, 200, -50, 300, 0, 0], [100, -150, 400, 250, 0, 0],
                 [100, 200, -50, 300, 0, 0], [-200, 300, -100, 200, 50, 0]],
                1000.0, 200.0, 100.0, keep, groups=[[0, 1]])


def no_room_beside_no_bound(keep):
    # capacity 0 keeps one knot a period; capacity inf never cuts a run
    return call([[12, 30, 8, 25, 40, 5, 18]] * 4,
                [[300, -200, 150, 400, -100, 250, 0], [300, -200, 150, 400, -100, 250, 0],
                 [-100, 500, 300, -400, 200, 100, 0], [-100, 500, 300, -400, 200, 100, 0]],
                [0.0, np.inf, 0.0, np.inf], [0.0, 500.0, 0.0, 700.0],
                [0.0, 200.0, 0.0, 0.0], keep, loss=1e-5)


@pytest.mark.parametrize("keep", [1.0, 0.5], ids=("book", "physical"))
@pytest.mark.parametrize("case", [surplus_fills_the_battery, capacity_cuts_the_run,
                                  prices_tie, no_room_beside_no_bound],
                         ids=lambda case: case.__name__)
def test_edge_cases_of_the_run_match_the_row_major_form(case, keep):
    assert_same_schedules(*case(keep))
