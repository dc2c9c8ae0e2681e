"""``classify_many`` maps a segment at a time, bit for bit as map by map.

``systems.map_rows`` maps a closed-form block up to the next checkpoint
with no test per map, tests the sup of the segment's rows once, and
replays the first failing map through ``tangent_columns``. The reference
here is the orbit loop that maps and tests every iterate: each start must
get the same verdict, iteration count, diagnostics, cycle points,
residual and rho bits, and a failing start the same error.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from monotone_lab import (
    ClassifyBudget,
    build_experiment,
    classify_many,
    cubic_map,
    load_config,
    logistic_map,
    parabolic_system,
    sample_initial,
)
from monotone_lab import asymptotics
from monotone_lab.asymptotics import VERDICTS
from monotone_lab.errors import EscapeError, NumericalError
from monotone_lab.systems import (
    SETTLE_SPAN,
    _maps_to_itself,
    map_rows,
    tangent_columns,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BUDGETS = [None, ClassifyBudget(max_iterations=100, p_max=8, check_every=5)]


def every_map(system, starts, budget):
    """``classify_many`` on one block of at most BLOCK_WIDTH starts, one
    ``tangent_columns`` call and one escape test per map; each checkpoint is
    graded by ``classify_many``'s own grading into its arrays over the
    columns."""
    budget = (budget if budget is not None else ClassifyBudget()).resolve(system)
    block = np.array(starts, dtype=float)
    length = 3 * budget.p_max
    window = np.empty((length,) + block.shape)
    window[0] = block
    out = asymptotics._Columns(budget, system.grid, block.shape[1])
    live, iters = np.arange(block.shape[1]), 0
    with np.errstate(over="ignore", invalid="ignore"):
        while iters < budget.max_iterations and live.size:
            block, _, failures = tangent_columns(system, block, iteration=iters + 1)
            iters += 1
            for j, exc in sorted(failures.items()):
                if not isinstance(exc, EscapeError):
                    raise exc
                out.verdict[live[j]] = VERDICTS.index("escaped")
                out.iterations[live[j]] = iters - 1
                out.escape[live[j]] = f"orbit escaped at iteration {iters}: {exc}"
            gone = list(failures)
            live, block = np.delete(live, gone), np.delete(block, gone, 1)
            window = np.delete(window, gone, 2)
            if not live.size:
                break
            window[iters % length] = block
            if iters >= length - 1 and (
                iters % budget.check_every == 0 or iters == budget.max_iterations
            ):
                tails = window[(iters + 1 + np.arange(length)) % length]
                resolved = asymptotics._grade_checkpoint(system, tails, budget, out, live,
                                                         iters)
                live, block = np.delete(live, resolved), np.delete(block, resolved, 1)
                window = np.delete(window, resolved, 2)
    out.iterations[live] = iters
    return [out.classification(j) for j in range(out.verdict.size)]


def outcome(classify, system, starts, budget):
    """Everything the classifications report, floats as their bits, or the
    type and message of the error raised."""
    try:
        got = classify(system, starts, budget)
    except (EscapeError, NumericalError) as exc:
        return type(exc).__name__, str(exc)
    out = []
    for cls in got:
        rec = cls.cycle
        cycle = None if rec is None else (
            rec.period, rec.residual.hex(), rec.rho.hex(), rec.rho_method,
            rec.newton_converged, rec.newton_iterations, rec.points.tobytes(),
        )
        out.append((cls.verdict, cls.iterations_used, cls.diagnostics, cycle))
    return out


def same_as_every_map(system, starts, budget=None):
    got = outcome(classify_many, system, starts, budget)
    want = []
    for lo in range(0, starts.shape[1], 128):  # classify_many's blocks
        part = outcome(every_map, system, starts[:, lo:lo + 128], budget)
        if isinstance(part, tuple):
            want = part
            break
        want += part
    assert got == want
    return got


@pytest.mark.parametrize("budget", BUDGETS, ids=["default", "short"])
@pytest.mark.parametrize("gain", [0.1, 0.9, 1.9, 2.2])
def test_cubic_segments_match_every_map(gain, budget):
    starts = np.linspace(-2.99, 2.99, 200)[None, :]
    got = same_as_every_map(cubic_map(gain), starts, budget)
    # gain 0.1 settles on +-1, 0.9 escapes from the box edges, 1.9 leaves
    # the rest oscillating, 2.2 throws every start out
    escaped = sum(verdict == "escaped" for verdict, *_ in got)
    assert escaped == {0.1: 0, 0.9: 80, 1.9: 104, 2.2: 200}[gain]


@pytest.mark.parametrize("name", ["cubic_line", "logistic", "linear_cooperative"])
@pytest.mark.parametrize("budget", BUDGETS, ids=["config", "short"])
def test_config_starts_match_every_map(name, budget):
    exp = build_experiment(load_config(CONFIGS / f"{name}.cfg"))
    system = exp.system
    rng = np.random.default_rng(26)
    starts = rng.uniform(-1.9, 1.9, (system.n, 150)) * system.kappa
    same_as_every_map(system, starts, budget if budget is not None else exp.budget)


def test_failing_starts_raise_as_every_map():
    cubic = cubic_map(0.1)
    # nan and 1e200 fail at map 1, whatever escapes beside them
    for bad in (np.nan, 1e200, -np.inf):
        got = same_as_every_map(cubic, np.array([[0.3, 2.9, bad, -0.5]]))
        assert got == ("NumericalError", "map produced a non-finite value")
    # a box so wide that 5.31e34 maps inside it and then overflows, at
    # map 2, one map after its neighbour escapes at 5e50
    wide = cubic_map(0.1, kappa=1e103)
    got = same_as_every_map(wide, np.array([[0.3, 5e50, 5.31e34]]))
    assert got == ("NumericalError", "map produced a non-finite value")
    got = same_as_every_map(wide, np.array([[0.3, 5e50]]))
    assert got[1][:2] == ("escaped", 0)


def test_map_rows_stops_at_the_first_failing_map():
    cubic = cubic_map(1.9)
    block = np.array([[0.3, 2.5, -0.4]])
    rows = np.full((12, 1, 3), -7.0)
    slots = np.arange(3, 12)
    done, failures = map_rows(cubic, block, rows, slots, iteration=5)
    # the reference: one map at a time from the same block
    u, k = block, 0
    while True:
        u, _, want = tangent_columns(cubic, u, iteration=5 + k)
        assert rows[slots[k]].tobytes() == u.tobytes()
        if want:
            break
        k += 1
    assert done == k and list(failures) == list(want) == [1]
    assert [str(exc) for exc in failures.values()] == [str(exc) for exc in want.values()]
    assert failures[1].iteration == 5 + k
    assert (rows[:3] == -7.0).all()  # rows outside the slots are left alone


def map_by_map(system, block, rows, slots, iteration=0):
    """``map_rows`` with one ``tangent_columns`` call and one test per map."""
    u = block
    for k, slot in enumerate(slots):
        rows[slot], _, failures = tangent_columns(system, u, iteration=iteration + k)
        if failures:
            return k, failures
        u = rows[slot]
    return len(slots), {}


def same_rows_as_map_by_map(system, block, calls, length=400):
    """Run ``map_rows`` and the reference on the same block into fresh rows;
    returns (done, failures, maps) of ``map_rows``, counting the maps in
    the ``value_calls`` list ``calls``."""
    slots = (np.arange(length) + 3) % length
    rows, want = np.full((2, length) + block.shape, -7.0)
    done_want, failures_want = map_by_map(system, block, want, slots, 1)
    calls.clear()
    done, failures = map_rows(system, block.copy(), rows, slots, 1)
    maps = len(calls)
    assert done == done_want and list(failures) == list(failures_want)
    assert [str(exc) for exc in failures.values()] == [
        str(exc) for exc in failures_want.values()]
    assert rows[slots[:done + bool(failures)]].tobytes() == want[
        slots[:done + bool(failures)]].tobytes()
    return done, failures, maps


def test_map_rows_fills_a_settled_closed_form_segment(value_calls):
    # the line of cubic_line.cfg, whose starts settle on +-1 and 0, plus
    # zero columns: the block maps to itself bit for bit inside the segment
    exp = build_experiment(load_config(CONFIGS / "cubic_line.cfg"))
    system, sampler = exp.system, exp.sampler
    line = [sample_initial(sampler, i, system.grid).values for i in range(sampler.resolution)]
    block = np.concatenate([np.stack(line, axis=1), np.zeros((1, 3))], axis=1)
    done, failures, calls = same_rows_as_map_by_map(system, block, value_calls)
    assert (done, failures) == (400, {})
    assert calls < 400 and calls % SETTLE_SPAN == 0
    # map ``calls`` is the first tested one whose input maps to itself
    for k, settled in ((calls, True), (calls - SETTLE_SPAN, False)):
        before = slot_rows(system, block, k - 1)
        assert _maps_to_itself(before, slot_rows(system, before, 1)) == settled


def slot_rows(system, block, k):
    """The k-th iterate of ``block``, map by map."""
    for _ in range(k):
        block = tangent_columns(system, block)[0]
    return block


def test_a_two_cycle_block_maps_every_row(value_calls):
    # on the logistic 2-cycle F(x) == x never holds bit for bit, only
    # F(F(x)) == x: no segment stops early
    system = logistic_map(3.2)
    block = np.array([[0.3, 0.5, 0.7, 0.9]])
    done, failures, calls = same_rows_as_map_by_map(system, block, value_calls)
    assert (done, failures, calls) == (400, {}, 400)
    last = slot_rows(system, block, 400)
    assert _maps_to_itself(last, slot_rows(system, last, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_a_failing_start_beside_settled_columns_fails_at_its_map(bad, value_calls):
    # 0, 1 and -1 map to themselves from the first map on, the bad start
    # fails at that map: the sup test finds it in the first row
    done, failures, _ = same_rows_as_map_by_map(
        cubic_map(0.1), np.array([[0.0, 1.0, -1.0, bad]]), value_calls)
    assert done == 0 and list(failures) == [3]
    assert str(failures[3]) == "map produced a non-finite value"
    # and a late overflow beside them still fails at its map, two
    done, failures, _ = same_rows_as_map_by_map(
        cubic_map(0.1, kappa=1e103), np.array([[0.0, 1.0, -1.0, 5.31e34]]), value_calls)
    assert done == 1 and list(failures) == [3]


def test_map_rows_fills_a_settled_parabolic_segment():
    system = parabolic_system("dirichlet", 8, 15.0)
    rows = np.full((6, 8, 2), np.nan)
    slots = np.array([4, 5, 0, 1])
    done, failures = map_rows(system, np.zeros((8, 2)), rows, slots)
    assert (done, failures) == (4, {})
    assert (rows[slots] == 0.0).all() and np.isnan(rows[2:4]).all()


def test_a_checkpoint_holds_at_most_three_windows():
    # the window, its rows in iterate order for the scan and one gap
    # difference: the sup test and the scan take their abs in place, and
    # the scan reads slices of the rows
    system, budget = cubic_map(0.1), ClassifyBudget(max_iterations=2048, p_max=512)
    starts = np.linspace(-1.4, 1.4, 128)[None, :]
    window = 3 * budget.p_max * system.n * starts.shape[1] * 8
    classify_many(system, starts, budget)  # warm
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        got = classify_many(system, starts, budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert {cls.verdict for cls in got} == {"stable_cycle"}
    assert peak <= 3 * window
