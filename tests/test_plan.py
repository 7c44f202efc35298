"""The step-4/5 planner on its own, driven from a scripted world: whichever
in-flight task a seeded scheduler lets end next, the plan issues the same
tasks, logs the same events and ends the same way, within the call bound."""

import itertools
import math
import random
import zlib
from collections import Counter
from dataclasses import dataclass

from hypothesis import example, given, settings, strategies as st

from rtlforge.agents import SYNTAX_FIX_CAP
from rtlforge.checkpoints import Score
from rtlforge.pipeline import RAISED, Candidate, RunConfig, SimEval, _Plan, max_llm_calls
from rtlforge.simbridge import VerilogSource

NEVER = SYNTAX_FIX_CAP + 1  # fixes a sample that never compiles would need
TRACE = object()  # stands in for a check trace; the plan only asks whether one exists
SCHEDULES = 6


@dataclass(frozen=True)
class Sample:
    fixes: int  # fix attempts it needs; 0 passes its probe
    raises: int  # the attempt that raises, or -1
    mismatches: int  # of 4 checks, once it compiles
    traced: bool


@dataclass
class World:
    """The outcome of every task the plan may start, fixed by the script
    alone. A trial's outcome is picked from ``trials`` by a hash of its
    request, (round, root, restart), which the lead shares with round 1's
    trial of its root; each is ("raise" | "fail" | mismatches, calls)."""

    config: RunConfig
    samples: list[Sample]
    trials: list[tuple]

    def sample(self, i: int, k: int):
        s = self.samples[i]
        events = [{"event": "llm_call", "tag": f"c{i}/fix{k}"}] if k else []
        if k == s.raises:
            return RAISED, events
        if k < s.fixes:
            return k, events
        source = VerilogSource("dut", f"cand{i}", f"// sample {i}\n")
        score = Score(1 - s.mismatches / 4)
        return Candidate(i + 1, source, score, TRACE if s.traced else None), events

    def trial(self, key: tuple, candidate: Candidate):
        round_index, root, restart = key[1:]
        if candidate.trace is None:
            return None, []
        request = f"r{round_index}/c{root}" + (".restart" if restart else "")
        outcome, calls = self.trials[zlib.crc32(request.encode()) % len(self.trials)]
        events = [{"event": "llm_call", "tag": f"{request}/{j}"} for j in range(calls)]
        if outcome == "raise":
            return RAISED, events
        if outcome == "fail":
            return None, events
        source = VerilogSource("dut", "trial", f"// {request}\n")
        return (source, SimEval(Score(1 - outcome / 4), TRACE, "ok")), events


def drive(world: World, seed: int):
    """Run the plan, letting a seeded scheduler pick which in-flight task
    ends next; checks the per-step properties and returns what must not
    depend on the schedule, with the stop ``check_solve_stop`` held the
    plan to."""
    config, n = world.config, len(world.samples)
    plan = _Plan(config, list(range(1, n + 1)), itertools.count(n + 1))
    rng = random.Random(seed)
    in_flight = plan.start()
    issued, attempts, calls, order, early_trials = Counter(), Counter(), 0, [], []
    trial_keys = set()
    while in_flight:
        if config.agent_mode == "single":
            # One sample at a time, in item order: the shared history stays.
            assert sum(key[0] == "sample" for key, _ in in_flight) <= 1
            assert not plan.parked
        key, candidate = in_flight.pop(rng.randrange(len(in_flight)))
        if key[0] == "sample":
            i = key[1]
            outcome, events = world.sample(i, attempts[i])
            calls += attempts[i] > 0
            attempts[i] += 1
        else:
            outcome, events = world.trial(key, candidate)
            calls += len(events)
        waiting = {i for i in plan.parked if plan.fails[i] >= 2}
        actions = plan.feed(key, outcome, events)
        for action, arg in actions:
            issued[action, arg.id if arg else None] += 1
            if action[0] != "sample":
                # The lead shares round 1's key; a second issue of a key
                # would overwrite the first one's outcome.
                assert action not in trial_keys
                trial_keys.add(action)
                if any(c is None for c in plan.ended):
                    early_trials.append((action, arg, action == plan.lead))
            if action[0] == "sample":
                order.append(action[1])
                # After its first fix, a waiting sample goes on when a round
                # ends, or when no speculative round can start any more.
                if action[1] in waiting:
                    assert key[0] != "sample" or plan.decided == math.inf
        in_flight += actions
    # Every script ends, with every sample decided.
    assert plan.result is not None or plan.error is not None
    assert all(c is not None for c in plan.ended) and not plan.parked
    if config.agent_mode == "single":
        assert order == sorted(order)
    # Every call the world made is logged, discarded or not, however the plan ends.
    assert sum(e["event"] == "llm_call" for e in plan.log) == calls
    per_epoch = 2 * (1 + SYNTAX_FIX_CAP) + 1  # steps 1-3 of the one epoch
    assert per_epoch + 1 + calls <= max_llm_calls(config)
    stop = check_solve_stop(plan, world, attempts, early_trials)
    return (issued, plan.log, plan.result, plan.error), stop


def check_solve_stop(plan: _Plan, world: World, attempts: Counter, early_trials: list):
    """A solve while samples still repair stops each of them at the check it
    marks: check 1 after a sample ended by fix 1 or the lead scores 1,
    check r + 1 after round r does. A round in which a trial raised, the
    lead's included, stops nothing: after its error the samples go on
    freely. ``early_trials`` are the trials, the lead's too, started while
    a sample had not ended, each as (key, candidate, lead). The lead shares
    its key with round 1's trial of its root, so it is told apart by when
    it was issued: before any round, so the plan still holds it as its
    lead once the feed that issued it returns. Returns the stop the plan
    is held to."""
    config, stop = world.config, math.inf
    early = [c for c, k in zip(plan.ended, plan.fails) if k < 1]
    # Samples still repair when the samples ended by fix 1 are known.
    straggling = (
        config.agent_mode == "multi"
        and len(early) < len(plan.ended)
        and all(c is not RAISED for c in early)
    )
    if straggling and any(c.score.value == 1 for c in early):
        stop = 1
    taken = not any(e["event"] == "lead_discarded" for e in plan.log)
    outcomes = [(key, lead, world.trial(key, c)[0]) for key, c, lead in early_trials]
    # Each early trial belongs to a speculative round; the lead to round 1.
    raised = {key[1] for key, _, outcome in outcomes if outcome is RAISED}
    for key, lead, outcome in outcomes:
        if outcome is None or outcome is RAISED or outcome[1].score.value < 1:
            continue
        if key[1] in raised:
            continue
        if not lead:
            stop = min(stop, key[1] + 1)
        elif straggling and len(early) >= config.top_k and taken:
            stop = 1  # round 1 starts early and takes the lead
    assert plan.stop <= stop
    if plan.stop == math.inf:
        return stop
    bound, stop = stop, plan.stop  # the lead may have solved the run too
    solved_rounds = {
        e["round"] for e in plan.log if e["event"] == "round_scores" and 1.0 in e["scores"]
    }
    assert stop - 1 in solved_rounds or (stop == 1 and 1 in solved_rounds)
    for i, k in enumerate(plan.fails):
        assert k <= stop and attempts[i] <= stop + 1
        if k == stop:
            assert plan.ended[i].source.sentinel
    return bound


samples = st.builds(
    Sample,
    fixes=st.sampled_from([0, 0, 1, 1, 2, 3, NEVER]),
    raises=st.sampled_from([-1] * 30 + [0, 1, 2]),
    mismatches=st.integers(0, 4),
    traced=st.sampled_from([True, True, True, False]),
)
trial_outcomes = st.tuples(
    st.sampled_from(["raise", "fail", 0, 1, 2, 3, 4]), st.integers(1, SYNTAX_FIX_CAP + 1)
)


@st.composite
def worlds(draw):
    pool = draw(st.integers(1, 6))
    config = RunConfig(
        pool_size=pool,
        top_k=draw(st.integers(1, pool)),
        max_debug_rounds=draw(st.sampled_from([0, 1, 2, 2, 3, 3])),
        max_tb_regens=0,
        agent_mode=draw(st.sampled_from(["multi", "multi", "single"])),
    )
    drawn = draw(st.lists(samples, min_size=pool, max_size=pool))
    return World(config, drawn, draw(st.lists(trial_outcomes, min_size=1, max_size=6)))


def clean(mismatches, traced=True):
    return Sample(0, -1, mismatches, traced)


def straggler(fixes, mismatches=2, raises=-1):
    return Sample(fixes, raises, mismatches, True)


def pinned(pool, top_k, rounds, samples, trials):
    return World(RunConfig(pool_size=pool, top_k=top_k, max_debug_rounds=rounds), samples, trials)


LEAD_SOLVES = pinned(3, 2, 2, [clean(1), clean(2), straggler(2)], [(0, 1)])


@settings(max_examples=150, deadline=None)
@given(world=worlds())
# The lead solves; the lead is discarded; a straggler displaces round 1;
# round 2 solves and stops a straggler that never compiles at check 3;
# round 1 solves, but another of its trials raises, so it stops nothing;
# a straggler raises once the lead has started, whose calls still count.
@example(LEAD_SOLVES)
@example(pinned(3, 1, 1, [clean(3), straggler(1, 1), straggler(2)], [(2, 1)]))
@example(pinned(4, 2, 2, [clean(1), clean(2), clean(3), straggler(2, 0)], [(2, 1)]))
@example(
    pinned(
        4, 2, 3, [clean(1), clean(2), straggler(1, 3), straggler(NEVER)], [(0, 1), (3, 1), (3, 1)]
    )
)
@example(pinned(4, 2, 1, [clean(2), clean(2), straggler(2, 0), clean(1)], [("raise", 1), (0, 1)]))
@example(pinned(2, 1, 1, [clean(2), straggler(1, raises=1)], [(1, 1)]))
def test_any_arrival_order_gives_the_same_plan(world):
    runs = [drive(world, seed)[0] for seed in range(SCHEDULES)]
    assert all(run == runs[0] for run in runs[1:])


def test_a_solving_lead_is_held_to_stop_at_check_1():
    """The lead's key is round 1's, yet every schedule of the pinned world
    whose lead solves the run still holds the plan to stop the straggler at
    check 1, as the lead's and not as round 1's."""
    assert [drive(LEAD_SOLVES, seed)[1] for seed in range(SCHEDULES)] == [1] * SCHEDULES
