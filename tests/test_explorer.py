"""Explorer tests: enabled-step enumeration, step purity, exhaustive search
verdicts, seeded walks, and trace replay."""

from __future__ import annotations

import random
from array import array
from operator import setitem

import pytest
from hypothesis import given, settings, strategies as st

from cells import all_tasks_terminal, core_cell, run_queue, task_cell
from schedcheck.explorer import (
    Limits,
    ReplayError,
    VERDICT_DEADLOCK,
    _apply,
    check_invariants,
    enabled,
    explore,
    random_walk,
    replay,
)
from schedcheck.model import (
    C_CURRENT,
    C_DECISION,
    C_IPI_PHASE,
    C_PENDING_IPI,
    FAULTS,
    IN_FLIGHT,
    PENDING,
    PREEMPTED,
    QUEUE,
    QUEUE_LEN,
    RUNNABLE,
    RUNNING,
    SPAWN_CURSOR,
    T_IN_QUEUE,
    T_MONITOR,
    T_NEED_SCHED,
    T_PREEMPTIONS,
    T_SAVED,
    T_STATE,
    TERMINATED,
    WAITING,
    KernelConfig,
    TaskKind,
    initial_state,
    snapshot,
    symmetric_key,
)

H = TaskKind.HEAVY
L = TaskKind.LIGHT

LOST_WAKEUP = KernelConfig(
    worker_count=1,
    task_plan=(H,),
    fix_wait_need_sched=False,
    max_waits_per_task=1,
    max_preemptions_per_task=0,
)
LOST_WAKEUP_FIXED = KernelConfig(
    worker_count=1,
    task_plan=(H,),
    fix_wait_need_sched=True,
    max_waits_per_task=1,
    max_preemptions_per_task=0,
)
PREEMPT_BUG = KernelConfig(
    worker_count=2,
    task_plan=(H, L),
    fix_preempt_need_sched=False,
    max_waits_per_task=0,
    max_preemptions_per_task=1,
)
CLEAN_SMALL = KernelConfig(
    worker_count=2,
    task_plan=(H, L),
    max_waits_per_task=1,
    max_preemptions_per_task=1,
)


class TestEnabled:
    def test_initial_state_offers_worker_steps_only(self):
        state = initial_state(KernelConfig(worker_count=2, task_plan=(H,)))
        kinds = {kind for kind, _, _ in enabled(state)}
        assert kinds == {"Worker"}

    def test_pending_timer_and_ipi_both_enabled(self):
        state = initial_state(
            KernelConfig(worker_count=2, task_plan=(H,), max_preemptions_per_task=1)
        )
        state.get_next_task(1)
        state.poll_step(1)  # compute
        state.poll_step(1)  # register timer
        state.preempt_decide(1)
        state.send_ipi()
        steps = enabled(state)
        kinds = {(kind, core) for kind, core, _ in steps}
        assert ("PrimaryTimer", None) in kinds
        assert ("Worker", 1) in kinds  # the IPI handler step

    def test_quiescent_terminal_state_has_no_steps(self):
        state = initial_state(KernelConfig(worker_count=1, task_plan=(L,)))
        state.get_next_task(1)
        for _ in range(3):
            state.poll_step(1)
        assert state.buf[task_cell(state, 0, T_STATE)] == TERMINATED
        assert enabled(state) == []

    def test_ordering_is_processes_then_variants(self):
        state = initial_state(
            KernelConfig(worker_count=2, task_plan=(H, H), max_preemptions_per_task=1)
        )
        state.get_next_task(1)
        state.spawn_next()
        state.get_next_task(2)
        for core in (1, 2):
            state.poll_step(core)
            state.poll_step(core)  # both registered: two timer variants
        assert enabled(state) == [
            ("PrimaryTimer", None, 0),
            ("PrimaryTimer", None, 1),
            ("PrimaryPreempter", None, 0),
            ("PrimaryPreempter", None, 1),
            ("Worker", 1, 0),
            ("Worker", 2, 0),
        ]

    def test_pending_ipi_masks_other_worker_steps(self):
        state = initial_state(
            KernelConfig(worker_count=1, task_plan=(H,), max_waits_per_task=0,
                         max_preemptions_per_task=1)
        )
        state.get_next_task(1)
        state.preempt_decide(1)
        state.send_ipi()
        worker_steps = [s for s in enabled(state) if s[0] == "Worker"]
        assert len(worker_steps) == 1  # only the handler, not the poll


class TestStep:
    def test_step_is_pure(self):
        state = initial_state(CLEAN_SMALL)
        before = snapshot(state)
        choice = enabled(state)[0]
        succ1 = _apply(state, choice)
        succ2 = _apply(state, choice)
        assert snapshot(state) == before
        assert snapshot(succ1) == snapshot(succ2)

    def test_worker_fetch_starts_the_task(self):
        state = initial_state(KernelConfig(worker_count=1, task_plan=(H,)))
        (choice,) = enabled(state)
        succ = _apply(state, choice)
        assert succ.buf[task_cell(succ, 0, T_STATE)] == RUNNING
        assert succ.buf[core_cell(succ, 1, C_CURRENT)] == 0

    def test_disabled_choice_is_not_offered(self):
        # replay refuses it (TestReplay.test_mismatched_trace_reports_first_divergence)
        state = initial_state(KernelConfig(worker_count=2, task_plan=(H,)))
        bogus = ("PrimaryTimer", None, 0)
        assert bogus not in enabled(state)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**30))
    def test_random_paths_keep_originals_intact(self, seed):
        import random

        rng = random.Random(seed)
        state = initial_state(CLEAN_SMALL)
        for _ in range(12):
            options = enabled(state)
            if not options:
                break
            before = snapshot(state)
            succ = _apply(state, options[rng.randrange(len(options))])
            assert snapshot(state) == before
            state = succ


class TestExplore:
    def test_clean_config_has_no_violations(self):
        report = explore(CLEAN_SMALL)
        assert report.violations == []
        assert report.all_paths_terminal_ok is True
        assert report.incomplete is False
        assert report.states_visited > 0

    def test_lost_wakeup_deadlock_found(self):
        report = explore(LOST_WAKEUP)
        verdicts = {t.verdict for t in report.violations}
        assert verdicts == {VERDICT_DEADLOCK}
        trace = report.violations[0]
        final = dict(trace.final_task_states)
        assert final[0].startswith("Waiting")
        assert trace.final_queue == ()

    def test_lost_wakeup_trace_shows_the_window(self):
        report = explore(LOST_WAKEUP)
        labels = [a.label for a in report.violations[0].annotations]
        register = next(i for i, l in enumerate(labels) if "registers timer" in l)
        fire = next(i for i, l in enumerate(labels) if "timer fire" in l)
        waiting = next(i for i, l in enumerate(labels) if "enters waiting" in l)
        assert register < fire < waiting

    def test_lost_wakeup_fix_closes_everything(self):
        report = explore(LOST_WAKEUP_FIXED)
        assert report.violations == []
        assert report.all_paths_terminal_ok is True

    def test_preempt_bug_signature(self):
        report = explore(PREEMPT_BUG, Limits(max_violations=200))
        pairs = {
            (str(t.monitor_error.current_state), str(t.monitor_error.symbol))
            for t in report.violations
            if t.monitor_error is not None
        }
        assert ("Running(false)", "Preempt") in pairs

    def test_preempt_fix_closes_everything(self):
        fixed = KernelConfig(
            worker_count=2, task_plan=(H, L), max_waits_per_task=0,
            max_preemptions_per_task=1,
        )
        report = explore(fixed)
        assert report.violations == []

    def test_reports_are_reproducible(self):
        a = explore(CLEAN_SMALL)
        b = explore(CLEAN_SMALL)
        assert (a.states_visited, a.transitions_taken, a.max_depth) == (
            b.states_visited,
            b.transitions_taken,
            b.max_depth,
        )

    def test_first_violation_is_deterministic(self):
        a = explore(LOST_WAKEUP).violations[0]
        b = explore(LOST_WAKEUP).violations[0]
        assert a.steps == b.steps
        assert a.verdict == b.verdict

    def test_state_budget_flags_incomplete(self):
        report = explore(KernelConfig(), Limits(max_states=10))
        assert report.incomplete is True
        assert report.all_paths_terminal_ok is False
        assert (report.states_visited, report.transitions_taken) == (10, 31)

    @pytest.mark.parametrize("max_states,pinned", [
        (1, (1, 2, 0, True)),
        (100, (100, 295, 0, True)),
        (1000, (1000, 2981, 0, True)),
    ])
    def test_state_budget_counters_are_pinned(self, max_states, pinned):
        # (states, transitions, violations, incomplete) of H,H/2 under a
        # state budget, in BFS order: transitions past the budget are still
        # taken
        report = explore(KernelConfig(worker_count=2, task_plan=(H, H)),
                         Limits(max_states=max_states))
        assert (report.states_visited, report.transitions_taken,
                len(report.violations), report.incomplete) == pinned

    def test_depth_budget_flags_incomplete(self):
        report = explore(KernelConfig(), Limits(max_depth=3))
        assert report.incomplete is True
        assert report.incomplete_reason == "max_depth"

    @pytest.mark.parametrize("config,unexpanded", [
        (KernelConfig(), True), (LOST_WAKEUP, False), (PREEMPT_BUG, False),
    ], ids=["clean", "lost-wakeup", "preempt-bug"])
    def test_depth_budget_at_the_deepest_level_is_complete(self, config, unexpanded):
        # the states at the limit lead only to states already visited, so
        # the cut is not real; the probes of their successors are not
        # counted. In the buggy configs every deepest state is a leaf.
        full = explore(config, Limits(max_violations=10**9))
        report = explore(config, Limits(max_depth=full.max_depth, max_violations=10**9))
        assert not report.incomplete and report.incomplete_reason is None
        assert (report.states_visited, report.max_depth) == (full.states_visited, full.max_depth)
        assert (report.transitions_taken < full.transitions_taken) == unexpanded
        assert [t.steps for t in report.violations] == [t.steps for t in full.violations]

    @pytest.mark.parametrize("max_states,reason", [(27, "max_depth"), (26, "max_states")])
    def test_incomplete_reason_is_the_first_real_cut(self, max_states, reason):
        # 26 states lie within 4 steps: a 27th state is one at the depth
        # limit 5, cut before the state budget cuts the next one
        assert explore(KernelConfig(), Limits(max_depth=4)).states_visited == 26
        report = explore(KernelConfig(), Limits(max_states=max_states, max_depth=5))
        assert report.incomplete_reason == reason

    @pytest.mark.parametrize("limits,reason", [
        (Limits(max_states=5), "max_states"),
        (Limits(max_violations=1), "max_violations"),
        (Limits(max_violations=10**9), None),
    ])
    def test_incomplete_reason_names_the_limit(self, limits, reason):
        cfg = KernelConfig(fix_wait_need_sched=False)
        report = explore(cfg, limits)
        assert report.incomplete_reason == reason
        assert report.incomplete == (reason is not None)

    def test_bound_monotonicity(self):
        counts = []
        for waits in (0, 1):
            for preemptions in (0, 1):
                cfg = KernelConfig(
                    worker_count=2,
                    task_plan=(H, L),
                    max_waits_per_task=waits,
                    max_preemptions_per_task=preemptions,
                )
                counts.append(((waits, preemptions), explore(cfg).states_visited))
        by_key = dict(counts)
        assert by_key[(0, 0)] <= by_key[(0, 1)]
        assert by_key[(0, 0)] <= by_key[(1, 0)]
        assert by_key[(1, 0)] <= by_key[(1, 1)]
        assert by_key[(0, 1)] <= by_key[(1, 1)]

    def test_every_maximal_path_spawns_the_whole_plan(self):
        report = explore(KernelConfig(worker_count=1, task_plan=(H, L, L)))
        assert report.violations == []
        assert report.quiescent_ok > 0  # each quiescent state had all 3 terminal

    def test_invariants_hold_on_clean_runs(self):
        report = explore(CLEAN_SMALL)
        assert all(t.verdict != "AssertionFailure" for t in report.violations)

    def test_two_heavy_tasks_stay_clean(self):
        # regression: a stale decision landing on a wake-flagged task with no
        # preemption budget left must cancel, not overrun the bound
        cfg = KernelConfig(worker_count=2, task_plan=(H, H))
        report = explore(cfg)
        assert report.violations == []
        assert report.all_paths_terminal_ok is True

    def test_explore_agrees_with_independent_bfs(self):
        # explore's level lists and parent map against a trivially-correct
        # BFS walker that prunes by explore's key, and the depth budget d
        # against the states it finds within d steps
        for cfg in (LOST_WAKEUP, PREEMPT_BUG, CLEAN_SMALL):
            init = initial_state(cfg)
            distance = {symmetric_key(bytes(init.buf), init.layout): 0}
            quiescent_ok = 0
            frontier = [(init, 0)]
            for state, depth in frontier:
                options = enabled(state)
                if not options and all_tasks_terminal(state):
                    quiescent_ok += 1
                for choice in options:
                    succ = _apply(state, choice)
                    key = symmetric_key(bytes(succ.buf), succ.layout)
                    if key not in distance:
                        distance[key] = depth + 1
                        if succ.violation is None:
                            frontier.append((succ, depth + 1))
            report = explore(cfg, Limits(max_violations=10_000))
            assert report.states_visited == len(distance)
            assert report.quiescent_ok == quiescent_ok
            deepest = max(distance.values())
            assert report.max_depth == deepest
            for depth in range(1, deepest + 1):
                report = explore(cfg, Limits(max_depth=depth, max_violations=10_000))
                assert report.states_visited == sum(d <= depth for d in distance.values())
                assert report.incomplete_reason == ("max_depth" if depth < deepest else None)

    def test_all_toggle_combinations_terminate_and_replay(self):
        import itertools

        for fw, fp, fe, fr, fs in itertools.product((True, False), repeat=5):
            cfg = KernelConfig(
                worker_count=2,
                task_plan=(H,),
                fix_wait_need_sched=fw,
                fix_preempt_need_sched=fp,
                faults=frozenset(f for f, on in zip(sorted(FAULTS), (fe, fr, fs)) if on),
            )
            report = explore(cfg, Limits(max_violations=4000))
            assert not report.incomplete
            clean = fw and fp and not (fe or fr or fs)
            if clean:
                assert report.violations == []
            for trace in report.violations:
                result = replay(cfg, trace.steps)
                assert result.verdict == trace.verdict

    def test_walk_violations_replay_across_toggle_matrix(self):
        import itertools

        replayed = 0
        for fe, fr, fs in itertools.product((True, False), repeat=3):
            cfg = KernelConfig(
                worker_count=2,
                task_plan=(H, L),
                faults=frozenset(f for f, on in zip(sorted(FAULTS), (fe, fr, fs)) if on),
            )
            for seed in range(10):
                report = random_walk(cfg, seed, 5000)
                for trace in report.violations:
                    result = replay(cfg, trace.steps)
                    assert result.verdict == trace.verdict
                    replayed += 1
        assert replayed > 0


class TestRandomWalk:
    def test_same_seed_same_trace(self):
        a = random_walk(LOST_WAKEUP, seed=5, max_steps=500)
        b = random_walk(LOST_WAKEUP, seed=5, max_steps=500)
        assert a.transitions_taken == b.transitions_taken
        assert [t.steps for t in a.violations] == [t.steps for t in b.violations]

    def test_clean_walks_never_violate(self):
        # consistency with the exhaustive result at the same config
        assert explore(CLEAN_SMALL).violations == []
        for seed in range(20):
            assert random_walk(CLEAN_SMALL, seed, 100_000).violations == []

    def test_some_seed_finds_the_deadlock(self):
        hits = 0
        for seed in range(100):
            report = random_walk(LOST_WAKEUP, seed, 10_000)
            if any(t.verdict == VERDICT_DEADLOCK for t in report.violations):
                hits += 1
        assert hits > 0

    def test_walk_violations_replay_in_explore_mode_config(self):
        for seed in range(40):
            report = random_walk(PREEMPT_BUG, seed, 10_000)
            for trace in report.violations:
                assert replay(PREEMPT_BUG, trace.steps).verdict == trace.verdict

    def test_walk_final_states_are_reachable_by_explore(self):
        # replaying a walk-found deadlock must land on a state the exhaustive
        # search also reaches (compare via its deadlock traces)
        explore_finals = set()
        for trace in explore(LOST_WAKEUP, Limits(max_violations=100)).violations:
            result = replay(LOST_WAKEUP, trace.steps)
            explore_finals.add((result.final_task_states, result.final_queue))
        hits = 0
        for seed in range(60):
            for trace in random_walk(LOST_WAKEUP, seed, 10_000).violations:
                result = replay(LOST_WAKEUP, trace.steps)
                assert (result.final_task_states, result.final_queue) in explore_finals
                hits += 1
        assert hits > 0

    def test_step_budget_flags_incomplete(self):
        report = random_walk(KernelConfig(), seed=1, max_steps=3)
        assert report.incomplete is True
        assert report.incomplete_reason == "max_steps"

    def test_budget_spent_on_the_final_state_is_complete(self):
        # the walk's last budgeted step ends the plan: nothing was cut off
        cfg = KernelConfig(worker_count=1, task_plan=(L,))
        taken = random_walk(cfg, seed=0, max_steps=1000).transitions_taken
        report = random_walk(cfg, seed=0, max_steps=taken)
        assert report.transitions_taken == taken
        assert report.incomplete is False
        assert report.quiescent_ok == 1

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            random_walk(KernelConfig(), seed=1, max_steps=0)


class TestReplay:
    def test_explore_violations_reproduce(self):
        for cfg in (LOST_WAKEUP, PREEMPT_BUG):
            report = explore(cfg, Limits(max_violations=50))
            assert report.violations
            for trace in report.violations:
                result = replay(cfg, trace.steps)
                assert result.verdict == trace.verdict

    def test_empty_trace_is_no_violation(self):
        assert replay(CLEAN_SMALL, ()).verdict is None

    def test_every_trace_replays_whole(self):
        import itertools

        # over two plans: a violation's class names its task's kind, so each
        # plan alone gives fewer than 100 traces
        traces = 0
        for plan, toggles in itertools.product(((H, L, L), (H, H)),
                                               itertools.product((True, False), repeat=5)):
            cfg = KernelConfig(
                worker_count=2,
                task_plan=plan,
                fix_wait_need_sched=toggles[0],
                fix_preempt_need_sched=toggles[1],
                faults=frozenset(f for f, on in zip(sorted(FAULTS), toggles[2:]) if on),
            )
            for trace in explore(cfg, Limits()).violations:
                again = replay(cfg, trace.steps)
                assert again.steps == trace.steps
                assert again.annotations == trace.annotations
                assert again.verdict == trace.verdict
                assert again.monitor_error == trace.monitor_error
                assert again.final_task_states == trace.final_task_states
                assert again.final_queue == trace.final_queue
                assert again.detail == trace.detail
                assert again == trace
                traces += 1
        assert traces > 100

    def test_replay_under_other_toggles_errors_or_differs(self):
        trace = explore(LOST_WAKEUP).violations[0]
        try:
            result = replay(LOST_WAKEUP_FIXED, trace.steps)
        except ReplayError:
            return
        assert result.verdict != trace.verdict

    def test_mismatched_trace_reports_first_divergence(self):
        bogus = (("PrimaryTimer", None, 0),)
        with pytest.raises(ReplayError) as err:
            replay(CLEAN_SMALL, bogus)
        assert "#0" in str(err.value)


class TestReachableStateProperties:
    def _walk_all_states(self, cfg, check):
        """Tiny independent BFS over enabled/step, applying `check` everywhere."""
        from collections import deque

        init = initial_state(cfg)
        seen = {snapshot(init)}
        frontier = deque([init])
        while frontier:
            state = frontier.popleft()
            check(state)
            for choice in enabled(state):
                succ = _apply(state, choice)
                key = snapshot(succ)
                if key not in seen and succ.violation is None:
                    seen.add(key)
                    frontier.append(succ)
        return len(seen)

    def test_preempted_iff_saved_context_on_clean_runs(self):
        cfg = KernelConfig(
            worker_count=2, task_plan=(H, L), max_waits_per_task=1,
            max_preemptions_per_task=1,
        )

        def check(state):
            # between the save-context and set-state handler steps the task
            # briefly holds a saved context while still Running; the
            # equivalence is claimed only once the handler has finished
            cores = range(state.layout.core_count)
            if any(state.buf[core_cell(state, c, C_IPI_PHASE)] != -1 for c in cores):
                return
            for t in range(state.buf[SPAWN_CURSOR]):
                task_state = state.buf[task_cell(state, t, T_STATE)]
                saved = state.buf[task_cell(state, t, T_SAVED)]
                assert (task_state == PREEMPTED) == (
                    saved == 1
                ), f"task {t}: state {task_state} with saved flag {saved}"

        assert self._walk_all_states(cfg, check) > 0

    def test_in_queue_mirrors_membership_everywhere(self):
        def check(state):
            queued = set(run_queue(state))
            for t in range(state.buf[SPAWN_CURSOR]):
                assert (state.buf[task_cell(state, t, T_IN_QUEUE)] == 1) == (t in queued)

        self._walk_all_states(CLEAN_SMALL, check)

    def test_monitors_track_kernel_state_in_lockstep(self):
        # on clean configs the DFA mirrors (state, need_sched) exactly,
        # at every reachable state: the table and the kernel agree
        from schedcheck.monitor import Base

        base_for = {
            RUNNABLE: Base.RUNNABLE,
            RUNNING: Base.RUNNING,
            WAITING: Base.WAITING,
            PREEMPTED: Base.PREEMPTED,
            TERMINATED: Base.TERMINATED,
        }

        def check(state):
            for t in range(state.buf[SPAWN_CURSOR]):
                task_state = state.buf[task_cell(state, t, T_STATE)]
                current = state.monitors.current(t)
                assert current.base is base_for[task_state], (t, task_state, str(current))
                if task_state != TERMINATED:
                    need_sched = state.buf[task_cell(state, t, T_NEED_SCHED)] == 1
                    assert (current.flag.value == "true") == need_sched

        for cfg in (CLEAN_SMALL, KernelConfig(worker_count=2, task_plan=(H, H))):
            self._walk_all_states(cfg, check)


def _duplicate_queue_ids(state):
    state.buf[QUEUE + 1] = 0
    state.buf[QUEUE_LEN] = 2


def _queue_over_capacity(state):
    # Two tasks, so the queue has two slots; a third entry would read the
    # next cell, task 0's state.
    state.buf[QUEUE:QUEUE + 2] = array(state.buf.typecode, [1, 2])
    state.buf[QUEUE_LEN] = 3


def _current_on_two_cores(state):
    state.get_next_task(1)
    state.buf[core_cell(state, 2, C_CURRENT)] = 0


def _flag_in_flight(state):
    state.buf[IN_FLIGHT] = 1


def _two_decisions(state):
    state.buf[core_cell(state, 1, C_DECISION)] = 0
    state.buf[core_cell(state, 2, C_PENDING_IPI)] = PENDING
    state.buf[IN_FLIGHT] = 1


def _light_task_decided(state):
    state.spawn_next()
    state.buf[core_cell(state, 1, C_DECISION)] = 1
    state.buf[IN_FLIGHT] = 1


# Each failure check_invariants reports, injected into CLEAN_SMALL's
# initial state (task 0 queued, task 1 not spawned), with its exact message.
INVARIANT_FAILURES = {
    "duplicate queue ids": (_duplicate_queue_ids, "duplicate task ids in run queue (0, 0)"),
    "queue over capacity": (_queue_over_capacity, "run queue over capacity: 3 entries for 2 tasks"),
    "in_queue mismatch": (
        lambda s: setitem(s.buf, task_cell(s, 0, T_IN_QUEUE), 0),
        "task 0 in_queue=False but queue=(0,)"),
    "counter below zero": (
        lambda s: setitem(s.buf, task_cell(s, 0, T_PREEMPTIONS), -1), "task 0 counter below zero"),
    "cores share a current task": (_current_on_two_cores, "cores share a current task: [0, 0]"),
    "primary core has a current task": (
        lambda s: setitem(s.buf, core_cell(s, 0, C_CURRENT), 0),
        "primary core has a current task"),
    "running task not current": (
        lambda s: setitem(s.buf, task_cell(s, 0, T_STATE), RUNNING),
        "running task 0 is not current on any core"),
    "terminal task queued": (
        lambda s: setitem(s.buf, task_cell(s, 0, T_STATE), TERMINATED),
        "terminal task 0 is queued or current"),
    "waiting task queued": (
        lambda s: setitem(s.buf, task_cell(s, 0, T_STATE), WAITING),
        "waiting task 0 is queued"),
    "more than one decision": (_two_decisions, "more than one preemption decision outstanding"),
    "preempt_in_flight out of sync": (_flag_in_flight, "preempt_in_flight flag out of sync"),
    "light task observed": (
        _light_task_decided, "light task 1 observed by a preemption decision"),
}


class TestInvariantChecker:
    def test_accepts_initial_state(self):
        assert check_invariants(initial_state(CLEAN_SMALL)) is None

    @pytest.mark.parametrize("name", sorted(INVARIANT_FAILURES))
    def test_reports_each_failure_with_its_message(self, name):
        inject, message = INVARIANT_FAILURES[name]
        state = initial_state(CLEAN_SMALL)
        inject(state)
        assert check_invariants(state) == message

    @pytest.mark.parametrize("seed", range(8))
    def test_over_capacity_detail_reads_no_cell_past_the_queue(self, seed):
        # A length past the queue's slots reaches into task 0's record; its
        # monitor, need_sched and saved flag lie outside
        # `Layout.settle_offsets`, so the detail must not depend on them.
        state = initial_state(CLEAN_SMALL)
        _queue_over_capacity(state)
        # the queue's slots, then task 0's cells up to its saved flag
        state.buf[QUEUE_LEN] = state.layout.tasks - QUEUE + T_SAVED + 1
        expected = check_invariants(state)
        rng = random.Random(seed)
        at = state.layout.tasks
        for field in (T_MONITOR, T_NEED_SCHED, T_SAVED):
            state.buf[at + field] = rng.choice(range(-1, 5))
        assert check_invariants(state) == expected
