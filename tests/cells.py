"""Buffer offsets of task and core record fields, as the operations index
them, the run queue as the operations read it, and whether every spawned
task has terminated."""

from schedcheck.model import (
    CORE_WIDTH, QUEUE, QUEUE_LEN, SPAWN_CURSOR, T_STATE, TASK_WIDTH, TERMINATED,
)


def task_cell(state, task: int, field: int) -> int:
    return state.layout.tasks + task * TASK_WIDTH + field


def core_cell(state, core: int, field: int) -> int:
    return state.layout.cores + core * CORE_WIDTH + field


def run_queue(state) -> tuple[int, ...]:
    return tuple(state.buf[QUEUE:QUEUE + state.buf[QUEUE_LEN]])


def all_tasks_terminal(state) -> bool:
    tasks = state.layout.tasks
    end = tasks + state.buf[SPAWN_CURSOR] * TASK_WIDTH
    return all(s == TERMINATED for s in state.buf[tasks + T_STATE:end:TASK_WIDTH])
