"""Buffer offsets of task and core record fields, as the operations index
them, and the run queue as the operations read it."""

from schedcheck.model import CORE_WIDTH, QUEUE, QUEUE_LEN, TASK_WIDTH


def task_cell(state, task: int, field: int) -> int:
    return state.layout.tasks + task * TASK_WIDTH + field


def core_cell(state, core: int, field: int) -> int:
    return state.layout.cores + core * CORE_WIDTH + field


def run_queue(state) -> tuple[int, ...]:
    return tuple(state.buf[QUEUE:QUEUE + state.buf[QUEUE_LEN]])
