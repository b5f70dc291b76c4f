"""Buffer offsets of task and core record fields, as the operations index them."""

from schedcheck.model import CORE_WIDTH, TASK_WIDTH


def task_cell(state, task: int, field: int) -> int:
    return state.layout.tasks + task * TASK_WIDTH + field


def core_cell(state, core: int, field: int) -> int:
    return state.layout.cores + core * CORE_WIDTH + field
