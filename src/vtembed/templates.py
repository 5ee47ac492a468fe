"""Instruction templates for the nine synthetic task classes.

Each task class carries a query instruction, a target instruction, and a
judgment instruction. Each is tokenized deterministically as a
(task token, kind token) pair in a reserved instruction-token band so the
toy vocabulary stays small while distinct templates stay distinguishable.
"""

from __future__ import annotations

from typing import Tuple

from . import vocab

TASK_CLASSES = ("T2T", "I2I", "T2I", "I2T", "IT2I", "IT2T", "T2IT", "IT2IT", "T2VD")

_KINDS = ("query", "target", "judgment")
INSTR_TASK_BASE = vocab.DATA_START          # 9 task tokens
INSTR_KIND_BASE = INSTR_TASK_BASE + len(TASK_CLASSES)  # 3 kind tokens
FREE_DATA_START = INSTR_KIND_BASE + len(_KINDS)  # first id usable for data tokens


def _tokens(task_id: str, kind: str) -> Tuple[int, int]:
    if task_id not in TASK_CLASSES:
        raise KeyError(f"unknown template id {task_id!r}")
    return (INSTR_TASK_BASE + TASK_CLASSES.index(task_id),
            INSTR_KIND_BASE + _KINDS.index(kind))


def query_instruction(task_id: str) -> Tuple[int, int]:
    return _tokens(task_id, "query")


def target_instruction(task_id: str) -> Tuple[int, int]:
    return _tokens(task_id, "target")


def judgment_instruction(task_id: str) -> Tuple[int, int]:
    return _tokens(task_id, "judgment")
