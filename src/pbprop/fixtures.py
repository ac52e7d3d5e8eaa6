"""The reference instances of ``paper-verify``.

Each is one JSON file under ``instances/``, shipped as package data and
parsed on demand.
"""

from __future__ import annotations

import os

from .io import load_instance
from .model import PBInstance

INSTANCES = os.path.join(os.path.dirname(__file__), "instances")
FIXTURES = ("cardinal_quartet", "split_ten", "cheap_fill", "unit_split",
            "two_camps", "tall_stack", "common_tail")


def get_fixture(name: str) -> PBInstance:
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; have {sorted(FIXTURES)}")
    return load_instance(os.path.join(INSTANCES, f"{name}.json"))


def tall_stack_bundle() -> frozenset:
    return frozenset(["c", "t1", "t2", "t3", "t4", "t5", "t6", "x1", "x2"])
