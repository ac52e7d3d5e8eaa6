"""Axiom id registry shared by the CLI, paper-verify and the counterexample
search."""

from __future__ import annotations

from . import axioms
from .axioms import (
    check_core,
    check_ejr,
    check_mwv_pjr,
    check_pjr,
    check_strong_bpjr,
)
from .laminar import check_core_u_afford, is_laminar_proportional

MAIN_CHECKERS = {
    "core": check_core,
    "ejr": lambda inst, w: check_ejr(inst, w, up_to_one=False),
    "ejr1": lambda inst, w: check_ejr(inst, w, up_to_one=True),
    "pjr": lambda inst, w: check_pjr(inst, w, up_to_one=False),
    "pjr1": lambda inst, w: check_pjr(inst, w, up_to_one=True),
    "mwvpjr": check_mwv_pjr,
    "bpjr": check_strong_bpjr,
    # Looked up per call: perfbench's tracer wraps axioms.check_priceable.
    "priceable": lambda inst, w: axioms.check_priceable(inst, w, b_min_one=False),
    "priceable1": lambda inst, w: axioms.check_priceable(inst, w, b_min_one=True),
    "laminarprop": is_laminar_proportional,
    "coreuafford": check_core_u_afford,
}
