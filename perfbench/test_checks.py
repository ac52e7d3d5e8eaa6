"""Each output check accepts a correct output and rejects a corrupted one.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import unittest
from dataclasses import dataclass
from fractions import Fraction as F

from checks import (
    CheckFailed,
    Election,
    check_bpjr_witness,
    check_cohesive_witness,
    check_committee_witness,
    check_core_witness,
    check_laminar_tree,
    check_pav,
    check_phragmen,
    check_price_system,
    check_rule_x,
    counting_unpriceable,
)


def approval(approvals, cost, budget):
    voters = tuple(sorted(approvals))
    projects = tuple(sorted(cost))
    u = {v: {c: F(1) for c in approvals[v]} for v in voters}
    return Election(voters, projects, {c: F(x) for c, x in cost.items()}, u, F(budget))


@dataclass
class UnanimousLeaf:
    voters: tuple
    projects: frozenset
    budget: F


@dataclass
class UnanimousProject:
    project: str
    child: object
    voters: tuple
    projects: frozenset
    budget: F


@dataclass
class Split:
    left: object
    right: object
    voters: tuple
    projects: frozenset
    budget: F


class PriceSystemTest(unittest.TestCase):
    e = approval({"a": "xz", "b": "xy", "c": "y"}, {"x": 2, "y": 2, "z": 3}, 4)
    pays = {"a": {"x": F(1)}, "b": {"x": F(1), "y": F(1)}, "c": {"y": F(1)}}

    def test_accepts(self):
        check_price_system(self.e, {"x", "y"}, F(6), self.pays)

    def test_rejects_shifted_payment(self):
        shifted = {**self.pays, "a": {"x": F(1, 2)}, "b": {"x": F(3, 2), "y": F(1)}}
        with self.assertRaises(CheckFailed):  # b now pays 5/2 > b/n = 2
            check_price_system(self.e, {"x", "y"}, F(6), shifted)

    def test_rejects_payment_without_utility(self):
        with self.assertRaises(CheckFailed):
            check_price_system(self.e, {"x", "y"}, F(6), {**self.pays, "c": {"x": F(1)}})

    def test_rejects_rich_unselected_supporters(self):
        with self.assertRaises(CheckFailed):  # z's supporter a holds 5 - 1 > 3
            check_price_system(self.e, {"x", "y"}, F(15), self.pays)


class RulesTest(unittest.TestCase):
    # x (cost 1) is approved by a and b, y (cost 1) by a alone; budget 2.
    e = approval({"a": "xy", "b": "x"}, {"x": 1, "y": 1}, 2)

    def test_phragmen_accepts(self):
        events = [(F(1, 2), "x", {"a": F(1, 2), "b": F(1, 2)}), (F(3, 2), "y", {"a": F(1)})]
        check_phragmen(self.e, {"x", "y"}, events, F(3, 2), "no-affordable-project")

    def test_phragmen_rejects_shifted_payment(self):
        events = [(F(1, 2), "x", {"a": F(3, 4), "b": F(1, 4)}), (F(3, 2), "y", {"a": F(1)})]
        with self.assertRaises(CheckFailed):
            check_phragmen(self.e, {"x", "y"}, events, F(3, 2), "no-affordable-project")

    def test_rule_x_accepts(self):
        check_rule_x(self.e, {"x"}, [(F(1, 2), "x", {"a": F(1, 2), "b": F(1, 2)})])

    def test_rule_x_rejects_shifted_payment(self):
        with self.assertRaises(CheckFailed):
            check_rule_x(self.e, {"x"}, [(F(1, 2), "x", {"a": F(3, 4), "b": F(1, 4)})])

    def test_rule_x_rejects_early_stop(self):
        with self.assertRaises(CheckFailed):  # x is still affordable
            check_rule_x(self.e, set(), [])

    def test_pav_accepts_maximal(self):
        e = approval({"a": "x", "b": "x", "c": "y"}, {"x": 1, "y": 1, "z": 1}, 1)
        check_pav(e, {"x"}, F(2))

    def test_pav_rejects_non_maximal(self):
        e = approval({"a": "x", "b": "x", "c": "y"}, {"x": 1, "y": 1, "z": 1}, 1)
        with self.assertRaises(CheckFailed):
            check_pav(e, {"y"}, F(1))


class WitnessTest(unittest.TestCase):
    e = approval({"a": "xy", "b": "xy"}, {"x": 1, "y": 1, "z": 1}, 2)
    alpha = {"x": F(1), "y": F(1)}

    def test_cohesive_accepts(self):
        for kind in ("ejr", "pjr"):
            for up_to_one in (False, True):
                check_cohesive_witness(self.e, {"z"}, {"a", "b"}, {"x", "y"}, self.alpha, kind, up_to_one)

    def test_cohesive_rejects_unaffordable_target(self):
        e = approval({"a": "xy", "b": "xy"}, {"x": 1, "y": 1, "z": 1}, 1)
        with self.assertRaises(CheckFailed):
            check_cohesive_witness(e, {"z"}, {"a", "b"}, {"x", "y"}, self.alpha, "ejr", False)

    def test_cohesive_rejects_served_group(self):
        with self.assertRaises(CheckFailed):
            check_cohesive_witness(self.e, {"x", "y"}, {"a", "b"}, {"x", "y"}, self.alpha, "pjr", False)

    def test_core_accepts(self):
        check_core_witness(self.e, {"z"}, {"a", "b"}, {"x"})

    def test_core_rejects_unaffordable_target(self):
        with self.assertRaises(CheckFailed):
            check_core_witness(self.e, {"z"}, {"a", "b"}, {"x", "y", "z"})

    def test_committee_accepts(self):
        check_committee_witness(self.e, {"z"}, {"a", "b"}, 2)

    def test_committee_rejects_level_above_share(self):
        with self.assertRaises(CheckFailed):
            check_committee_witness(self.e, {"z"}, {"a"}, 2)

    def test_bpjr_accepts(self):
        check_bpjr_witness(self.e, {"z"}, {"a", "b"}, F(2))

    def test_bpjr_rejects_served_group(self):
        with self.assertRaises(CheckFailed):
            check_bpjr_witness(self.e, {"x"}, {"a", "b"}, F(1))


class LaminarTreeTest(unittest.TestCase):
    e = approval({"a": "xz", "b": "yz"}, {"x": 1, "y": 1, "z": 2}, 4)

    def tree(self, left_budget, right_budget):
        left = UnanimousLeaf(("a",), frozenset("x"), F(left_budget))
        right = UnanimousLeaf(("b",), frozenset("y"), F(right_budget))
        split = Split(left, right, ("a", "b"), frozenset("xy"), F(2))
        return UnanimousProject("z", split, ("a", "b"), frozenset("xyz"), F(4))

    def test_accepts(self):
        check_laminar_tree(self.e, self.tree(1, 1))

    def test_rejects_disproportional_split(self):
        with self.assertRaises(CheckFailed):
            check_laminar_tree(self.e, self.tree(F(3, 2), F(1, 2)))

    def test_rejects_non_unanimous_project(self):
        e = approval({"a": "xz", "b": "y"}, {"x": 1, "y": 1, "z": 2}, 4)
        with self.assertRaises(CheckFailed):
            check_laminar_tree(e, self.tree(1, 1))


class CountingTest(unittest.TestCase):
    # c is wanted by 4 voters and left out; c' (cost 3) by one voter only.
    e = approval({"a": "dc", "b": "c", "v": "c", "w": "c"}, {"c": 1, "d": 3}, 3)

    def test_applies(self):
        # 4 * 3 / 1 = 12 > cost(W) + cost(c) = 4
        self.assertTrue(counting_unpriceable(self.e, {"d"}, "c", "d"))
        with self.assertRaises(CheckFailed):
            check_price_system(self.e, {"d"}, F(12), {"a": {"d": F(3)}})

    def test_does_not_apply(self):
        self.assertFalse(counting_unpriceable(self.e, {"c"}, "d", "c"))


if __name__ == "__main__":
    unittest.main()
