"""Walk a PST and a compiled program side by side.

A :class:`~repro.matching.compile.CompiledProgram` keeps no map from PST
nodes to slots — no PST stands behind it at all: the root is slot 0 and
every other node's slot is found through its parent's record — the value
table entry of its interned value, the range pair at its branch position, or
the star child.  Tests hold a program against a
:class:`~tests.oracle.pst.ParallelSearchTree` fed the same history (the
oracle) through :func:`slots_by_node`, which pairs each tree
node with the slot reached by the same branches and checks on the way that
the slot mirrors the node.
"""

from __future__ import annotations

from typing import Dict

from repro.matching.compile import value_branches


def slots_by_node(program, tree) -> Dict[int, int]:
    """``PST node id -> slot`` for every node of ``tree``, asserting that
    the program's records reachable from slot 0 are the tree node for node:
    same tested position, same value branches, same range tests in the same
    order, same ``*``-branch, same leaf subscriptions in the same order."""
    slots: Dict[int, int] = {}
    reached = set()
    stack = [(tree.root, 0)]
    while stack:
        node, slot = stack.pop()
        assert slot not in reached, f"slot {slot} reached twice"
        reached.add(slot)
        slots[node.node_id] = slot
        position, table, ranges, star, subs = program._records[slot]
        if node.is_leaf:
            assert position == -1, f"slot {slot} tests position {position}, the tree has a leaf"
            assert tuple(subs or ()) == tuple(node.subscriptions)
            continue
        assert position == program._positions[node.attribute_position], (
            f"slot {slot} tests position {position}, the tree node "
            f"level {node.attribute_position}"
        )
        assert subs is None
        table = dict(value_branches(table))
        assert len(table) == len(node.value_branches)
        for value, child in node.value_branches.items():
            stack.append((child, table[program.value_ids[value]]))
        ranges = ranges or ()
        assert [test for test, _slot in ranges] == [
            test for test, _child in node.range_branches
        ], f"slot {slot}'s range pairs are not the tree's branch order"
        for (_test, child), (_same, child_slot) in zip(node.range_branches, ranges):
            stack.append((child, child_slot))
        if node.star_child is None:
            assert star == -1
        else:
            stack.append((node.star_child, star))
    return slots

