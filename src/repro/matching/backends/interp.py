"""The reference interpreter backend: the single-event kernel loops.

Every other backend is defined as "produces exactly what this one
produces"; the property suite enforces it.  A batch is the inherited
per-event loop — one walk of the program per event.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import RoutingError
from repro.matching.backends import KernelBackend


class InterpBackend(KernelBackend):
    """Pure-Python interpreter over the fused per-node records."""

    name = "interp"

    def match(self, program, values: tuple) -> Tuple[list, int]:
        value_ids = program.value_ids
        interned = [value_ids.get(value) for value in values]
        records = program._records
        matched: list = []
        extend = matched.extend
        # The for loop walks the queue while children are appended to it —
        # CPython list iteration sees the growth, giving a pop-free BFS.
        queue = [0]
        push = queue.append
        for node_index in queue:
            position, table, ranges, star_child, subs = records[node_index]
            if position >= 0:
                if table is not None:
                    child = table.get(interned[position])
                    if child is not None:
                        push(child)
                if ranges is not None:
                    value = values[position]
                    for test, range_child in ranges:
                        if test.evaluate(value):
                            push(range_child)
                if star_child >= 0:
                    push(star_child)
            elif subs is not None:
                extend(subs)
        return matched, len(queue)

    def match_links(
        self, program, values: tuple, yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        """The Section 3.3 refinement over packed masks.

        An explicit frame stack mirrors ``LinkMatcher``'s recursion exactly
        — same visit order, same early exits, same ``steps``.
        """
        value_ids = program.value_ids
        interned = [value_ids.get(value) for value in values]
        records = program._records
        ann_yes = program.ann_yes
        ann_maybe = program.ann_maybe
        steps = 0
        # Each frame: [children, next_child_position, yes_bits, maybe_bits].
        frames: List[list] = []
        current = 0
        cur_yes = yes_bits
        cur_maybe = maybe_bits
        returned_yes = 0
        entering = True
        while True:
            if entering:
                steps += 1
                # Step 2: refine Maybes with the node's annotation.
                cur_yes |= cur_maybe & ann_yes[current]
                cur_maybe &= ann_maybe[current]
                if not cur_maybe:
                    returned_yes = cur_yes
                    entering = False
                    continue
                position, table, ranges, star_child, _subs = records[current]
                if position < 0:
                    # Leaf annotations are Yes/No only, so refinement above
                    # has already removed every Maybe; this is unreachable
                    # unless an annotation is stale.
                    raise RoutingError(
                        "leaf annotation left Maybe trits — stale annotation?"
                    )
                children: List[int] = []
                if table is not None:
                    child = table.get(interned[position])
                    if child is not None:
                        children.append(child)
                if ranges is not None:
                    value = values[position]
                    for test, range_child in ranges:
                        if test.evaluate(value):
                            children.append(range_child)
                if star_child >= 0:
                    children.append(star_child)
                if not children:
                    # No applicable branch: remaining Maybes become No.
                    returned_yes = cur_yes
                    entering = False
                    continue
                frames.append([children, 0, cur_yes, cur_maybe])
                current = children[0]
                continue
            # Returning `returned_yes` from a completed subsearch.
            if not frames:
                return returned_yes, steps
            frame = frames[-1]
            # Step 3: convert to Yes every Maybe whose returned trit is Yes.
            frame_maybe = frame[3]
            frame_yes = frame[2] | (frame_maybe & returned_yes)
            frame_maybe &= ~returned_yes
            if not frame_maybe:
                frames.pop()
                returned_yes = frame_yes
                continue
            next_child = frame[1] + 1
            children = frame[0]
            if next_child == len(children):
                # All children searched: remaining Maybes become No.
                frames.pop()
                returned_yes = frame_yes
                continue
            frame[1] = next_child
            frame[2] = frame_yes
            frame[3] = frame_maybe
            current = children[next_child]
            cur_yes = frame_yes
            cur_maybe = frame_maybe
            entering = True
