"""The columnar backend: whole-frontier, level-major bulk execution.

Where ``interp`` walks the program once per event, this backend advances
the *entire* batch's frontier one tree level per iteration.  The
numpy kernel represents each frontier entry as a node paired with a
**uint64 event bitmask** (batches wider than 64 events are processed in
64-event chunks): bit ``e`` of ``masks[k]`` says event ``e``'s single-event
search would visit ``nodes[k]``.  Because the compiled structure is a tree,
every node is reached from exactly one parent, so the frontier holds each
node at most once — a ``*``-chain shared by the whole batch costs one entry
per level, in fixed-width machine words.

Per level the kernel

1. records the mask column (steps per event fall out at the end as one
   bit-count over the concatenated columns — each set bit is one node visit
   of one event, exactly the unit ``interp`` counts),
2. drains leaf entries into the per-event match lists (bit-iterating the
   mask), and
3. computes every child entry at once: value-table *and* star edges are
   gathered per frontier node from one flat edge array (``edge_start``
   ranges), then each edge's child mask is
   ``parent_mask & vid_masks[edge_pvid]`` where ``vid_masks`` packs, per
   ``(position, interned value)`` pair, the bitmask of batch events
   carrying that value — built once per chunk in a few hundred Python ops.
   Star edges key a sentinel row holding the full batch mask (``*`` accepts
   everyone), which folds them into the same gather.  Range tests (absent
   from the equality-heavy benchmark workloads) run as a scalar
   bit-iterating filter that calls ``AttributeTest.evaluate`` exactly as
   ``interp`` does.

Child entries are emitted branch-kind-major (value children, then range
children, then star children) rather than in per-parent BFS order —
deterministic, but not ``interp``'s visit order.  That is within contract:
match-list order is unspecified, and the cross-backend contract, pinned by
the property suite, is the one the engines guarantee between batch and
single paths — identical match *sets*, identical per-event step counts,
identical masks.  Step counts stay
bit-for-bit because the set of ``(node, event)`` visits is identical: an
event's bit survives a root-to-node path exactly when every edge on the
path accepts its value, which is precisely the single-event reachability
condition.

The link refinement (Section 3.3) is different: its early exits depend on
the mask accumulated *so far*, so the search itself is inherently
sequential and cannot be frontier-vectorized without changing the step
counts the property suite pins.  The native link kernels therefore split
the work: the **columnar walk answers edge acceptance** — one level-major
pass per 64-event chunk produces, per node, the bitmask of events whose
match walk reaches it — and a per-event **DFS replay** then re-runs
``interp``'s exact frame machine, answering "is this child applicable?"
with one bit test instead of a table lookup / ``evaluate`` call.  The
replay enters the same nodes in the same order with the same early exits,
so refined masks *and* step counts are bit-for-bit ``interp``'s.  (The
edge-acceptance identity: the DFS only asks about children of nodes it
entered, every entered node lies on an accepted path, and a child's reach
bit is exactly "parent reached AND edge accepts" — so filtering the
record-ordered child list by reach bits reproduces ``interp``'s child
list verbatim.)

The derived columnar index is cached in ``program.backend_state`` keyed by
``program.generation``; any insert, remove or re-annotation bumps the
generation and the next batch rebuilds it lazily.  The single-event
``match`` delegates to ``interp`` — vectorization pays off across a batch,
not within one event's walk — while single-event ``match_links`` runs as a
batch of one through the native path.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from repro.errors import RoutingError, SubscriptionError
from repro.matching.backends import KernelBackend
from repro.matching.backends.interp import InterpBackend

try:  # numpy is optional for the package, required for this backend
    import numpy as _np
except ImportError:  # pragma: no cover - CI's numpy-free legs skip vector tests
    _np = None

#: ``backend_state`` slot the columnar index lives under.
_STATE_KEY = "vector.index"

#: ``backend_state`` slot the link-replay child lists live under.
_LINKS_STATE_KEY = "vector.links"

#: Numpy-kernel chunk width: one event per uint64 mask bit.
_CHUNK = 64


class _ColumnarIndex:
    """Per-generation columnar view of one program's records.

    Value-table edges are flattened node-major into ``edge_pvid`` /
    ``edge_children`` with per-node ranges in ``edge_start`` (length
    ``n + 1``), so a whole frontier's edges gather with one ragged take.
    ``edge_pvid`` packs each edge's key as ``position * num_vids + vid``,
    the row index into the kernel's per-chunk ``vid_masks`` table.  Ranges
    and leaf subscription lists keep their Python form — ranges must call
    ``AttributeTest.evaluate`` (whose TypeError semantics bulk ops cannot
    reproduce) and leaf lists are extended into result lists as-is.

    This build sits on the cold path (first batch after every change),
    so columns come from C-level ``map(itemgetter, ...)`` transposes rather
    than a per-record Python loop — at ~100k nodes the difference is real
    milliseconds against the cold-throughput gate.
    """

    __slots__ = (
        "generation",
        "positions",
        "leaf_subs",
        "range_lists",
        "has_ranges",
        "any_ranges",
        "edge_start",
        "edge_starts_hi",
        "edge_pvid",
        "edge_children",
        "width",
        "num_vids",
        "star_row",
    )

    def __init__(self, program) -> None:
        np = _np
        records = program._records
        n = len(records)
        self.generation = program.generation
        self.leaf_subs: List[object] = list(map(itemgetter(4), records))
        range_lists: List[object] = list(map(itemgetter(2), records))
        self.range_lists = range_lists
        self.any_ranges = any(ranges is not None for ranges in range_lists)
        self.has_ranges = (
            np.fromiter(
                (ranges is not None for ranges in range_lists), dtype=bool, count=n
            )
            if self.any_ranges
            else None
        )
        positions = np.fromiter(map(itemgetter(0), records), dtype=np.int64, count=n)
        self.positions = positions
        self.width = int(positions.max()) + 1 if n else 0
        num_vids = len(program.value_ids)
        self.num_vids = num_vids
        # The star branch is folded into the edge arrays as one extra edge
        # per starred node, keyed to a sentinel vid_masks row the kernel
        # fills with the full batch mask — every event follows a ``*``.
        self.star_row = self.width * num_vids
        counts = [0] * n
        edge_pvid: List[int] = []
        edge_children: List[int] = []
        star_row = self.star_row
        for node, record in enumerate(records):
            if record[0] < 0:
                continue
            edges = 0
            table = record[1]
            if table:
                base = record[0] * num_vids
                edge_pvid.extend(base + vid for vid in table)
                edge_children.extend(table.values())
                edges = len(table)
            star_child = record[3]
            if star_child >= 0:
                edge_pvid.append(star_row)
                edge_children.append(star_child)
                edges += 1
            counts[node] = edges
        edge_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.asarray(counts, dtype=np.int64), out=edge_start[1:])
        self.edge_start = edge_start
        self.edge_starts_hi = edge_start[1:]
        self.edge_pvid = np.asarray(edge_pvid, dtype=np.int64)
        self.edge_children = np.asarray(edge_children, dtype=np.int64)


class VectorBackend(KernelBackend):
    """Bulk-array kernel execution over numpy columns."""

    name = "vector"

    def __init__(self) -> None:
        if _np is None:
            raise SubscriptionError(
                "backend 'vector' requires numpy, which is not installed — "
                "install numpy or use backend='interp'"
            )
        self._interp = InterpBackend()

    # -- single-event match: delegation ---------------------------------
    # A single event's match walk has nothing to vectorize over, so this is
    # interp's loop verbatim.

    def match(self, program, values: tuple) -> Tuple[list, int]:
        return self._interp.match(program, values)

    # -- link kernels: columnar reach + exact DFS replay ----------------

    def match_links(
        self, program, values: tuple, yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        return self.match_links_batch(program, (values,), yes_bits, maybe_bits)[0]

    def match_links_batch(
        self, program, value_tuples: Sequence[tuple], yes_bits: int, maybe_bits: int
    ) -> List[Tuple[int, int]]:
        """Native link refinement (see the module docstring): per chunk, the
        columnar walk computes each node's reached-by bitmask, then a DFS
        replay per event re-runs interp's frame machine over bit tests.
        Masks and step counts are bit-for-bit the interp kernel's."""
        if not value_tuples:
            return []
        child_lists = self._link_child_lists(program)
        results: List[Tuple[int, int]] = []
        for offset in range(0, len(value_tuples), _CHUNK):
            chunk = value_tuples[offset : offset + _CHUNK]
            reach = self._reach_chunk_numpy(program, chunk)
            for e, values in enumerate(chunk):
                results.append(
                    self._replay_links(
                        program, child_lists, reach, 1 << e, yes_bits, maybe_bits
                    )
                )
        return results

    def _link_child_lists(self, program) -> List[Optional[Tuple[int, ...]]]:
        """Per node, the children in interp's visit order (value-table
        children first, then range children in slice order, then star) —
        ``None`` marks a leaf.  At most one value child holds any given
        event's reach bit, so filtering this list by reach bits yields
        exactly interp's applicable-children list."""
        state = program.backend_state
        cached = state.get(_LINKS_STATE_KEY)
        if cached is not None and cached[0] == program.generation:
            return cached[1]
        child_lists: List[Optional[Tuple[int, ...]]] = []
        for record in program._records:
            position, table, ranges, star_child, _subs = record
            if position < 0:
                child_lists.append(None)
                continue
            children: List[int] = []
            if table is not None:
                children.extend(table.values())
            if ranges is not None:
                children.extend(child for _test, child in ranges)
            if star_child >= 0:
                children.append(star_child)
            child_lists.append(tuple(children))
        state[_LINKS_STATE_KEY] = (program.generation, child_lists)
        return child_lists

    def _replay_links(
        self,
        program,
        child_lists: List[Optional[Tuple[int, ...]]],
        reach: List[int],
        bit: int,
        yes_bits: int,
        maybe_bits: int,
    ) -> Tuple[int, int]:
        """Interp's refinement frame machine with edge acceptance answered
        by reach-bit tests (same visits, same order, same early exits)."""
        ann_yes = program.ann_yes
        ann_maybe = program.ann_maybe
        steps = 0
        frames: List[list] = []
        current = 0
        cur_yes = yes_bits
        cur_maybe = maybe_bits
        returned_yes = 0
        entering = True
        while True:
            if entering:
                steps += 1
                cur_yes |= cur_maybe & ann_yes[current]
                cur_maybe &= ann_maybe[current]
                if not cur_maybe:
                    returned_yes = cur_yes
                    entering = False
                    continue
                node_children = child_lists[current]
                if node_children is None:
                    raise RoutingError(
                        "leaf annotation left Maybe trits — stale annotation?"
                    )
                children = [c for c in node_children if reach[c] & bit]
                if not children:
                    returned_yes = cur_yes
                    entering = False
                    continue
                frames.append([children, 0, cur_yes, cur_maybe])
                current = children[0]
                continue
            if not frames:
                return returned_yes, steps
            frame = frames[-1]
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

    def _reach_chunk_numpy(self, program, value_tuples: Sequence[tuple]) -> List[int]:
        """Per-node reached-by bitmasks for one <=64-event chunk, via the
        same level-major frontier as the match kernel (minus leaf drains)."""
        np = _np
        index = self._index(program)
        n = len(value_tuples)
        ids_get = program.value_ids.get
        interned = [
            [ids_get(value, -1) for value in values] for values in value_tuples
        ]
        num_vids = index.num_vids
        width = index.width
        full_mask = (1 << n) - 1
        vid_mask_rows = [0] * (width * num_vids + 1)
        vid_mask_rows[index.star_row] = full_mask
        for e, row in enumerate(interned):
            bit = 1 << e
            base = 0
            for p in range(width):
                vid = row[p]
                if vid >= 0:
                    vid_mask_rows[base + vid] |= bit
                base += num_vids
        vid_masks = np.asarray(vid_mask_rows, dtype=np.uint64)
        reach = [0] * len(program._records)
        nodes = np.zeros(1, dtype=np.int64)
        masks = np.full(1, full_mask, dtype=np.uint64)
        positions_column = index.positions
        edge_start = index.edge_start
        edge_starts_hi = index.edge_starts_hi
        edge_pvid = index.edge_pvid
        edge_children = index.edge_children
        any_ranges = index.any_ranges
        while nodes.size:
            for node, m in zip(nodes.tolist(), masks.tolist()):
                reach[node] = m
            positions = positions_column[nodes]
            interior = positions >= 0
            if not interior.all():
                nodes = nodes[interior]
                masks = masks[interior]
                if not nodes.size:
                    break
                positions = positions[interior]
            starts = edge_start[nodes]
            counts = edge_starts_hi[nodes] - starts
            total = int(counts.sum())
            if total:
                bounds = np.cumsum(counts)
                edge_idx = np.arange(total, dtype=np.int64) + np.repeat(
                    starts - (bounds - counts), counts
                )
                child_masks = np.repeat(masks, counts) & vid_masks[
                    edge_pvid[edge_idx]
                ]
                hit = child_masks != 0
                next_nodes = edge_children[edge_idx[hit]]
                next_masks = child_masks[hit]
            else:
                next_nodes = next_masks = None
            if any_ranges and index.has_ranges[nodes].any():
                range_mask = index.has_ranges[nodes]
                range_children: List[int] = []
                range_masks: List[int] = []
                for node, m, position in zip(
                    nodes[range_mask].tolist(),
                    masks[range_mask].tolist(),
                    positions[range_mask].tolist(),
                ):
                    tests = index.range_lists[node]
                    child_bits = [0] * len(tests)
                    while m:
                        low = m & -m
                        m ^= low
                        value = value_tuples[low.bit_length() - 1][position]
                        for slot, (test, _child) in enumerate(tests):
                            if test.evaluate(value):
                                child_bits[slot] |= low
                    for (_test, child), bits in zip(tests, child_bits):
                        if bits:
                            range_children.append(child)
                            range_masks.append(bits)
                if range_children:
                    range_node_column = np.asarray(range_children, dtype=np.int64)
                    range_mask_column = np.asarray(range_masks, dtype=np.uint64)
                    if next_nodes is None:
                        next_nodes = range_node_column
                        next_masks = range_mask_column
                    else:
                        next_nodes = np.concatenate((next_nodes, range_node_column))
                        next_masks = np.concatenate((next_masks, range_mask_column))
            if next_nodes is None:
                break
            nodes = next_nodes
            masks = next_masks
        return reach

    # -- the batched kernel ---------------------------------------------

    def _index(self, program) -> _ColumnarIndex:
        state = program.backend_state
        index = state.get(_STATE_KEY)
        if index is None or index.generation != program.generation:
            index = _ColumnarIndex(program)
            state[_STATE_KEY] = index
        return index

    def match_batch(
        self, program, value_tuples: Sequence[tuple]
    ) -> List[Tuple[list, int]]:
        if len(value_tuples) <= 1:
            # Nothing to vectorize over: the single-event kernel.
            return [self.match(program, values) for values in value_tuples]
        if len(value_tuples) <= _CHUNK:
            return self._match_chunk_numpy(program, value_tuples)
        results: List[Tuple[list, int]] = []
        for offset in range(0, len(value_tuples), _CHUNK):
            results.extend(
                self._match_chunk_numpy(
                    program, value_tuples[offset : offset + _CHUNK]
                )
            )
        return results

    def _match_chunk_numpy(
        self, program, value_tuples: Sequence[tuple]
    ) -> List[Tuple[list, int]]:
        np = _np
        index = self._index(program)
        n = len(value_tuples)
        ids_get = program.value_ids.get
        # Interned value matrix: one row per event, -1 for values the tree
        # never branches on (dict interning collapses 1/1.0/True exactly as
        # the PST's hash branches do — same dict, same semantics).
        interned = [
            [ids_get(value, -1) for value in values] for values in value_tuples
        ]
        # Per-(position, vid) event bitmasks: bit e set iff event e carries
        # interned value vid at position.  width * num_vids rows, aligned
        # with the index's packed edge_pvid keys.
        num_vids = index.num_vids
        width = index.width
        full_mask = (1 << n) - 1
        vid_mask_rows = [0] * (width * num_vids + 1)
        vid_mask_rows[index.star_row] = full_mask  # ``*`` accepts everyone
        for e, row in enumerate(interned):
            bit = 1 << e
            base = 0
            for p in range(width):
                vid = row[p]
                if vid >= 0:
                    vid_mask_rows[base + vid] |= bit
                base += num_vids
        vid_masks = np.asarray(vid_mask_rows, dtype=np.uint64)
        matched: List[list] = [[] for _ in range(n)]
        nodes = np.zeros(1, dtype=np.int64)
        masks = np.full(1, full_mask, dtype=np.uint64)
        leaf_subs = index.leaf_subs
        positions_column = index.positions
        edge_start = index.edge_start
        edge_starts_hi = index.edge_starts_hi
        edge_pvid = index.edge_pvid
        edge_children = index.edge_children
        any_ranges = index.any_ranges
        level_masks: List[object] = []
        while nodes.size:
            level_masks.append(masks)
            positions = positions_column[nodes]
            leaf_mask = positions < 0
            if leaf_mask.any():
                # Leaf drains run in plain Python (they extend Python result
                # lists either way); .tolist() first — elementwise ndarray
                # indexing is an order of magnitude slower than list reads.
                for node, m in zip(
                    nodes[leaf_mask].tolist(), masks[leaf_mask].tolist()
                ):
                    subs = leaf_subs[node]
                    if subs is not None:
                        if m & (m - 1) == 0:  # single event: skip the loop
                            matched[m.bit_length() - 1].extend(subs)
                            continue
                        while m:
                            low = m & -m
                            matched[low.bit_length() - 1].extend(subs)
                            m ^= low
                interior = ~leaf_mask
                nodes = nodes[interior]
                masks = masks[interior]
                if not nodes.size:
                    break
                positions = positions[interior]
            # Value-table and star transitions in one ragged gather of the
            # frontier nodes' edges, ANDed against the per-chunk vid masks
            # (the sentinel star row passes every event through).
            starts = edge_start[nodes]
            counts = edge_starts_hi[nodes] - starts
            total = int(counts.sum())
            if total:
                bounds = np.cumsum(counts)
                edge_idx = np.arange(total, dtype=np.int64) + np.repeat(
                    starts - (bounds - counts), counts
                )
                child_masks = np.repeat(masks, counts) & vid_masks[
                    edge_pvid[edge_idx]
                ]
                hit = child_masks != 0
                next_nodes = edge_children[edge_idx[hit]]
                next_masks = child_masks[hit]
            else:
                next_nodes = next_masks = None
            # Range transitions: scalar filters (they must reproduce
            # AttributeTest.evaluate semantics, TypeError-to-False included).
            if any_ranges and index.has_ranges[nodes].any():
                range_mask = index.has_ranges[nodes]
                range_children: List[int] = []
                range_masks: List[int] = []
                for node, m, position in zip(
                    nodes[range_mask].tolist(),
                    masks[range_mask].tolist(),
                    positions[range_mask].tolist(),
                ):
                    tests = index.range_lists[node]
                    child_bits = [0] * len(tests)
                    while m:
                        low = m & -m
                        m ^= low
                        value = value_tuples[low.bit_length() - 1][position]
                        for slot, (test, _child) in enumerate(tests):
                            if test.evaluate(value):
                                child_bits[slot] |= low
                    for (_test, child), bits in zip(tests, child_bits):
                        if bits:
                            range_children.append(child)
                            range_masks.append(bits)
                if range_children:
                    range_node_column = np.asarray(range_children, dtype=np.int64)
                    range_mask_column = np.asarray(range_masks, dtype=np.uint64)
                    if next_nodes is None:
                        next_nodes = range_node_column
                        next_masks = range_mask_column
                    else:
                        next_nodes = np.concatenate((next_nodes, range_node_column))
                        next_masks = np.concatenate((next_masks, range_mask_column))
            if next_nodes is None:
                break
            nodes = next_nodes
            masks = next_masks
        # Steps: every set bit across all recorded mask columns is one node
        # visit of one event.  astype("<u8") pins byte order so the uint8
        # view reads LSB-first on any host.
        all_masks = np.concatenate(level_masks).astype("<u8")
        bits = np.unpackbits(all_masks.view(np.uint8), bitorder="little")
        steps = bits.reshape(-1, _CHUNK).sum(axis=0, dtype=np.int64)[:n].tolist()
        return list(zip(matched, steps))
