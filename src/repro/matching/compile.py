"""Lowering a Parallel Search Tree into flat array-based matching kernels.

The object-graph matcher (:class:`~repro.matching.pst.ParallelSearchTree` +
:class:`~repro.core.annotation.TreeAnnotation` +
:class:`~repro.core.link_matcher.LinkMatcher`) walks ``PSTNode`` instances and
allocates a fresh immutable :class:`~repro.core.trits.TritVector` per
refinement step.  That is the hottest path of the whole reproduction — every
broker runs it for every event — so this module *compiles* a built tree into
a :class:`CompiledProgram`: one flat record per node, indexed by node
number, over which two iterative (explicit-stack, no recursion, no
per-visit allocation) kernels run:

* :meth:`CompiledProgram.match` — the Section 2 parallel search;
* :meth:`CompiledProgram.match_links` — the Section 3.3 refinement search,
  with trit masks packed as two integer bitmasks (``yes_bits``/``maybe_bits``)
  per :mod:`repro.core.trits`.

The kernel *loops* themselves live in :mod:`repro.matching.backends` behind
the :class:`~repro.matching.backends.KernelBackend` interface (``interp``
is the reference loop, ``vector`` the columnar bulk-array one); this module
owns everything execution-independent — lowering, patching, annotation
and the schema checks — and delegates the raw walks to the program's
:attr:`~CompiledProgram.backend`.

Record layout (one slot per node, node 0 is always the root).  The
structure is ``_records[n]``, one tuple
``(event_position, value_table, range_pairs, star_child, leaf_subs)``:

=====================  =======================================================
``event_position``     schema position of the attribute node ``n`` tests, or
                       ``-1`` for a leaf (doubles as the node-kind flag)
``value_table``        dict mapping *interned value ids* to child slots, or
                       ``None`` when the node has no value branches
``range_pairs``        ``((test, child slot), ...)`` in the tree's branch
                       order, or ``None``
``star_child``         slot of the ``*``-branch child, ``-1`` when absent
``leaf_subs``          a leaf's subscriptions as a tuple, ``None`` otherwise
=====================  =======================================================

Beside it, per slot: ``ann_yes[n]`` / ``ann_maybe[n]`` (the node's trit
annotation, packed) and ``_slot_node_id[n]`` (the PST node lowered there,
``0`` for a free slot).

Attribute values are interned once into ``value_ids`` (a plain dict, so
``1``/``1.0``/``True`` collapse exactly as they do as PST hash-branch keys);
a match then interns the event's values once and performs int-keyed lookups.

Both kernels intentionally visit nodes in the same order and count the same
``steps`` as the object-graph implementations, so the paper's step-count
charts (Chart 2) are bit-for-bit unchanged; only wall-clock time improves.

**Incremental recompilation.**  Subscription churn does not force a full
rebuild: :meth:`CompiledProgram.patch` walks the root-to-leaf path selected
by the changed predicate (the same walk as ``TreeAnnotation.update_path``)
in the tree and the program together, finding each child's slot through its
parent's record and confirming it by node id.  Only an edge that changed is
rewritten: a new child is lowered, a pruned one is recycled — its slots go
onto a free list the next lowering reuses — and the
``subscription_id -> leaf`` map digests project through is kept current by
the same writes.  A subscription change costs its path, leaves no garbage,
and steady churn leaves the slot count stationary.  A replaced root is
patched in place at slot 0 too; ``patch`` refuses only a root change it
cannot explain (a tree mutated behind the program's back), and the owning
engine then performs a fresh :func:`compile_tree`.

**Batching.**  :meth:`CompiledProgram.match_batch` and
:meth:`CompiledProgram.match_links_batch` hand the whole batch to the
backend's batch kernel: ``interp`` answers it one event at a time, ``vector``
advances a shared frontier per tree level.  Per event the answer — match
set, step count, refined mask — is exactly the single-event kernel's, and
nothing is remembered between events: matching an event is walking the
program.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import RoutingError, SubscriptionError
from repro.core.trits import (
    alternative_combine_bits,
    parallel_combine_bits,
)
from repro.matching.backends import DEFAULT_BACKEND, KernelBackend, create_backend
from repro.matching.events import Event
from repro.matching.predicates import (
    AttributeTest,
    EqualityTest,
    Predicate,
    Subscription,
)
from repro.matching.pst import MatchResult, ParallelSearchTree, PSTNode, child_for_test
from repro.matching.schema import AttributeValue, EventSchema
from repro.obs import get_registry

#: Maps a subscription to the broker-local (virtual) link position through
#: which its subscriber is best reached (same contract as TreeAnnotation's).
#: An aggregating layer may instead return an *iterable* of positions — a
#: deduplicated leaf stands for several subscribers, so its annotation is
#: the union of their link bits (see :mod:`repro.matching.aggregation`).
LinkOfSubscriber = Callable[[Subscription], Union[int, Sequence[int]]]

#: The kernel record of a slot with no node in it: a leaf holding nothing.
_FREE_RECORD = (-1, None, None, -1, None)


class CompiledProgram:
    """The flat, kernel-ready form of one Parallel Search Tree.

    Build with :func:`compile_tree`; rebuild or :meth:`patch` after the
    source tree changes.  Link annotations are attached separately with
    :meth:`annotate` (matching alone never needs them).
    """

    __slots__ = (
        "schema",
        "attribute_order",
        "_positions",
        "_domains",
        # one kernel record per node slot, and its packed annotation
        "_records",
        "ann_yes",
        "ann_maybe",
        # interning / bookkeeping
        "value_ids",
        "num_links",
        "_link_of_subscriber",
        "_schema_ok",
        # execution backend
        "backend",
        "generation",
        "backend_state",
        "_obs_kernel_calls",
        "_obs_kernel_events",
        # digest projection (subscription id -> live leaf index)
        "_sub_leaf",
        # slot recycling
        "_free_slots",
        "_slot_node_id",
        # the program an annotated view shares its structure with
        "_base",
    )

    def __init__(
        self,
        tree: ParallelSearchTree,
        *,
        backend: Union[str, KernelBackend, None] = None,
    ) -> None:
        self.schema = tree.schema
        self.attribute_order = tree.attribute_order
        self._positions: Tuple[int, ...] = tuple(
            tree.schema.position_of(name) for name in tree.attribute_order
        )
        self._records: List[tuple] = []
        self.ann_yes: List[int] = []
        self.ann_maybe: List[int] = []
        self.value_ids: Dict[AttributeValue, int] = {}
        self.num_links: Optional[int] = None
        self._link_of_subscriber: Optional[LinkOfSubscriber] = None
        #: Each schema position's declared domain as ``{interned id: value}``;
        #: ``None`` when the domain is open.
        self._domains: List[Optional[Dict[int, AttributeValue]]] = [None] * len(
            self._positions
        )
        for level, position in enumerate(self._positions):
            domain = tree.domain_of(level)
            if domain is not None:
                self._domains[position] = {self._intern(value): value for value in domain}
        #: Last foreign schema object that deep-compared equal to ours —
        #: kept as a strong reference so the ``is`` fast path in
        #: :meth:`_schema_mismatch` cannot be fooled by id reuse.
        self._schema_ok: Optional[EventSchema] = None
        if backend is None:
            backend = DEFAULT_BACKEND
        self.backend: KernelBackend = (
            create_backend(backend) if isinstance(backend, str) else backend
        )
        #: Bumped on every mutation of the records (patch, annotate);
        #: backends key derived state on it and rebuild lazily.
        self.generation = 0
        #: Backend-owned scratch (vector's columnar index, …), cleared on
        #: every generation bump.
        self.backend_state: Dict[str, object] = {}
        registry = get_registry()
        self._obs_kernel_calls = registry.counter(
            "engine.backend.kernel_calls", backend=self.backend.name
        )
        self._obs_kernel_events = registry.counter(
            "engine.backend.kernel_events", backend=self.backend.name
        )
        #: ``subscription_id -> leaf index`` over the live leaves, written by
        #: lowering and retired by :meth:`patch` — never rebuilt.
        self._sub_leaf: Dict[int, int] = {}
        #: Slots :meth:`_recycle_subtree` proved unreachable, reset to neutral
        #: leaves and awaiting reuse by :meth:`_lower`.
        self._free_slots: List[int] = []
        #: PST node id lowered into each slot, ``0`` for a free one: how
        #: :meth:`patch` recognises the live tree's node in a slot.
        self._slot_node_id: List[int] = []
        self._base: Optional[CompiledProgram] = None
        self._lower(tree.root)

    # ------------------------------------------------------------------
    # Lowering

    def _intern(self, value: AttributeValue) -> int:
        value_id = self.value_ids.get(value)
        if value_id is None:
            value_id = len(self.value_ids)
            self.value_ids[value] = value_id
        return value_id

    def _lower(self, node: PSTNode, star_slot: int = -1) -> int:
        """Lower ``node`` and everything under it into fresh slots (free
        ones first) and return its slot.  ``star_slot`` is the slot already
        holding ``node``'s ``*``-child, which then keeps it — a re-materialized
        level redirects its old child rather than re-lowering it."""
        if self._free_slots:
            index = self._free_slots.pop()  # already a neutral leaf
            self._slot_node_id[index] = node.node_id
        else:
            index = len(self._records)
            self._records.append(_FREE_RECORD)
            self.ann_yes.append(0)
            self.ann_maybe.append(0)
            self._slot_node_id.append(node.node_id)
        if node.is_leaf:
            self._write_leaf(index, node.subscriptions)
            return index
        lower = self._lower
        table = (
            {self._intern(value): lower(child) for value, child in node.value_branches.items()}
            if node.value_branches
            else None
        )
        ranges = tuple((test, lower(child)) for test, child in node.range_branches) or None
        star = node.star_child
        if star is not None and star_slot < 0:
            star_slot = lower(star)
        self._records[index] = (
            self._positions[node.attribute_position],
            table,
            ranges,
            star_slot if star is not None else -1,
            None,
        )
        return index

    def _write_leaf(self, index: int, subscriptions: Sequence[Subscription]) -> None:
        subs = tuple(subscriptions)
        for subscription in subs:
            self._sub_leaf[subscription.subscription_id] = index
        self._records[index] = (-1, None, None, -1, subs or None)

    def _release_leaf_subs(self, subs: Optional[Tuple[Subscription, ...]]) -> None:
        """Retire a leaf's subscriptions from the digest map."""
        for subscription in subs or ():
            del self._sub_leaf[subscription.subscription_id]

    @property
    def node_count(self) -> int:
        """Node slots (live + free-for-reuse)."""
        return len(self._records)

    # ------------------------------------------------------------------
    # Annotation (packed trit vectors)

    @property
    def annotated(self) -> bool:
        return self.num_links is not None

    def annotate(self, num_links: int, link_of_subscriber: LinkOfSubscriber) -> None:
        """(Re)compute all packed per-node annotations bottom-up.

        Exactly :class:`~repro.core.annotation.TreeAnnotation`'s trits.  Its
        per-value fold collapses, Alternative Combine being idempotent, to
        one outcome per branch plus the bare ``*``-branch (see
        :meth:`_combined_annotation`); only nodes with range branches under a
        declared domain fold per value.
        """
        if num_links < 0:
            raise RoutingError("num_links must be >= 0")
        self.num_links = num_links
        self._link_of_subscriber = link_of_subscriber
        # The annotation arrays are part of the record surface backends
        # execute over (the link kernels read them), so re-annotation moves
        # the generation like any other record mutation.
        self._bump_generation()
        # Breadth-first from the root lists every node after its parent, so
        # the reversed order has each node's children annotated before it.
        order = [0]
        records = self._records
        for index in order:
            position, table, ranges, star, _subs = records[index]
            if position < 0:
                continue
            if table is not None:
                order.extend(table.values())
            if ranges is not None:
                order.extend(child for _test, child in ranges)
            if star >= 0:
                order.append(star)
        ann_yes, ann_maybe = self.ann_yes, self.ann_maybe
        leaf_annotation = self._leaf_annotation
        combined_annotation = self._combined_annotation
        for index in reversed(order):
            if records[index][0] < 0:
                ann_yes[index], ann_maybe[index] = leaf_annotation(index)
            else:
                ann_yes[index], ann_maybe[index] = combined_annotation(index)

    def annotated_view(
        self, num_links: int, link_of_subscriber: LinkOfSubscriber
    ) -> "CompiledProgram":
        """One broker's trit vectors on the tree every broker shares (Section
        3.1): a program holding every structure slot of this one by reference
        and owning only what annotation writes — ``ann_yes`` / ``ann_maybe``,
        the link binding, ``generation``, ``backend_state``.  Kernels run on
        it unchanged; :meth:`patch` through a view is refused."""
        view = object.__new__(CompiledProgram)
        for slot in CompiledProgram.__slots__:
            setattr(view, slot, getattr(self, slot))
        view._base = self
        view.ann_yes = [0] * len(self.ann_yes)
        view.ann_maybe = [0] * len(self.ann_maybe)
        view.generation = 0
        view.backend_state = {}
        view.annotate(num_links, link_of_subscriber)
        return view

    def _node_annotation(self, index: int) -> Tuple[int, int]:
        if self._records[index][0] < 0:
            return self._leaf_annotation(index)
        return self._combined_annotation(index)

    def _leaf_annotation(self, index: int) -> Tuple[int, int]:
        assert self.num_links is not None and self._link_of_subscriber is not None
        yes = 0
        for subscription in self._records[index][4] or ():
            mapped = self._link_of_subscriber(subscription)
            # Plain engines map a subscription to one position; an
            # aggregating layer maps a deduplicated leaf to the union of its
            # member subscribers' positions.  -1 means unreachable either way.
            positions = (mapped,) if isinstance(mapped, int) else mapped
            for position in positions:
                if position < 0:
                    continue  # subscriber unreachable — no link to light
                if position >= self.num_links:
                    raise RoutingError(
                        f"link position {position} out of range for {subscription!r}"
                    )
                yes |= 1 << position
        return yes, 0

    def _combined_annotation(self, index: int) -> Tuple[int, int]:
        """Alternative Combine over the outcomes an event can meet at node
        ``index``, each the Parallel Combine of the branches it takes."""
        assert self.num_links is not None
        full = (1 << self.num_links) - 1
        ann_yes = self.ann_yes
        ann_maybe = self.ann_maybe
        position, table, ranges, star, _subs = self._records[index]
        star_yes, star_maybe = (ann_yes[star], ann_maybe[star]) if star >= 0 else (0, 0)
        domain = self._domains[position]
        out: Optional[Tuple[int, int]] = None
        if domain is not None and ranges is not None:
            # Which ranges accept depends on the value: fold every value's.
            for value_id, value in domain.items():
                part = (star_yes, star_maybe)
                child = table.get(value_id, -1) if table is not None else -1
                if child >= 0:
                    part = parallel_combine_bits(
                        part[0], part[1], ann_yes[child], ann_maybe[child]
                    )
                for test, child in ranges:
                    if test.evaluate(value):
                        part = parallel_combine_bits(
                            part[0], part[1], ann_yes[child], ann_maybe[child]
                        )
                out = part if out is None else alternative_combine_bits(
                    out[0], out[1], part[0], part[1], full
                )
            return out if out is not None else (0, 0)
        # One outcome per branch an event can take — each in-domain value
        # branch; under an open domain every value and range branch — with
        # the *-branch, and the bare *-branch for the values no branch takes
        # (under an open domain there always are some).  Values sharing an
        # outcome count once (x A x = x); and as Parallel distributes over
        # Alternative, TreeAnnotation's open-domain (branches A No) P star
        # is this same fold.
        branches = table.items() if table is not None else ()
        taken = [child for value_id, child in branches if domain is None or value_id in domain]
        if domain is None and ranges is not None:
            taken.extend(child for _test, child in ranges)
        bare_star = domain is None or len(taken) < len(domain)
        if not taken and not bare_star:
            return 0, 0  # an empty domain: no event reaches this node
        # The n-ary Alternative Combine in closed form: Yes where every
        # outcome is Yes, No where every one is No, Maybe elsewhere.  An
        # outcome (a branch Parallel-Combined with the *-branch) is Yes where
        # either is Yes and No where both are No.
        all_yes = all_no = full
        for child in taken:
            yes = star_yes | ann_yes[child]
            all_yes &= yes
            all_no &= ~(yes | star_maybe | ann_maybe[child])
        if bare_star:
            all_yes &= star_yes
            all_no &= ~(star_yes | star_maybe)
        return all_yes, full & ~(all_yes | all_no)

    # ------------------------------------------------------------------
    # Kernels

    def _schema_mismatch(self, event: Event) -> bool:
        """O(1) schema guard for the per-event hot paths.

        Schemas are immutable value objects, so one deep comparison per
        foreign schema *object* suffices; after that, identity settles it
        (the matched object is kept in :attr:`_schema_ok` so its id cannot
        be recycled)."""
        schema = event.schema
        if schema is self.schema or schema is self._schema_ok:
            return False
        if schema != self.schema:
            return True
        self._schema_ok = schema
        return False

    def match(self, event: Event) -> MatchResult:
        """The Section 2 parallel search over the flat records.

        Visits exactly the nodes ``ParallelSearchTree.match`` visits — every
        node is appended to the work queue once and processed once, so the
        ``steps`` count is identical (it is simply the final queue length);
        only the visit *order* differs (breadth-first rather than LIFO),
        which neither the match set nor the step count observes.  The walk
        itself is the :attr:`backend`'s single-event kernel; every backend
        returns what ``interp`` returns, bit for bit.
        """
        if self._schema_mismatch(event):
            raise SubscriptionError("event schema does not match the tree's schema")
        matched, steps = self.backend.match(self, event.as_tuple())
        self._obs_kernel_calls.inc()
        self._obs_kernel_events.inc()
        return MatchResult(matched, steps)

    def match_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        """Match a batch of events through one call of the :attr:`backend`'s
        batch kernel.  Per event this is exactly :meth:`match` — same match
        set, same step count, repeats included."""
        if not events:
            return []
        for event in events:
            if self._schema_mismatch(event):
                raise SubscriptionError("event schema does not match the tree's schema")
        kernel_out = self.backend.match_batch(
            self, [event.as_tuple() for event in events]
        )
        self._obs_kernel_calls.inc()
        self._obs_kernel_events.inc(len(events))
        return [MatchResult(matched, steps) for matched, steps in kernel_out]

    def match_links(
        self, event: Event, yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        """The Section 3.3 refinement search over packed masks.

        Takes the initialization mask as ``(yes_bits, maybe_bits)`` and
        returns ``(final_yes_bits, steps)``; the final mask has no Maybe
        trits by construction, so the Yes bits determine it completely.
        An explicit frame stack mirrors ``LinkMatcher``'s recursion exactly
        — same visit order, same early exits, same ``steps``.
        """
        if not self.annotated:
            raise RoutingError("program has no link annotations — call annotate()")
        if self._schema_mismatch(event):
            raise RoutingError("event schema does not match the annotated tree")
        result = self.backend.match_links(self, event.as_tuple(), yes_bits, maybe_bits)
        self._obs_kernel_calls.inc()
        self._obs_kernel_events.inc()
        return result

    def match_links_batch(
        self, events: Sequence[Event], yes_bits: int, maybe_bits: int
    ) -> List[Tuple[int, int]]:
        """Refine one shared initialization mask for a batch of events.
        Per event this is exactly :meth:`match_links`."""
        if not events:
            return []
        if not self.annotated:
            raise RoutingError("program has no link annotations — call annotate()")
        for event in events:
            if self._schema_mismatch(event):
                raise RoutingError("event schema does not match the annotated tree")
        results = self.backend.match_links_batch(
            self, [event.as_tuple() for event in events], yes_bits, maybe_bits
        )
        self._obs_kernel_calls.inc()
        self._obs_kernel_events.inc(len(events))
        return results

    # ------------------------------------------------------------------
    # Digest projection (match-once forwarding)

    def project_links(
        self, subscription_ids: Sequence[int], yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        """Project a match digest straight onto this program's packed
        leaf-annotation columns: one OR per matched *leaf*.

        Subscriptions sharing a leaf have identical predicates, so a digest
        that names one names them all — deduplicating by leaf and ORing the
        leaf's :attr:`ann_yes` column is exact, and cheaper than a
        per-subscription table when leaves are shared.  Returns
        ``(final_yes_bits, steps)`` where ``steps`` counts the leaf ORs;
        the result equals :meth:`match_links`'s fully refined mask for any
        event whose matched set is exactly ``subscription_ids``.  Raises
        :class:`RoutingError` for unknown ids (diverged subscription sets —
        the caller must fall back to full matching).
        """
        if not self.annotated:
            raise RoutingError("program has no link annotations — call annotate()")
        mapping = self._sub_leaf
        ann_yes = self.ann_yes
        bits = 0
        steps = 0
        seen_leaf = -1
        seen: Optional[set] = None
        for subscription_id in subscription_ids:
            leaf = mapping.get(subscription_id)
            if leaf is None:
                raise RoutingError(
                    f"digest names subscription #{subscription_id}, which this "
                    f"program does not hold — subscription sets have diverged"
                )
            # Digest ids are sorted, and leaf co-residents are inserted
            # adjacently more often than not — a last-leaf fast path plus a
            # lazily allocated seen-set dedupes without hashing every id.
            if leaf == seen_leaf:
                continue
            if seen is None:
                seen = {seen_leaf} if seen_leaf >= 0 else set()
            elif leaf in seen:
                continue
            seen.add(leaf)
            seen_leaf = leaf
            bits |= ann_yes[leaf]
            steps += 1
        return yes_bits | (maybe_bits & bits), steps

    # ------------------------------------------------------------------
    # Incremental recompilation

    def _bump_generation(self) -> None:
        """Advance the record generation and drop backend scratch.

        Called after any mutation of the records or annotations backends
        execute over (:meth:`patch`, :meth:`annotate`): the vector backend
        rebuilds its columnar index lazily under the new generation tag.
        """
        self.generation += 1
        if self.backend_state:
            self.backend_state.clear()

    def patch(self, tree: ParallelSearchTree, predicate: Predicate) -> bool:
        """Re-lower the root-to-leaf path selected by ``predicate`` after one
        subscription was inserted into / removed from ``tree``.

        A replaced root first takes slot 0 (:meth:`_sync_root`); ``False``
        (leaving the program untouched is then unsafe — the caller must
        fully recompile) means the root changed in a way one insert or
        remove cannot.  Then walks the path in the tree and the program
        together, syncing each edge and the leaf with the live tree, and
        recomputes the packed annotations of the path bottom-up when
        annotations are bound.
        """
        if self._base is not None:
            raise RoutingError("an annotated view cannot patch the structure it shares")
        if self._slot_node_id[0] != tree.root.node_id and not self._sync_root(tree.root):
            return False
        tests = [predicate.tests[position] for position in self._positions]
        index = 0
        path = [index]
        node = tree.root
        while not node.is_leaf:
            test = tests[node.attribute_position]
            child = child_for_test(node, test)
            index = self._sync_edge(index, node, test, child)
            if child is None:
                break
            path.append(index)
            node = child
        else:
            self._sync_leaf(index, node)
        if self.annotated:
            for index in reversed(path):
                self.ann_yes[index], self.ann_maybe[index] = self._node_annotation(index)
        self._bump_generation()
        return True

    def _sync_root(self, root: PSTNode) -> bool:
        """Swap a replaced root into slot 0: a level re-materialized above
        the old root, the ``*``-child the old root was spliced out for, or
        a fresh root where an empty one stood.  ``False`` for anything
        else."""
        position, table, ranges, star, subs = self._records[0]
        held = self._slot_node_id[0]
        if root.star_child is not None and root.star_child.node_id == held:
            slot = self._lower(root, star_slot=0)
            self._swap_slots(0, slot)
            self._records[0] = (*self._records[0][:3], slot, None)
        elif star >= 0 and self._slot_node_id[star] == root.node_id:
            self._swap_slots(0, star)
            self._records[star] = (position, table, ranges, -1, None)
            self._recycle_subtree(star)
        elif table is None and ranges is None and star < 0 and subs is None:
            slot = self._lower(root)
            self._swap_slots(0, slot)
            self._recycle_subtree(slot)
        else:
            return False
        return True

    def _swap_slots(self, a: int, b: int) -> None:
        """Exchange two slots' contents; the caller re-points references."""
        for column in (self._records, self.ann_yes, self.ann_maybe, self._slot_node_id):
            column[a], column[b] = column[b], column[a]
        for slot in (a, b):
            for subscription in self._records[slot][4] or ():
                self._sub_leaf[subscription.subscription_id] = slot

    def _recycle_subtree(self, index: int) -> None:
        """Free every slot under an unreachable node for reuse.

        Only called for subtrees the live tree has *pruned* (their PST node
        ids never reappear), so nothing here can be reattached later.  A
        freed slot reads as a neutral leaf — empty record, zero annotation —
        which every backend can still execute over."""
        records = self._records
        queue = [index]
        for slot in queue:
            _position, table, ranges, star, subs = records[slot]
            if table is not None:
                queue.extend(table.values())
            if ranges is not None:
                queue.extend(child for _test, child in ranges)
            if star >= 0:
                queue.append(star)
            self._release_leaf_subs(subs)
            records[slot] = _FREE_RECORD
            self.ann_yes[slot] = self.ann_maybe[slot] = self._slot_node_id[slot] = 0
        self._free_slots.extend(queue)

    def _sync_leaf(self, index: int, node: PSTNode) -> None:
        subs = self._records[index][4]
        if (subs or ()) == tuple(node.subscriptions):
            return
        self._release_leaf_subs(subs)
        self._write_leaf(index, node.subscriptions)

    def _sync_edge(
        self,
        index: int,
        node: PSTNode,
        test: AttributeTest,
        child: Optional[PSTNode],
    ) -> int:
        """Make the edge for ``test`` out of slot ``index`` (holding
        ``node``) agree with the tree, and return the child's slot (``-1``
        when the edge is gone).

        The edge's slot is found through the parent's record — the interned
        value's table entry, the star child, or the range pair with an equal
        test — and is the live child only if its node id says so.  A child
        the slot does not hold is lowered; one that sits on top of the slot's
        node (a re-materialized level) is lowered around it, so the
        redirected node keeps its slot; a held node spliced out for its
        ``*``-child is freed, and the edge takes that child's slot.  A
        pruned edge is recycled."""
        position, table, ranges, star, _subs = self._records[index]
        if test.is_dont_care:
            slot = star
        elif isinstance(test, EqualityTest):
            value_id = self.value_ids.get(test.value)
            slot = table.get(value_id, -1) if table is not None else -1
        else:
            slot = next(
                (branch for branch_test, branch in ranges or () if branch_test == test), -1
            )
        held = self._slot_node_id[slot] if slot >= 0 else 0
        held_star = self._records[slot][3] if slot >= 0 else -1
        if child is None:
            if slot < 0:
                return -1
            self._recycle_subtree(slot)
            child_slot = -1
        elif held == child.node_id:
            return slot
        elif child.star_child is not None and held == child.star_child.node_id:
            child_slot = self._lower(child, star_slot=slot)
        elif held_star >= 0 and self._slot_node_id[held_star] == child.node_id:
            self._records[slot] = (*self._records[slot][:3], -1, None)
            self._recycle_subtree(slot)
            child_slot = held_star
        else:
            if slot >= 0:
                self._recycle_subtree(slot)
            child_slot = self._lower(child)
        if test.is_dont_care:
            star = child_slot
        elif isinstance(test, EqualityTest):
            if child_slot >= 0:
                if table is None:
                    table = {}
                table[self._intern(test.value)] = child_slot
            else:
                del table[value_id]
                table = table or None
        else:
            # Rebuilt in the tree's branch order, which the kernels' visit
            # order (and so the link search's steps) follows.
            old_ranges = ranges or ()
            ranges = tuple(
                (
                    branch_test,
                    child_slot
                    if branch_test == test
                    else next(b for t, b in old_ranges if t == branch_test),
                )
                for branch_test, _branch in node.range_branches
            ) or None
        self._records[index] = (position, table, ranges, star, None)
        return child_slot

    def __repr__(self) -> str:
        return (
            f"CompiledProgram({self.node_count} nodes, "
            f"{len(self.value_ids)} interned values, "
            f"{len(self._sub_leaf)} subscriptions, "
            f"annotated={self.annotated})"
        )


def compile_tree(
    tree: ParallelSearchTree,
    *,
    backend: Union[str, KernelBackend, None] = None,
) -> CompiledProgram:
    """Lower ``tree`` into a fresh :class:`CompiledProgram`.

    ``backend`` selects the kernel execution backend (a
    :data:`~repro.matching.backends.BACKEND_NAMES` name or a
    :class:`~repro.matching.backends.KernelBackend` instance); ``None``
    means :data:`~repro.matching.backends.DEFAULT_BACKEND`.
    """
    return CompiledProgram(tree, backend=backend)

