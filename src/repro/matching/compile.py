"""The Parallel Search Tree (Section 2 of the paper) as flat records.

Subscriptions are organized into a tree in which each level tests one
attribute (in a fixed order) and each root-to-leaf path spells out one
predicate.  A node's branches are *value branches* (equality tests, found by
hash lookup), *range branches* (scanned in order) and the ``*``-branch
("don't care", followed in parallel with any applicable branch).  The paper
counts a *matching step* as the visitation of one node; :class:`MatchResult`
reports that count so Chart 2 can be regenerated.

**Trivial test elimination** (Section 2.1, item 2) is an invariant of the
tree rather than a pass over it: no reachable non-leaf node has only a
``*``-child, so a path may skip levels.  The shape therefore depends only on
the live subscription set, never on the history that produced it (up to
branch order).

Matching is the hottest path of the whole reproduction — every broker runs
it for every event — so the tree is kept as a :class:`CompiledProgram`: one
flat record per node, indexed by node number, over which two iterative
(no recursion) kernels run:

* :meth:`CompiledProgram.match` — the Section 2 parallel search, one work
  queue per event;
* :meth:`CompiledProgram.match_links` — the Section 3.3 refinement search,
  with trit masks packed as two integer bitmasks (``yes_bits``/``maybe_bits``)
  per :mod:`repro.core.trits`; it allocates a frame only at a node with two
  or more applicable children, and descends into a node's last one in the
  node's place.

Record layout (one slot per node, node 0 is always the root).  The
structure is ``_records[n]``, one tuple
``(event_position, value_table, range_pairs, star_child, leaf_subs)``:

=====================  =======================================================
``event_position``     schema position of the attribute node ``n`` tests, or
                       ``-1`` for a leaf (doubles as the node-kind flag)
``value_table``        the value branches, keyed by *interned value id*, in
                       one of three shapes chosen by their number alone:
                       ``None`` for none, the pair ``(value_id, child slot)``
                       for one, a dict ``{value_id: child slot}`` for two or
                       more (read any of them with :func:`value_branches`)
``range_pairs``        ``((test, child slot), ...)`` in branch order, or
                       ``None``
``star_child``         slot of the ``*``-branch child, ``-1`` when absent
``leaf_subs``          a leaf's subscriptions as a tuple, ``None`` otherwise
=====================  =======================================================

Annotations are not the program's: each broker's
:class:`~repro.matching.engines.CompiledEngine` over it (a *view*, one per
router) owns ``ann_yes[n]`` / ``ann_maybe[n]``, node ``n``'s trit
annotation packed for that broker's links (Section 3.1: every broker holds
the same PST and annotates it for itself).

Attribute values are interned once into ``value_ids`` (a plain dict, so
``1``/``1.0``/``True`` collapse exactly as they do as PST hash-branch keys);
the parallel search interns the event's values once up front, the
refinement search each value at the node that tests it, and both then
perform int-keyed lookups.

Both kernels count the same ``steps`` as the paper's node-at-a-time
search; the test suite holds them, node for node and step for step, against
an object-graph PST kept there as the reference (``tests/oracle``).

**The program is the replica.**  No node graph stands behind a program:
:meth:`CompiledProgram.insert` and :meth:`CompiledProgram.remove` run
Section 2's walks on the records, so the reachable records are, node for
node, the tree the same history builds.  A
re-materialized level takes the skipping node's slot and moves that node to
a fresh one; a spliced node's slot takes its ``*``-child's record; so a
parent's edge never changes when its child is replaced, and a new range
branch goes last.  A pruned slot goes onto a free list the next insert
reuses; the ``subscription_id -> leaf`` map digests project through.  The
same walks keep every annotated view live: a moved node's annotation moves
with it, and the changed path is re-annotated once per view.  A view that
has never been annotated costs nothing.  A subscription change costs its
path and leaves no garbage.

**Batching.**  :meth:`CompiledProgram.match_batch` and
:meth:`CompiledProgram.match_links_batch` check the batch once and walk the
program once per event.  Per event the answer — match set, step count,
refined mask — is exactly the single-event kernel's, and nothing is
remembered between events: matching an event is walking the program.
"""

from __future__ import annotations

from typing import (
    Any,
    Container,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import RoutingError, SubscriptionError
from repro.core.trits import alternative_combine_bits, parallel_combine_bits
from repro.matching.events import Event
from repro.matching.predicates import AttributeTest, EqualityTest, Predicate, Subscription
from repro.matching.schema import AttributeValue, EventSchema

#: The kernel record of a slot with no node in it: a leaf holding nothing.
_FREE_RECORD = (-1, None, None, -1, None)


def value_branches(table: Any) -> Iterable[Tuple[int, int]]:
    """A value table's ``(value_id, child slot)`` branches, whatever its
    shape (see the module docstring)."""
    if table.__class__ is tuple:
        return (table,)
    return () if table is None else table.items()


class MatchResult:
    """Outcome of a match: the satisfied subscriptions and the step count."""

    __slots__ = ("subscriptions", "steps")

    def __init__(self, subscriptions: List[Subscription], steps: int) -> None:
        self.subscriptions = subscriptions
        self.steps = steps

    @property
    def subscribers(self) -> Set[str]:
        """The distinct subscriber identities among the matches."""
        return {s.subscriber for s in self.subscriptions}

    def __repr__(self) -> str:
        return f"MatchResult({len(self.subscriptions)} subscriptions, {self.steps} steps)"


def checked_order(
    schema: EventSchema, attribute_order: Optional[Sequence[str]]
) -> Tuple[str, ...]:
    """The tested attribute order: ``attribute_order``, which must be a
    permutation of the schema's names, or declaration order."""
    if attribute_order is None:
        return tuple(schema.names)
    order = tuple(attribute_order)
    if sorted(order) != sorted(schema.names):
        raise SubscriptionError(
            f"attribute_order {list(order)!r} is not a permutation of the schema"
        )
    return order


def checked_domains(
    schema: EventSchema, domains: Optional[Mapping[str, Iterable[AttributeValue]]]
) -> Dict[str, FrozenSet[AttributeValue]]:
    """Declared finite domains by attribute name (every name validated)."""
    checked: Dict[str, FrozenSet[AttributeValue]] = {}
    for name, values in (domains or {}).items():
        schema.position_of(name)  # validates the name
        checked[name] = frozenset(values)
    return checked


def check_insertable(
    schema: EventSchema, subscription: Subscription, registered: Container[int]
) -> None:
    """Refuse a subscription on another schema, a registered id, or an
    unsatisfiable predicate."""
    predicate = subscription.predicate
    if predicate.schema is not schema and predicate.schema != schema:
        raise SubscriptionError("subscription schema does not match the tree's schema")
    if subscription.subscription_id in registered:
        raise SubscriptionError(
            f"subscription #{subscription.subscription_id} is already registered"
        )
    if not predicate.is_satisfiable:
        raise SubscriptionError(
            f"refusing to register unsatisfiable predicate {predicate.describe()!r}"
        )


def first_constrained(tests: Sequence[AttributeTest], start: int, stop: int) -> Optional[int]:
    """First level in ``[start, stop)`` whose test is not a don't-care."""
    for level in range(start, stop):
        if not tests[level].is_dont_care:
            return level
    return None


class CompiledProgram:
    """One Parallel Search Tree as flat, kernel-ready records.

    Starts empty; :meth:`insert` and :meth:`remove` change it one
    subscription at a time.  Link annotations belong to its ``views`` (see
    the module docstring): :meth:`annotate` writes one view's in full, and
    every change from then on re-annotates its path in each annotated view.

    ``attribute_order`` (a permutation of the schema's names; default
    declaration order, see :mod:`repro.matching.ordering`) fixes the tested
    order.  ``domains`` optionally maps attribute names to their finite value
    sets; only annotation uses them (a node whose value branches cover the
    domain can promote a link to Yes), matching never does.
    """

    __slots__ = (
        "schema",
        "attribute_order",
        "_positions",
        "_levels",
        "_domains",
        # one kernel record per node slot
        "_records",
        # interning / bookkeeping
        "value_ids",
        "_schema_ok",
        # digest projection (subscription id -> live leaf index)
        "_sub_leaf",
        # slot recycling
        "_free_slots",
        # the per-router views this program keeps annotated
        "views",
    )

    def __init__(
        self,
        schema: EventSchema,
        *,
        attribute_order: Optional[Sequence[str]] = None,
        domains: Optional[Mapping[str, Iterable[AttributeValue]]] = None,
    ) -> None:
        self.schema = schema
        self.attribute_order = checked_order(schema, attribute_order)
        self._positions: Tuple[int, ...] = tuple(
            schema.position_of(name) for name in self.attribute_order
        )
        #: Tree level of each schema position (the inverse of ``_positions``).
        self._levels = tuple(map(self._positions.index, range(len(self._positions))))
        # An empty root at the first level, as a fresh tree has.
        self._records: List[tuple] = [(self._positions[0], None, None, -1, None)]
        self.value_ids: Dict[AttributeValue, int] = {}
        #: Each schema position's declared domain as ``{interned id: value}``;
        #: ``None`` when the domain is open.
        self._domains: List[Optional[Dict[int, AttributeValue]]] = [None] * len(
            self._positions
        )
        declared = checked_domains(schema, domains)
        for position in self._positions:
            domain = declared.get(schema.names[position])
            if domain is not None:
                self._domains[position] = {self._intern(value): value for value in domain}
        #: Last foreign schema object that deep-compared equal to ours —
        #: kept as a strong reference so the ``is`` fast path in
        #: :meth:`_schema_mismatch` cannot be fooled by id reuse.
        self._schema_ok: Optional[EventSchema] = None
        #: ``subscription_id -> leaf index`` over the live leaves, in
        #: insertion order, written by :meth:`insert` and :meth:`remove`.
        self._sub_leaf: Dict[int, int] = {}
        #: Slots :meth:`remove` pruned, reset to neutral leaves and awaiting
        #: reuse by :meth:`insert`.
        self._free_slots: List[int] = []
        #: The views handed out over this program (each a
        #: :class:`~repro.matching.engines.CompiledEngine`), annotated or not.
        self.views: List[Any] = []

    def _intern(self, value: AttributeValue) -> int:
        value_id = self.value_ids.get(value)
        if value_id is None:
            value_id = len(self.value_ids)
            self.value_ids[value] = value_id
        return value_id

    # ------------------------------------------------------------------
    # Introspection

    def __len__(self) -> int:
        return len(self._sub_leaf)

    def __contains__(self, subscription_id: object) -> bool:
        return subscription_id in self._sub_leaf

    @property
    def subscriptions(self) -> List[Subscription]:
        """All registered subscriptions, in insertion order."""
        records = self._records
        by_leaf: Dict[int, Dict[int, Subscription]] = {}
        out = []
        for subscription_id, leaf in self._sub_leaf.items():
            members = by_leaf.get(leaf)
            if members is None:
                members = by_leaf[leaf] = {s.subscription_id: s for s in records[leaf][4]}
            out.append(members[subscription_id])
        return out

    def match_brute_force(self, event: Event) -> List[Subscription]:
        """Reference semantics: evaluate every predicate directly."""
        return [s for s in self.subscriptions if s.predicate.matches(event)]

    @property
    def domains(self) -> Dict[str, FrozenSet[AttributeValue]]:
        """The declared finite domains by attribute name."""
        names = self.schema.names
        return {
            names[position]: frozenset(domain.values())
            for position, domain in enumerate(self._domains)
            if domain is not None
        }

    @property
    def node_count(self) -> int:
        """Node slots (live + free-for-reuse)."""
        return len(self._records)

    def reachable_slots(self) -> List[int]:
        """The live slots, breadth-first from the root: every node after
        its parent."""
        order = [0]
        records = self._records
        for index in order:
            position, table, ranges, star, _subs = records[index]
            if position < 0:
                continue
            order.extend(child for _value_id, child in value_branches(table))
            if ranges is not None:
                order.extend(child for _test, child in ranges)
            if star >= 0:
                order.append(star)
        return order

    # ------------------------------------------------------------------
    # Annotation (packed trit vectors, one pair of columns per view)

    def annotate(self, view: Any) -> None:
        """(Re)compute all of ``view``'s packed per-node annotations
        bottom-up, for its ``num_links`` and ``link_of_subscriber``.

        Section 3.1's recipe, evaluated per domain value under a declared
        domain.  The per-value fold collapses, Alternative Combine being idempotent, to
        one outcome per branch plus the bare ``*``-branch (see
        :meth:`_combined_annotation`); only nodes with range branches under a
        declared domain fold per value.
        """
        records = self._records
        view.ann_yes = ann_yes = [0] * len(records)
        view.ann_maybe = ann_maybe = [0] * len(records)
        try:
            # Reversed breadth-first order has each node's children
            # annotated before it.
            for index in reversed(self.reachable_slots()):
                ann_yes[index], ann_maybe[index] = self._node_annotation(index, view)
        except RoutingError:
            view.ann_yes = view.ann_maybe = None  # half-written: not annotated
            raise

    def _node_annotation(self, index: int, view: Any) -> Tuple[int, int]:
        if self._records[index][0] < 0:
            return self._leaf_annotation(index, view)
        return self._combined_annotation(index, view)

    def _leaf_annotation(self, index: int, view: Any) -> Tuple[int, int]:
        num_links, link_of = view.num_links, view.link_of_subscriber
        yes = 0
        for subscription in self._records[index][4] or ():
            position = link_of(subscription)
            if position < 0:
                continue  # subscriber unreachable — no link to light
            if position >= num_links:
                raise RoutingError(
                    f"link position {position} out of range for {subscription!r}"
                )
            yes |= 1 << position
        return yes, 0

    def _combined_annotation(self, index: int, view: Any) -> Tuple[int, int]:
        """Alternative Combine over the outcomes an event can meet at node
        ``index``, each the Parallel Combine of the branches it takes."""
        full = (1 << view.num_links) - 1
        ann_yes = view.ann_yes
        ann_maybe = view.ann_maybe
        position, table, ranges, star, _subs = self._records[index]
        star_yes, star_maybe = (ann_yes[star], ann_maybe[star]) if star >= 0 else (0, 0)
        domain = self._domains[position]
        out: Optional[Tuple[int, int]] = None
        if domain is not None and ranges is not None:
            # Which ranges accept depends on the value: fold every value's.
            branches = dict(value_branches(table))
            for value_id, value in domain.items():
                part = (star_yes, star_maybe)
                child = branches.get(value_id, -1)
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
        # Alternative, the paper's open-domain recipe (branches A No) P star
        # is this same fold.
        branches = value_branches(table)
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

        Visits every node whose path the event satisfies — each is appended
        to the work queue once and processed once, so ``steps`` is simply the
        final queue length.  Visiting breadth-first rather than in the
        paper's parallel order changes neither the match set nor the count.
        """
        if self._schema_mismatch(event):
            raise SubscriptionError("event schema does not match the tree's schema")
        matched, steps = self._search(event.as_tuple())
        return MatchResult(matched, steps)

    def match_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        """Match a batch of events, checked once.  Per event this is exactly
        :meth:`match` — same match set, same step count, repeats included."""
        for event in events:
            if self._schema_mismatch(event):
                raise SubscriptionError("event schema does not match the tree's schema")
        search = self._search
        return [MatchResult(*search(event.as_tuple())) for event in events]

    def match_links(
        self, view: Any, event: Event, yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        """The Section 3.3 refinement search over packed masks, on
        ``view``'s annotation.

        Takes the initialization mask as ``(yes_bits, maybe_bits)`` and
        returns ``(final_yes_bits, steps)``; the final mask has no Maybe
        trits by construction, so the Yes bits determine it completely.
        """
        if view.ann_yes is None:
            raise RoutingError("the view has no link annotations — call annotate()")
        if self._schema_mismatch(event):
            raise RoutingError("event schema does not match the annotated tree")
        return self._refine(event.as_tuple(), yes_bits, maybe_bits, view.ann_yes, view.ann_maybe)

    def match_links_batch(
        self, view: Any, events: Sequence[Event], yes_bits: int, maybe_bits: int
    ) -> List[Tuple[int, int]]:
        """Refine one shared initialization mask for a batch of events.
        Per event this is exactly :meth:`match_links`."""
        if not events:
            return []
        if view.ann_yes is None:
            raise RoutingError("the view has no link annotations — call annotate()")
        for event in events:
            if self._schema_mismatch(event):
                raise RoutingError("event schema does not match the annotated tree")
        refine, ann_yes, ann_maybe = self._refine, view.ann_yes, view.ann_maybe
        return [
            refine(event.as_tuple(), yes_bits, maybe_bits, ann_yes, ann_maybe)
            for event in events
        ]

    def _search(self, values: tuple) -> Tuple[list, int]:
        """The parallel search on one event's value tuple:
        ``(matched_subscriptions, steps)``."""
        value_ids = self.value_ids
        interned = [value_ids.get(value) for value in values]
        records = self._records
        matched: list = []
        extend = matched.extend
        # The for loop walks the queue while children are appended to it —
        # CPython list iteration sees the growth, giving a pop-free BFS.
        queue = [0]
        push = queue.append
        for node_index in queue:
            position, table, ranges, star_child, subs = records[node_index]
            if position >= 0:
                if table.__class__ is tuple:
                    if table[0] == interned[position]:
                        push(table[1])
                elif table is not None:
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

    def _refine(
        self,
        values: tuple,
        yes_bits: int,
        maybe_bits: int,
        ann_yes: List[int],
        ann_maybe: List[int],
    ) -> Tuple[int, int]:
        """The refinement search on one event's value tuple over one view's
        annotation columns: ``(final_yes_bits, steps)``.

        An explicit frame stack mirrors the paper's recursive search exactly
        — same visit order, same early exits, same ``steps``.  A node's last
        applicable child is searched in the node's own place, with no frame:
        a subsearch entered with ``(yes, maybe)`` returns Yes bits ``R`` with
        ``yes ⊆ R ⊆ yes | maybe``, so Step 3's merge ``yes | (maybe & R)``
        is ``R`` itself.
        """
        value_ids = self.value_ids
        records = self._records
        steps = 0
        # Each frame: [later_children, next_index, yes_bits, maybe_bits],
        # pushed only by a node with two or more applicable children.
        frames: List[list] = []
        current = 0
        cur_yes = yes_bits
        cur_maybe = maybe_bits
        while True:
            steps += 1
            # Step 2: refine Maybes with the node's annotation.
            cur_yes |= cur_maybe & ann_yes[current]
            cur_maybe &= ann_maybe[current]
            if cur_maybe:
                position, table, ranges, star_child, _subs = records[current]
                if position < 0:
                    # Leaf annotations are Yes/No only, so refinement above
                    # has already removed every Maybe; this is unreachable
                    # unless an annotation is stale.
                    raise RoutingError(
                        "leaf annotation left Maybe trits — stale annotation?"
                    )
                first = -1
                later = None
                if table.__class__ is tuple:
                    if table[0] == value_ids.get(values[position]):
                        first = table[1]
                elif table is not None:
                    first = table.get(value_ids.get(values[position]), -1)
                if ranges is not None:
                    value = values[position]
                    for test, range_child in ranges:
                        if test.evaluate(value):
                            if first < 0:
                                first = range_child
                            elif later is None:
                                later = [range_child]
                            else:
                                later.append(range_child)
                if star_child >= 0:
                    if first < 0:
                        first = star_child
                    elif later is None:
                        later = [star_child]
                    else:
                        later.append(star_child)
                if first >= 0:
                    if later is not None:
                        frames.append([later, 0, cur_yes, cur_maybe])
                    current = first
                    continue
                # No applicable branch: remaining Maybes become No.
            # The subsearch at `current` is complete and returns `cur_yes`.
            while frames:
                frame = frames[-1]
                # Step 3: convert to Yes every Maybe whose returned trit is Yes.
                frame_maybe = frame[3]
                returned_yes = cur_yes
                cur_yes = frame[2] | (frame_maybe & returned_yes)
                cur_maybe = frame_maybe & ~returned_yes
                if not cur_maybe:
                    frames.pop()
                    continue
                later = frame[0]
                index = frame[1]
                current = later[index]
                if index + 1 == len(later):
                    frames.pop()  # the last child takes the node's place
                else:
                    frame[1] = index + 1
                    frame[2] = cur_yes
                    frame[3] = cur_maybe
                break
            else:
                return cur_yes, steps

    # ------------------------------------------------------------------
    # Digest projection (match-once forwarding)

    def project_links(
        self, view: Any, subscription_ids: Sequence[int], yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        """Project a match digest straight onto ``view``'s packed
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
        if view.ann_yes is None:
            raise RoutingError("the view has no link annotations — call annotate()")
        mapping = self._sub_leaf
        ann_yes = view.ann_yes
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
    # Insert / remove (Section 2's walks on the records)

    def insert(self, subscription: Subscription) -> None:
        """Add a subscription, extending the records along its path.

        New nodes start at the subscription's next constrained level, and a
        level the path skips but the subscription constrains is
        re-materialized in the skipping node's slot, so no node is left with
        only a ``*``-child.
        """
        check_insertable(self.schema, subscription, self._sub_leaf)
        tests = self._tests_in_order(subscription.predicate)
        records = self._records
        end = len(tests)
        if records[0][1:] == _FREE_RECORD[1:]:  # an empty root: the path starts over
            records[0] = self._node_record(tests, 0)
        slot, level = 0, 0
        path = [slot]
        while True:
            position = records[slot][0]
            node_level = end if position < 0 else self._levels[position]
            target = first_constrained(tests, level, node_level) if level < node_level else None
            if target is not None:
                # The subscription constrains a level this path skips: a
                # fresh node at that level, whose *-branch leads to the old
                # one, takes the old one's slot.
                moved = self._new_slot(_FREE_RECORD)
                self._move(slot, moved)
                records[slot] = (self._positions[target], None, None, moved, None)
                node_level = target
            record = records[slot]
            if record[0] < 0:
                records[slot] = (-1, None, None, -1, (*(record[4] or ()), subscription))
                self._sub_leaf[subscription.subscription_id] = slot
                break
            test = tests[node_level]
            child = self._child(record, test)
            if child < 0:
                child = self._new_slot(self._node_record(tests, node_level + 1))
                self._add_branch(slot, test, child)
            slot, level = child, node_level + 1
            path.append(slot)
        self._changed(path)

    def remove(self, subscription_id: int) -> Subscription:
        """Remove a subscription by id, pruning now-empty branches onto the
        free list and splicing out a node left with only a ``*``-child (its
        slot takes the child's record).

        Returns the removed subscription; raises :class:`SubscriptionError`
        if the id is unknown.
        """
        leaf = self._sub_leaf.pop(subscription_id, None)
        if leaf is None:
            raise SubscriptionError(f"unknown subscription id {subscription_id}")
        records = self._records
        subs = records[leaf][4]
        subscription = next(s for s in subs if s.subscription_id == subscription_id)
        tests = self._tests_in_order(subscription.predicate)
        path = self._path(tests)
        assert path[-1] == leaf, "a live subscription's path ends at its leaf"
        remaining = tuple(s for s in subs if s.subscription_id != subscription_id)
        records[leaf] = (-1, None, None, -1, remaining or None)
        alive = bool(remaining)
        # Bottom-up: a pruned child leaves its parent's record; a parent
        # left with only its *-child is replaced by it.  A drained root
        # stays, empty, until the next insert starts a path over.
        for index in range(len(path) - 2, -1, -1):
            slot = path[index]
            if not alive:
                self._drop_branch(slot, tests[self._levels[records[slot][0]]], path[index + 1])
            _position, table, ranges, star, _subs = records[slot]
            alive = True
            if table is None and ranges is None:
                if star >= 0:  # splice: the *-child takes the node's slot
                    self._move(star, slot)
                    self._free(star)
                else:
                    alive = False
        self._changed(path)
        return subscription

    def _tests_in_order(self, predicate: Predicate) -> List[AttributeTest]:
        return [predicate.tests[position] for position in self._positions]

    def _path(self, tests: List[AttributeTest]) -> List[int]:
        """The slots from the root down the branches ``tests`` label, as far
        as they exist."""
        records = self._records
        slot = 0
        path = [slot]
        while records[slot][0] >= 0:
            slot = self._child(records[slot], tests[self._levels[records[slot][0]]])
            if slot < 0:
                break
            path.append(slot)
        return path

    def _changed(self, path: List[int]) -> None:
        """Re-annotate ``path`` in every annotated view."""
        for view in self.views:
            if view.ann_yes is not None:
                self._annotate_path(view, path)

    def _annotate_path(self, view: Any, path: List[int]) -> None:
        """Recompute ``view``'s annotation of ``path``'s slots, bottom-up."""
        ann_yes, ann_maybe = view.ann_yes, view.ann_maybe
        for slot in reversed(path):
            ann_yes[slot], ann_maybe[slot] = self._node_annotation(slot, view)

    def _node_record(self, tests: List[AttributeTest], level: int) -> tuple:
        """An empty node for a path that continues at ``level``: placed at
        the first level from there that ``tests`` constrain, or a leaf."""
        target = first_constrained(tests, level, len(tests))
        if target is None:
            return _FREE_RECORD
        return (self._positions[target], None, None, -1, None)

    def _new_slot(self, record: tuple) -> int:
        """A slot (free ones first) holding ``record``, annotation zero."""
        if self._free_slots:
            slot = self._free_slots.pop()  # already a neutral leaf
            self._records[slot] = record
        else:
            slot = len(self._records)
            self._records.append(record)
            for view in self.views:
                if view.ann_yes is not None:
                    view.ann_yes.append(0)
                    view.ann_maybe.append(0)
        return slot

    def _free(self, slot: int) -> None:
        """Reset an unreachable slot to a neutral leaf — empty record, zero
        annotation, which the kernels can still execute over — for reuse."""
        self._records[slot] = _FREE_RECORD
        for view in self.views:
            if view.ann_yes is not None:
                view.ann_yes[slot] = view.ann_maybe[slot] = 0
        self._free_slots.append(slot)

    def _move(self, source: int, target: int) -> None:
        """Copy the node in ``source`` — record and annotations — to
        ``target``; a leaf's subscriptions now map to ``target``."""
        self._records[target] = record = self._records[source]
        for view in self.views:
            if view.ann_yes is not None:
                view.ann_yes[target] = view.ann_yes[source]
                view.ann_maybe[target] = view.ann_maybe[source]
        for subscription in record[4] or ():
            self._sub_leaf[subscription.subscription_id] = target

    def _child(self, record: tuple, test: AttributeTest) -> int:
        """The slot of the child whose branch label equals ``test``, ``-1``
        when there is none."""
        _position, table, ranges, star, _subs = record
        if test.is_dont_care:
            return star
        if isinstance(test, EqualityTest):
            value_id = self.value_ids.get(test.value)
            if table.__class__ is tuple:
                return table[1] if table[0] == value_id else -1
            return table.get(value_id, -1) if table is not None else -1
        for branch_test, child in ranges or ():
            if branch_test == test:
                return child
        return -1

    def _add_branch(self, slot: int, test: AttributeTest, child: int) -> None:
        """Give the node in ``slot`` a new branch for ``test``; a new range
        branch goes last, and a second value branch turns the pair into a
        dict."""
        position, table, ranges, star, _subs = self._records[slot]
        if test.is_dont_care:
            star = child
        elif isinstance(test, EqualityTest):
            branch = (self._intern(test.value), child)
            if table.__class__ is dict:  # the record already holds the dict
                table[branch[0]] = child
                return
            table = branch if table is None else dict((table, branch))
        else:
            ranges = (*(ranges or ()), (test, child))
        self._records[slot] = (position, table, ranges, star, None)

    def _drop_branch(self, slot: int, test: AttributeTest, child: int) -> None:
        """Unlink the pruned branch for ``test`` and free its slot; a dict
        left with one value branch turns back into the pair."""
        position, table, ranges, star, _subs = self._records[slot]
        if test.is_dont_care:
            star = -1
        elif isinstance(test, EqualityTest):
            if table.__class__ is tuple:  # the node's only value branch
                table = None
            else:
                del table[self.value_ids[test.value]]
                if len(table) == 1:
                    (table,) = table.items()
        else:
            ranges = tuple(pair for pair in ranges if pair[0] != test) or None
        self._records[slot] = (position, table, ranges, star, None)
        self._free(child)

    def __repr__(self) -> str:
        return (
            f"CompiledProgram({self.node_count} nodes, "
            f"{len(self.value_ids)} interned values, "
            f"{len(self._sub_leaf)} subscriptions, "
            f"{len(self.views)} views)"
        )

