"""Golden tests reproducing the paper's worked examples, on the compiled
program and on the object-graph oracle alike.

* Figure 2: the matching tree for the five-attribute schema and the walk for
  event ``a = <1, 2, 3, 1, 2>``.
* Figure 4: the Alternative / Parallel Combine tables.
* Figure 5: the annotation-combination example ``MYY A NYN = MYM`` and
  ``MYM P YYN = YYM``, and the same computation arising from an actual
  annotated tree of the same shape.
"""

from __future__ import annotations

from repro.core import M, N, TritVector, Y, alternative_combine, parallel_combine
from repro.core.trits import unpack_tritvector
from repro.matching import Event, uniform_schema, view_of
from tests.conftest import build_program, make_subscription
from tests.oracle import TreeAnnotation, build_pst


class TestFigure2:
    """The example tree has subscriptions spelled out by its root-to-leaf
    paths; we rebuild the essential paths and check the marked walk."""

    def setup_method(self):
        self.schema = uniform_schema(5)
        self.subscriptions = [
            # Rightmost leaf of the figure: a1=1 & a2=2 & a3=3 & a5=3.
            make_subscription(self.schema, "a1=1 & a2=2 & a3=3 & a5=3", "right"),
            # A *-prefixed path: don't care a1, then a2=2.
            make_subscription(self.schema, "a2=2", "star_a1"),
            # Fully wildcarded until a3.
            make_subscription(self.schema, "a3=3", "mid"),
            # A path diverging at a4.
            make_subscription(self.schema, "a1=1 & a4=1", "a4_path"),
        ]
        self.tree = build_pst(self.schema, self.subscriptions)
        self.program = build_program(self.schema, self.subscriptions)

    def match(self, values):
        """The subscribers both structures match, which must agree, steps
        included."""
        event = Event.from_tuple(self.schema, values)
        tree, program = self.tree.match(event), self.program.match(event)
        assert program.subscribers == tree.subscribers
        assert program.steps == tree.steps
        return tree.subscribers

    def test_event_from_the_figure(self):
        # a = <1, 2, 3, 1, 2>: matches everything except the rightmost leaf
        # (a5=3 fails: the event has a5=2).
        assert self.match((1, 2, 3, 1, 2)) == {"star_a1", "mid", "a4_path"}

    def test_event_satisfying_rightmost_leaf(self):
        assert "right" in self.match((1, 2, 3, 1, 3))

    def test_star_and_value_both_taken(self):
        # star_a1 via the *-branch, a4_path via the value branch.
        assert self.match((1, 2, 0, 1, 0)) == {"star_a1", "a4_path"}


class TestFigure4:
    def test_alternative_combine_table(self):
        rows = {
            (Y, Y): Y, (Y, M): M, (Y, N): M,
            (M, Y): M, (M, M): M, (M, N): M,
            (N, Y): M, (N, M): M, (N, N): N,
        }
        for (a, b), want in rows.items():
            assert alternative_combine(a, b) is want

    def test_parallel_combine_table(self):
        rows = {
            (Y, Y): Y, (Y, M): Y, (Y, N): Y,
            (M, Y): Y, (M, M): M, (M, N): M,
            (N, Y): Y, (N, M): M, (N, N): N,
        }
        for (a, b), want in rows.items():
            assert parallel_combine(a, b) is want


class TestFigure5:
    def test_combine_example_verbatim(self):
        assert TritVector("MYY").alternative(TritVector("NYN")) == TritVector("MYM")
        assert TritVector("MYM").parallel(TritVector("YYN")) == TritVector("YYM")

    def test_annotation_on_equivalent_tree(self):
        """Rebuild the figure's one-level situation with real subscriptions.

        A node tests an attribute with three links l0-l2; its value children
        carry annotations MYY and NYN and its *-child YYN.  The node's
        annotation must come out YYM: guaranteed on l0 (the *-child
        guarantees it), guaranteed on l1 (every alternative agrees), maybe
        on l2.
        """
        schema = uniform_schema(2)
        links = {"l0": 0, "l1": 1, "l2": 2}
        subscriptions = [
            # *-branch at a1 guaranteeing l0 and l1 (match-all on both).
            make_subscription(schema, "*", "l0"),
            make_subscription(schema, "*", "l1"),
            # Value branch a1=1 adding a conditional l2 subscriber.
            make_subscription(schema, "a1=1 & a2=1", "l2"),
            # Value branch a1=2 with nothing extra.
            make_subscription(schema, "a1=2", "l1"),
        ]
        tree = build_pst(schema, subscriptions, domains={"a1": [1, 2]})
        annotation = TreeAnnotation(3, lambda s: links[s.subscriber])
        root_vector = annotation.annotate(tree)
        assert root_vector == TritVector("YYM")
        view = view_of(build_program(schema, subscriptions, domains={"a1": [1, 2]}))
        view.bind_links(3, lambda s: links[s.subscriber])
        view.annotate()
        assert unpack_tritvector(view.ann_yes[0], view.ann_maybe[0], 3) == TritVector("YYM")
