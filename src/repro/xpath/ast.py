"""Abstract syntax for (extended) dsXPath queries.

The core grammar is Fig. 2 of the paper: a query is a ``/``-separated
sequence of steps ``axis::nodetest[pred]*``.  Axes cover XPath's
navigational axes except ``following``/``preceding``; predicates are
positional, attribute-existence, or one of four Boolean string
functions over an attribute or ``normalize-space(.)``.

Two extensions beyond Fig. 2 exist solely so the *evaluator* can run
the human-crafted wrappers of the paper's corpus (Tables 1 and 2 use
``following`` and nested predicates like ``[ancestor::div[1][@class=…]]``):
the axes ``following``/``preceding`` and :class:`RelativePredicate`.
Induction never emits them, and :func:`repro.xpath.fragment.is_ds_query`
rejects them.

All AST values are immutable and hashable, so queries can be deduplicated
in K-best tables and used as dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union


class Axis(str, Enum):
    """Navigational axes.

    The first seven are the dsXPath axes (Fig. 2); FOLLOWING and
    PRECEDING are evaluator-only extensions for human wrappers.
    """

    CHILD = "child"
    PARENT = "parent"
    DESCENDANT = "descendant"
    ANCESTOR = "ancestor"
    FOLLOWING_SIBLING = "following-sibling"
    PRECEDING_SIBLING = "preceding-sibling"
    ATTRIBUTE = "attribute"
    FOLLOWING = "following"
    PRECEDING = "preceding"
    SELF = "self"

    @property
    def is_reverse(self) -> bool:
        """Reverse axes order candidates in reverse document order."""
        return self in _REVERSE_AXES

    @property
    def transitive(self) -> "Axis":
        """The paper's ``axis.transitive``: child→descendant, parent→ancestor,
        sibling axes map to themselves."""
        return _TRANSITIVE[self]

    @property
    def reverse(self) -> "Axis":
        """The paper's ``axis.reverse``: the axis navigating back."""
        return _REVERSED[self]


_REVERSE_AXES = frozenset({Axis.PARENT, Axis.ANCESTOR, Axis.PRECEDING_SIBLING, Axis.PRECEDING})

_TRANSITIVE = {
    Axis.CHILD: Axis.DESCENDANT,
    Axis.PARENT: Axis.ANCESTOR,
    Axis.DESCENDANT: Axis.DESCENDANT,
    Axis.ANCESTOR: Axis.ANCESTOR,
    Axis.FOLLOWING_SIBLING: Axis.FOLLOWING_SIBLING,
    Axis.PRECEDING_SIBLING: Axis.PRECEDING_SIBLING,
    Axis.ATTRIBUTE: Axis.ATTRIBUTE,
    Axis.FOLLOWING: Axis.FOLLOWING,
    Axis.PRECEDING: Axis.PRECEDING,
    Axis.SELF: Axis.SELF,
}

_REVERSED = {
    Axis.CHILD: Axis.PARENT,
    Axis.PARENT: Axis.CHILD,
    Axis.DESCENDANT: Axis.ANCESTOR,
    Axis.ANCESTOR: Axis.DESCENDANT,
    Axis.FOLLOWING_SIBLING: Axis.PRECEDING_SIBLING,
    Axis.PRECEDING_SIBLING: Axis.FOLLOWING_SIBLING,
    Axis.ATTRIBUTE: Axis.PARENT,
    Axis.FOLLOWING: Axis.PRECEDING,
    Axis.PRECEDING: Axis.FOLLOWING,
    Axis.SELF: Axis.SELF,
}

#: The paper's base axes B (Sec. 5).
BASE_AXES = (Axis.CHILD, Axis.PARENT, Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING)

#: Axes allowed in dsXPath queries (Fig. 2).
DS_AXES = frozenset(
    {
        Axis.CHILD,
        Axis.PARENT,
        Axis.DESCENDANT,
        Axis.ANCESTOR,
        Axis.FOLLOWING_SIBLING,
        Axis.PRECEDING_SIBLING,
        Axis.ATTRIBUTE,
    }
)


@dataclass(frozen=True)
class NodeTest:
    """A node test: ``*``, ``node()``, ``text()``, or a tag name.

    On the attribute axis, a name test matches the attribute *name* and
    ``*`` matches any attribute (XPath's principal node type rule).
    """

    kind: str  # "any" | "node" | "text" | "name"
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("any", "node", "text", "name"):
            raise ValueError(f"bad nodetest kind: {self.kind}")
        if (self.kind == "name") != (self.name is not None):
            raise ValueError("name tests require a name; others must not have one")

    def __str__(self) -> str:
        if self.kind == "any":
            return "*"
        if self.kind == "node":
            return "node()"
        if self.kind == "text":
            return "text()"
        return self.name  # type: ignore[return-value]


ANY = NodeTest("any")
NODE = NodeTest("node")
TEXT = NodeTest("text")


def name_test(name: str) -> NodeTest:
    return NodeTest("name", name)


@dataclass(frozen=True)
class TextSubject:
    """The ``normalize-space(.)`` subject of a string predicate."""

    def __str__(self) -> str:
        return "."


@dataclass(frozen=True)
class AttrSubject:
    """An ``attribute::name`` subject of a string predicate."""

    name: str

    def __str__(self) -> str:
        return f"@{self.name}"


Subject = Union[TextSubject, AttrSubject]

#: The four Boolean string functions of Fig. 2.
STRING_FUNCTIONS = ("equals", "contains", "starts-with", "ends-with")


@dataclass(frozen=True)
class PositionalPredicate:
    """``[n]`` (index, 1-based) or ``[last()-n]`` (from_last, n >= 0)."""

    index: Optional[int] = None
    from_last: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.index is None) == (self.from_last is None):
            raise ValueError("exactly one of index/from_last must be set")
        if self.index is not None and self.index < 1:
            raise ValueError("positional index must be >= 1")
        if self.from_last is not None and self.from_last < 0:
            raise ValueError("last()-n requires n >= 0")

    def __str__(self) -> str:
        if self.index is not None:
            return f"[{self.index}]"
        if self.from_last == 0:
            return "[last()]"
        return f"[last()-{self.from_last}]"


@dataclass(frozen=True)
class AttributePredicate:
    """Attribute existence test ``[@name]``."""

    name: str

    def __str__(self) -> str:
        return f"[@{self.name}]"


@dataclass(frozen=True)
class StringPredicate:
    """``[function(subject, "value")]`` with the four string functions.

    ``equals`` prints in XPath's idiomatic ``[subject="value"]`` form.
    """

    function: str
    subject: Subject
    value: str

    def __post_init__(self) -> None:
        if self.function not in STRING_FUNCTIONS:
            raise ValueError(f"unknown string function: {self.function}")

    def __str__(self) -> str:
        value = self.value.replace('"', '\\"')
        if self.function == "equals":
            return f'[{self.subject}="{value}"]'
        return f'[{self.function}({self.subject},"{value}")]'


@dataclass(frozen=True)
class RelativePredicate:
    """Existence test of a relative path, e.g. ``[ancestor::div[1][@class="x"]]``.

    Evaluator-only extension used by human wrappers; never induced.
    """

    query: "Query"

    def __str__(self) -> str:
        return f"[{self.query}]"


Predicate = Union[PositionalPredicate, AttributePredicate, StringPredicate, RelativePredicate]


@dataclass(frozen=True, eq=True)
class Step:
    """One step: ``axis::nodetest[pred]*``.

    Hash and text are memoized: steps are hashed and printed millions of
    times inside the induction's K-best tables.
    """

    axis: Axis
    nodetest: NodeTest
    predicates: tuple[Predicate, ...] = ()

    def __post_init__(self) -> None:
        # Hash eagerly: steps are hashed far more often than they are
        # built, and a plain attribute read beats a memo-dict lookup.
        object.__setattr__(
            self, "_hash", hash((self.axis, self.nodetest, self.predicates))
        )

    def with_predicates(self, *predicates: Predicate) -> "Step":
        return Step(self.axis, self.nodetest, self.predicates + tuple(predicates))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Step):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (
            self.axis is other.axis
            and self.nodetest == other.nodetest
            and self.predicates == other.predicates
        )

    def __str__(self) -> str:
        try:
            return self._str
        except AttributeError:
            preds = "".join(str(p) for p in self.predicates)
            cached = f"{self.axis.value}::{self.nodetest}{preds}"
            object.__setattr__(self, "_str", cached)
            return cached


@dataclass(frozen=True, eq=True)
class Query:
    """A ``/``-separated sequence of steps.

    ``absolute`` queries start at the document node (canonical paths);
    relative queries are evaluated from a given context node.  The empty
    relative query is the ``ε`` of the induction algorithm: it selects
    its context node.  Hash and text are memoized (hot in K-best tables
    and evaluation caches).
    """

    steps: tuple[Step, ...] = ()
    absolute: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.steps, self.absolute)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Query):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return self.absolute == other.absolute and self.steps == other.steps

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def is_empty(self) -> bool:
        return not self.steps and not self.absolute

    def concat(self, other: "Query") -> "Query":
        """``self/other``; the right side must be relative."""
        if other.absolute:
            raise ValueError("cannot concatenate an absolute query on the right")
        return Query(self.steps + other.steps, absolute=self.absolute)

    def prepend(self, step: Step) -> "Query":
        if self.absolute:
            raise ValueError("cannot prepend a step to an absolute query")
        return Query((step,) + self.steps)

    def append(self, step: Step) -> "Query":
        return Query(self.steps + (step,), absolute=self.absolute)

    def __str__(self) -> str:
        try:
            return self._str
        except AttributeError:
            body = "/".join(str(step) for step in self.steps)
            if self.absolute:
                cached = "/" + body
            else:
                cached = body if body else "ε"
            object.__setattr__(self, "_str", cached)
            return cached


EMPTY_QUERY = Query()
