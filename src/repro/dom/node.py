"""Document tree nodes and the document-order index.

The tree model follows Sec. 2 of the paper: an HTML document gives rise
to element nodes, attribute nodes, and text nodes.  Attribute nodes are
materialized lazily (one per element/attribute-name pair) so that the
``attribute`` axis can return stable node objects.

Every node exposes the navigation needed by the dsXPath axes (parent,
children, siblings) plus a ``meta`` dict used by the experiment harness
for ground-truth bookkeeping; ``meta`` never influences query results.

Documents are queried far more often than they are mutated, so each
:class:`Document` lazily builds a :class:`DocumentIndex`: every node is
stamped with its pre-order number (``_pre``), the pre-order number of
the last node in its subtree (``_post``), and a build stamp tying it to
one index generation.  Document-order comparison, dedup + sort,
membership, and ancestor tests then become integer comparisons, and the
``descendant``/``following``/``preceding`` axes become list slices.
After direct tree mutation, :meth:`Document.invalidate` drops the index
(and the text cache); the next query rebuilds it.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator, Optional

_WHITESPACE = re.compile(r"\s+")

#: Global generator of index-build stamps.  Each index build gets a fresh
#: stamp and writes it into every indexed node, so ``node._stamp ==
#: index.stamp`` is an O(1) "is this node covered by this index?" test
#: that never confuses nodes of different documents (or of a stale build
#: of the same document).  Stamps start at 1; 0 means "never indexed".
_next_stamp = itertools.count(1).__next__

#: Stamps whose index was dropped by :meth:`Document.invalidate`.  Nodes
#: keep their (now stale) ``_pre``/``_post`` numbers until the next
#: rebuild re-stamps them, so doc-free fast paths (``is_ancestor_of``)
#: must treat a dead stamp as "not indexed" and fall back to tree walks.
#: Grows by one int per invalidate call — rare (tests, evolution tools).
INVALIDATED_STAMPS: set[int] = set()


def normalize_space(text: str) -> str:
    """Collapse runs of whitespace and strip, like XPath normalize-space."""
    return _WHITESPACE.sub(" ", text).strip()


class Node:
    """Base class for element and text nodes."""

    __slots__ = ("parent", "meta", "_pre", "_post", "_stamp", "_slot")

    def __init__(self) -> None:
        self.parent: Optional[ElementNode] = None
        self.meta: dict = {}
        self._pre = -1
        self._post = -1
        self._stamp = 0
        self._slot = -1

    # -- navigation ------------------------------------------------------

    def ancestors(self) -> Iterator["ElementNode"]:
        """Yield proper ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "Node":
        """Return the topmost node reachable via parent links."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def index_in_parent(self) -> int:
        """Position of this node among all siblings (0-based), O(1).

        The cached slot is verified against the parent's child list and
        repaired by a scan when stale (after sibling insertions or
        removals), so the method stays correct without any explicit
        invalidation.  Raises ``ValueError`` for detached nodes.
        """
        if self.parent is None:
            raise ValueError("node has no parent")
        children = self.parent.children
        slot = self._slot
        if 0 <= slot < len(children) and children[slot] is self:
            return slot
        for i, child in enumerate(children):
            if child is self:
                self._slot = i
                return i
        raise ValueError("node not found among parent's children")

    def following_siblings(self) -> Iterator["Node"]:
        if self.parent is None:
            return
        yield from self.parent.children[self.index_in_parent() + 1 :]

    def preceding_siblings(self) -> Iterator["Node"]:
        """Yield preceding siblings in *reverse* document order (nearest first)."""
        if self.parent is None:
            return
        yield from reversed(self.parent.children[: self.index_in_parent()])

    def with_meta(self, **meta) -> "Node":
        """Attach metadata and return self (builder-style chaining)."""
        self.meta.update(meta)
        return self

    # -- text ------------------------------------------------------------

    def text_value(self) -> str:
        """Concatenation of all descendant text (un-normalized)."""
        raise NotImplementedError

    def normalized_text(self) -> str:
        """normalize-space(.) of this node."""
        return normalize_space(self.text_value())


class TextNode(Node):
    """A text node; its string value is the text itself."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        super().__init__()
        self.text = text

    def text_value(self) -> str:
        return self.text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snippet = self.text if len(self.text) <= 30 else self.text[:27] + "..."
        return f"TextNode({snippet!r})"


class AttributeNode(Node):
    """An attribute node, owned by an element.

    Attribute nodes are created lazily by :meth:`ElementNode.attribute_node`
    and are stable per (element, name) pair, so they can be returned by the
    ``attribute`` axis and compared by identity.
    """

    __slots__ = ("name",)

    def __init__(self, owner: "ElementNode", name: str) -> None:
        super().__init__()
        self.parent = owner
        self.name = name

    @property
    def value(self) -> str:
        assert isinstance(self.parent, ElementNode)
        return self.parent.attrs.get(self.name, "")

    def text_value(self) -> str:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AttributeNode(@{self.name}={self.value!r})"


class ElementNode(Node):
    """An element node with a tag name, attributes, and ordered children."""

    __slots__ = ("tag", "attrs", "children", "_attr_nodes")

    def __init__(self, tag: str, attrs: Optional[dict[str, str]] = None) -> None:
        super().__init__()
        self.tag = tag
        self.attrs: dict[str, str] = dict(attrs or {})
        self.children: list[Node] = []
        self._attr_nodes: dict[str, AttributeNode] = {}

    # -- structure edits ---------------------------------------------------

    def append_child(self, node: Node) -> Node:
        node.parent = self
        node._slot = len(self.children)
        self.children.append(node)
        return node

    def insert_child(self, index: int, node: Node) -> Node:
        node.parent = self
        self.children.insert(index, node)
        node._slot = self.children.index(node)  # displaced siblings self-heal
        return node

    def remove_child(self, node: Node) -> Node:
        self.children.remove(node)
        node.parent = None
        return node

    def replace_child(self, old: Node, new: Node) -> Node:
        index = old.index_in_parent()
        self.children[index] = new
        new.parent = self
        new._slot = index
        old.parent = None
        return new

    def set_attr(self, name: str, value: str) -> None:
        self.attrs[name] = value

    # -- navigation ----------------------------------------------------------

    def attribute_node(self, name: str) -> Optional[AttributeNode]:
        """Return the stable attribute node for ``name``, or None if absent."""
        if name not in self.attrs:
            return None
        node = self._attr_nodes.get(name)
        if node is None:
            node = AttributeNode(self, name)
            self._attr_nodes[name] = node
        return node

    def attribute_nodes(self) -> list[AttributeNode]:
        nodes = [self.attribute_node(name) for name in sorted(self.attrs)]
        return [node for node in nodes if node is not None]

    def element_children(self) -> list["ElementNode"]:
        return [c for c in self.children if isinstance(c, ElementNode)]

    def descendants(self) -> Iterator[Node]:
        """Yield all descendants (elements and text) in document order."""
        for child in self.children:
            yield child
            if isinstance(child, ElementNode):
                yield from child.descendants()

    def descendant_elements(self) -> Iterator["ElementNode"]:
        for node in self.descendants():
            if isinstance(node, ElementNode):
                yield node

    def find(self, **criteria) -> Optional["ElementNode"]:
        """First descendant element matching attribute criteria.

        ``tag`` matches the tag name; other keys match HTML attributes
        (``class_`` maps to ``class``).  Convenience for tests/examples.
        """
        for node in self.iter_find(**criteria):
            return node
        return None

    def iter_find(self, **criteria) -> Iterator["ElementNode"]:
        tag = criteria.pop("tag", None)
        attrs = {k.rstrip("_"): v for k, v in criteria.items()}
        for node in self.descendant_elements():
            if tag is not None and node.tag != tag:
                continue
            if all(node.attrs.get(k) == v for k, v in attrs.items()):
                yield node

    # -- text ----------------------------------------------------------------

    def text_value(self) -> str:
        parts: list[str] = []
        for node in self.descendants():
            if isinstance(node, TextNode):
                parts.append(node.text)
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        attrs = " ".join(f'{k}="{v}"' for k, v in self.attrs.items())
        return f"<{self.tag}{' ' + attrs if attrs else ''}> ({len(self.children)} children)"


class DocumentIndex:
    """Document-order index of one build generation of a document.

    ``nodes`` is the pre-order list of all element and text nodes
    (``nodes[n._pre] is n``); a node ``n``'s subtree is the contiguous
    slice ``nodes[n._pre : n._post + 1]``.  The per-tag and
    per-attribute-name lists hold elements in document order, with
    parallel lists of their pre-order numbers for ``bisect``-based
    subtree/interval slicing.  All lists are immutable by convention:
    after a mutation, :meth:`Document.invalidate` discards the whole
    index and the next query rebuilds it under a fresh ``stamp``.
    """

    __slots__ = (
        "stamp",
        "nodes",
        "tag_nodes",
        "tag_pres",
        "attr_nodes",
        "attr_pres",
        "elements",
        "elem_pres",
        "texts",
        "text_pres",
        "filter_cache",
        "match_cache",
        "pattern_cache",
    )

    def __init__(self) -> None:
        self.stamp: int = 0
        self.nodes: list[Node] = []
        self.tag_nodes: dict[str, list[ElementNode]] = {}
        self.tag_pres: dict[str, list[int]] = {}
        self.attr_nodes: dict[str, list[ElementNode]] = {}
        self.attr_pres: dict[str, list[int]] = {}
        self.elements: list[ElementNode] = []
        self.elem_pres: list[int] = []
        self.texts: list[TextNode] = []
        self.text_pres: list[int] = []
        #: Per-index memos that hold node references.  Living on the
        #: index — not in module globals keyed by stamp — they are
        #: reclaimed with the document, so long-running serving/fleet
        #: processes parsing unbounded page streams do not accumulate
        #: dead DOMs (which also makes every gc pass, in the parent and
        #: in forked pool workers, proportionally slower).
        #: Filtered descendant candidates
        #: (``repro.xpath.compile._compile_filtered_descendant``):
        self.filter_cache: dict = {}
        #: Single-step match lists (``repro.induction.step_pattern._axis_matches``):
        self.match_cache: dict = {}
        #: node_patterns results (``repro.induction.step_pattern._cached_node_patterns``):
        self.pattern_cache: dict = {}


class Document:
    """A document: a synthetic document node plus per-version caches.

    Following XPath's data model, ``root`` is a synthetic ``#document``
    node sitting above the top-level element(s); queries are evaluated
    relative to it, and canonical (absolute) paths start at it.  The
    constructor wraps whatever element it is given, so callers can pass
    a plain ``<html>`` element.

    Queries are evaluated against a static document; the document caches
    the document-order index (:class:`DocumentIndex`) and normalized
    text values.  Code that mutates the tree through node methods must
    call :meth:`invalidate` (the evolution simulator regenerates whole
    documents instead, so this is mostly for tests).
    """

    def __init__(self, root: ElementNode, url: str = "") -> None:
        if root.tag in ("#document", "#fragment"):
            root.tag = "#document"
            self.root = root
        else:
            doc_node = ElementNode("#document")
            doc_node.append_child(root)
            self.root = doc_node
        self.root.parent = None
        self.url = url
        self._version = 0
        self._index: Optional[DocumentIndex] = None
        self._text_cache: dict[int, str] = {}
        self._attr_ids: dict[tuple[int, str], int] = {}
        self._next_attr_id = 0

    @property
    def root_element(self) -> Optional[ElementNode]:
        """The top-level element (usually ``<html>``), if there is one."""
        elements = self.root.element_children()
        return elements[0] if elements else None

    # -- cache management -----------------------------------------------------

    def invalidate(self) -> None:
        """Drop caches after direct tree mutation."""
        self._version += 1
        if self._index is not None:
            INVALIDATED_STAMPS.add(self._index.stamp)
        self._index = None
        self._text_cache = {}
        self._attr_ids = {}

    @property
    def index(self) -> DocumentIndex:
        """The document-order index, built on first use after invalidation."""
        index = self._index
        if index is None:
            index = self._build_index()
        return index

    def _build_index(self) -> DocumentIndex:
        index = DocumentIndex()
        stamp = index.stamp = _next_stamp()
        nodes = index.nodes
        tag_nodes, tag_pres = index.tag_nodes, index.tag_pres
        attr_nodes, attr_pres = index.attr_nodes, index.attr_pres
        elements, elem_pres = index.elements, index.elem_pres
        texts, text_pres = index.texts, index.text_pres

        # Iterative pre-order walk; a (node, True) entry closes the
        # node's subtree and records its post number.
        stack: list[tuple[Node, bool]] = [(self.root, False)]
        while stack:
            node, closing = stack.pop()
            if closing:
                node._post = len(nodes) - 1
                continue
            pre = len(nodes)
            node._pre = pre
            node._stamp = stamp
            nodes.append(node)
            if isinstance(node, TextNode):
                node._post = pre
                texts.append(node)
                text_pres.append(pre)
                continue
            if not isinstance(node, ElementNode):  # pragma: no cover - defensive
                node._post = pre
                continue
            tag = node.tag
            if not tag.startswith("#"):
                elements.append(node)
                elem_pres.append(pre)
                bucket = tag_nodes.get(tag)
                if bucket is None:
                    tag_nodes[tag] = [node]
                    tag_pres[tag] = [pre]
                else:
                    bucket.append(node)
                    tag_pres[tag].append(pre)
                for name in node.attrs:
                    abucket = attr_nodes.get(name)
                    if abucket is None:
                        attr_nodes[name] = [node]
                        attr_pres[name] = [pre]
                    else:
                        abucket.append(node)
                        attr_pres[name].append(pre)
            children = node.children
            if children:
                stack.append((node, True))
                for slot in range(len(children) - 1, -1, -1):
                    child = children[slot]
                    child._slot = slot
                    stack.append((child, False))
            else:
                node._post = pre

        self._index = index
        self._attr_ids = {}
        self._next_attr_id = len(nodes)
        return index

    # -- queries ---------------------------------------------------------------

    def node_id(self, node: Node) -> int:
        """A stable, document-local integer id for ``node``.

        Element and text nodes map to their pre-order number; attribute
        nodes get ids past the tree's node count, allocated lazily and
        stable per (owner, name) until :meth:`invalidate`.  Hot-loop set
        algebra (DP tables, target sets, vote counting) runs on these
        small ints instead of ``id()`` values.
        """
        stamp = self.index.stamp
        if isinstance(node, AttributeNode):
            owner = node.parent
            if owner is None or owner._stamp != stamp:
                raise KeyError("attribute owner not in document")
            key = (owner._pre, node.name)
            nid = self._attr_ids.get(key)
            if nid is None:
                nid = self._next_attr_id
                self._next_attr_id += 1
                self._attr_ids[key] = nid
            return nid
        if node._stamp != stamp:
            raise KeyError("node not in document")
        return node._pre

    def node_ids(self, nodes: Iterator[Node]) -> frozenset[int]:
        """``node_id`` over a node collection."""
        return frozenset(self.node_id(node) for node in nodes)

    def order_key(self, node: Node) -> tuple[int, int]:
        """Sort key placing nodes in document order.

        Attribute nodes sort just after their owning element, by name, so
        mixed node-sets have a stable, document-order-compatible order.
        """
        stamp = self.index.stamp
        if isinstance(node, AttributeNode):
            owner = node.parent
            if owner is None or owner._stamp != stamp:
                raise KeyError("attribute owner not in document")
            return (owner._pre, 1 + sum(1 for n in owner.attrs if n < node.name))
        if node._stamp != stamp:
            raise KeyError("node not in document")
        return (node._pre, 0)

    def contains(self, node: Node) -> bool:
        stamp = self.index.stamp  # may (re)build the index, stamping nodes
        if isinstance(node, AttributeNode):
            node = node.parent
            if node is None:
                return False
        return node._stamp == stamp

    def is_ancestor(self, ancestor: Node, node: Node) -> bool:
        """Strict ancestorship as an O(1) interval test."""
        stamp = self.index.stamp
        if ancestor._stamp != stamp or node._stamp != stamp:
            raise KeyError("node not in document")
        return ancestor._pre < node._pre <= ancestor._post

    def sort_nodes(self, nodes: list[Node]) -> list[Node]:
        """Sort nodes into document order, removing duplicates."""
        stamp = self.index.stamp
        for node in nodes:
            if isinstance(node, AttributeNode):
                # Slow path: mixed sets with attribute nodes sort on the
                # (owner pre, attribute rank) key.
                keyed: dict[tuple[int, int], Node] = {}
                for n in nodes:
                    keyed.setdefault(self.order_key(n), n)
                return [keyed[k] for k in sorted(keyed)]
        by_pre: dict[int, Node] = {}
        for node in nodes:
            if node._stamp != stamp:
                raise KeyError("node not in document")
            by_pre[node._pre] = node
        return [by_pre[k] for k in sorted(by_pre)]

    def normalized_text(self, node: Node) -> str:
        """Cached normalize-space(.) for nodes of this document."""
        key = id(node)
        cached = self._text_cache.get(key)
        if cached is None:
            cached = node.normalized_text()
            self._text_cache[key] = cached
        return cached

    def all_nodes(self) -> Iterator[Node]:
        """Root plus all descendants, in document order."""
        return iter(self.index.nodes)

    def node_count(self) -> int:
        return len(self.index.nodes)

    def find(self, **criteria) -> Optional[ElementNode]:
        return self.root.find(**criteria)

    def find_by_meta(self, key: str, value) -> list[Node]:
        """All nodes whose ``meta[key] == value`` (ground-truth lookup)."""
        return [n for n in self.all_nodes() if n.meta.get(key) == value]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Document(url={self.url!r}, nodes={self.node_count()})"
