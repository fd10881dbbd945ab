"""The state tree: labeled ordered children, leaf naturals, path addressing.

A machine state is a tree.  Inner nodes are sets of labeled children (order
significant, labels unique among siblings, a child may also be unlabeled and
addressable only by position).  Leaves hold arbitrary-precision naturals.
Two further node kinds exist for programs: a reference ``[path]`` and a
pattern variable ``$x``; a fifth internal kind marks the hole of a
function-variable abstraction and never appears in files.  A node has one
payload slot, ``value``: a leaf's natural, a reference's ``Path``, a
variable's name, and 0 for a set or a hole.  ``Node.leaf``, ``ref_node``
and ``var_node`` refuse a natural, segment or name that text cannot hold.

Layout: a set keeps its child nodes in a list, ``nodes``, and their labels
apart in a parallel list, ``labels``, or None when no child is labeled.  A
leaf, reference, variable or hole is one object: its ``nodes`` is the
shared empty tuple, with no labels and no op.  ``children``, a tuple of
``(label, node)`` pairs built on each read, is for callers outside the
package; the package reads ``nodes`` and ``labels``.

Addressing follows the usual path discipline: the empty path is the
identity, composition is concatenation, a label segment selects the child
with that label and an ordinal segment ``#k`` selects the k-th child by
position.  Every address below the text boundary is a ``Path``, a tuple
of segments; entry points that also accept dotted text such as ``"a.#1"``
convert it with ``_as_path``.  The one mutation primitive is subtree
replacement, implemented as in-place "becoming" so that views into a tree
stay valid across transitions.  A machine state is just its root ``Node``, and a view is the
subtree node itself, so a replacement through a view is seen outside it.

This module is the only writer of a node's slots: outside it they are
read-only.  The writers are the constructors, none of which builds a
non-set with children or an op (``Node(kind, value, children, op)``, whose
fields may be given by position or keyword, and ``Node.set_node`` take
``(label, node)`` pairs; the unchecked ``new_set(nodes, labels, op)`` and
``new_atom(kind, value)`` serve the parser, the rhs builder and the
built-ins), ``add_child``, ``add_children``, ``set_child``, ``set_nodes``,
``swap_children``, ``pop_child`` and ``become``; a copy with some subtrees
replaced is built by ``rebuild``.
Copies share frozen template code (``Node.freeze``), which those writers
refuse and ``replace_subtree`` un-shares before it writes: copy-on-write.
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import Callable, Optional, Union

from .errors import (
    DuplicateSibling,
    FrozenCode,
    NotASet,
    OrdinalInMeet,
    ParseError,
    PathUnresolvable,
)

# Node kinds
SET = "set"
LEAF = "leaf"
REF = "ref"
VAR = "var"
HOLE = "hole"

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_ORDINAL_RE = re.compile(r"#([0-9]+)\Z")
_FROZEN = "frozen template code is shared by copies; write it with Node.replace"

Segment = Union[str, int]


class Path(tuple):
    """A composition of edge labels; the empty path is the identity.

    A ``Path`` is the tuple of its segments: it equals and hashes as that
    plain tuple.  ``+`` and slicing give plain tuples, so compose paths
    with ``join``, ``child`` and ``parent``.  Text becomes a ``Path`` only
    through ``Path.parse`` or ``_as_path``: ``Path("ab")`` is not a parse."""

    __slots__ = ()

    @classmethod
    def parse(cls, text: str) -> "Path":
        """Parse dot notation: ``a.b.#1``.  ``""`` and ``"."`` are identity."""
        if text in ("", "."):
            return cls()
        segs: list[Segment] = []
        for piece in text.split("."):
            m = _ORDINAL_RE.match(piece)
            if m:
                try:
                    segs.append(int(m.group(1)))
                except ValueError:  # more digits than this interpreter converts
                    raise ParseError(f"ordinal of {len(m.group(1))} digits is too long") from None
            elif _IDENT_RE.match(piece):
                segs.append(piece)
            else:
                raise ParseError(f"invalid path segment {piece!r}")
        return cls(segs)

    @classmethod
    def of(cls, *segments: Segment) -> "Path":
        return cls(segments)

    def join(self, other: "Path") -> "Path":
        return Path(self + other)

    def child(self, seg: Segment) -> "Path":
        return Path(self + (seg,))

    def parent(self) -> "Path":
        return Path(self[:-1])

    def last(self) -> Segment:
        return self[-1]

    def is_prefix_of(self, other: "Path") -> bool:
        return self == other[: len(self)]

    def has_ordinals(self) -> bool:
        return any(isinstance(s, int) for s in self)

    def __str__(self) -> str:
        if not self:
            return "."
        return ".".join(s if isinstance(s, str) else f"#{s}" for s in self)


def compose(f: Path, g: Path) -> Path:
    """Path composition: segments of f followed by segments of g."""
    return f.join(g)


def meet(e: Path, c: Path) -> Path:
    """Longest common prefix of two label-only paths (their meet)."""
    if e.has_ordinals() or c.has_ordinals():
        raise OrdinalInMeet("meet is defined on label-only paths")
    common: list[Segment] = []
    for a, b in zip(e, c):
        if a != b:
            break
        common.append(a)
    return Path(common)


class Node:
    """A single vertex of the state tree.  Mutable; identity matters.

    A label of ``None`` means the child is addressed only by its position.
    ``frozen`` is None, ``()`` below a frozen code root, or on it a
    one-slot program cache.
    """

    __slots__ = ("kind", "value", "nodes", "labels", "op", "frozen")

    def __init__(
        self,
        kind: str,
        value: Union[int, Path, str] = 0,
        children: Optional[list[tuple[Optional[str], "Node"]]] = None,
        op: Optional[str] = None,
    ):
        if kind != SET and (children or op is not None):
            raise ValueError(f"a {kind} node has no children and no operation")
        given = list(children or ())
        labels = [label for label, _ in given]
        if (twice := repeated_label(labels)) is not None:
            raise DuplicateSibling(f"duplicate sibling label {twice!r}")
        self.kind = kind
        self.value = value
        self.nodes = [node for _, node in given] if kind == SET else ()
        self.labels = labels if any(label is not None for label in labels) else None
        self.op = op
        self.frozen = None

    # --- constructors ---

    @classmethod
    def leaf(cls, value: int) -> "Node":
        if type(value) is not int or value < 0:
            raise ValueError(f"a leaf holds a natural, not {value!r}")
        return new_atom(LEAF, value)

    @classmethod
    def set_node(
        cls,
        children: Optional[list[tuple[Optional[str], "Node"]]] = None,
        op: Optional[str] = None,
    ) -> "Node":
        return cls(SET, children=children, op=op)

    @classmethod
    def ref_node(cls, path: Union[Path, str]) -> "Node":
        path = _as_path(path)
        for seg in path:
            if not (_IDENT_RE.match(seg) if isinstance(seg, str) else type(seg) is int and seg >= 0):
                raise ValueError(f"a path segment is an identifier or an ordinal, not {seg!r}")
        return new_atom(REF, Path(path))  # a Path, also when given a tuple

    @classmethod
    def var_node(cls, name: str) -> "Node":
        if not _IDENT_RE.match(name):
            raise ValueError(f"a variable is named by an identifier, not {name!r}")
        return new_atom(VAR, name)

    @classmethod
    def hole(cls) -> "Node":
        return cls(HOLE)

    # --- children ---

    @property
    def children(self) -> tuple[tuple[Optional[str], "Node"], ...]:
        """The ``(label, node)`` pairs in order, as a tuple built on each read."""
        return tuple(pairs(self))

    def child(self, label: str) -> Optional["Node"]:
        labels = self.labels
        if labels is not None and label in labels:
            return self.nodes[labels.index(label)]
        return None

    def child_at(self, index: int) -> Optional["Node"]:
        nodes = self.nodes
        return nodes[index] if 0 <= index < len(nodes) else None

    def index_of(self, label: str) -> Optional[int]:
        labels = self.labels
        return labels.index(label) if labels is not None and label in labels else None

    def add_child(self, label: Optional[str], node: "Node") -> "Node":
        if self.frozen is not None:
            raise FrozenCode(_FROZEN)
        if label is not None and label in (self.labels or ()):
            raise DuplicateSibling(f"duplicate sibling label {label!r}")
        if self.kind != SET:
            raise NotASet(f"a {self.kind} node has no children")
        if self.labels is not None:
            self.labels.append(label)
        elif label is not None:
            self.labels = [None] * len(self.nodes) + [label]
        self.nodes.append(node)
        return node

    def add_children(self, entries: list[tuple[Optional[str], "Node"]]) -> None:
        """Append each ``(label, node)`` of ``entries``, in order.  A label
        is checked against one set of the labels held, not by a scan of
        them each, and on a repeat none is appended."""
        if self.frozen is not None:
            raise FrozenCode(_FROZEN)
        labels = [label for label, _ in entries]
        if (twice := repeated_label(labels, self.labels or ())) is not None:
            raise DuplicateSibling(f"duplicate sibling label {twice!r}")
        if self.kind != SET:
            raise NotASet(f"a {self.kind} node has no children")
        if self.labels is not None:
            self.labels += labels
        elif any(label is not None for label in labels):
            self.labels = [None] * len(self.nodes) + labels
        self.nodes += [node for _, node in entries]

    def set_child(self, label: str, node: "Node") -> "Node":
        """Replace the child carrying ``label`` in place, or append it."""
        idx = self.index_of(label)
        return self.add_child(label, node) if idx is None else self.nodes[idx].become(node)

    def set_nodes(self, nodes: list["Node"]) -> None:
        """Put ``nodes`` in the place of the first children, in order; labels stay."""
        kids = self.nodes
        for i, node in enumerate(nodes):
            if kids[i].frozen is not None:  # as become refuses; below frozen code all is frozen
                raise FrozenCode(_FROZEN)
            kids[i] = node

    def swap_children(self, i: int, j: int) -> None:
        """Exchange the i-th and j-th children, labels included."""
        if self.frozen is not None:
            raise FrozenCode(_FROZEN)
        for kids in (self.nodes, self.labels) if self.labels else (self.nodes,):
            kids[i], kids[j] = kids[j], kids[i]

    def pop_child(self) -> "Node":
        """Remove the last child and return its node."""
        if self.frozen is not None:
            raise FrozenCode(_FROZEN)
        labels = self.labels
        if labels is not None and labels.pop() is not None and labels.count(None) == len(labels):
            self.labels = None  # the last label went
        return self.nodes.pop()

    # --- whole-node operations ---

    def copy(self) -> "Node":
        """A deep copy in which only frozen code roots below ``self`` are
        shared.  The copy is iterative, over a work list of (source set,
        blank copy) pairs, so its depth is not bounded by the interpreter's
        stack.  A child that is not a set is copied where it is met."""
        if self.kind != SET:
            return new_atom(self.kind, self.value)
        new = dst = object.__new__(Node)
        src, work = self, []
        while True:
            dst.kind, dst.value, dst.op, dst.frozen = SET, src.value, src.op, None
            dst.labels = src.labels and src.labels[:]
            dst.nodes = kids = []
            for child in src.nodes:
                if child.frozen:  # share frozen code
                    kids.append(child)
                    continue
                kids.append(twin := object.__new__(Node))
                if child.kind == SET:
                    work.append((child, twin))
                else:
                    twin.kind, twin.value, twin.nodes = child.kind, child.value, ()
                    twin.labels = twin.op = twin.frozen = None
            if not work:
                return new
            src, dst = work.pop()

    def freeze(self) -> None:
        """Make this subtree immutable code that copies above it share."""
        if self.frozen is None:
            work = [self]
            while work:
                node = work.pop()
                node.frozen = ()
                work.extend([child for child in node.nodes if child.frozen is None])
            self.frozen = [None]

    def become(self, other: "Node") -> "Node":
        """Take over the content of ``other`` (a copy if frozen); identity stays."""
        if other is self:
            return self
        if self.frozen is not None:
            raise FrozenCode(_FROZEN)
        if other.frozen is not None:
            other = other.copy()
        self.kind = other.kind
        self.value = other.value
        self.nodes = other.nodes
        self.labels = other.labels
        self.op = other.op
        return self

    # --- the node as a machine state (path-addressed operations) ---

    @property
    def root(self) -> "Node":
        return self

    def resolve(self, path: Union[Path, str]) -> Optional["Node"]:
        return resolve(self, _as_path(path))

    def replace(self, at: Union[Path, str], new: "Node") -> "Node":
        return replace_subtree(self, _as_path(at), new)

    def view(self, at: Union[Path, str]) -> "Node":
        return subtree_view(self, _as_path(at))

    def data_of(self, at: Union[Path, str], ctx=None) -> "Node":
        from .evaluator import tree_data_of  # evaluation is built on this module

        return tree_data_of(self, _as_path(at), ctx)

    def __repr__(self) -> str:  # debugging aid only
        if self.kind == LEAF:
            try:
                return f"<leaf {self.value}>"
            except ValueError:  # more digits than this interpreter converts
                return f"<leaf of {self.value.bit_length()} bits>"
        if self.kind == REF:
            return f"<ref [{self.value}]>"
        if self.kind == VAR:
            return f"<var ${self.value}>"
        if self.kind == HOLE:
            return "<hole>"
        op = f" :{self.op}" if self.op else ""
        return f"<set{op} |{len(self.nodes)}|>"


def new_set(nodes: list[Node], labels: Optional[list], op: Optional[str]) -> Node:
    """A set node with its slots set directly, not through ``__init__``,
    and unchecked: it adopts ``nodes`` and ``labels`` as its lists, and
    ``labels`` must hold a label or be None."""
    node = object.__new__(Node)
    node.kind = SET
    node.value = 0
    node.nodes = nodes
    node.labels = labels
    node.op = op
    node.frozen = None
    return node


def new_atom(kind: str, value: Union[int, Path, str]) -> Node:
    """A leaf, reference, variable or hole holding ``value``, unchecked."""
    node = object.__new__(Node)
    node.kind = kind
    node.value = value
    node.nodes = ()
    node.labels = node.op = node.frozen = None
    return node


def repeated_label(labels, held=()) -> Optional[str]:
    """The first label of ``labels`` that ``held`` or an earlier one of
    ``labels`` has too, or None: one set is built, not a scan per label."""
    seen = set(held)
    for label in labels:
        if label is not None and label in seen:
            return label
        seen.add(label)
    return None


def pairs(node: Node) -> zip:
    """The ``(label, node)`` pair of each child of ``node``, in order, lazily."""
    return zip(node.labels or repeat(None), node.nodes)


def node_equal(a: Node, b: Node) -> bool:
    """Structural equality: kind, payload, labels and order, at every depth
    (compared with a work list, not recursion)."""
    work = [(a, b)]
    while work:
        a, b = work.pop()
        if a is b:
            continue
        kind = a.kind
        if kind != b.kind:
            return False
        if kind != SET:
            if a.value != b.value:
                return False
        elif a.op != b.op or a.labels != b.labels or len(a.nodes) != len(b.nodes):
            return False
        else:
            work.extend(zip(a.nodes, b.nodes))
    return True


def rebuild(node: Node, swap: Callable[[Node], Optional[Node]]) -> Node:
    """A fresh copy of ``node`` in which each subtree for which ``swap``
    returns a node is replaced by that node.  The replacement is adopted as
    it is and not descended into; ``node`` itself is never written.  ``swap``
    sees the nodes in preorder.  As in ``copy``, the walk is a work list of
    (source, the node list its copy joins), not recursion; siblings are
    popped in order, so each copy joins its list in order."""
    top: list = []
    work = [(node, top)]
    while work:
        src, kids = work.pop()
        new = swap(src)
        if new is None:
            if src.kind != SET:
                new = new_atom(src.kind, src.value)
            else:
                new = new_set([], src.labels and src.labels[:], src.op)
                work += [(child, new.nodes) for child in reversed(src.nodes)]
        kids.append(new)
    return top[0]


def resolve(context: Node, path: Path) -> Optional[Node]:
    """Follow ``path`` from ``context``; None when any step fails."""
    chain = resolve_chain(context, path)
    if chain is None:
        return None
    return chain[-1] if chain else context


def resolve_chain(context: Node, path: Path) -> Optional[list[Node]]:
    """Like resolve, but returns every node along the way (target last)."""
    node = context
    chain: list[Node] = []
    for seg in path:
        if node.kind != SET:
            return None
        node = node.child_at(seg) if isinstance(seg, int) else node.child(seg)
        if node is None:
            return None
        chain.append(node)
    return chain


def StateTree(root: Optional[Node] = None) -> Node:
    """A machine state is its root node; with no root, an empty set."""
    return root if root is not None else Node.set_node()


def _as_path(path: Union[Path, str]) -> Path:
    """A ``Path``, or the dotted text of one parsed: the one conversion
    behind every entry point that accepts an address as text."""
    return Path.parse(path) if isinstance(path, str) else path


def _contains(node: Node, target: Node) -> bool:
    """Whether ``target`` is ``node`` or lies anywhere below it."""
    work = [node]
    while work:
        node = work.pop()
        if node is target:
            return True
        work.extend(node.nodes)
    return False


def replace_subtree(root: Node, at: Path, new: Node, ctx=None) -> Node:
    """Replace the subtree at ``at`` with ``new`` (insert when the final
    segment does not exist yet); all other nodes are untouched.

    ``new`` is adopted, not copied.  Adopting a node that still contains
    the node being replaced would tie the tree into a cycle, so that is
    rejected.  Frozen code written, or at a ``mode`` write, is un-shared first.
    """
    if not at:
        if new is not root and _contains(new, root):
            raise PathUnresolvable("replacement contains the node it replaces")
        return root.become(new)
    parent = root if len(at) == 1 else resolve(root, at.parent())
    if parent is None:
        raise PathUnresolvable(f"no node at {at.parent()}")
    if parent.kind != SET:
        raise PathUnresolvable(f"{at.parent()} is not a set, cannot hold {at.last()!r}")
    seg = at.last()
    if isinstance(seg, int):
        existing = parent.child_at(seg)
        if existing is None and seg != len(parent.nodes):
            raise PathUnresolvable(f"no child #{seg} at {at.parent()}")
    else:
        existing = parent.child(seg)
    if (parent if existing is None else existing).frozen is not None:
        unshare_path(root, at.parent() if existing is None else at, ctx)
        return replace_subtree(root, at, new, ctx)
    if seg == "mode":  # so shared code only sits in well-formed instances
        for i in range(len(parent.nodes)):
            unshare_path(parent, (i,), ctx)
    if existing is None:
        parent.add_child(seg if isinstance(seg, str) else None, new)
    else:
        if new is not existing and new.nodes and _contains(new, existing):
            raise PathUnresolvable("replacement contains the node it replaces")
        existing.become(new)
    return root


def unshare_path(root: Node, path: Path, ctx=None) -> Node:
    """The node at ``path``, which must resolve, after each frozen node on
    the way is replaced in its holder by a copy, of which ``ctx`` is told."""
    if root.frozen is not None:  # no holder to copy into
        raise FrozenCode(_FROZEN)
    node = root
    for seg in path:
        child = node.child_at(seg) if isinstance(seg, int) else node.child(seg)
        if child.frozen is not None:
            twin = child.copy()
            node.nodes[:] = [twin if c is child else c for c in node.nodes]
            if ctx is not None:
                ctx.unshared(node, child, twin)
            child = twin
        node = child
    return node


def subtree_view(root: Node, at: Path) -> Node:
    """A machine rooted at the subtree; shares structure with ``root``."""
    node = resolve(root, at)
    if node is None:
        raise PathUnresolvable(f"no node at {at}")
    if node.kind != SET:
        raise NotASet(f"{at} is not a set node")
    return node
