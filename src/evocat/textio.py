"""The state language: compiler (parse) and de-compiler (render).

Grammar::

    tree     := entry*
    entry    := LABEL body
    body     := '=' NAT                       # leaf natural
              | '=' STRING                    # sugar: set node, child #k = code point k
              | '=' '[' path ']'              # reference term
              | '=' VAR                       # pattern variable (program files only)
              | (':' opid)? '{' tree '}'      # set node; ':' opid makes it a term
    opid     := IDENT | VAR                   # VAR = function variable (program files only)
    path     := seg ('.' seg)*     seg := IDENT | '#' NAT
    LABEL    := IDENT | '#' NAT               # positional label, assigned by position
    IDENT    := [A-Za-z_][A-Za-z0-9_]*        VAR := '$' IDENT
    NAT      := [0-9]+     STRING := '"' chars '"'   (escapes: \\"  \\\\  \\n)
    comments := '//' to end of line; whitespace insignificant

A whole file may also consist of a single unlabeled body, so that trees
whose root is not a set (a bare leaf, say) still round-trip.

Scanning is one ``findall`` of a compiled regex.  Each match is a token
or a comment, with the whitespace after it; comments are then dropped, and
the empty match at the end of the text is the end marker ``""``.  Where no
token fits, a last alternative takes the rest of the text: that is how a
lexical error shows, and only then is the text read again to name the
fault.  Tokens are plain strings without positions.  An error finds the
offset of its token by scanning again and turns it into ``line:col``
(both 1-based, counted in ``\\n``-separated lines).

The parser is one loop over the tokens with an explicit stack of the open
sets; it tells a token's kind from its text alone.  The renderer walks
the tree with an explicit stack too, so neither recurses.  Both stop past
``MAX_DEPTH`` nested sets, numbered the same way, so render never writes
text that parse rejects as nesting too deep.

The renderer is canonical: 2-space indentation, one entry per line,
children in stored order, positional labels printed as ``#k``, string
sugar re-applied whenever every child is an unlabeled leaf with a
printable code point.  Equal trees render to identical text.  The sugar
probe (``_atom``) runs only on the root and on a non-empty set child with
no op and no labels; any other set is written with braces at once.

The parser and ``encode_text`` make every node with ``tree.new_set`` or
``tree.new_atom``, each set with lists of its own.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Optional

from .errors import DepthExceeded, DuplicateSibling, NotEncodable, ParseError, VariablesOutsideRules
from .tree import HOLE, LEAF, REF, SET, VAR, Node, Path, new_atom, new_set

MAX_DEPTH = 200

# ASCII only, as in the grammar: '²' and '٣' are not digits, 'é' starts no
# identifier.  ``\s`` is exactly ``str.isspace``.  Past the scan, a token
# is a natural exactly when ``isdigit`` holds for it and an identifier
# exactly when ``isidentifier`` does.
_STRING = r'"[^"\\\n]*(?:\\["\\n][^"\\\n]*)*'
_TOKEN = re.compile(
    r"[{}\[\]:=.]|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|#[0-9]+|\$[A-Za-z_][A-Za-z0-9_]*|" + _STRING + '"'
)
# A token, a comment or the end marker, then the whitespace after it;
# anything else takes the rest of the text.
_SCAN = re.compile(rf"({_TOKEN.pattern}|//[^\n]*|\Z|[\s\S]+)\s*")
_LEADING = re.compile(r"\s*")
_STRING_PREFIX = re.compile(_STRING)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n"}
_VALUE_START = frozenset('"$[')


def tokenize(src: str) -> list[str]:
    """The token texts of ``src`` in order, comments dropped, followed by
    the end marker ``""``."""
    tokens = _SCAN.findall(src, _LEADING.match(src).end())
    if "//" in src:
        tokens = [tok for tok in tokens if tok[:2] != "//"]
    if len(tokens) > 1 and not _TOKEN.fullmatch(tokens[-2]):
        _check_naturals(src, tokens[:-2])
        raise _lexical_error(src, len(src) - len(tokens[-2]))
    return tokens


def _at(cls: type, message: str, src: str, offset: int) -> ParseError:
    line = src.count("\n", 0, offset) + 1
    return cls(message, line, offset - src.rfind("\n", 0, offset))


def _error(cls: type, message: str, src: str, index: int) -> ParseError:
    """``cls`` raised at the ``index``-th token of ``src``."""
    scan = _SCAN.finditer(src, _LEADING.match(src).end())
    starts = (m.start() for m in scan if m[1][:2] != "//")
    return _at(cls, message, src, next(islice(starts, index, None)))


def _lexical_error(src: str, at: int) -> ParseError:
    """The error for the text at offset ``at``, where no token starts."""
    c = src[at]
    if c == "#":
        message = "'#' must be followed by digits"
    elif c == "$":
        message = "'$' must be followed by an identifier"
    elif c == '"':
        end = _STRING_PREFIX.match(src, at).end()
        if end == len(src):
            message = "unterminated string"
        elif src[end] == "\n":
            message, at = "newline in string (use \\n)", end
        elif end + 1 == len(src):
            message, at = "unterminated escape", end
        else:
            message, at = f"unknown escape \\{src[end + 1]}", end
    else:
        message = f"unexpected character {c!r}"
    return _at(ParseError, message, src, at)


def _check_naturals(src: str, tokens: list[str]) -> None:
    # CPython guards huge str->int conversions.  This is a scanning error,
    # so the first such literal is reported before any error after it.
    for index, tok in enumerate(tokens):
        if tok[:1] == "#" or tok.isdigit():
            try:
                int(tok.lstrip("#"))
            except ValueError:
                raise _error(ParseError, "integer literal too long", src, index) from None


class _Fault(Exception):
    """A parse error as (class, message, token index), placed by ``parse``."""


def parse(src: str, allow_vars: bool = True) -> Node:
    """Compile source text into a state tree.

    ``allow_vars=False`` is the plain-state mode: any ``$`` form is
    rejected with VariablesOutsideRules.
    """
    tokens = tokenize(src)
    try:
        return _parse(tokens, allow_vars)
    except _Fault as fault:
        _check_naturals(src, tokens)
        cls, message, index = fault.args
        raise _error(cls, message, src, index) from None
    except ValueError:  # from int(): a natural too long to convert
        _check_naturals(src, tokens)
        raise


def _parse(tokens: list[str], allow_vars: bool) -> Node:
    first = tokens[0]
    if first.isdigit() or first[:1] in _VALUE_START:
        node, i = _value(tokens, 0, allow_vars)
        if tokens[i]:
            raise _Fault(ParseError, "trailing input after document body", i)
        return node
    # The open sets enclosing the current one, as (nodes, labels, labels
    # seen, op, label in its parent); a bare set document is held by a sentinel.
    stack: list[tuple] = []
    kids: list[Node] = []
    labels: list[Optional[str]] = []
    seen: set[str] = set()
    op: Optional[str] = None
    i = 0
    if first == "{" or first == ":":
        stack.append((None, None, None, None, None))
        op, i = _open(tokens, 0, allow_vars)
    while True:
        tok = tokens[i]
        if tok.isidentifier():
            if tok in seen:
                raise _Fault(DuplicateSibling, f"duplicate sibling label {tok!r}", i)
            seen.add(tok)
            label = tok
        elif tok[:1] == "#":
            k = int(tok[1:])
            if k != len(kids):
                raise _Fault(ParseError, f"positional label #{k} at position {len(kids)}", i)
            label = None
        elif not stack:
            if tok:
                raise _Fault(ParseError, "expected an entry", i)
            return new_set(kids, labels if seen else None, None)
        else:
            if tok != "}":
                raise _Fault(ParseError, "expected '}'", i)
            node = new_set(kids, labels if seen else None, op)
            kids, labels, seen, op, label = stack.pop()
            i += 1
            if kids is None:
                if tokens[i]:
                    raise _Fault(ParseError, "trailing input after document body", i)
                return node
            kids.append(node)
            labels.append(label)
            continue
        tok = tokens[i + 1]
        if tok == "=":
            tok = tokens[i + 2]
            if tok.isdigit():
                kids.append(new_atom(LEAF, int(tok)))
                i += 3
            else:
                node, i = _value(tokens, i + 2, allow_vars)
                kids.append(node)
            labels.append(label)
        elif tok == "{" or tok == ":":
            stack.append((kids, labels, seen, op, label))
            op, i = _open(tokens, i + 1, allow_vars)
            kids, labels, seen = [], [], set()
            if len(stack) > MAX_DEPTH:
                raise _Fault(ParseError, "nesting too deep", i)
        else:
            raise _Fault(ParseError, "expected '=', ':' or '{' after label", i + 1)


def _open(tokens: list[str], i: int, allow_vars: bool) -> tuple[Optional[str], int]:
    """The operation of the set that opens at ``tokens[i]``, or None, and
    the index after its '{'."""
    op = None
    if tokens[i] == ":":
        op = tokens[i + 1]
        if op[:1] == "$":
            if not allow_vars:
                raise _Fault(
                    VariablesOutsideRules, f"function variable {op} in a plain state file", i + 1
                )
        elif not op.isidentifier():
            raise _Fault(ParseError, "expected operation identifier", i + 1)
        i += 2
    if tokens[i] != "{":
        raise _Fault(ParseError, "expected '{'", i)
    return op, i + 1


def _value(tokens: list[str], i: int, allow_vars: bool) -> tuple[Node, int]:
    """The value at ``tokens[i]`` (after '=' or as a bare document) and the
    index after it."""
    tok = tokens[i]
    if tok.isdigit():
        return new_atom(LEAF, int(tok)), i + 1
    c = tok[:1]
    if c == '"':
        text = tok[1:-1]
        if "\\" in text:
            text = _ESCAPE.sub(lambda m: _ESCAPES[m.group(1)], text)
        return encode_text(text), i + 1
    if c == "$":
        if not allow_vars:
            raise _Fault(VariablesOutsideRules, f"variable {tok} in a plain state file", i)
        return new_atom(VAR, tok[1:]), i + 1
    if tok != "[":
        raise _Fault(ParseError, "expected a value", i)
    segs: list = []
    while True:
        i += 1
        tok = tokens[i]
        if tok.isidentifier():
            segs.append(tok)
        elif tok[:1] == "#":
            segs.append(int(tok[1:]))
        else:
            raise _Fault(ParseError, "expected path segment", i)
        if tokens[i + 1] != ".":
            break
        i += 1
    if tokens[i + 1] != "]":
        raise _Fault(ParseError, "expected ']'", i + 1)
    return new_atom(REF, Path(segs)), i + 2


# --- string sugar ---------------------------------------------------------


def encode_text(text: str) -> Node:
    """A string as a set node of unlabeled code-point leaves."""
    return new_set([new_atom(LEAF, ord(ch)) for ch in text], None, None)


def decode_text(node: Node) -> Optional[str]:
    """Inverse of encode_text; None when the node has a different shape.

    Accepts the empty set (the empty string).  Code points must be valid
    Unicode scalars; printability is not required here, only for the
    renderer's sugar.
    """
    if node.kind != SET or node.op is not None or node.labels is not None:
        return None
    chars: list[str] = []
    for child in node.nodes:
        if child.kind != LEAF:
            return None
        v = child.value
        if v > 0x10FFFF or 0xD800 <= v <= 0xDFFF:
            return None
        chars.append(chr(v))
    return "".join(chars)


def _sugar_text(node: Node) -> Optional[str]:
    # Renderer-side check: at least one child (so `a { }` stays braces) and
    # every character printable or newline, so the text re-parses.
    if node.kind != SET or node.op is not None or not node.nodes:
        return None
    text = decode_text(node)
    if text is None:
        return None
    if all(ch == "\n" or ch.isprintable() for ch in text):
        return text
    return None


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


# --- renderer --------------------------------------------------------------


def _atom(node: Node) -> Optional[str]:
    """The text of a node written without braces; None for a set that
    needs them.  A reference to the identity path is NotEncodable."""
    kind = node.kind
    if kind == LEAF:
        return str(node.value)
    if kind == REF:
        if not node.value:
            raise NotEncodable("the identity path has no text form")
        return f"[{node.value}]"
    if kind == VAR:
        return f"${node.value}"
    if kind == HOLE:
        return "$__hole__"
    sugar = _sugar_text(node)
    return None if sugar is None else f'"{_escape(sugar)}"'


def render(root: Node) -> str:
    """Canonical text for a tree; equal trees render bit-identically.  A
    natural too long for ``str`` (``parse`` rejects it too) is NotEncodable."""
    try:
        return _render(root)
    except ValueError:  # from str(int)
        raise NotEncodable("a natural has too many digits to be written as text") from None


def _render(root: Node) -> str:
    atom = _atom(root)
    if atom is not None:
        return atom + "\n"
    # A root set without an op is written as its bare entries (depth 0);
    # a root term as a braced body whose entries are at depth 1, as parse
    # numbers them.
    if root.op is None:
        out, depth, close = [], 0, ""
    else:
        out, depth, close = [f": {root.op} {{\n"], 1, "}\n"
    # The set being written is (its children left, its labels, indent,
    # closing line); the stack holds the same for each set that encloses it.
    children, labels, pad = enumerate(root.nodes), root.labels, "  " * depth
    stack: list[tuple] = []
    while True:
        for index, child in children:
            label = labels[index] if labels is not None else None
            name = pad + label if label is not None else f"{pad}#{index}"
            if child.kind == LEAF:  # the common case, without the call
                out.append(f"{name} = {child.value}\n")
                continue
            # Only a non-empty set with no op and no labels can be sugar.
            if child.kind != SET or (child.op is None and child.labels is None and child.nodes):
                atom = _atom(child)
                if atom is not None:
                    out.append(f"{name} = {atom}\n")
                    continue
            out.append(name + " {\n" if child.op is None else f"{name} : {child.op} {{\n")
            if depth + len(stack) + 1 > MAX_DEPTH:  # the depth of the set opened here
                raise DepthExceeded(f"tree nested deeper than {MAX_DEPTH} sets cannot be rendered")
            stack.append((children, labels, pad, close))
            children, labels, pad, close = enumerate(child.nodes), child.labels, pad + "  ", pad + "}\n"
            break
        else:
            out.append(close)
            if not stack:
                return "".join(out)
            children, labels, pad, close = stack.pop()
