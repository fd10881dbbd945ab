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

The renderer is canonical: 2-space indentation, one entry per line,
children in stored order, positional labels printed as ``#k``, string
sugar re-applied whenever every child is an unlabeled leaf with a
printable code point.  Equal trees render to identical text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .errors import DepthExceeded, DuplicateSibling, ParseError, VariablesOutsideRules
from .tree import HOLE, LEAF, REF, SET, VAR, Node, Path

MAX_DEPTH = 200

# token types
T_IDENT = "ident"
T_NAT = "nat"
T_STRING = "string"
T_VAR = "var"
T_HASHNAT = "hashnat"
T_PUNCT = "punct"  # one of { } [ ] : = .
T_EOF = "eof"

_PUNCT = "{}[]:=."
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n"}
# ASCII only, as in the grammar: str.isdigit would also take '²' and '٣'
_DIGITS = re.compile(r"[0-9]*")
_IDENT_REST = re.compile(r"[A-Za-z0-9_]*")


@dataclass
class Token:
    type: str
    value: object
    line: int
    col: int


def _is_ident_start(c: str) -> bool:
    return c.isascii() and (c.isalpha() or c == "_")


def tokenize(src: str) -> list[Token]:
    # Columns are 1-based offsets from the start of the current line.
    tokens: list[Token] = []
    i, line, line_start = 0, 1, 0
    n = len(src)

    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            line_start = i
            continue
        if c.isspace():
            i += 1
            continue
        if c == "/" and i + 1 < n and src[i + 1] == "/":
            while i < n and src[i] != "\n":
                i += 1
            continue
        col = i - line_start + 1
        if c in _PUNCT:
            tokens.append(Token(T_PUNCT, c, line, col))
            i += 1
            continue
        if c == "#":
            j = _DIGITS.match(src, i + 1).end()
            if j == i + 1:
                raise ParseError("'#' must be followed by digits", line, col)
            tokens.append(Token(T_HASHNAT, _to_nat(src[i + 1 : j], line, col), line, col))
            i = j
            continue
        if c == "$":
            if i + 1 >= n or not _is_ident_start(src[i + 1]):
                raise ParseError("'$' must be followed by an identifier", line, col)
            j = _IDENT_REST.match(src, i + 1).end()
            tokens.append(Token(T_VAR, src[i + 1 : j], line, col))
            i = j
            continue
        if "0" <= c <= "9":
            j = _DIGITS.match(src, i).end()
            tokens.append(Token(T_NAT, _to_nat(src[i:j], line, col), line, col))
            i = j
            continue
        if _is_ident_start(c):
            j = _IDENT_REST.match(src, i).end()
            tokens.append(Token(T_IDENT, src[i:j], line, col))
            i = j
            continue
        if c == '"':
            chars: list[str] = []
            j = i + 1
            while True:
                if j >= n:
                    raise ParseError("unterminated string", line, col)
                ch = src[j]
                if ch == "\n":
                    raise ParseError("newline in string (use \\n)", line, j - line_start + 1)
                if ch == '"':
                    j += 1
                    break
                if ch == "\\":
                    if j + 1 >= n:
                        raise ParseError("unterminated escape", line, j - line_start + 1)
                    esc = _ESCAPES.get(src[j + 1])
                    if esc is None:
                        raise ParseError(f"unknown escape \\{src[j + 1]}", line, j - line_start + 1)
                    chars.append(esc)
                    j += 2
                    continue
                chars.append(ch)
                j += 1
            tokens.append(Token(T_STRING, "".join(chars), line, col))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token(T_EOF, None, line, i - line_start + 1))
    return tokens


def _to_nat(digits: str, line: int, col: int) -> int:
    try:
        return int(digits)
    except ValueError:  # CPython guards huge str->int conversions
        raise ParseError("integer literal too long", line, col) from None


class _Parser:
    def __init__(self, tokens: list[Token], allow_vars: bool):
        self.tokens = tokens
        self.pos = 0
        self.allow_vars = allow_vars

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, char: str) -> Token:
        tok = self.next()
        if tok.type != T_PUNCT or tok.value != char:
            raise ParseError(f"expected {char!r}", tok.line, tok.col)
        return tok

    def err(self, msg: str) -> ParseError:
        tok = self.peek()
        return ParseError(msg, tok.line, tok.col)

    # --- grammar ---

    def document(self) -> Node:
        tok = self.peek()
        # A file may be one bare body (leaf-only trees print with no braces).
        if tok.type in (T_NAT, T_STRING, T_VAR) or (
            tok.type == T_PUNCT and tok.value in "[{:"
        ):
            node = self.bare_body(0)
            end = self.next()
            if end.type != T_EOF:
                raise ParseError("trailing input after document body", end.line, end.col)
            return node
        root = Node(SET, children=self.entries(0))
        end = self.next()
        if end.type != T_EOF:
            raise ParseError("expected an entry", end.line, end.col)
        return root

    def entries(self, depth: int) -> list[tuple[Optional[str], Node]]:
        if depth > MAX_DEPTH:
            tok = self.peek()
            raise ParseError("nesting too deep", tok.line, tok.col)
        children: list[tuple[Optional[str], Node]] = []
        seen: set[str] = set()
        while True:
            tok = self.peek()
            if tok.type == T_IDENT:
                self.next()
                label: Optional[str] = tok.value
                if label in seen:
                    raise DuplicateSibling(f"duplicate sibling label {label!r}", tok.line, tok.col)
                seen.add(label)
            elif tok.type == T_HASHNAT:
                self.next()
                if tok.value != len(children):
                    raise ParseError(
                        f"positional label #{tok.value} at position {len(children)}",
                        tok.line,
                        tok.col,
                    )
                label = None
            else:
                return children
            children.append((label, self.body(depth)))

    def bare_body(self, depth: int) -> Node:
        tok = self.peek()
        if tok.type == T_PUNCT and tok.value in "{:":
            return self.block(depth)
        return self.assigned_value()

    def body(self, depth: int) -> Node:
        tok = self.peek()
        if tok.type == T_PUNCT and tok.value == "=":
            self.next()
            return self.assigned_value()
        if tok.type == T_PUNCT and tok.value in "{:":
            return self.block(depth)
        raise self.err("expected '=', ':' or '{' after label")

    def assigned_value(self) -> Node:
        tok = self.next()
        if tok.type == T_NAT:
            return Node.leaf(tok.value)
        if tok.type == T_STRING:
            return encode_text(tok.value)
        if tok.type == T_VAR:
            if not self.allow_vars:
                raise VariablesOutsideRules(
                    f"variable ${tok.value} in a plain state file", tok.line, tok.col
                )
            return Node.var_node(tok.value)
        if tok.type == T_PUNCT and tok.value == "[":
            path = self.path()
            self.expect_punct("]")
            return Node.ref_node(path)
        raise ParseError("expected a value", tok.line, tok.col)

    def block(self, depth: int) -> Node:
        tok = self.peek()
        op: Optional[str] = None
        if tok.type == T_PUNCT and tok.value == ":":
            self.next()
            op_tok = self.next()
            if op_tok.type == T_IDENT:
                op = op_tok.value
            elif op_tok.type == T_VAR:
                if not self.allow_vars:
                    raise VariablesOutsideRules(
                        f"function variable ${op_tok.value} in a plain state file",
                        op_tok.line,
                        op_tok.col,
                    )
                op = "$" + op_tok.value
            else:
                raise ParseError("expected operation identifier", op_tok.line, op_tok.col)
        self.expect_punct("{")
        children = self.entries(depth + 1)
        self.expect_punct("}")
        return Node(SET, op=op, children=children)

    def path(self) -> Path:
        segs: list[Union[str, int]] = []
        while True:
            tok = self.next()
            if tok.type == T_IDENT:
                segs.append(tok.value)
            elif tok.type == T_HASHNAT:
                segs.append(tok.value)
            else:
                raise ParseError("expected path segment", tok.line, tok.col)
            nxt = self.peek()
            if nxt.type == T_PUNCT and nxt.value == ".":
                self.next()
                continue
            return Path(tuple(segs))


def parse(src: str, allow_vars: bool = True) -> Node:
    """Compile source text into a state tree.

    ``allow_vars=False`` is the plain-state mode: any ``$`` form is
    rejected with VariablesOutsideRules.
    """
    tokens = tokenize(src)
    return _Parser(tokens, allow_vars).document()


# --- string sugar ---------------------------------------------------------


def encode_text(text: str) -> Node:
    """A string as a set node of unlabeled code-point leaves."""
    return Node(SET, children=[(None, Node.leaf(ord(ch))) for ch in text])


def decode_text(node: Node) -> Optional[str]:
    """Inverse of encode_text; None when the node has a different shape.

    Accepts the empty set (the empty string).  Code points must be valid
    Unicode scalars; printability is not required here, only for the
    renderer's sugar.
    """
    if node.kind != SET or node.op is not None:
        return None
    chars: list[str] = []
    for label, child in node.children:
        if label is not None or child.kind != LEAF:
            return None
        v = child.value
        if v > 0x10FFFF or 0xD800 <= v <= 0xDFFF:
            return None
        chars.append(chr(v))
    return "".join(chars)


def _sugar_text(node: Node) -> Optional[str]:
    # Renderer-side check: at least one child (so `a { }` stays braces) and
    # every character printable or newline, so the text re-parses.
    if node.kind != SET or node.op is not None or not node.children:
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


def render(root: Node) -> str:
    """Canonical text for a tree; equal trees render bit-identically."""
    out: list[str] = []
    if root.kind == SET and root.op is None and _sugar_text(root) is None:
        _render_entries(root, 0, out)
    else:
        _render_bare(root, out)
    return "".join(out)


def _render_bare(node: Node, out: list[str]) -> None:
    sugar = _sugar_text(node) if node.kind == SET else None
    if node.kind == LEAF:
        out.append(f"{node.value}\n")
    elif node.kind == REF:
        out.append(f"[{node.value}]\n")
    elif node.kind == VAR:
        out.append(f"${node.value}\n")
    elif node.kind == HOLE:
        out.append("$__hole__\n")
    elif sugar is not None:
        out.append(f'"{_escape(sugar)}"\n')
    else:
        op = f": {node.op} " if node.op is not None else ""
        out.append(op + "{\n")
        _render_entries(node, 1, out)
        out.append("}\n")


def _render_entries(node: Node, depth: int, out: list[str]) -> None:
    # Depth is numbered as in ``_Parser.entries``, so render never writes
    # text that parse rejects as nesting too deep.
    if depth > MAX_DEPTH:
        raise DepthExceeded(f"tree nested deeper than {MAX_DEPTH} sets cannot be rendered")
    pad = "  " * depth
    for index, (label, child) in enumerate(node.children):
        name = label if label is not None else f"#{index}"
        out.append(pad + name)
        _render_body(child, depth, out)


def _render_body(node: Node, depth: int, out: list[str]) -> None:
    if node.kind == LEAF:
        out.append(f" = {node.value}\n")
        return
    if node.kind == REF:
        out.append(f" = [{node.value}]\n")
        return
    if node.kind == VAR:
        out.append(f" = ${node.value}\n")
        return
    if node.kind == HOLE:
        out.append(" = $__hole__\n")
        return
    sugar = _sugar_text(node)
    if sugar is not None:
        out.append(f' = "{_escape(sugar)}"\n')
        return
    if node.op is not None:
        out.append(f" : {node.op}")
    out.append(" {\n")
    _render_entries(node, depth + 1, out)
    out.append("  " * depth + "}\n")
