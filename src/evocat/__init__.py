"""evocat: a tree-structured virtual machine.

The state is a labeled tree; every transition replaces one subtree with a
computed one.  Terms are built from a small categorical algebra (products,
coproducts, the boolean and natural lattices, a pullback-style select),
programs come in two disciplines (sequential instruction lists and
priority rewriting), functions and types are templates used by copy, and
the whole state round-trips through a canonical text form.
"""

from . import algebra, devices, engine, errors, evaluator, templates, textio, tree
from .algebra import (
    BUILTIN_OPS,
    bool_lattice,
    coproduct,
    nat_compare,
    nat_lattice,
    pair,
    product,
    remainder,
    select,
    struct_eq,
)
from .devices import CollectingOutput, DeviceTable, scripted_clock
from .engine import (
    Binding,
    Formula,
    Instruction,
    match,
    run_rewrite,
    run_sequential,
    substitute,
)
from .errors import EvoError
from .evaluator import DEFAULT_FUEL, EvalContext, TraceSink, deref, evaluate, is_value
from .evaluator import tree_data_of as data_of
from .templates import (
    call,
    heap_get,
    heap_put,
    instantiate,
    load_stdlib,
    merge_program,
    run_entry,
)
from .textio import parse, render
from .tree import (
    Node,
    Path,
    StateTree,
    compose,
    meet,
    node_equal,
    replace_subtree,
    resolve,
    subtree_view,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_OPS",
    "Binding",
    "CollectingOutput",
    "DEFAULT_FUEL",
    "DeviceTable",
    "EvalContext",
    "EvoError",
    "Formula",
    "Instruction",
    "Node",
    "Path",
    "StateTree",
    "TraceSink",
    "algebra",
    "bool_lattice",
    "call",
    "compose",
    "coproduct",
    "data_of",
    "deref",
    "devices",
    "engine",
    "errors",
    "evaluate",
    "evaluator",
    "heap_get",
    "heap_put",
    "instantiate",
    "is_value",
    "load_stdlib",
    "match",
    "meet",
    "merge_program",
    "nat_compare",
    "nat_lattice",
    "node_equal",
    "pair",
    "parse",
    "product",
    "remainder",
    "render",
    "replace_subtree",
    "resolve",
    "run_entry",
    "run_rewrite",
    "run_sequential",
    "scripted_clock",
    "select",
    "struct_eq",
    "substitute",
    "subtree_view",
    "templates",
    "textio",
    "tree",
]
