"""Command-line driver: load .evo files, run a template, trace, format.

Subcommands::

    evocat run   [--state FILE] PROGRAM... --entry PATH [--arg L=V]...
                 [--fuel N] [--dump FILE|-] [--scripted-clock START[:STEP]]
    evocat trace ...same flags...       # print one line per transition
    evocat fmt   FILE                   # parse + canonical print
    evocat check [--plain] FILE...      # parse only

Program files merge as additional children of the machine root; a
duplicate top-level label is a load error.  The optional state file is
parsed in plain mode, where ``$`` forms are rejected.  Exit status: 0 ok,
1 parse or load error, 2 an error in the entry or its ``--arg`` slots,
before the call makes any transition, 3 any later (runtime) error.  A
parse or load error names its file and its class.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import textio
from .devices import DeviceTable, scripted_clock
from .errors import (
    DepthExceeded,
    DuplicateSibling,
    EvoError,
    MissingArgument,
    NotEncodable,
    ParseError,
)
from .evaluator import DEFAULT_FUEL, EvalContext, TraceSink
from .templates import merge_program, run_entry
from .tree import Node, Path

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_RESOLVE = 2
EXIT_RUNTIME = 3


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("fuel must be at least 1")
    return value


def _clock_spec(text: str) -> tuple[int, int]:
    """``START[:STEP]``, both naturals; STEP defaults to 1."""
    start, _, step = text.partition(":")
    parts = (start, step or "1")
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise argparse.ArgumentTypeError(f"expected START[:STEP] in naturals, got {text!r}")
    return int(parts[0]), int(parts[1])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evocat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("programs", nargs="+", metavar="PROGRAM", help=".evo program files")
        p.add_argument("--state", metavar="FILE", help="plain state file (no $ forms)")
        p.add_argument("--entry", required=True, metavar="PATH", help="path of the template to call")
        p.add_argument(
            "--arg",
            action="append",
            default=[],
            metavar="LABEL=VALUE",
            help="fill an argument slot (repeatable, once per label)",
        )
        p.add_argument("--fuel", type=_positive, default=DEFAULT_FUEL, metavar="N")
        p.add_argument("--dump", metavar="FILE", help="write the final state ('-' = stdout)")
        p.add_argument(
            "--scripted-clock",
            type=_clock_spec,
            metavar="START[:STEP]",
            help="deterministic clock instead of wall time",
        )

    add_run_flags(sub.add_parser("run", help="run a template and print its result"))
    add_run_flags(sub.add_parser("trace", help="like run, printing every transition"))

    fmt = sub.add_parser("fmt", help="parse a file and print its canonical form")
    fmt.add_argument("files", nargs=1, metavar="FILE")
    fmt.set_defaults(plain=False)

    check = sub.add_parser("check", help="parse files, reporting the first error")
    check.add_argument("files", nargs="+", metavar="FILE")
    check.add_argument("--plain", action="store_true", help="reject $ forms (state files)")
    return parser


#: built once per process: ``parse_args`` leaves it as it was (``--arg``'s
#: append copies its default list), and each build leaves ~200 cyclic objects
_PARSER = _build_parser()


def _read(path: str) -> str:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"not valid UTF-8 at byte {err.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")  # as a text-mode read


def _parse_arg_value(text: str) -> Node:
    tree = textio.parse(f"value = {text}", allow_vars=False)
    if len(tree.nodes) != 1:
        raise ParseError(f"--arg value {text!r} is not a single literal")
    return tree.nodes[0]


def _named(path: str, err: Exception) -> str:
    """How a parse or load error is reported: its file, class and message."""
    return f"{path}: {type(err).__name__}: {err}"


def _cmd_run(args, traced: bool) -> int:
    path = args.state
    try:
        machine = Node.set_node() if path is None else textio.parse(_read(path), allow_vars=False)
        if machine.kind != "set":
            raise ParseError("a state file must be a set of entries")
        for path in args.programs:
            merge_program(machine, textio.parse(_read(path)))
    except (OSError, EvoError) as err:
        print(f"evocat: load error: {_named(path, err)}", file=sys.stderr)
        return EXIT_PARSE

    try:
        entry = Path.parse(args.entry)
        arguments = {}
        for item in args.arg:
            label, eq, value = item.partition("=")
            if not eq:
                raise MissingArgument(f"--arg needs LABEL=VALUE, got {item!r}")
            if label in arguments:
                raise DuplicateSibling(f"--arg {label!r} is given more than once")
            arguments[label] = _parse_arg_value(value)
    except (ParseError, EvoError) as err:
        print(f"evocat: argument error: {err}", file=sys.stderr)
        return EXIT_RESOLVE

    write = sys.stdout.write  # read at each run: callers may redirect stdout
    clock = scripted_clock(*args.scripted_clock) if args.scripted_clock is not None else None
    ctx = EvalContext(
        machine,
        fuel=args.fuel,
        devices=DeviceTable.standard(clock=clock, stdin=sys.stdin, stdout=write),
        trace=TraceSink(write) if traced else None,
    )
    try:
        result = run_entry(machine, entry, arguments, ctx)
    except EvoError as err:
        if ctx.fuel == args.fuel:  # the entry or a slot failed, before any transition
            print(f"evocat: resolution error: {err}", file=sys.stderr)
            return EXIT_RESOLVE
        at = f" (instruction {err.instruction})" if err.instruction is not None else ""
        print(f"evocat: runtime error{at}: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_RUNTIME

    try:
        sys.stdout.write(textio.render(result))
        text = textio.render(machine) if args.dump is not None else None
    except (DepthExceeded, NotEncodable) as err:
        print(f"evocat: render error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    if text is not None:
        if args.dump == "-":
            sys.stdout.write(text)
        else:
            try:
                with open(args.dump, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as err:
                print(f"evocat: dump error: {err}", file=sys.stderr)
                return EXIT_RUNTIME
    return EXIT_OK


def _cmd_parse(args) -> int:
    """``check``: parse each file, stopping at the first error; ``fmt``
    also prints its one file in canonical form."""
    for path in args.files:
        try:
            tree = textio.parse(_read(path), allow_vars=not args.plain)
        except (OSError, ParseError) as err:
            print(f"evocat: {_named(path, err)}", file=sys.stderr)
            return EXIT_PARSE
        if args.command == "fmt":
            sys.stdout.write(textio.render(tree))
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args, traced=False)
    if args.command == "trace":
        return _cmd_run(args, traced=True)
    return _cmd_parse(args)


if __name__ == "__main__":
    sys.exit(main())
