"""Devices: the machine's boundary to its environment.

A device is mounted at a reserved address (``dev.clock``, ``dev.stdin``,
``dev.stdout``).  The table is keyed by ``Path``; ``mount`` also accepts
the dotted text of an address.  Reads and writes addressed to a mount are
intercepted before the tree is touched: an input device produces a fresh
value on every access (never memoized), an output device turns the written
value into an effect.  ``DeviceTable.lookup`` is the one way in: one
dictionary lookup (a ``Path`` hashes as the tuple of its segments) and the
one place that checks a mount's direction; the caller then calls the
device's ``read`` or ``write``, which is all a device has.  Each device
takes one kind of source or sink: the clock a callable giving milliseconds,
``dev.stdin`` an iterable of lines (a text stream is one), ``dev.stdout``
a write callable, the one sink type at the boundary, which the trace takes
too.  The table is injected at machine construction, so tests run against
scripted fakes and stay deterministic.
"""

from __future__ import annotations

import itertools
import sys
import time
from typing import Callable, Iterable, Optional, Union

from .errors import EndOfInput, NotEncodable, UnboundDevice
from .textio import decode_text, encode_text
from .tree import LEAF, SET, Node, Path, _as_path

IN = "in"
OUT = "out"

CLOCK_PATH = "dev.clock"
STDIN_PATH = "dev.stdin"
STDOUT_PATH = "dev.stdout"


class Device:
    """One mount point: an IN device has ``read()``, an OUT device ``write(value)``."""

    direction: str = IN


class ClockDevice(Device):
    """Milliseconds since epoch; re-read on every access."""

    def __init__(self, source: Optional[Callable[[], int]] = None):
        self.source = source if source is not None else lambda: time.time_ns() // 1_000_000

    def read(self) -> Node:
        return Node.leaf(self.source())


def scripted_clock(start: int, step: int = 1) -> Callable[[], int]:
    """A deterministic clock source: start, start+step, start+2*step, ..."""
    return itertools.count(start, step).__next__


class LineInputDevice(Device):
    """One line of text per read, without the terminator, as string sugar.
    The source's end, or an empty string from it, ends the input for good:
    every later read raises ``EndOfInput`` too."""

    def __init__(self, source: Iterable[str]):
        self._lines = itertools.takewhile(bool, source)

    def read(self) -> Node:
        line = next(self._lines, "")
        if line == "":
            raise EndOfInput("input stream is exhausted")
        return encode_text(line.rstrip("\n"))


class TextOutputDevice(Device):
    """Writes a decoded line per value: leaves in decimal, sets as text."""

    direction = OUT

    def __init__(self, write: Callable[[str], object]):
        self._write = write

    def write(self, value: Node) -> None:
        if value.kind == LEAF:
            try:
                text = str(value.value)
            except ValueError:  # more digits than this interpreter converts
                raise NotEncodable("a natural has too many digits to be written as text") from None
        elif value.kind == SET:
            decoded = decode_text(value)
            if decoded is None:
                raise NotEncodable(f"cannot encode {value!r} as text")
            text = decoded
        else:
            raise NotEncodable(f"cannot encode {value!r} as text")
        self._write(text + "\n")


class DeviceTable:
    """Immutable-after-construction map from mount path to device."""

    def __init__(self):
        self._mounts: dict[Path, Device] = {}

    def mount(self, path: Union[Path, str], device: Device) -> "DeviceTable":
        path = _as_path(path)
        if any(k.is_prefix_of(path) or path.is_prefix_of(k) for k in self._mounts):
            raise UnboundDevice(f"overlapping mount {path}")
        self._mounts[path] = device
        return self

    def lookup(self, path: Path, direction: str) -> Optional[Device]:
        """The device mounted at ``path``, or None when there is none; a
        mount of the other direction (IN or OUT) is an UnboundDevice."""
        device = self._mounts.get(path)
        if device is not None and device.direction != direction:
            verb = "read from output" if direction == IN else "write to input"
            raise UnboundDevice(f"cannot {verb} device at {path}")
        return device

    @classmethod
    def standard(
        cls,
        clock: Optional[Callable[[], int]] = None,
        stdin: Optional[Iterable[str]] = None,
        stdout: Optional[Callable[[str], object]] = None,
    ) -> "DeviceTable":
        """The console machine: dev.clock, dev.stdin, dev.stdout; by default
        wall time, ``sys.stdin`` and ``sys.stdout.write``."""
        table = cls()
        table.mount(CLOCK_PATH, ClockDevice(clock))
        table.mount(STDIN_PATH, LineInputDevice(stdin if stdin is not None else sys.stdin))
        table.mount(STDOUT_PATH, TextOutputDevice(stdout if stdout is not None else sys.stdout.write))
        return table


class CollectingOutput:
    """A fake write callable, for dev.stdout or the trace: read .lines afterwards."""

    def __init__(self):
        self.chunks: list[str] = []

    def __call__(self, text: str) -> None:
        self.chunks.append(text)

    @property
    def lines(self) -> list[str]:
        return "".join(self.chunks).splitlines()
