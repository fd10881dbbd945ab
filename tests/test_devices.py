"""Device table behavior: reads, writes, directions, determinism."""

import io
import re

import pytest

from evocat import (
    CollectingOutput,
    DeviceTable,
    EvalContext,
    StateTree,
    parse,
    render,
    run_sequential,
    scripted_clock,
)
from evocat.devices import IN, OUT, ClockDevice
from evocat.errors import EndOfInput, NotEncodable, UnboundDevice
from evocat.textio import decode_text
from evocat.tree import Node, Path
from helpers import leaf


def table(lines=("hi",), clock_start=0):
    out = CollectingOutput()
    t = DeviceTable.standard(
        clock=scripted_clock(clock_start), stdin=list(lines), stdout=out
    )
    return t, out


def read(t, mount):
    """Read the input device at the dotted ``mount``, as the machine does."""
    return t.lookup(Path.parse(mount), IN).read()


def write(t, mount, value):
    """Write ``value`` to the output device at the dotted ``mount``, as the machine does."""
    t.lookup(Path.parse(mount), OUT).write(value)


class TestReads:
    def test_clock_monotonic(self):
        # wall-clock device: two successive reads never go backwards
        device = ClockDevice()
        assert device.read().value <= device.read().value

    def test_stdin_line_is_code_points(self):
        t, _ = table(lines=["hi"])
        node = read(t, "dev.stdin")
        assert [c.value for _, c in node.children] == [104, 105]

    def test_stdin_from_a_text_stream(self):
        t = DeviceTable.standard(stdin=io.StringIO("ab\n\ncd"), stdout=CollectingOutput())
        assert [decode_text(read(t, "dev.stdin")) for _ in range(3)] == ["ab", "", "cd"]
        with pytest.raises(EndOfInput):
            read(t, "dev.stdin")

    def test_scripted_clock_steps(self):
        t = DeviceTable.standard(clock=scripted_clock(1000, 7), stdin=[], stdout=CollectingOutput())
        assert [read(t, "dev.clock").value for _ in range(3)] == [1000, 1007, 1014]

    def test_end_of_input(self):
        t, _ = table(lines=[])
        with pytest.raises(EndOfInput):
            read(t, "dev.stdin")

    def test_an_empty_line_ends_the_input_for_good(self):
        t, _ = table(lines=["a", "", "b"])
        assert decode_text(read(t, "dev.stdin")) == "a"
        for _ in range(2):
            with pytest.raises(EndOfInput):
                read(t, "dev.stdin")

    def test_read_on_output_mount(self):
        t, _ = table()
        with pytest.raises(UnboundDevice, match="cannot read from output device at dev.stdout"):
            read(t, "dev.stdout")
        assert t.lookup(Path.parse("dev.nowhere"), IN) is None


class TestWrites:
    def test_leaf_prints_decimal(self):
        t, out = table()
        write(t, "dev.stdout", leaf(42))
        assert out.lines == ["42"]

    def test_string_sugar_prints_text(self):
        t, out = table()
        write(t, "dev.stdout", parse('s = "ok"').resolve("s"))
        assert out.lines == ["ok"]

    def test_stdout_to_a_stream_write(self):
        stream = io.StringIO()
        t = DeviceTable.standard(stdin=[], stdout=stream.write)
        write(t, "dev.stdout", leaf(7))
        write(t, "dev.stdout", parse('s = "ok"').resolve("s"))
        assert stream.getvalue() == "7\nok\n"

    def test_a_variable_is_not_encodable(self):
        t, out = table()
        with pytest.raises(NotEncodable, match=re.escape("cannot encode <var $x> as text")):
            write(t, "dev.stdout", Node.var_node("x"))
        assert out.lines == []

    def test_structured_set_not_encodable(self):
        t, _ = table()
        with pytest.raises(NotEncodable):
            write(t, "dev.stdout", parse("a = 1 b { c = 2 }").root)

    def test_natural_with_too_many_digits(self):
        t, out = table()
        try:
            write(t, "dev.stdout", leaf(10**4400))
        except NotEncodable:
            assert out.lines == []
        else:
            assert out.lines == ["1" + "0" * 4400]

    def test_write_on_input_mount(self):
        t, _ = table()
        with pytest.raises(UnboundDevice, match="cannot write to input device at dev.stdin"):
            write(t, "dev.stdin", leaf(1))


class TestMachineIntegration:
    def test_program_reads_and_writes(self):
        t, out = table(lines=["hello"], clock_start=100)
        machine = StateTree()
        ctx = EvalContext(machine, devices=t)
        body = parse(
            """b {
              #0 { at = [t1] to = [dev.clock] }
              #1 { at = [line] to = [dev.stdin] }
              #2 { at = [dev.stdout] to = [line] }
              #3 { at = [dev.stdout] to : monus { #0 = [dev.clock] #1 = [t1] } }
            }"""
        ).resolve("b")
        run_sequential(body, machine, ctx)
        assert out.lines == ["hello", "1"]

    def test_reads_never_mutate_outside_the_mount(self):
        t, _ = table(lines=["x", "y"])
        machine = parse("a = 1 b { c = 2 }")
        ctx = EvalContext(machine, devices=t)
        before = render(machine)
        machine.data_of("dev.stdin", ctx)
        machine.data_of("dev.clock", ctx)
        assert render(machine) == before

    def test_scripted_runs_are_deterministic(self):
        outputs = []
        for _ in range(2):
            t, out = table(lines=["a", "b"], clock_start=5)
            machine = StateTree()
            ctx = EvalContext(machine, devices=t)
            body = parse(
                """b {
                  #0 { at = [dev.stdout] to = [dev.stdin] }
                  #1 { at = [dev.stdout] to = [dev.clock] }
                  #2 { at = [dev.stdout] to = [dev.clock] }
                }"""
            ).resolve("b")
            run_sequential(body, machine, ctx)
            outputs.append(out.lines)
        assert outputs[0] == outputs[1] == ["a", "5", "6"]

    def test_overlapping_mounts_rejected(self):
        t = DeviceTable()
        t.mount("dev.a", ClockDevice(scripted_clock(0)))
        with pytest.raises(UnboundDevice):
            t.mount("dev.a.b", ClockDevice(scripted_clock(0)))


class TestMounts:
    def test_path_and_text_mounts_are_equivalent(self):
        by_path, by_text = DeviceTable(), DeviceTable()
        device = ClockDevice(scripted_clock(0))
        by_path.mount(Path.of("dev", "a"), device)
        by_text.mount("dev.a", device)
        for t in (by_path, by_text):
            assert t.lookup(Path.parse("dev.a"), IN) is device
            assert t.lookup(Path.parse("dev.b"), IN) is None
            with pytest.raises(UnboundDevice):
                t.mount("dev.a", device)
            with pytest.raises(UnboundDevice):
                t.mount(Path.of("dev", "a", "b"), device)

    def test_overlap_is_by_segment_not_by_text(self):
        t = DeviceTable().mount("dev.a", ClockDevice(scripted_clock(0)))
        t.mount("dev.ab", ClockDevice(scripted_clock(0)))
        for nested in ("dev.a.b", "dev", "dev.ab.c"):
            with pytest.raises(UnboundDevice, match="overlapping"):
                t.mount(nested, ClockDevice(scripted_clock(0)))

    def test_lookup_checks_the_direction(self):
        t, _ = table()
        stdout = Path.parse("dev.stdout")
        assert t.lookup(stdout, OUT) is not None
        with pytest.raises(UnboundDevice, match="dev.stdout"):
            t.lookup(stdout, IN)

    def test_lookup_of_unmounted_paths(self):
        t, _ = table()
        for text in ("x", "x.y", "#0", "dev", "dev.other", "dev.clock.x", "."):
            assert t.lookup(Path.parse(text), IN) is None
            assert t.lookup(Path.parse(text), OUT) is None
        device = ClockDevice(scripted_clock(0))
        whole = DeviceTable().mount(Path(), device)
        assert whole.lookup(Path(), IN) is device
        assert whole.lookup(Path.parse("x"), IN) is None

    def test_non_device_addresses_resolve_in_the_tree(self):
        t, out = table()
        machine = parse("dev { other = 3 }")
        body = parse(
            """b {
              #0 { at = [x] to = [dev.other] }
              #1 { at = [dev.other] to = 4 }
              #2 { at = [y] to : sum { #0 = [x] #1 = [dev.other] } }
              #3 { at = [dev.stdout] to = [y] }
            }"""
        ).resolve("b")
        run_sequential(body, machine, EvalContext(machine, devices=t))
        assert render(machine) == "dev {\n  other = 4\n}\nip = 4\nx = 3\ny = 7\n"
        assert out.lines == ["7"]

    @pytest.mark.parametrize(
        "instruction, path",
        [
            ("{ at = [x] to = [dev.stdout] }", "dev.stdout"),
            ("{ at = [dev.stdin] to = 1 }", "dev.stdin"),
        ],
    )
    def test_program_using_a_mount_backwards(self, instruction, path):
        t, out = table()
        machine = StateTree()
        body = parse(f"b {{ #0 {instruction} }}").resolve("b")
        with pytest.raises(UnboundDevice, match=re.escape(path)):
            run_sequential(body, machine, EvalContext(machine, devices=t))
        assert out.lines == [] and [label for label, _ in machine.children] == ["ip"]
