#!/usr/bin/env python3
"""Tests of unreached.py over canned `nm -C --defined-only` output.

Run: python3 tools/test_unreached.py
"""

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import unreached  # noqa: E402

# Two archive members, as nm prints a static library.
LIBRARY = """
store.cc.o:
0000000000000000 T hyperion::mem::Store::Read(unsigned long) const
0000000000000040 T hyperion::mem::Store::Read(unsigned long, unsigned long)
0000000000000080 T hyperion::mem::Store::Compact()
00000000000000c0 t hyperion::mem::(anonymous namespace)::Helper(int)
0000000000000100 W hyperion::Result<int>::value() &&
0000000000000140 T std::vector<int, std::allocator<int> >::size() const
                 U hyperion::sim::Engine::Now() const

hooks.cc.o:
0000000000000000 T hyperion::dpu::Node::InstallFaultInjector(hyperion::sim::FaultInjector*)
0000000000000040 T hyperion::dpu::Node::Name[abi:cxx11]() const
0000000000000080 T hyperion::dpu::Node::Dump(std::function<void ()>)
"""

# The binary keeps one overload of Read and Name; Compact, Dump and the
# fault hook were collected.
BINARY = """
0000000000401000 T main
0000000000401100 T hyperion::mem::Store::Read(unsigned long) const
0000000000401200 t hyperion::dpu::Node::Name[abi:cxx11]() const
0000000000401300 W hyperion::Result<int>::value() &&
"""


class FunctionKeyTest(unittest.TestCase):
    def test_drops_parameters_qualifiers_and_abi_tags(self):
        cases = {
            "hyperion::a::B::C(unsigned long) const": "hyperion::a::B::C",
            "hyperion::a::B::Name[abi:cxx11]() const &&": "hyperion::a::B::Name",
            "hyperion::a::B::operator()(int)": "hyperion::a::B::operator()",
            "hyperion::a::Run(std::function<void (int)>, int)": "hyperion::a::Run",
            "hyperion::a::B::~B()": "hyperion::a::B::~B",
            "hyperion::a::F(int) [clone .cold]": "hyperion::a::F",
        }
        for name, key in cases.items():
            self.assertEqual(unreached.function_key(name), key, name)

    def test_symbols_keep_only_the_requested_types_in_the_namespace(self):
        self.assertEqual(unreached.symbols(LIBRARY, {"T"}), {
            "hyperion::mem::Store::Read",
            "hyperion::mem::Store::Compact",
            "hyperion::dpu::Node::InstallFaultInjector",
            "hyperion::dpu::Node::Name",
            "hyperion::dpu::Node::Dump",
        })


class AllowlistTest(unittest.TestCase):
    def test_each_key_maps_to_the_reason_above_it(self):
        allowed = unreached.parse_allowlist(
            "# comment\n\n## Fault hooks.\nhyperion::a::F\n## Test accessors.\nhyperion::a::G\n")
        self.assertEqual(allowed, {"hyperion::a::F": "Fault hooks.",
                                   "hyperion::a::G": "Test accessors."})

    def test_a_key_without_a_reason_is_refused(self):
        with self.assertRaisesRegex(ValueError, "no reason"):
            unreached.parse_allowlist("hyperion::a::F\n")

    def test_a_duplicate_key_is_refused(self):
        with self.assertRaisesRegex(ValueError, "twice"):
            unreached.parse_allowlist("## Reason.\nhyperion::a::F\nhyperion::a::F\n")


class MainTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.libdir = os.path.join(self.dir.name, "src")
        os.makedirs(os.path.join(self.libdir, "mem"))
        self.lib = os.path.join(self.libdir, "mem", "libhyperion_mem.a")
        self.binary = os.path.join(self.dir.name, "bench_x")
        for path in (self.lib, self.binary):
            open(path, "w").close()
        self.outputs = {self.lib: LIBRARY, self.binary: BINARY}

    def tearDown(self):
        self.dir.cleanup()

    def run_main(self, allowlist):
        path = os.path.join(self.dir.name, "allow.txt")
        with open(path, "w") as f:
            f.write(allowlist)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = unreached.main(["--allowlist", path, self.libdir, self.binary],
                                  nm=self.outputs.__getitem__)
        self.stderr = err.getvalue()
        return code, out.getvalue().split()

    def test_prints_every_unreached_key_and_fails_on_unlisted_ones(self):
        code, printed = self.run_main("")
        self.assertEqual(code, 1)
        self.assertEqual(printed, ["hyperion::dpu::Node::Dump",
                                   "hyperion::dpu::Node::InstallFaultInjector",
                                   "hyperion::mem::Store::Compact"])
        self.assertIn("NOT ALLOWLISTED: hyperion::mem::Store::Compact", self.stderr)
        self.assertIn("3 of 5 hyperion:: functions, 0 allowlisted", self.stderr)

    def test_passes_when_every_unreached_key_is_allowlisted(self):
        code, _ = self.run_main("## Fault hooks.\nhyperion::dpu::Node::InstallFaultInjector\n"
                                "## Debug output.\nhyperion::dpu::Node::Dump\n"
                                "hyperion::mem::Store::Compact\n")
        self.assertEqual(code, 0, self.stderr)

    def test_a_reached_or_vanished_allowlist_entry_fails(self):
        listed = ("## Fault hooks.\nhyperion::dpu::Node::InstallFaultInjector\n"
                  "hyperion::dpu::Node::Dump\nhyperion::mem::Store::Compact\n")
        for extra, state in (("hyperion::mem::Store::Read", "reached"),
                             ("hyperion::mem::Store::Gone", "no longer defined")):
            code, _ = self.run_main(listed + extra + "\n")
            self.assertEqual(code, 1)
            self.assertIn(f"STALE ALLOWLIST ENTRY: {extra} is {state}", self.stderr)


if __name__ == "__main__":
    unittest.main()
