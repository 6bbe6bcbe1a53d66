#!/usr/bin/env python3
"""List the hyperion:: functions that no experiment, example or perfbench
workload reaches.

Usage:
    unreached.py [--allowlist FILE] LIBDIR BINARY...

LIBDIR holds the static libraries (searched recursively for *.a); each
BINARY is a linked bench, example or perfbench executable. Build all of them
unoptimised (so nothing is inlined away), with one section per function and
per datum, and link the binaries with section garbage collection, so that a
binary keeps exactly the functions its call graph reaches:

    cmake -B build-unreached -S . -DCMAKE_BUILD_TYPE=Debug \\
        "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections" \\
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

Without -fdata-sections a switch's jump table lands in its file's shared
.rodata, which any kept function of that file keeps alive together with the
switch's function.

A function is *defined* when a library's `nm -C --defined-only` lists it as
type T, and *kept* when a binary lists it as T, t or W. Both sides are keyed
by the qualified name without parameters, cv/ref qualifiers or ABI tags, so
overloads share one key and a key counts as kept when any overload is.

The script prints every defined hyperion:: key that no binary keeps. It
exits non-zero when one of them is missing from the allowlist, or when an
allowlisted key is kept or no longer defined, so the list stays exact.

Allowlist format: a line starting with "## " gives the reason for the keys
that follow it, one key per line, until the next reason. Other lines
starting with "#" and blank lines are ignored.
"""

import argparse
import os
import subprocess
import sys

DEFAULT_ALLOWLIST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "unreached_allowlist.txt")


def run_nm(path):
    return subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                          capture_output=True, text=True).stdout


def function_key(name):
    """`ns::Class::Fn[abi:cxx11](int) const` -> `ns::Class::Fn`."""
    name = name.split(" [clone ", 1)[0]
    close = name.rfind(")")
    if close >= 0:
        # The last parenthesised group is the parameter list; anything after
        # it is a cv/ref qualifier.
        depth = 0
        for i in range(close, -1, -1):
            if name[i] == ")":
                depth += 1
            elif name[i] == "(":
                depth -= 1
                if depth == 0:
                    name = name[:i]
                    break
    while "[abi:" in name:
        start = name.index("[abi:")
        name = name[:start] + name[name.index("]", start) + 1:]
    return name.strip()


def symbols(nm_output, types):
    """Keys of the hyperion:: symbols in `nm_output` whose type is in `types`."""
    keys = set()
    for line in nm_output.splitlines():
        # "<address> <type> <name>"; archive member headers and blank lines
        # have no type field.
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in types and parts[2].startswith("hyperion::"):
            keys.add(function_key(parts[2]))
    return keys


def parse_allowlist(text):
    """Maps each allowlisted key to its reason; raises ValueError on a
    malformed list."""
    reasons = {}
    reason = None
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("## "):
            reason = line[3:].strip()
        elif not line or line.startswith("#"):
            continue
        elif reason is None:
            raise ValueError(f"line {number}: {line!r} has no reason above it")
        elif line in reasons:
            raise ValueError(f"line {number}: {line!r} is listed twice")
        else:
            reasons[line] = reason
    return reasons


def libraries(libdir):
    return sorted(os.path.join(root, f) for root, _, files in os.walk(libdir)
                  for f in files if f.endswith(".a"))


def main(argv=None, nm=run_nm):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--allowlist", default=DEFAULT_ALLOWLIST)
    parser.add_argument("libdir")
    parser.add_argument("binaries", nargs="+")
    args = parser.parse_args(argv)

    libs = libraries(args.libdir)
    if not libs:
        print(f"unreached: no *.a under {args.libdir}", file=sys.stderr)
        return 2
    defined = set()
    for lib in libs:
        defined |= symbols(nm(lib), {"T"})
    kept = set()
    for binary in args.binaries:
        kept |= symbols(nm(binary), {"T", "t", "W"})
    with open(args.allowlist) as f:
        try:
            allowed = parse_allowlist(f.read())
        except ValueError as e:
            print(f"unreached: {args.allowlist}: {e}", file=sys.stderr)
            return 2

    unreached = sorted(defined - kept)
    for key in unreached:
        print(key)
    new = [key for key in unreached if key not in allowed]
    stale = sorted(key for key in allowed if key in kept or key not in defined)
    print(f"unreached: {len(unreached)} of {len(defined)} hyperion:: functions, "
          f"{len(unreached) - len(new)} allowlisted", file=sys.stderr)
    for key in new:
        print(f"NOT ALLOWLISTED: {key}: delete it, or give a binary a path to it",
              file=sys.stderr)
    for key in stale:
        state = "reached" if key in kept else "no longer defined"
        print(f"STALE ALLOWLIST ENTRY: {key} is {state}: remove it", file=sys.stderr)
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
