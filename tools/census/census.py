#!/usr/bin/env python3
"""Reachability census: which src/ functions does no shipped binary link?

    python3 tools/census/census.py [--build-dir build-census] [--jobs 4]

Builds every bench and example binary (bench/CMakeLists.txt,
examples/CMakeLists.txt) and the standalone perfbench binary at -O0 with
-ffunction-sections and --gc-sections, so the linker drops every function no
binary can call and no inlining hides a caller. A src/ function is one with
global text linkage in the grefar:: namespace defined in a src/ object file
(out-of-line definitions; inline and template code is not counted). It is
reached when its demangled name is defined in at least one of those binaries.

Unreached functions in src/check are test oracles and are only counted. Every
unreached function outside src/check must be listed in test_only.txt next to
this script, and every entry there must be unreached: the script exits 1 when
the two sets differ in either direction, so deleting a function's last caller
and giving a test-only function a production caller both show up.
"""
import argparse
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
ALLOWLIST = os.path.join(HERE, "test_only.txt")

CXX_FLAGS = "-O0 -DNDEBUG -ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"


def binary_targets():
    """The bench and example executables, as their CMakeLists declare them."""
    targets = []
    for sub, pattern in (("bench", r"^grefar_(?:experiment|microbench)\((\w+)\)"),
                         ("examples", r"^grefar_example\((\w+)\)")):
        with open(os.path.join(ROOT, sub, "CMakeLists.txt")) as f:
            targets += re.findall(pattern, f.read(), re.MULTILINE)
    return targets


def configure_and_build(source, build, targets, jobs):
    configure = ["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=None",
                 f"-DCMAKE_CXX_FLAGS={CXX_FLAGS}", f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}"]
    # Make builds several --target goals one after another; Ninja builds
    # them in parallel.
    if shutil.which("ninja") and not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build, "-j", str(jobs), "--target", *targets],
                   stdout=sys.stderr, check=True)


def find_file(build, name):
    for dirpath, _, files in os.walk(build):
        if name in files and "CMakeFiles" not in dirpath:
            return os.path.join(dirpath, name)
    raise SystemExit(f"census: no binary {name} under {build}")


def defined_text(path):
    """Demangled names of the global text symbols defined in an object or binary."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], capture_output=True,
                         text=True, check=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in ("T", "W"):
            names.add((parts[1], parts[2]))
    return names


def src_functions(build):
    """{name: src file} for the out-of-line grefar:: functions of src/ objects."""
    defined = {}
    src_build = os.path.join(build, "src")
    for dirpath, _, files in os.walk(src_build):
        for obj in sorted(files):
            if not obj.endswith(".cc.o"):
                continue
            # <build>/src/<module>/CMakeFiles/<target>.dir/<file>.cc.o
            module = os.path.relpath(dirpath, src_build).split(os.sep)[0]
            source = f"src/{module}/{obj[:-len('.o')]}"
            for kind, name in defined_text(os.path.join(dirpath, obj)):
                if kind == "T" and name.startswith("grefar::"):
                    defined.setdefault(name, source)
    return defined


def read_allowlist():
    entries = set()
    with open(ALLOWLIST) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                entries.add(line)
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build-census"))
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    build = os.path.abspath(args.build_dir)
    targets = binary_targets()
    configure_and_build(ROOT, build, targets, args.jobs)
    perf_build = os.path.join(build, "perfbench")
    configure_and_build(os.path.join(ROOT, "perfbench"), perf_build, ["perfbench"], args.jobs)
    binaries = [find_file(build, t) for t in targets]
    binaries.append(os.path.join(perf_build, "perfbench"))

    defined = src_functions(build)
    reached = set()
    for binary in binaries:
        reached |= {name for _, name in defined_text(binary)}
    unreached = {name: src for name, src in defined.items() if name not in reached}
    oracles = {n for n, src in unreached.items() if src.startswith("src/check/")}
    test_only = set(unreached) - oracles

    print(f"binaries: {len(binaries)}")
    print(f"out-of-line grefar:: functions in src/: {len(defined)}")
    print(f"reached by no binary: {len(unreached)} "
          f"({len(oracles)} in src/check, {len(test_only)} outside)")

    allowed = read_allowlist()
    newly_unreached = sorted(test_only - allowed, key=lambda n: (unreached[n], n))
    now_reached = sorted(allowed - test_only)
    for name in newly_unreached:
        print(f"unreached, not in test_only.txt: {unreached[name]}: {name}")
    for name in now_reached:
        where = defined.get(name)
        why = f"reached by a binary ({where})" if where else "not a src/ function"
        print(f"in test_only.txt but {why}: {name}")
    if newly_unreached or now_reached:
        print("census: FAIL (delete the function, or move it to src/check or into its "
              "test, or list it in tools/census/test_only.txt with its reason)")
        return 1
    print("census: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
