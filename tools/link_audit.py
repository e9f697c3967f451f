#!/usr/bin/env python3
"""Link audit: list the library functions that no shipped program links.

    python3 tools/link_audit.py

Configures bench/e2e (which pulls in the whole root project) into
build-audit/ at -O0 with -ffunction-sections and -Wl,--gc-sections, builds
every executable that is not under tests/ (the reproductions, the `sinet`
CLI, sinet_bench_e2e, the examples and the tools), then prints each strong
text symbol of the libsinet_*.a archives that none of those executables
defines. At -O0 nothing is inlined, so a function missing from every
executable is one that no shipped program calls: only tests reach it.
Header-inline code is weak or local, so the audit does not see it.

Build output and a one-line count go to stderr; stdout holds only the
unlinked functions, one demangled name a line. Exits 1 if it printed any.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "bench" / "e2e"
BUILD = ROOT / "build-audit"

# Copy and move constructors and assignment operators are exempt. A class
# that defines them out of line must keep them even when no program calls
# them: stats::EmpiricalCdf's are never linked, yet deleting them breaks
# every function that returns a named EmpiricalCdf (core/active_experiment,
# val/validate, val/baseline), because a named return needs the member even
# where the copy is elided.
SPECIAL_MEMBER = re.compile(
    r"^(?P<cls>.+)::(?P<fn>[^:]+)\((?P<arg>.+?)(?: const&|&&)\)(?: noexcept)?$")


def is_copy_or_move(name):
    m = SPECIAL_MEMBER.match(name)
    if not m or m["arg"] != m["cls"]:
        return False
    return m["fn"] in ("operator=", m["cls"].rsplit("::", 1)[-1])


def run(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit("link_audit: failed: " + " ".join(map(str, cmd)))


def configure():
    query = BUILD / ".cmake" / "api" / "v1" / "query" / "codemodel-v2"
    query.parent.mkdir(parents=True, exist_ok=True)
    query.touch()
    cmd = ["cmake", "-S", SOURCE, "-B", BUILD,
           "-DCMAKE_BUILD_TYPE=Release",
           "-DCMAKE_CXX_FLAGS_RELEASE=-O0 -DNDEBUG",
           "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
           "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    run(cmd)


def targets():
    """(executables, libraries): {target name: artifact path} each, from
    the CMake file API's code model."""
    reply = BUILD / ".cmake" / "api" / "v1" / "reply"
    index = json.loads(max(reply.glob("index-*.json")).read_text())
    model = json.loads(
        (reply / index["reply"]["codemodel-v2"]["jsonFile"]).read_text())
    executables, libraries = {}, {}
    for ref in model["configurations"][0]["targets"]:
        t = json.loads((reply / ref["jsonFile"]).read_text())
        artifact = BUILD / t["artifacts"][0]["path"] if "artifacts" in t else None
        source = (SOURCE / t["paths"]["source"]).resolve().relative_to(ROOT)
        if t["type"] == "EXECUTABLE" and source.parts[:1] != ("tests",):
            executables[t["name"]] = artifact
        elif t["type"] == "STATIC_LIBRARY" and t["name"].startswith("sinet_"):
            libraries[t["name"]] = artifact
    return executables, libraries


def symbols(path, kinds):
    out = subprocess.run(["nm", "--defined-only", "--format=posix", path],
                         capture_output=True, text=True, check=True).stdout
    found = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[1] in kinds:
            found.add(fields[0])
    return found


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names), text=True,
                         capture_output=True, check=True).stdout
    return out.splitlines()


def main():
    if len(sys.argv) > 1:
        sys.exit("usage: python3 tools/link_audit.py (takes no arguments)")
    configure()
    executables, libraries = targets()
    run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
         "--target", *sorted(executables), *sorted(libraries)])

    public = set()
    for lib in libraries.values():
        public |= symbols(lib, {"T"})
    linked = set()
    for exe in executables.values():
        linked |= symbols(exe, {"T", "t", "W", "w"})
    # One demangled name can stand for several symbols (a constructor's
    # complete and base-object variants); it is linked if any of them is.
    mangled = sorted(public)
    name_of = dict(zip(mangled, demangle(mangled)))
    names = set(name_of.values())
    unlinked = names - {name_of[m] for m in public & linked}
    exempt = {n for n in unlinked if is_copy_or_move(n)}
    report = sorted(unlinked - exempt)

    for name in report:
        print(name)
    print(f"link_audit: {len(names)} public out-of-line functions in "
          f"{len(libraries)} libsinet_*.a, {len(unlinked)} linked by none of "
          f"{len(executables)} shipped programs ({len(exempt)} exempt "
          f"copy/move members)", file=sys.stderr)
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
