#!/usr/bin/env python3
"""Check that every src/ include respects the library link graph.

A file under src/<lib>/ may include only headers of <lib> itself or of a
library that <lib> links (directly or through a PUBLIC dependency). LINKS
below mirrors the target_link_libraries() lines of CMakeLists.txt, and the
script fails when the two disagree, so the table cannot drift silently. It
also fails when the table has a cycle: the libraries must form a DAG.

The `base` library is compiled from three files that live under
src/runtime/ (BASE_FILES); they count as `base`, not `runtime`.

Usage: check_layering.py   (exit 0 = clean, 1 = violations listed on stdout)
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

# library -> libraries it links (mirror of CMakeLists.txt).
LINKS = {
    "base": set(),
    "sc": set(),
    "hw": {"sc"},
    "nn": {"sc", "base"},
    "runtime": {"base", "nn", "sc"},
    "vit": {"runtime", "nn", "sc"},
    "serialize": {"vit", "nn", "sc", "runtime"},
    "serve": {"runtime", "serialize", "vit"},
    "core": {"vit", "hw", "runtime", "serialize", "serve"},
}

# Paths (relative to src/, without extension) compiled into `base`.
BASE_FILES = {"runtime/arena", "runtime/thread_pool", "runtime/failpoint"}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
LINK_RE = re.compile(r"target_link_libraries\(\s*(\w+)\s+PUBLIC\s+([^)]*)\)")
BASE_RE = re.compile(r"set\(BASE_SOURCES\s+([^)]*)\)")


def library_of(rel_path: str) -> str | None:
    """Library owning a path relative to src/ (a source file or an include)."""
    stem, _ = os.path.splitext(rel_path)
    if stem in BASE_FILES:
        return "base"
    top = rel_path.split("/", 1)[0]
    return top if top in LINKS and "/" in rel_path else None


def closure(lib: str) -> set:
    seen, stack = set(), [lib]
    while stack:
        for dep in LINKS[stack.pop()]:
            if dep not in seen:
                seen.add(dep)
                stack.append(dep)
    return seen


def table_errors() -> list:
    errors = []
    for lib in LINKS:
        if lib in closure(lib):
            errors.append(f"LINKS: {lib} reaches itself — the libraries must form a DAG")
    with open(os.path.join(REPO, "CMakeLists.txt"), encoding="utf-8") as f:
        cmake = f.read()
    declared = {name: set() for name in LINKS}
    for name, deps in LINK_RE.findall(cmake):
        if name in declared:
            declared[name] = {d for d in deps.split() if d in LINKS}
    for lib, deps in LINKS.items():
        if declared[lib] != deps:
            errors.append(f"LINKS[{lib!r}] = {sorted(deps)} but CMakeLists.txt links "
                          f"{sorted(declared[lib])}")
    match = BASE_RE.search(cmake)
    cmake_base = set()
    if match:
        for path in match.group(1).split():
            cmake_base.add(os.path.splitext(path.split("/src/", 1)[-1])[0])
    if cmake_base != BASE_FILES:
        errors.append(f"BASE_FILES = {sorted(BASE_FILES)} but CMakeLists.txt BASE_SOURCES "
                      f"holds {sorted(cmake_base)}")
    return errors


def include_errors() -> list:
    errors = []
    for root, _, names in os.walk(SRC):
        for name in sorted(names):
            if not name.endswith((".h", ".cpp")):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, SRC).replace(os.sep, "/")
            owner = library_of(rel)
            if owner is None:
                continue
            allowed = closure(owner) | {owner}
            with open(path, encoding="utf-8") as f:
                text = f.read()
            for header in INCLUDE_RE.findall(text):
                dep = library_of(header)
                if dep is not None and dep not in allowed:
                    errors.append(f"src/{rel}: includes \"{header}\" ({dep}), "
                                  f"but {owner} does not link {dep}")
    return errors


def main() -> int:
    errors = table_errors() + include_errors()
    for e in errors:
        print(e)
    if errors:
        print(f"{len(errors)} layering violation(s)")
        return 1
    print(f"layering ok: {len(LINKS)} libraries, DAG, every src/ include linked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
