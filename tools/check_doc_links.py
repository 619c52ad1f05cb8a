#!/usr/bin/env python3
"""Doc-link checker: every relative markdown link in README.md and
docs/*.md must resolve to a file in the repo, and the architecture doc
must stay cross-linked from the documents that reference the execution
pipeline.

Run from anywhere inside the repo:

    python3 tools/check_doc_links.py

Exit status 0 when every link resolves and every required edge exists;
1 otherwise, with one line per problem.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Files whose links we verify (README plus everything under docs/).
SOURCES = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))

# Cross-link contract: (source file, link target that must appear).
# docs/EXECUTION.md is the hub document — README and every layer doc
# must point at it, and it must point back at each layer doc.
REQUIRED_EDGES = [
    ("README.md", "docs/EXECUTION.md"),
    ("docs/PLAN_FORMAT.md", "EXECUTION.md"),
    ("docs/DURABILITY.md", "EXECUTION.md"),
    ("docs/LINTS.md", "EXECUTION.md"),
    ("docs/EXECUTION.md", "PLAN_FORMAT.md"),
    ("docs/EXECUTION.md", "DURABILITY.md"),
    ("docs/EXECUTION.md", "LINTS.md"),
]

# Inline markdown links: [text](target). Reference-style links and
# autolinks are not used in these docs.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# Fenced code blocks contain query text and shell transcripts whose
# parentheses would otherwise read as links.
FENCE_RE = re.compile(r"^(```|~~~)")


def links_in(path):
    """Yield (lineno, target) for every inline link outside code fences."""
    in_fence = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK_RE.finditer(line):
            yield lineno, m.group(1)


def main():
    problems = []
    seen_edges = set()

    for src in SOURCES:
        if not src.exists():
            problems.append(f"{src.relative_to(REPO)}: source file missing")
            continue
        rel_src = src.relative_to(REPO).as_posix()
        for lineno, target in links_in(src):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            seen_edges.add((rel_src, target))
            # Strip a #fragment; resolve relative to the linking file.
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (src.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(
                    f"{rel_src}:{lineno}: broken link `{target}` "
                    f"(resolved to {resolved})"
                )

    for src, target in REQUIRED_EDGES:
        if (src, target) not in seen_edges:
            problems.append(
                f"missing required cross-link: {src} must link to `{target}`"
            )

    if problems:
        print(f"{len(problems)} doc-link problem(s):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1

    n_links = len(seen_edges)
    print(f"doc links OK: {n_links} relative links across {len(SOURCES)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
