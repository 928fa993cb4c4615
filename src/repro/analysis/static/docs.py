"""Generated documentation sections, kept fresh by ``--check-docs``.

The ``COLT_*`` knob table is generated from the registry and injected
between ``<!-- colt-analyze:knobs -->`` markers in DESIGN.md and
README.md. ``colt-analyze --write-docs`` regenerates it in place;
``--check-docs`` regenerates in memory and fails when the committed
copies are stale, so the docs cannot drift from the code they claim to
describe.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence

from repro.analysis.static import registries

KNOB_BEGIN = "<!-- colt-analyze:knobs -->"
KNOB_END = "<!-- /colt-analyze:knobs -->"

#: Files carrying the generated knob table, relative to the repo root.
KNOB_DOCS = ("DESIGN.md", "README.md")


def knob_table(knobs: Sequence[registries.EnvKnob] = registries.KNOBS) -> str:
    """Markdown table of every environment knob, from the registry."""
    lines: List[str] = [
        "| Knob | Default | Consumer | CLI flag | Purpose |",
        "| --- | --- | --- | --- | --- |",
    ]
    for knob in sorted(knobs, key=lambda k: k.name):
        flag = f"`{knob.cli_flag}`" if knob.cli_flag else "--"
        lines.append(
            f"| `{knob.name}` | `{knob.default}` | `{knob.consumer}` "
            f"| {flag} | {knob.description} |"
        )
    return "\n".join(lines)


def inject_block(text: str, content: str) -> str:
    """Replace the text between the knob markers with ``content``.

    Raises ``ValueError`` when the markers are missing or unordered, so
    a doc that lost its markers fails loudly instead of silently
    keeping a stale table.
    """
    begin = text.find(KNOB_BEGIN)
    end = text.find(KNOB_END)
    if begin == -1 or end == -1 or end < begin:
        raise ValueError(
            f"missing or malformed {KNOB_BEGIN} ... {KNOB_END} markers"
        )
    head = text[: begin + len(KNOB_BEGIN)]
    tail = text[end:]
    return f"{head}\n{content}\n{tail}"


def render_docs(repo_root: Path) -> Dict[Path, str]:
    """Expected content of every generated doc, keyed by absolute path."""
    expected: Dict[Path, str] = {}
    table = knob_table()
    for name in KNOB_DOCS:
        doc_path = repo_root / name
        if not doc_path.exists():
            continue
        expected[doc_path] = inject_block(
            doc_path.read_text(encoding="utf-8"), table
        )
    return expected


def check_docs(repo_root: Path) -> List[str]:
    """Problems with the committed generated docs (empty = fresh)."""
    problems: List[str] = []
    try:
        expected = render_docs(repo_root)
    except ValueError as exc:
        return [str(exc)]
    for path, content in expected.items():
        rel = path.relative_to(repo_root)
        if not path.exists():
            problems.append(
                f"{rel}: missing; run colt-analyze --write-docs"
            )
        elif path.read_text(encoding="utf-8") != content:
            problems.append(
                f"{rel}: stale generated section; run colt-analyze "
                f"--write-docs"
            )
    return problems


def write_docs(repo_root: Path) -> List[str]:
    """Regenerate every generated doc in place; returns written paths."""
    written: List[str] = []
    for path, content in render_docs(repo_root).items():
        path.parent.mkdir(parents=True, exist_ok=True)
        if not path.exists() or path.read_text(encoding="utf-8") != content:
            path.write_text(content, encoding="utf-8")
            written.append(str(path.relative_to(repo_root)))
    return written
