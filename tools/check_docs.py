#!/usr/bin/env python3
"""Documentation checker: dead links, broken snippets, stale CLI flags
and API names.

Run from anywhere inside the repo::

    python tools/check_docs.py

Checks ``README.md`` plus every ``docs/*.md`` page:

1. **Intra-repo links** — every relative markdown link target must
   exist on disk, and a ``#fragment`` pointing into a markdown file
   must match one of that file's headings (GitHub-style slugs).
   External links (``http``/``https``/``mailto``) are left alone: the
   job must not flake on the network.
2. **Python snippets** — every fenced ```` ```python ```` block is
   extracted doctest-style and must ``compile()``; stale pseudo-code
   cannot hide in the docs.
3. **``python -m`` commands** — every ``python -m <module>`` line in a
   fenced block must name an importable module (resolved with ``src``
   on the path), so copy-pasted commands keep working after renames.
4. **CLI flag tables** — every table row whose first cell is a
   backticked ``--flag`` must name an option some subcommand of
   :func:`repro.cli.build_parser` defines, so a removed flag cannot
   stay documented.
5. **API names** — every backticked dotted name under ``repro`` in
   prose (``repro.engine.BatchExecutor``, optionally followed by
   ``()``) must resolve: the longest importable module prefix is
   imported and the rest looked up with ``getattr``, so a deleted class
   or function cannot stay documented.  A short ``Name.attr`` (or
   ``Name.attr()``) must resolve the same way when ``Name`` is in the
   ``__all__`` of ``repro`` or one of its subpackages, so a deleted
   method cannot stay documented either; a dataclass field counts as
   an attribute, and names exported nowhere (``CHANGES.md``) are
   skipped.

Exits non-zero with one line per problem; CI runs this as the docs job.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import inspect
import pkgutil
import re
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Fenced code block (possibly indented inside a list item).
_FENCE_RE = re.compile(
    r"^(?P<indent>[ \t]*)```(?P<lang>[^\n`]*)\n"
    r"(?P<code>.*?)^(?P=indent)```[ \t]*$",
    re.DOTALL | re.MULTILINE,
)
#: Markdown link [text](target) — images too ( ![alt](target) ).
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: ATX heading at line start.
_HEADING_RE = re.compile(r"^#{1,6}\s+(.+?)\s*#*\s*$", re.MULTILINE)
#: `python -m module ...` inside a code block (tolerates env-var prefixes).
_PYTHON_M_RE = re.compile(r"python3?\s+-m\s+([A-Za-z_][\w.]*)")
#: Table row whose first cell opens with a backticked long flag.
_FLAG_ROW_RE = re.compile(r"^\|\s*`(--[A-Za-z0-9][\w-]*)", re.MULTILINE)
#: Backticked dotted name under the package, e.g. `repro.engine.plan()`.
_NAME_RE = re.compile(r"`(repro(?:\.\w+)+)(?:\(\))?`")
#: Backticked short attribute path, e.g. `ClientTicket.cancel()`.
_ATTR_RE = re.compile(r"`([A-Za-z_]\w*)((?:\.\w+)+)(?:\(\))?`")

_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")


def doc_pages(root: Path = REPO_ROOT) -> list[Path]:
    """The pages under contract: README.md plus docs/*.md."""
    pages = [root / "README.md"]
    pages.extend(sorted((root / "docs").glob("*.md")))
    return [page for page in pages if page.exists()]


def split_markdown(text: str) -> tuple[str, list[tuple[str, str]]]:
    """Return (prose with code fences stripped, [(lang, code), ...]).

    Link checking must not fire on brackets inside code, and snippet
    checking must not fire on prose, so each check gets its own half.
    """
    blocks: list[tuple[str, str]] = []

    def stash(match: re.Match) -> str:
        blocks.append(
            (match.group("lang").strip().lower(), match.group("code"))
        )
        return "\n"

    return _FENCE_RE.sub(stash, text), blocks


def heading_slugs(text: str) -> set[str]:
    """GitHub-style anchor slugs for every heading in ``text``."""
    prose, _ = split_markdown(text)
    slugs = set()
    for raw in _HEADING_RE.findall(prose):
        # Strip inline code/links, lowercase, drop punctuation, dashify.
        title = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", raw)
        title = title.replace("`", "").lower()
        title = re.sub(r"[^\w\- ]", "", title)
        slugs.add(re.sub(r"[ ]", "-", title.strip()))
    return slugs


def check_links(page: Path, prose: str, root: Path) -> list[str]:
    errors = []
    for target in _LINK_RE.findall(prose):
        if target.startswith(_EXTERNAL):
            continue
        path_part, _, fragment = target.partition("#")
        if path_part:
            resolved = (page.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(
                    f"{page.relative_to(root)}: dead link -> {target}"
                )
                continue
        else:
            resolved = page  # same-page fragment
        if fragment and resolved.suffix == ".md":
            slugs = heading_slugs(resolved.read_text(encoding="utf-8"))
            if fragment.lower() not in slugs:
                errors.append(
                    f"{page.relative_to(root)}: dead anchor -> {target}"
                )
    return errors


def check_snippets(
    page: Path, blocks: list[tuple[str, str]], root: Path
) -> list[str]:
    errors = []
    for index, (lang, code) in enumerate(blocks):
        if lang in ("python", "py"):
            try:
                # Fences nested in list items carry the item's indent.
                compile(textwrap.dedent(code), f"{page.name}:block{index}", "exec")
            except SyntaxError as error:
                errors.append(
                    f"{page.relative_to(root)}: python block {index} does "
                    f"not compile: {error.msg} (line {error.lineno})"
                )
        for module in _PYTHON_M_RE.findall(code):
            try:
                # Full dotted path: `python -m repro.gone.submodule` must
                # fail even while the top-level package still imports.
                found = importlib.util.find_spec(module) is not None
            except (ImportError, ValueError):
                found = False
            if not found:
                errors.append(
                    f"{page.relative_to(root)}: `python -m {module}` names "
                    f"an unimportable module"
                )
    return errors


def cli_options() -> set[str]:
    """Every option string defined by any ``repro`` (sub)parser."""
    from repro.cli import build_parser

    options = set()
    parsers = [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            options.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return options


def check_flags(page: Path, prose: str, root: Path) -> list[str]:
    options = cli_options()
    return [
        f"{page.relative_to(root)}: table row documents `{flag}`, which "
        f"no repro subcommand defines"
        for flag in _FLAG_ROW_RE.findall(prose)
        if flag not in options
    ]


def resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                target = getattr(target, attr)
        except AttributeError:
            return False
        return True
    return False


@functools.lru_cache(maxsize=1)
def exported_names() -> dict[str, list]:
    """Every name in the ``__all__`` of ``repro`` or a subpackage, with
    the objects it names (one name may be exported twice)."""
    import repro

    packages = ["repro"] + [
        f"repro.{info.name}"
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ]
    exported: dict[str, list] = {}
    for name in packages:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            exported.setdefault(export, []).append(getattr(module, export))
    return exported


def has_path(target: object, attrs: list[str]) -> bool:
    """``getattr`` along ``attrs``; a class's annotated (dataclass) field
    counts, as it has no class attribute without a default."""
    for attr in attrs:
        if hasattr(target, attr):
            target = getattr(target, attr)
        elif isinstance(target, type) and any(
            attr in inspect.get_annotations(cls) for cls in target.__mro__
        ):
            return True
        else:
            return False
    return True


def check_names(page: Path, prose: str, root: Path) -> list[str]:
    errors = [
        f"{page.relative_to(root)}: `{name}` names no module or attribute"
        for name in _NAME_RE.findall(prose)
        if not resolves(name)
    ]
    exported = exported_names()
    for head, rest in _ATTR_RE.findall(prose):
        attrs = rest[1:].split(".")
        if head in exported and not any(
            has_path(target, attrs) for target in exported[head]
        ):
            errors.append(
                f"{page.relative_to(root)}: `{head}{rest}` names no "
                f"attribute of the exported `{head}`"
            )
    return errors


def check_page(page: Path, root: Path = REPO_ROOT) -> list[str]:
    prose, blocks = split_markdown(page.read_text(encoding="utf-8"))
    return (
        check_links(page, prose, root)
        + check_snippets(page, blocks, root)
        + check_flags(page, prose, root)
        + check_names(page, prose, root)
    )


def main() -> int:
    # `python -m repro`, repro.cli and the documented API names.
    sys.path.insert(0, str(REPO_ROOT / "src"))
    errors = []
    pages = doc_pages()
    for page in pages:
        errors.extend(check_page(page))
    if errors:
        print("\n".join(errors))
        print(f"check_docs: {len(errors)} problem(s) in {len(pages)} page(s)")
        return 1
    print(f"check_docs: {len(pages)} page(s) clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
