#!/usr/bin/env python
"""Generate ``docs/cli.md`` from the ``repro`` argparse definitions.

The CLI reference is derived from :func:`repro.cli.build_parser` -- the same
object that parses real invocations -- so the docs cannot drift from the
implementation: ``tests/test_docs.py`` regenerates the page and fails when
the committed file is stale (for example when a new subcommand is added
without re-running this script), and the CI docs job runs ``--check`` before
building the site.

Usage::

    python tools/gen_cli_docs.py            # rewrite docs/cli.md
    python tools/gen_cli_docs.py --check    # exit 1 if docs/cli.md is stale
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# the generated page must not depend on the invoking terminal's width
os.environ["COLUMNS"] = "79"

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import build_parser  # noqa: E402

OUTPUT = REPO_ROOT / "docs" / "cli.md"

HEADER = """\
# CLI reference

Every command below is available both as `repro ...` (the installed console
script) and as `python -m repro ...`.

*This page is generated from the argparse definitions by
`python tools/gen_cli_docs.py`; edit the parser in `src/repro/cli.py`, not
this file.  A test fails when the two drift apart.*
"""


def iter_subparsers(parser: argparse.ArgumentParser, prefix: str = ""):
    """Yield (command path, subparser) depth-first over the parser tree."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                path = f"{prefix} {name}".strip()
                yield path, subparser
                yield from iter_subparsers(subparser, path)


def _help_text(parser: argparse.ArgumentParser) -> str:
    """One parser's help, without trailing whitespace."""
    return parser.format_help().rstrip()


def render() -> str:
    """The full markdown page for the current parser definitions."""
    parser = build_parser()
    sections = [HEADER]
    sections.append("## repro\n\n```text\n" + _help_text(parser) + "\n```\n")
    for path, subparser in iter_subparsers(parser):
        sections.append(f"## repro {path}\n\n```text\n"
                        + _help_text(subparser) + "\n```\n")
    return "\n".join(sections)


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument("--check", action="store_true",
                     help="verify docs/cli.md is current instead of writing it")
    args = cli.parse_args(argv)
    content = render()
    if args.check:
        if not OUTPUT.exists() or OUTPUT.read_text() != content:
            print(f"{OUTPUT} is stale; run: python tools/gen_cli_docs.py",
                  file=sys.stderr)
            return 1
        print(f"{OUTPUT} is up to date")
        return 0
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(content)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
