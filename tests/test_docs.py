"""Documentation gates: generated CLI reference, docs site wiring, and the
docstring-coverage floor.

These run in tier-1 so documentation drift fails fast locally, before the CI
docs job (which additionally runs ``mkdocs build --strict``).
"""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"
TOOLS = REPO_ROOT / "tools"


def _load_gen_cli_docs():
    """Import tools/gen_cli_docs.py (tools/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "gen_cli_docs", TOOLS / "gen_cli_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _subcommands():
    """Every 'repro ...' command path, via the generator's own walker.

    Reusing ``iter_subparsers`` keeps this test and the generated page
    covering exactly the same parser traversal.
    """
    generator = _load_gen_cli_docs()
    return [path for path, _ in generator.iter_subparsers(build_parser())]


# ------------------------------------------------------------- CLI reference
def test_every_subcommand_is_documented():
    """Adding a subcommand without regenerating docs/cli.md must fail."""
    content = (DOCS / "cli.md").read_text()
    commands = _subcommands()
    assert commands, "parser defines no subcommands?"
    for command in commands:
        assert f"## repro {command}\n" in content, (
            f"subcommand {command!r} missing from docs/cli.md; "
            "run: python tools/gen_cli_docs.py")


def test_cli_reference_matches_parser_exactly():
    """docs/cli.md is byte-identical to a fresh generation."""
    result = subprocess.run(
        [sys.executable, str(TOOLS / "gen_cli_docs.py"), "--check"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr or result.stdout


def test_cli_reference_covers_new_controller_flags():
    content = (DOCS / "cli.md").read_text()
    for flag in ("--controller", "--controller-arg", "--controller-epoch",
                 "--controllers", "--cache-dir"):
        assert flag in content


# ---------------------------------------------------------------- docs site
def test_mkdocs_nav_and_docs_directory_agree():
    """Every nav entry exists on disk and every page is reachable."""
    nav_pages = set(re.findall(r":\s*([\w-]+\.md)\s*$",
                               (REPO_ROOT / "mkdocs.yml").read_text(),
                               re.MULTILINE))
    disk_pages = {path.name for path in DOCS.glob("*.md")}
    assert nav_pages, "mkdocs.yml nav defines no pages?"
    missing = nav_pages - disk_pages
    assert not missing, f"nav references missing pages: {sorted(missing)}"
    orphans = disk_pages - nav_pages
    assert not orphans, f"docs pages missing from the nav: {sorted(orphans)}"


def test_docs_internal_links_resolve():
    """Relative .md links between docs pages point at real files."""
    for page in DOCS.glob("*.md"):
        for target in re.findall(r"\]\((?!https?://|#)([^)#]+\.md)", page.read_text()):
            assert (DOCS / target).exists(), (
                f"{page.name} links to missing page {target!r}")


def test_docs_cover_the_cache_key_contract():
    """The results-store contract is user-facing docs, not just ROADMAP."""
    content = (DOCS / "caching.md").read_text()
    for needle in ("REPRO_CACHE_DIR", "code fingerprint",
                   "repro cache ls", "gc", "clear", "name", "description"):
        assert needle in content


def test_mkdocs_strict_build():
    """`mkdocs build --strict` passes (skipped where mkdocs is absent)."""
    pytest.importorskip("mkdocs")
    result = subprocess.run(
        [sys.executable, "-m", "mkdocs", "build", "--strict",
         "--site-dir", str(REPO_ROOT / "site-test")],
        cwd=REPO_ROOT, capture_output=True, text=True)
    try:
        assert result.returncode == 0, result.stderr or result.stdout
    finally:
        import shutil
        shutil.rmtree(REPO_ROOT / "site-test", ignore_errors=True)


# ------------------------------------------------------- docstring coverage
def test_docstring_coverage_floor():
    """src/repro/ stays above the documented docstring-coverage floor."""
    result = subprocess.run(
        [sys.executable, str(TOOLS / "docstring_coverage.py"),
         "--fail-under", "95"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
