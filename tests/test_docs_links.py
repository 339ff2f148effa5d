"""Docs guards: intra-repo links resolve, and the env-knob table is whole.

The link check is a thin wrapper around ``tools/check_docs_links.py``
(the CI docs job runs the same script), so a doc rename that orphans a
link fails locally too.  The environment-variable check keeps the
``docs/engine.md`` table equal to the ``REPRO_*`` names ``src/`` reads:
a deleted knob cannot linger in the docs, a new one cannot land
undocumented.
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docs_links import broken_links, iter_doc_files  # noqa: E402


def test_docs_exist():
    names = {f.name for f in iter_doc_files(REPO_ROOT)}
    assert {"README.md", "engine.md", "experiments.md", "architecture.md"} <= names


def test_no_broken_intra_repo_links():
    assert broken_links(REPO_ROOT) == []


def test_env_var_table_matches_src():
    in_src = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        in_src |= set(re.findall(r"REPRO_[A-Z][A-Z0-9_]*", path.read_text()))
    engine_doc = (REPO_ROOT / "docs" / "engine.md").read_text()
    table = engine_doc.split("\n## Environment variables\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", table, re.MULTILINE))
    assert in_src == documented
