"""Tests for the docs CI gate, ``scripts/check_docs.py``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "scripts" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_check_docs()


class TestDocsSymbol:
    def test_unresolvable_name_is_one_finding(self, tmp_path):
        (tmp_path / "doc.md").write_text(
            "Run `repro.optimize()` through `repro.search.api.SearchSession`\n"
            "from `repro.mapping`; `repro.cli lint` is a command line.\n"
            "The class `repro.search.random_mapper_search.RandomMapperSearcher`"
            " does not exist.\n")
        findings = []
        checked = check_docs.check_symbols("doc.md", findings, root=tmp_path)
        assert checked == 4
        assert [(f.rule, f.line) for f in findings] == [("docs-symbol", 3)]
        assert "RandomMapperSearcher" in findings[0].message

    def test_repo_docs_resolve(self):
        findings = []
        for doc_path in check_docs.DOC_FILES:
            check_docs.check_symbols(doc_path, findings)
        assert findings == []

    def test_repo_docs_pass_every_rule(self, capsys):
        assert check_docs.main([]) == 0
