"""Tests for repro-lint: the AST-based invariant checker (repro.analysis).

Three layers:

* per-checker fixture snippets — a positive case, a suppressed case, and an
  allowlisted/clean case per rule, run through :func:`run_lint` on a
  synthetic package tree,
* the machinery — suppression hygiene, reporters and the rule catalog,
* the repo itself — ``repro.cli lint`` must exit 0 on this repository, and
  the two historical bug classes the linter exists for must still be
  *detected* when re-introduced (mutation regressions).
"""

from __future__ import annotations

import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis.findings import Finding
from repro.analysis.registry import all_rule_ids, get_checker, rule_catalog
from repro.analysis.reporters import render_json, render_text
from repro.analysis.runner import run_lint
from repro.cli import main


def lint_tree(tmp_path: Path, files: dict[str, str],
              rules: list[str] | None = None):
    """Write ``files`` under a synthetic package and lint it."""
    pkg = tmp_path / "pkg"
    for relpath, text in files.items():
        path = pkg / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return run_lint(package_dir=pkg, rules=rules)


def by_rule(result, rule: str) -> list[Finding]:
    return [f for f in result.findings if f.rule == rule]


class TestDeterminismRng:
    def test_global_numpy_rng_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"search/s.py": """\
            import numpy as np

            def draw():
                return np.random.rand()
        """}, rules=["determinism-rng"])
        (finding,) = by_rule(result, "determinism-rng")
        assert "numpy" in finding.message
        assert finding.line == 4

    def test_stdlib_random_flagged_and_zone_scoped(self, tmp_path):
        files = {
            "search/s.py": "import random\nx = random.choice([1, 2])\n",
            # Same code outside a deterministic zone: not flagged.
            "viz/v.py": "import random\nx = random.choice([1, 2])\n",
        }
        result = lint_tree(tmp_path, files, rules=["determinism-rng"])
        (finding,) = by_rule(result, "determinism-rng")
        assert finding.path.endswith("search/s.py")

    def test_seeded_generator_and_locals_clean(self, tmp_path):
        result = lint_tree(tmp_path, {"search/s.py": """\
            import numpy as np

            def draw(rng: np.random.Generator):
                random = object()          # local named like the module
                return rng.random()        # explicit generator: fine
        """}, rules=["determinism-rng"])
        assert by_rule(result, "determinism-rng") == []

    def test_suppressed_with_reason(self, tmp_path):
        result = lint_tree(tmp_path, {"search/s.py": """\
            import random
            x = random.random()  # repro-lint: allow[determinism-rng] demo value, not a result
        """}, rules=["determinism-rng"])
        assert result.findings == []
        assert result.suppressed == 1


class TestDeterminismClock:
    def test_time_time_flagged_also_as_reference(self, tmp_path):
        result = lint_tree(tmp_path, {"campaign/c.py": """\
            import time
            from dataclasses import dataclass, field

            @dataclass
            class Record:
                created: float = field(default_factory=time.time)

            def stamp():
                return time.time()
        """}, rules=["determinism-clock"])
        lines = sorted(f.line for f in by_rule(result, "determinism-clock"))
        assert lines == [6, 9]  # the default_factory reference AND the call

    def test_monotonic_is_exempt(self, tmp_path):
        result = lint_tree(tmp_path, {"search/s.py": """\
            import time
            elapsed = time.monotonic()
        """}, rules=["determinism-clock"])
        assert result.findings == []


class TestDeterminismListdir:
    def test_unsorted_listing_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"campaign/c.py": """\
            import os
            from pathlib import Path

            def entries(d: Path):
                for name in os.listdir(d):
                    yield name
                for p in d.glob("*.json"):
                    yield p
        """}, rules=["determinism-listdir"])
        assert len(by_rule(result, "determinism-listdir")) == 2

    def test_sorted_wrapping_clean(self, tmp_path):
        result = lint_tree(tmp_path, {"campaign/c.py": """\
            import os
            from pathlib import Path

            def entries(d: Path):
                return sorted(os.listdir(d)) + sorted(d.glob("*.json"))
        """}, rules=["determinism-listdir"])
        assert result.findings == []


class TestSerdeParity:
    def test_written_but_never_read_key_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"m.py": """\
            class Thing:
                def to_dict(self):
                    return {"a": self.a, "count": len(self.items),
                            "nested": {"b": self.b}}

                @staticmethod
                def from_dict(payload):
                    thing = Thing()
                    thing.a = payload["a"]
                    thing.b = payload["nested"]["b"]
                    return thing
        """}, rules=["serde-parity"])
        (finding,) = by_rule(result, "serde-parity")
        assert "'count'" in finding.message

    def test_get_pop_and_membership_count_as_reads(self, tmp_path):
        result = lint_tree(tmp_path, {"m.py": """\
            def thing_to_dict(thing):
                return {"a": thing.a, "b": thing.b, "c": thing.c}

            def thing_from_dict(payload):
                has = "c" in payload
                return (payload.get("a"), payload.pop("b"), has)
        """}, rules=["serde-parity"])
        assert result.findings == []

    def test_unpaired_writer_ignored(self, tmp_path):
        result = lint_tree(tmp_path, {"m.py": """\
            class ReportOnly:
                def to_dict(self):
                    return {"write_only": 1}
        """}, rules=["serde-parity"])
        assert result.findings == []

    def test_suppressed_derived_field(self, tmp_path):
        result = lint_tree(tmp_path, {"m.py": """\
            class Thing:
                def to_dict(self):
                    return {
                        "a": self.a,
                        # repro-lint: allow[serde-parity] derived from a; recomputed on load
                        "a_squared": self.a ** 2,
                    }

                @staticmethod
                def from_dict(payload):
                    thing = Thing()
                    thing.a = payload["a"]
                    return thing
        """}, rules=["serde-parity"])
        assert result.findings == []
        assert result.suppressed == 1


class TestAtomicIo:
    def test_truncating_writes_flagged_in_persisting_zones(self, tmp_path):
        result = lint_tree(tmp_path, {"campaign/c.py": """\
            from pathlib import Path

            def save(path: Path, text: str):
                with open(path, "w") as handle:
                    handle.write(text)
                path.write_text(text)
        """}, rules=["atomic-write"])
        assert len(by_rule(result, "atomic-write")) == 2

    def test_reads_appends_and_other_zones_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "campaign/c.py": """\
                def ok(path):
                    with open(path) as r, open(path, "a") as a:
                        return r.read(), a
            """,
            # search/ computes; it does not persist shared state.
            "search/s.py": "def save(p, t):\n    open(p, 'w').write(t)\n",
        }, rules=["atomic-write"])
        assert result.findings == []

    def test_utils_atomic_itself_is_exempt(self, tmp_path):
        result = lint_tree(tmp_path, {"utils/atomic.py": """\
            import os

            def write_atomic(path, text):
                with open(str(path) + ".tmp", "w") as handle:
                    handle.write(text)
                    os.fsync(handle.fileno())
                os.replace(str(path) + ".tmp", path)
        """}, rules=["atomic-write", "atomic-rename"])
        assert result.findings == []

    def test_rename_without_fsync_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"service/s.py": """\
            import os

            def swap(a, b):
                os.replace(a, b)
        """}, rules=["atomic-rename"])
        (finding,) = by_rule(result, "atomic-rename")
        assert "os.replace" in finding.message


class TestForkSafety:
    def test_thread_in_init_and_module_scope_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"service/d.py": """\
            import threading

            WATCHER = threading.Thread(target=print)

            class Service:
                def __init__(self):
                    self._t = threading.Thread(target=print)
                    self._lock = threading.Lock()   # locks are fine

                def start(self):
                    self._t2 = threading.Thread(target=print)  # after fork: fine
        """}, rules=["fork-thread-early"])
        lines = sorted(f.line for f in by_rule(result, "fork-thread-early"))
        assert lines == [3, 7]

    def test_mp_primitive_created_late_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"service/d.py": """\
            import multiprocessing

            class Service:
                def __init__(self):
                    self._context = multiprocessing.get_context("fork")
                    self._jobs = self._context.Queue()       # pre-fork: fine

                def resize(self):
                    self._extra = self._context.Queue()      # post-fork: lost
                    self._flag = multiprocessing.Event()     # post-fork: lost
        """}, rules=["fork-mp-late"])
        lines = sorted(f.line for f in by_rule(result, "fork-mp-late"))
        assert lines == [9, 10]

    def test_rules_scoped_to_service_zone(self, tmp_path):
        result = lint_tree(tmp_path, {"eval/e.py": """\
            import threading

            WORKER = threading.Thread(target=print)
        """}, rules=["fork-thread-early", "fork-mp-late"])
        assert result.findings == []

    def test_rules_cover_the_campaign_zone(self, tmp_path):
        # The campaign pool forks the same workers as the service.
        result = lint_tree(tmp_path, {"campaign/c.py": """\
            import multiprocessing
            import threading

            WATCHER = threading.Thread(target=print)

            def run():
                return multiprocessing.Pipe()
        """}, rules=["fork-thread-early", "fork-mp-late"])
        assert sorted((f.rule, f.line) for f in result.findings) == [
            ("fork-mp-late", 7), ("fork-thread-early", 4)]


class TestApiSurface:
    def test_stale_entry_and_unlisted_import_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"sub/__init__.py": """\
            from json import dumps, loads

            __all__ = ["dumps", "removed_long_ago"]
        """}, rules=["api-surface"])
        messages = sorted(f.message for f in by_rule(result, "api-surface"))
        assert "'loads'" in messages[0]           # imported, not listed
        assert "'removed_long_ago'" in messages[1]  # listed, not bound

    def test_private_names_and_plain_modules_exempt(self, tmp_path):
        result = lint_tree(tmp_path, {"sub/__init__.py": """\
            import json
            from json import dumps as _dumps

            __all__ = []
        """}, rules=["api-surface"])
        assert result.findings == []

    def test_lazy_exports_bind_but_unknown_names_still_flagged(self, tmp_path):
        """A name the module ``__getattr__`` resolves from its table counts
        as bound; one in a table the hook never reads, or in no table, does
        not."""
        result = lint_tree(tmp_path, {"sub/__init__.py": """\
            import importlib

            _EXPORTS = {"dumps": "json"}
            _UNUSED = {"loads": "json"}


            def __getattr__(name):
                return getattr(importlib.import_module(_EXPORTS[name]), name)


            __all__ = ["dumps", "loads", "never_bound"]
        """}, rules=["api-surface"])
        messages = sorted(f.message for f in by_rule(result, "api-surface"))
        assert len(messages) == 2
        assert "'loads'" in messages[0] and "'never_bound'" in messages[1]

    def test_non_init_files_and_dynamic_all_ignored(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sub/mod.py": "from json import dumps\n__all__ = ['gone']\n",
            "dyn/__init__.py": "from json import dumps\n__all__ = "
                               "['du' + 'mps']\n",
        }, rules=["api-surface"])
        assert result.findings == []


class TestSuppressionHygiene:
    def test_unknown_rule_and_missing_reason_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"search/s.py": """\
            import random
            x = random.random()  # repro-lint: allow[no-such-rule] typo
            y = random.random()  # repro-lint: allow[determinism-rng]
        """})
        messages = [f.message for f in by_rule(result, "lint-suppression")]
        assert any("unknown rule 'no-such-rule'" in m for m in messages)
        assert any("no reason" in m for m in messages)

    def test_unused_suppression_flagged_on_full_runs_only(self, tmp_path):
        files = {"search/s.py":
                 "x = 1  # repro-lint: allow[determinism-rng] nothing here\n"}
        full = lint_tree(tmp_path, files)
        assert any("unused suppression" in f.message
                   for f in by_rule(full, "lint-suppression"))
        subset = lint_tree(tmp_path, files, rules=["determinism-clock"])
        assert subset.findings == []


class TestRunnerAndReporters:
    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        result = lint_tree(tmp_path, {"search/bad.py": "def broken(:\n"})
        (finding,) = by_rule(result, "lint-parse")
        assert "does not parse" in finding.message

    def test_unknown_rule_selection_raises(self, tmp_path):
        with pytest.raises(KeyError):
            run_lint(package_dir=tmp_path, rules=["no-such-rule"])

    def test_reporters_agree_on_findings(self):
        findings = [Finding("src/x.py", 3, "determinism-rng", "boom")]
        text = render_text(findings, checked_files=1)
        assert "src/x.py:3: determinism-rng boom" in text
        payload = json.loads(render_json(findings, checked_files=1))
        assert payload["findings"] == [findings[0].to_dict()]

    def test_every_rule_is_documented(self):
        for rule_id, summary in rule_catalog():
            assert summary, f"{rule_id} has no docstring summary"
            assert len(get_checker(rule_id).explanation().splitlines()) > 1, \
                f"{rule_id} has no --explain body"


class TestCli:
    def test_rules_listing_and_explain(self, capsys):
        assert main(["lint", "--rules"]) == 0
        listed = capsys.readouterr().out
        for rule_id in all_rule_ids():
            assert rule_id in listed
        assert main(["lint", "--explain", "serde-parity"]) == 0
        assert "num_candidates" in capsys.readouterr().out
        assert main(["lint", "--explain", "nope"]) == 2


class TestRepositoryIsClean:
    def test_repo_lint_exits_zero_with_shipped_baseline(self):
        # Every finding is fixed; there is no baseline to grandfather one.
        # This is the CI gate, run in-process.
        assert main(["lint"]) == 0


@pytest.fixture
def repro_copy(tmp_path):
    """A throwaway copy of the real package, for mutation regressions."""
    source = Path(__file__).parent.parent / "src" / "repro"
    target = tmp_path / "repro"
    shutil.copytree(source, target,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return target


class TestMutationRegressions:
    """Re-introduce the historical bugs; the linter must catch each one."""

    def test_deleting_num_candidates_read_is_caught(self, repro_copy):
        serialization = repro_copy / "utils" / "serialization.py"
        lines = [line for line in serialization.read_text().splitlines()
                 if 'payload.get("num_candidates"' not in line]
        serialization.write_text("\n".join(lines) + "\n")
        result = run_lint(package_dir=repro_copy, rules=["serde-parity"])
        assert any(f.rule == "serde-parity"
                   and "num_candidates" in f.message
                   and f.path.endswith("utils/serialization.py")
                   for f in result.findings)

    def test_unseeded_numpy_rng_in_search_is_caught(self, repro_copy):
        searcher = repro_copy / "search" / "random_search.py"
        searcher.write_text(searcher.read_text() + textwrap.dedent("""\


            def _jitter():
                import numpy as np
                return np.random.rand()
        """))
        result = run_lint(package_dir=repro_copy, rules=["determinism-rng"])
        assert any(f.rule == "determinism-rng"
                   and f.path.endswith("search/random_search.py")
                   for f in result.findings)

    def test_unmutated_copy_is_clean(self, repro_copy):
        result = run_lint(package_dir=repro_copy)
        assert result.findings == []
