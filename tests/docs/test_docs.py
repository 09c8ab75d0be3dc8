"""The docs subsystem stays honest: links resolve, snippets compile,
flag tables name live CLI options.

Runs the same checks as the CI docs job (``tools/check_docs.py``) so a
doc-breaking rename fails tier-1 locally, plus negative tests proving
the checker actually detects each failure class.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


class TestRepoDocs:
    def test_required_pages_exist_and_are_linked(self):
        """Satellite: both docs pages exist and README links them."""
        architecture = REPO_ROOT / "docs" / "ARCHITECTURE.md"
        serving = REPO_ROOT / "docs" / "SERVING.md"
        assert architecture.exists()
        assert serving.exists()
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/ARCHITECTURE.md" in readme
        assert "docs/SERVING.md" in readme

    def test_all_pages_pass_the_checker(self):
        pages = check_docs.doc_pages(REPO_ROOT)
        assert len(pages) >= 3  # README + the two docs pages
        errors = []
        for page in pages:
            errors.extend(check_docs.check_page(page, REPO_ROOT))
        assert errors == []

    def test_serving_doc_covers_the_wire_protocol(self):
        text = (REPO_ROOT / "docs" / "SERVING.md").read_text(encoding="utf-8")
        for event in ("accepted", "chunk", "result", "error", "ping", "stats"):
            assert event in text
        for gauge in ("queue_depth", "pack_fill"):
            assert gauge in text

    def test_architecture_doc_covers_the_contract(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        assert "rng" in text and "spawn" in text
        assert "bit-identical" in text


class TestCheckerCatchesProblems:
    @pytest.fixture()
    def page(self, tmp_path):
        def write(text):
            path = tmp_path / "README.md"
            path.write_text(text, encoding="utf-8")
            return path

        return write

    def test_dead_relative_link(self, page, tmp_path):
        errors = check_docs.check_page(page("[x](missing.md)"), tmp_path)
        assert any("dead link" in e for e in errors)

    def test_dead_anchor(self, page, tmp_path):
        errors = check_docs.check_page(
            page("# Title\n\n[x](#no-such-heading)"), tmp_path
        )
        assert any("dead anchor" in e for e in errors)

    def test_live_anchor_and_link_pass(self, page, tmp_path):
        (tmp_path / "other.md").write_text("# Other Page\n", encoding="utf-8")
        errors = check_docs.check_page(
            page(
                "# My Title\n\n[a](#my-title) [b](other.md#other-page) "
                "[c](https://example.com/nope)"
            ),
            tmp_path,
        )
        assert errors == []

    def test_broken_python_snippet(self, page, tmp_path):
        errors = check_docs.check_page(
            page("```python\ndef broken(:\n```\n"), tmp_path
        )
        assert any("does not compile" in e for e in errors)

    def test_indented_snippet_in_list_compiles(self, page, tmp_path):
        text = "- item:\n\n  ```python\n  x = 1\n  ```\n"
        assert check_docs.check_page(page(text), tmp_path) == []

    def test_unimportable_python_dash_m(self, page, tmp_path):
        errors = check_docs.check_page(
            page("```bash\npython -m no_such_module_zz run\n```\n"), tmp_path
        )
        assert any("unimportable" in e for e in errors)

    def test_dead_submodule_of_live_package_caught(self, page, tmp_path):
        # The full dotted path is resolved, so a renamed submodule fails
        # even while the top-level package still imports.
        errors = check_docs.check_page(
            page("```bash\npython -m repro.gone_submodule_zz\n```\n"),
            tmp_path,
        )
        assert any("unimportable" in e for e in errors)

    def test_live_dotted_module_passes(self, page, tmp_path):
        text = "```bash\nPYTHONPATH=src python -m repro.service.server\n```\n"
        assert check_docs.check_page(page(text), tmp_path) == []

    def test_links_inside_code_blocks_ignored(self, page, tmp_path):
        text = '```python\nx = "[dead](missing.md)"\n```\n'
        # Would be a dead link if scanned as prose; must be ignored.
        assert check_docs.check_page(page(text), tmp_path) == []

    def test_stale_flag_table_row(self, page, tmp_path):
        text = (
            "| flag | meaning |\n|---|---|\n"
            "| `--workers N` | fleet processes |\n"
            "| `--removed-zz DIR` | an option no parser defines |\n"
        )
        errors = check_docs.check_page(page(text), tmp_path)
        assert len(errors) == 1
        assert "`--removed-zz`" in errors[0]

    def test_stale_api_name(self, page, tmp_path):
        text = (
            "Live: `repro.engine.BatchExecutor.run_model_packed`, "
            "`repro.service.faults`, `repro.drc.clear_shared_caches()`.\n"
            "Gone: `repro.service.scheduler.DeletedClassZz`.\n"
        )
        errors = check_docs.check_page(page(text), tmp_path)
        assert len(errors) == 1
        assert "`repro.service.scheduler.DeletedClassZz`" in errors[0]
