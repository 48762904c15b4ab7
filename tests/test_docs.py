"""The docs tree must exist, stay linked, and keep its links unbroken."""

import argparse
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"


def _table_entries(content: str, heading: str | None = None) -> list[str]:
    """The backticked first cell of every table row (under ``heading`` only, if given)."""
    if heading is not None:
        content = content.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", content, flags=re.MULTILINE)


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string ``parser`` and its subcommands accept."""
    options: set[str] = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                options |= _option_strings(subparser)
    return options


class TestDocsTree:
    def test_required_pages_exist(self):
        for page in ("index.md", "architecture.md", "cli.md", "configuration.md",
                     "performance.md"):
            assert (DOCS / page).exists(), f"docs/{page} is missing"

    def test_readme_links_the_docs(self):
        readme = (REPO / "README.md").read_text()
        for page in ("docs/architecture.md", "docs/cli.md", "docs/configuration.md",
                     "docs/performance.md"):
            assert page in readme, f"README.md does not link {page}"

    def test_link_checker_passes(self):
        result = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "check_docs_links.py")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, f"broken docs links:\n{result.stdout}{result.stderr}"

    def test_architecture_page_covers_the_pipeline(self):
        content = (DOCS / "architecture.md").read_text()
        for topic in ("RoutingEngine", "MoveDelta", "events.jsonl", "rollup",
                      "submit_campaign", "incremental repair"):
            assert topic in content, f"architecture.md lost its {topic!r} coverage"

    def test_cli_page_documents_every_subcommand(self):
        content = (DOCS / "cli.md").read_text()
        for command in ("repro run", "repro campaign", "repro tables",
                        "repro compact", "repro list", "repro lint", "--follow"):
            assert command in content, f"cli.md does not document {command!r}"

    def test_linting_page_covers_rules_and_workflow(self):
        content = (DOCS / "linting.md").read_text()
        for topic in ("REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
                      "repro: allow[", "lint-baseline.json", "--write-baseline"):
            assert topic in content, f"linting.md lost its {topic!r} coverage"

    def test_configuration_page_covers_the_declarative_schema(self):
        from repro.study.registry import default_registry
        from repro.study.study import STUDY_KEYS

        content = (DOCS / "configuration.md").read_text()
        # The two key tables list exactly STUDY_KEYS: a key missing from
        # them is undocumented, a row STUDY_KEYS lacks documents a key that
        # no longer exists.  campaign.<key> rows are documented bare.
        documented = {
            *_table_entries(content, "## Top-level keys"),
            *(f"campaign.{key}" for key in _table_entries(content, "## `campaign` keys")),
        }
        assert not set(STUDY_KEYS) - documented, (
            f"configuration.md does not document keys {sorted(set(STUDY_KEYS) - documented)}"
        )
        assert not documented - set(STUDY_KEYS), (
            f"configuration.md documents unknown keys {sorted(documented - set(STUDY_KEYS))}"
        )
        # Every built-in optimizer's declared hyperparameters appear.
        registry = default_registry()
        for name in registry.names():
            for option in registry.spec(name).hyperparameters:
                assert f"`{option}`" in content, (
                    f"configuration.md does not document {name}'s option {option!r}"
                )

    def test_cli_page_flag_tables_list_only_accepted_flags(self):
        from repro.cli import build_parser

        documented = {
            entry.split()[0]
            for entry in _table_entries((DOCS / "cli.md").read_text())
            if entry.startswith("-")
        }
        assert documented, "cli.md has no flag table"
        unknown = sorted(documented - _option_strings(build_parser()))
        assert not unknown, f"cli.md documents flags the CLI does not accept: {unknown}"

    def test_performance_page_records_the_pool_decision(self):
        content = (DOCS / "performance.md").read_text()
        assert "## Evaluation pool removed" in content
        assert "256" in content and "BENCH_routing.json" in content
