"""Tests for ``repro check`` -- the AST static-analysis gates.

Each checker is exercised against a deliberately-bad fixture tree under
``tests/analysis_fixtures/`` (asserting rule ids and line numbers) and a
matching clean tree. The clean-tree test at the bottom is the tier-1
gate: the real package must stay analysis-clean.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest

from repro.analysis import Policy, Severity, run_check
from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.core import scan_suppressions
from repro.analysis.policy import RULE_CATALOG
from repro.analysis.report import render
from repro.analysis.runner import main

FIXTURES = Path(__file__).parent / "analysis_fixtures"
PACKAGE_ROOT = Path(__file__).parent.parent / "src" / "repro"


def fixture_check(name: str):
    return run_check(root=FIXTURES / name)


def rule_lines(result) -> set[tuple[str, str, int]]:
    return {(f.rule, f.path, f.line) for f in result.findings}


# ---------------------------------------------------------------------------
# RNG discipline


class TestRngDiscipline:
    def test_bad_fixture_findings(self):
        result = fixture_check("rng_bad")
        found = rule_lines(result)
        expected = {
            ("rng-global-state", "sim/runner.py", 13),   # from-import
            ("rng-global-state", "sim/runner.py", 17),   # np.random.normal
            ("rng-global-state", "sim/runner.py", 21),   # random.random
            ("rng-wall-clock", "sim/runner.py", 25),     # time.time
            ("rng-wall-clock", "sim/runner.py", 29),     # uuid.uuid4
            ("rng-wall-clock", "sim/runner.py", 33),     # os.urandom
            ("rng-unsanctioned-factory", "sim/runner.py", 37),
            ("rng-global-state", "sim/runner.py", 41),   # imported name
        }
        assert expected <= found

    def test_severities(self):
        result = fixture_check("rng_bad")
        by_rule = {f.rule: f.severity for f in result.findings}
        assert by_rule["rng-global-state"] is Severity.ERROR
        assert by_rule["rng-wall-clock"] is Severity.ERROR
        assert by_rule["rng-unsanctioned-factory"] is Severity.WARNING

    def test_findings_carry_fix_hints(self):
        result = fixture_check("rng_bad")
        assert all(f.hint for f in result.findings)

    def test_clean_fixture(self):
        result = fixture_check("rng_clean")
        assert result.ok, [f.message for f in result.findings]

    def test_sanctioned_factory_module_exempt(self):
        # rng_clean/utils/rng.py calls default_rng and must not be
        # flagged: it IS the sanctioned factory
        result = fixture_check("rng_clean")
        assert not any(f.path == "utils/rng.py" for f in result.findings)


# ---------------------------------------------------------------------------
# Forbidden imports


class TestForbiddenImports:
    def test_bad_fixture_findings(self):
        result = fixture_check("imports_bad")
        assert rule_lines(result) == {
            ("forbidden-import", "sim/engine.py", 3),  # repro.serve
            ("forbidden-import", "validation/tracestore.py", 3),  # pickle
        }

    def test_messages_name_the_banned_module(self):
        result = fixture_check("imports_bad")
        hits = {f.message.split("'")[1] for f in result.findings}
        assert hits == {"pickle", "repro.serve"}

    def test_sim_layer_bans_every_upper_layer(self):
        """The episode driver lives in repro.sim, so the simulation core
        may import neither the agents nor the loops built on it."""
        result = fixture_check("layering_bad")
        assert rule_lines(result) == {
            ("forbidden-import", "sim/vec_env.py", line)
            for line in range(4, 9)
        }
        hits = {f.message.split("'")[1] for f in result.findings}
        assert hits == {"repro.eval", "repro.rl", "repro.dbn",
                        "repro.validation", "repro.defenders"}


# ---------------------------------------------------------------------------
# Inline suppressions


class TestSuppressions:
    def test_justified_suppression_mutes_the_finding(self):
        result = fixture_check("suppressions")
        assert len(result.suppressed) == 1
        finding, why = result.suppressed[0]
        assert finding.line == 12
        assert "justified mute" in why
        assert ("rng-global-state", "sim/runner.py", 12) not in rule_lines(
            result
        )

    def test_malformed_suppression_is_its_own_error(self):
        result = fixture_check("suppressions")
        found = rule_lines(result)
        assert ("suppression-syntax", "sim/runner.py", 16) in found
        # ...and it does NOT mute the finding it sits on
        assert ("rng-global-state", "sim/runner.py", 16) in found

    def test_unguarded_finding_still_reported(self):
        assert ("rng-global-state", "sim/runner.py", 20) in rule_lines(
            fixture_check("suppressions")
        )

    def test_scan_suppressions_trailing_vs_standalone(self):
        guards, malformed = scan_suppressions(
            [
                "x = 1  # repro: allow[a-rule] -- trailing guards own line",
                "# repro: allow[b-rule] -- standalone guards next line",
                "y = 2",
                "z = 3  # repro: allow[c-rule]",
            ]
        )
        assert guards[1].covers("a-rule")
        assert guards[3].covers("b-rule")
        assert malformed == [(4, "z = 3  # repro: allow[c-rule]")]

    def test_wildcard_and_multi_rule(self):
        guards, _ = scan_suppressions(
            ["a  # repro: allow[r-one, r-two] -- both", "b  # repro: allow[*] -- all"]
        )
        assert guards[1].covers("r-one") and guards[1].covers("r-two")
        assert not guards[1].covers("r-three")
        assert guards[2].covers("anything")


# ---------------------------------------------------------------------------
# Report formats


class TestReportFormats:
    def _findings(self):
        return fixture_check("imports_bad").findings

    def test_json_payload(self):
        payload = json.loads(render("json", self._findings()))
        assert payload["errors"] == 2
        assert payload["warnings"] == 0
        assert {f["rule"] for f in payload["findings"]} == {
            "forbidden-import"
        }
        first = payload["findings"][0]
        assert set(first) == {
            "rule", "path", "line", "col", "severity", "message", "hint"
        }

    def test_github_annotations(self):
        out = render("github", self._findings())
        lines = out.splitlines()
        assert lines[0].startswith(
            "::error file=sim/engine.py,line=3,"
        )
        assert "title=repro check [forbidden-import]" in lines[0]
        assert lines[-1].startswith("repro check: 2 error(s)")

    def test_github_escapes_newlines(self):
        from repro.analysis.core import Finding

        finding = Finding(
            rule="x", path="a.py", line=1, severity=Severity.ERROR,
            message="multi\nline 100%", hint="",
        )
        out = render("github", [finding])
        assert "multi%0Aline 100%25" in out.splitlines()[0]

    def test_text_summary_counts(self):
        out = render("text", self._findings(), suppressed=3)
        assert out.splitlines()[-1] == (
            "repro check: 2 error(s), 0 warning(s) (3 suppressed inline)"
        )


# ---------------------------------------------------------------------------
# CLI entry points


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("rng-global-state", "rng-wall-clock",
                     "forbidden-import"):
            assert rule in out

    def test_exit_one_on_findings(self, capsys):
        code = main([str(FIXTURES / "imports_bad")])
        assert code == 1

    def test_exit_two_on_bad_root(self, capsys):
        assert main(["/nonexistent/path"]) == 2

    def test_json_format_end_to_end(self, capsys):
        main([str(FIXTURES / "imports_bad"), "--format=json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 2

    def test_repro_cli_check_subcommand(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["check", str(FIXTURES / "rng_clean")])
        assert code == 0

    def test_both_entry_points_share_one_parser(self, capsys):
        from repro.cli import main as cli_main

        def options(entry, argv):
            with pytest.raises(SystemExit) as exc:
                entry(argv)
            assert exc.value.code == 0
            return sorted(set(re.findall(r"--[a-z-]+",
                                         capsys.readouterr().out)))

        assert options(cli_main, ["check", "--help"]) == options(
            main, ["--help"]
        ) == ["--format", "--help", "--list-rules"]

    def test_ancestor_file_does_not_change_the_result(self, tmp_path,
                                                       capsys):
        """Nothing outside the analyzed tree (or the argv) feeds a run:
        a stray ledger file in an ancestor directory is ignored."""
        root = tmp_path / "checkout" / "imports_bad"
        shutil.copytree(FIXTURES / "imports_bad", root)
        assert main([str(root), "--format=json"]) == 1
        clean = capsys.readouterr().out
        ledger = {"version": 1, "entries": [
            {"rule": f.rule, "path": f.path,
             "code": (root / f.path).read_text().splitlines()[f.line - 1],
             "justification": "grandfathered"}
            for f in run_check(root=root).findings
        ]}
        for ancestor in (root.parent, tmp_path):
            (ancestor / ".repro-check-baseline.json").write_text(
                json.dumps(ledger))
        assert main([str(root), "--format=json"]) == 1
        assert capsys.readouterr().out == clean


# ---------------------------------------------------------------------------
# The tier-1 gate: the real tree is analysis-clean


class TestCleanTree:
    def test_package_passes_repro_check(self):
        result = run_check(root=PACKAGE_ROOT)
        assert result.ok, "\n" + render("text", result.findings)

    def test_tree_has_zero_suppressions(self):
        result = run_check(root=PACKAGE_ROOT)
        assert not result.suppressed, [
            (f.rule, f.path, f.line) for f, _ in result.suppressed
        ]

    def test_pickle_ban_covers_the_trace_datasets(self, tmp_path):
        (tmp_path / "validation").mkdir()
        (tmp_path / "validation" / "datasets.py").write_text(
            "import pickle\n")
        result = run_check(root=tmp_path)
        assert rule_lines(result) == {
            ("forbidden-import", "validation/datasets.py", 1),
        }

    def test_layering_ban_covers_relative_imports(self, tmp_path):
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "vec_env.py").write_text(
            "from ..rl import dqn\n"
            "from .. import serve\n"
            "from . import env\n"
        )
        result = run_check(root=tmp_path)
        assert rule_lines(result) == {
            ("forbidden-import", "sim/vec_env.py", 1),
            ("forbidden-import", "sim/vec_env.py", 2),
        }
        hits = [f.message.split("'")[1] for f in result.findings]
        assert hits == ["repro.rl", "repro.serve"]

    def test_policy_default_covers_all_catalog_rules(self):
        """One rule table: the catalog lists exactly the ids findings
        can carry, and the policy is keyed by the checkers' ids."""
        checker_ids = {rule for c in ALL_CHECKERS for rule in c.rules}
        assert set(RULE_CATALOG) == checker_ids | {"suppression-syntax"}
        assert set(Policy.default().rules) == checker_ids
