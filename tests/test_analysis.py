"""Tests for ``repro check`` -- the AST static-analysis gates.

Each checker is exercised against a deliberately-bad fixture tree under
``tests/analysis_fixtures/`` (asserting rule ids and line numbers) and a
matching clean tree. The clean-tree test at the bottom is the tier-1
gate: the real package must stay analysis-clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    BaselineError,
    Policy,
    Severity,
    run_check,
)
from repro.analysis.baseline import PARKED_JUSTIFICATION
from repro.analysis.core import scan_suppressions
from repro.analysis.report import render
from repro.analysis.runner import main

FIXTURES = Path(__file__).parent / "analysis_fixtures"
PACKAGE_ROOT = Path(__file__).parent.parent / "src" / "repro"


def fixture_check(name: str):
    return run_check(root=FIXTURES / name, baseline=Baseline.empty())


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
            for line in range(4, 10)
        }
        hits = {f.message.split("'")[1] for f in result.findings}
        assert hits == {"repro.eval", "repro.rl", "repro.dbn",
                        "repro.validation", "repro.defenders",
                        "repro.adversarial"}


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
# Baseline


class TestBaseline:
    def _bad_root(self):
        return FIXTURES / "imports_bad"

    def test_baselined_findings_do_not_fail(self, tmp_path):
        raw = run_check(root=self._bad_root(), baseline=Baseline.empty())
        lines = {
            f: (self._bad_root() / f.path).read_text().splitlines()[f.line - 1]
            for f in raw.findings
        }
        path = tmp_path / "baseline.json"
        count = Baseline.write(
            path, raw.findings, lambda f: lines[f],
            justification="grandfathered for the test",
        )
        assert count == 2
        result = run_check(
            root=self._bad_root(), baseline=Baseline.load(path)
        )
        assert result.ok
        assert len(result.baselined) == 2

    def test_stale_entry_warns(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "rule": "forbidden-import",
                "path": "validation/tracestore.py",
                "code": "import this_code_no_longer_exists",
                "justification": "stale on purpose",
            }],
        }))
        result = run_check(
            root=self._bad_root(), baseline=Baseline.load(path)
        )
        stale = [f for f in result.findings if f.rule == "baseline-unused"]
        assert len(stale) == 1
        assert stale[0].severity is Severity.WARNING

    def test_empty_justification_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "rule": "forbidden-import", "path": "x.py",
                "code": "import pickle", "justification": "   ",
            }],
        }))
        with pytest.raises(BaselineError, match="justification"):
            Baseline.load(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(BaselineError, match="version"):
            Baseline.load(path)

    @pytest.mark.parametrize("placeholder", [
        PARKED_JUSTIFICATION,
        "TODO: justify or fix, then rerun repro check",
        "  todo -- will get to it",
    ])
    def test_parked_justification_flagged(self, tmp_path, placeholder):
        raw = run_check(root=self._bad_root(), baseline=Baseline.empty())
        lines = {
            f: (self._bad_root() / f.path).read_text().splitlines()[f.line - 1]
            for f in raw.findings
        }
        path = tmp_path / "baseline.json"
        Baseline.write(path, raw.findings, lambda f: lines[f],
                       justification=placeholder)
        result = run_check(
            root=self._bad_root(), baseline=Baseline.load(path)
        )
        # the entries still park their findings (they are matched) ...
        assert len(result.baselined) == 2
        # ... but each unedited placeholder is itself a finding
        parked = [f for f in result.findings if f.rule == "baseline-parked"]
        assert len(parked) == 2
        assert all(f.severity is Severity.WARNING for f in parked)
        assert not result.ok

    def test_real_justification_not_flagged(self, tmp_path):
        raw = run_check(root=self._bad_root(), baseline=Baseline.empty())
        lines = {
            f: (self._bad_root() / f.path).read_text().splitlines()[f.line - 1]
            for f in raw.findings
        }
        path = tmp_path / "baseline.json"
        Baseline.write(path, raw.findings, lambda f: lines[f],
                       justification="legacy shim, tracked in ROADMAP")
        result = run_check(
            root=self._bad_root(), baseline=Baseline.load(path)
        )
        assert result.ok
        assert not [f for f in result.findings
                    if f.rule == "baseline-parked"]


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
        out = render("text", self._findings(), suppressed=3, baselined=1)
        assert out.splitlines()[-1] == (
            "repro check: 2 error(s), 0 warning(s) "
            "(1 baselined, 3 suppressed inline)"
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
        code = main([str(FIXTURES / "imports_bad"), "--no-baseline"])
        assert code == 1

    def test_exit_two_on_bad_root(self, capsys):
        assert main(["/nonexistent/path", "--no-baseline"]) == 2

    def test_json_format_end_to_end(self, capsys):
        main([str(FIXTURES / "imports_bad"), "--no-baseline",
              "--format=json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 2

    def test_write_baseline_then_edit_then_clean(self, tmp_path, capsys):
        baseline = tmp_path / "b.json"
        assert main([
            str(FIXTURES / "imports_bad"), "--write-baseline",
            "--baseline", str(baseline),
        ]) == 0
        # the machine tag parks the findings but is itself reported
        # until a human writes a real justification
        assert main([
            str(FIXTURES / "imports_bad"), "--baseline", str(baseline),
        ]) == 1
        out = capsys.readouterr().out
        assert "baseline-parked" in out
        data = json.loads(baseline.read_text())
        for entry in data["entries"]:
            assert entry["justification"] == PARKED_JUSTIFICATION
            entry["justification"] = "grandfathered for the test"
        baseline.write_text(json.dumps(data))
        assert main([
            str(FIXTURES / "imports_bad"), "--baseline", str(baseline),
        ]) == 0
        out = capsys.readouterr().out
        assert "2 baselined" in out

    def test_repro_cli_check_subcommand(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main([
            "check", str(FIXTURES / "rng_clean"), "--no-baseline",
        ])
        assert code == 0


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
        result = run_check(root=tmp_path, baseline=Baseline.empty())
        assert rule_lines(result) == {
            ("forbidden-import", "validation/datasets.py", 1),
        }

    def test_policy_default_covers_all_catalog_rules(self):
        from repro.analysis.policy import RULE_CATALOG

        policy = Policy.default()
        for rule in ("rng-global-state", "rng-wall-clock",
                     "rng-unsanctioned-factory", "forbidden-imports"):
            assert policy.enabled(rule)
        assert "baseline-unused" in RULE_CATALOG
        assert "suppression-syntax" in RULE_CATALOG
