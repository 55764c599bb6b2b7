"""symlint: rules, spans, CLI, and baseline behaviour."""

import json

import pytest

from repro.analysis.lint import (
    Diagnostic,
    all_rules,
    lint_hl_source,
    lint_paths,
    lint_python_source,
    main,
)

BUGGY_HL = """\
; seeded-buggy HL program
(define-symbolic n number?)
(define xs (list 1 2 3 4))

(define (sum-to k)
  (if (= k n)
      0
      (+ k (sum-to (+ k 1)))))

(define (spin x) (spin x))

(assert #t)
(assert (< 2 1))
(define v (list-ref xs n))

(cond
  [else 'a]
  [(= n 2) 'b])
"""

RACY_PY = """\
from repro.sdsl.synthcl.runtime import CLRuntime, WorkItemContext


def broken(values):
    runtime = CLRuntime(race_mode="off")
    out = runtime.buffer("out", [0] * len(values))

    def kernel(item: WorkItemContext):
        gid = item.get_global_id()
        item.write(out, 0, gid)

    runtime.launch(kernel, len(values))
    return out.snapshot()
"""


def _by_rule(diagnostics):
    grouped = {}
    for diagnostic in diagnostics:
        grouped.setdefault(diagnostic.rule, []).append(diagnostic)
    return grouped


class TestHLRules:
    def test_seeded_buggy_program_flags_everything(self):
        found = _by_rule(lint_hl_source(BUGGY_HL, "buggy.hl"))
        assert set(found) == {"HL001", "HL002", "HL003", "HL004"}

    def test_symbolic_recursion_span_points_at_define(self):
        found = _by_rule(lint_hl_source(BUGGY_HL, "buggy.hl"))
        symbolic, unguarded = sorted(found["HL001"],
                                     key=lambda d: d.span.line)
        assert symbolic.span.line == 5 and symbolic.span.col == 1
        assert "sum-to" in symbolic.message
        assert unguarded.span.line == 10
        assert "spin" in unguarded.message
        assert symbolic.location == "buggy.hl:5:1"

    def test_constant_asserts(self):
        found = _by_rule(lint_hl_source(BUGGY_HL, "buggy.hl"))
        dead, failing = sorted(found["HL003"], key=lambda d: d.span.line)
        assert dead.span.line == 12 and dead.severity == "warning"
        assert failing.span.line == 13 and failing.severity == "error"

    def test_symbolic_index_span_points_at_index_argument(self):
        found = _by_rule(lint_hl_source(BUGGY_HL, "buggy.hl"))
        (diagnostic,) = found["HL002"]
        assert diagnostic.span.line == 14
        # The span is the `n` argument, not the whole form.
        assert diagnostic.span.col == 24
        assert diagnostic.span.end_col == 25

    def test_unreachable_after_else(self):
        found = _by_rule(lint_hl_source(BUGGY_HL, "buggy.hl"))
        (diagnostic,) = found["HL004"]
        assert diagnostic.span.line == 18
        assert "else" in diagnostic.message

    def test_layer1_decides_nontrivial_asserts(self):
        source = """\
(define-symbolic x number?)
(assert (<= (- x x) 0))
"""
        found = _by_rule(lint_hl_source(source, "f.hl"))
        assert "HL003" in found  # (x - x) folds to 0 in the linear view

    def test_fueled_recursion_is_clean(self):
        source = """\
(define (len xs fuel)
  (if (zero? fuel)
      0
      (+ 1 (len (rest xs) (- fuel 1)))))
"""
        assert lint_hl_source(source, "ok.hl") == []

    def test_concrete_index_is_clean(self):
        source = "(define xs (list 1 2)) (define v (list-ref xs 1))"
        assert lint_hl_source(source, "ok.hl") == []

    def test_parse_error_becomes_diagnostic(self):
        (diagnostic,) = lint_hl_source("(define (f x)", "broken.hl")
        assert diagnostic.rule == "HL000"
        assert diagnostic.severity == "error"
        assert diagnostic.span.line == 1


class TestPythonRules:
    def test_seeded_racy_kernel(self):
        found = _by_rule(lint_python_source(RACY_PY, "racy.py"))
        assert set(found) == {"CL002", "CL003"}
        (disabled,) = found["CL003"]
        assert disabled.span.line == 5
        (race,) = found["CL002"]
        assert race.span.line == 10
        assert race.severity == "error"
        # The span is the constant index argument of item.write.
        assert race.span.col == 25

    def test_gid_indexed_write_is_clean(self):
        clean = RACY_PY.replace("item.write(out, 0, gid)",
                                "item.write(out, gid, gid)")
        found = _by_rule(lint_python_source(clean, "ok.py"))
        assert "CL002" not in found

    def test_constant_write_without_gid_is_not_a_kernel(self):
        source = """\
def helper(buffer, item):
    item.write(buffer, 0, 1)
"""
        assert lint_python_source(source, "ok.py") == []

    def test_race_mode_off_is_informational(self):
        source = "runtime = CLRuntime(race_mode=\"off\")\n"
        (diagnostic,) = lint_python_source(source, "off.py")
        assert diagnostic.rule == "CL003"
        assert diagnostic.severity == "info"

    def test_syntax_error_becomes_diagnostic(self):
        (diagnostic,) = lint_python_source("def broken(:\n", "bad.py")
        assert diagnostic.rule == "CL000"
        assert diagnostic.severity == "error"


class TestDriver:
    def test_registry_is_complete(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == ["CL002", "CL003",
                         "HL001", "HL002", "HL003", "HL004"]

    def test_lint_paths_walks_directories_and_emits_bus_span(self, tmp_path):
        from repro.obs.metrics import BusMetrics

        (tmp_path / "a.hl").write_text("(assert #t)\n")
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not lintable\n")
        metrics = BusMetrics()
        with metrics.subscribed():
            diagnostics = lint_paths([str(tmp_path)])
        assert [d.rule for d in diagnostics] == ["HL003"]
        snapshot = metrics.snapshot()
        assert snapshot["analysis.lint.runs"] == 1
        assert snapshot["analysis.lint.files"] == 2
        assert snapshot["analysis.lint.diagnostics"] == 1

    def test_fingerprint_is_line_independent(self):
        first = Diagnostic("HL003", "warning", "message", None, "f.hl")
        assert first.fingerprint() == "f.hl::HL003::message"


class TestCli:
    def _write_sources(self, tmp_path):
        (tmp_path / "buggy.hl").write_text(BUGGY_HL)
        (tmp_path / "racy.py").write_text(RACY_PY)
        return str(tmp_path)

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.hl").write_text("(define x 1)\n")
        assert main([str(tmp_path)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_exit_one_on_errors(self, tmp_path, capsys):
        path = self._write_sources(tmp_path)
        assert main([path]) == 1
        out = capsys.readouterr().out
        assert "buggy.hl:13:1: error: HL003" in out
        assert "racy.py:10:25: error: CL002" in out

    def test_fail_on_new_without_baseline_fails_on_anything(
            self, tmp_path, capsys):
        path = self._write_sources(tmp_path)
        assert main([path, "--fail-on-new"]) == 1
        assert "not in baseline" in capsys.readouterr().err

    def test_baseline_roundtrip_suppresses_known_findings(
            self, tmp_path, capsys):
        path = self._write_sources(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main([path, "--write-baseline", str(baseline)]) == 1
        payload = json.loads(baseline.read_text())
        assert payload["fingerprints"]
        # With the baseline, the same findings are accepted...
        assert main([path, "--fail-on-new",
                     "--baseline", str(baseline)]) == 0
        # ...but a new finding still fails.
        (tmp_path / "new.hl").write_text("(assert (< 3 1))\n")
        capsys.readouterr()
        assert main([path, "--fail-on-new",
                     "--baseline", str(baseline)]) == 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "HL001" in out and "CL002" in out

    def test_quiet_suppresses_findings(self, tmp_path, capsys):
        path = self._write_sources(tmp_path)
        main([path, "--quiet"])
        out = capsys.readouterr().out
        assert "HL003" not in out
        assert "findings" in out

    def test_repo_examples_are_lint_clean(self):
        import pathlib

        repo = pathlib.Path(__file__).resolve().parents[2]
        diagnostics = lint_paths([str(repo / "examples"),
                                  str(repo / "src/repro/sdsl")])
        assert diagnostics == []
