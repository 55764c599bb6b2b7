"""symlint — static diagnostics for HL programs and SYNTHCL kernels.

Layer 2 of :mod:`repro.analysis`: where the sanitizer rewrites *formulas*
the solver is about to see, symlint inspects *source* before it ever
runs, flagging the patterns that make symbolic evaluation blow up or
silently lose soundness:

- **HL001** — recursion whose only termination tests depend on a
  symbolic constant (or that has no termination test at all): under
  symbolic evaluation the recursion depth is chosen by the solver, so
  the SVM explores it to the engine's bound on *every* path.
- **HL002** — a symbolic index into a concrete sequence
  (``list-ref``/``vector-ref``/``take``/``drop``): sound, but forces a
  merge over every cell of the sequence per access.
- **HL003** — an ``assert`` whose condition the Layer-1 abstract
  interpreter decides statically: provably true (dead weight on every
  query) or provably false (the program can never pass verification).
- **HL004** — unreachable ``cond`` clauses: after ``else``, after a
  test Layer 1 proves true, or guarded by a test Layer 1 proves false.
- **CL002–CL003** — SYNTHCL host-program checks over the Python AST:
  a kernel in which every work item writes the same concrete cell (a
  definite race the static pre-detector of :mod:`repro.analysis.races`
  would prove), and race checking turned off with ``race_mode="off"``.
  CL001 is retired and its code is not reused.

Diagnostics carry :class:`~repro.lang.reader.Span` source positions
from the spanned reader (HL) or the ``ast`` node extents (Python). The
CLI::

    python -m repro.analysis.lint [--fail-on-new] [--baseline FILE] PATH...

lints ``.hl``/``.rkt`` files with the HL rules and ``.py`` files with
the SYNTHCL rules; ``--fail-on-new`` exits non-zero on any diagnostic
absent from the baseline (with no baseline file, on *any* diagnostic),
which is how CI keeps the example programs clean.
"""

from __future__ import annotations

import ast
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.lang.reader import (ParseError, SourceMap, Span, Symbol,
                               read_all_spanned)
from repro.obs.events import BUS
from repro.smt import terms as T
from repro.sym.values import default_int_width
from repro.analysis.absint import AbstractError, bool3_of
from repro.analysis.domains import BFALSE, BTRUE

#: Severity levels, most severe first.
ERROR = "error"
WARNING = "warning"
INFO = "info"
SEVERITIES = (ERROR, WARNING, INFO)


@dataclass(frozen=True)
class Rule:
    """One registered check."""

    code: str           #: "HL001", "CL002", ...
    severity: str
    summary: str        #: one-line description (``--list-rules`` output)


@dataclass
class Diagnostic:
    """One finding, anchored to a source span when one is known."""

    rule: str
    severity: str
    message: str
    span: Optional[Span] = None
    filename: Optional[str] = None

    @property
    def location(self) -> str:
        if self.span is not None:
            return self.span.label()
        return self.filename or "<string>"

    def format(self) -> str:
        return f"{self.location}: {self.severity}: {self.rule} {self.message}"

    def fingerprint(self) -> str:
        """Baseline identity: stable across unrelated line-number shifts."""
        return f"{self.filename or '<string>'}::{self.rule}::{self.message}"

    def row(self) -> dict:
        span = None
        if self.span is not None:
            span = [self.span.line, self.span.col,
                    self.span.end_line, self.span.end_col]
        return {"rule": self.rule, "severity": self.severity,
                "message": self.message, "file": self.filename, "span": span}


#: Rule registries: code → (Rule, checker). HL checkers take an
#: :class:`HLContext`; Python checkers take a :class:`PyContext`.
HL_RULES: Dict[str, Tuple[Rule, Callable]] = {}
PY_RULES: Dict[str, Tuple[Rule, Callable]] = {}


def _register(registry: Dict[str, Tuple[Rule, Callable]], code: str,
              severity: str, summary: str):
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}")

    def decorate(fn: Callable) -> Callable:
        if code in registry:
            raise ValueError(f"duplicate rule code {code}")
        registry[code] = (Rule(code, severity, summary), fn)
        return fn

    return decorate


def hl_rule(code: str, severity: str, summary: str):
    return _register(HL_RULES, code, severity, summary)


def py_rule(code: str, severity: str, summary: str):
    return _register(PY_RULES, code, severity, summary)


def all_rules() -> List[Rule]:
    pairs = list(HL_RULES.values()) + list(PY_RULES.values())
    return sorted((rule for rule, _ in pairs), key=lambda r: r.code)


# ---------------------------------------------------------------------------
# HL rules
# ---------------------------------------------------------------------------

#: Special forms that branch; their test positions guard recursion.
_CONDITIONALS = {Symbol("if"), Symbol("cond"), Symbol("when"),
                 Symbol("unless"), Symbol("case")}
#: (head, index-argument position) of sequence accessors — HL002.
_INDEXED_ACCESS = {Symbol("list-ref"): 1, Symbol("vector-ref"): 1,
                   Symbol("take"): 1, Symbol("drop"): 1}


class HLContext:
    """Everything an HL rule needs: parsed forms, spans, symbolic names."""

    def __init__(self, forms: List[object], srcmap: SourceMap,
                 filename: Optional[str]):
        self.forms = forms
        self.srcmap = srcmap
        self.filename = filename
        #: names bound by define-symbolic / define-symbolic*, with type.
        self.symbolic: Dict[Symbol, str] = {}
        self.diagnostics: List[Diagnostic] = []
        for form in self._subforms():
            if (len(form) == 3 and isinstance(form[0], Symbol)
                    and form[0] in (Symbol("define-symbolic"),
                                    Symbol("define-symbolic*"))
                    and isinstance(form[1], Symbol)):
                kind = "boolean" if form[2] == Symbol("boolean?") else "number"
                self.symbolic[form[1]] = kind

    def _subforms(self) -> Iterator[list]:
        """Every compound form, preorder."""
        stack = [form for form in self.forms if isinstance(form, list)]
        while stack:
            form = stack.pop()
            yield form
            stack.extend(child for child in form if isinstance(child, list))

    def span_of(self, form, parent=None, index: Optional[int] = None,
                ) -> Optional[Span]:
        """Best-effort span: the form itself, else its slot in `parent`."""
        if isinstance(form, list):
            span = self.srcmap.span_of(form)
            if span is not None:
                return span
        if parent is not None and index is not None:
            span = self.srcmap.span_at(parent, index)
            if span is not None:
                return span
        if isinstance(parent, list):
            return self.srcmap.span_of(parent)
        return None

    def report(self, rule: Rule, span: Optional[Span], message: str) -> None:
        self.diagnostics.append(
            Diagnostic(rule.code, rule.severity, message, span,
                       self.filename))


def _mentions(form, names) -> bool:
    """Does `form` reference any of the given symbols?"""
    if isinstance(form, Symbol):
        return form in names
    if isinstance(form, list):
        return any(_mentions(child, names) for child in form)
    return False


def _guard_tests(form) -> Iterator[object]:
    """Test expressions of every conditional inside `form` (inclusive)."""
    if not isinstance(form, list) or not form:
        return
    head = form[0]
    if isinstance(head, Symbol) and head in _CONDITIONALS:
        if head == Symbol("cond"):
            for clause in form[1:]:
                if isinstance(clause, list) and clause:
                    yield clause[0]
        elif head == Symbol("case"):
            if len(form) > 1:
                yield form[1]
        elif len(form) > 1:            # if / when / unless
            yield form[1]
    for child in form:
        yield from _guard_tests(child)


def _has_conditional(form) -> bool:
    if not isinstance(form, list) or not form:
        return False
    head = form[0]
    if isinstance(head, Symbol) and head in _CONDITIONALS:
        return True
    return any(_has_conditional(child) for child in form)


def _defined_procedures(ctx: HLContext) -> Iterator[Tuple[Symbol, list, list]]:
    """(name, body-forms, define-form) for every procedure definition."""
    for form in ctx._subforms():
        if len(form) < 3 or form[0] != Symbol("define"):
            continue
        target = form[1]
        if isinstance(target, list) and target and isinstance(target[0],
                                                              Symbol):
            yield target[0], form[2:], form              # (define (f x) ...)
        elif (isinstance(target, Symbol) and isinstance(form[2], list)
              and form[2] and form[2][0] == Symbol("lambda")):
            yield target, form[2][2:], form              # (define f (lambda ...

@hl_rule("HL001", WARNING,
         "recursion guarded only by a symbolic value (or not at all)")
def _check_symbolic_recursion(ctx: HLContext) -> None:
    for name, body, define_form in _defined_procedures(ctx):
        if not any(_mentions(expr, {name}) for expr in body):
            continue                                     # not recursive
        span = ctx.span_of(define_form)
        tests = [t for expr in body for t in _guard_tests(expr)]
        if not any(_has_conditional(expr) for expr in body):
            ctx.report(HL_RULES["HL001"][0], span,
                       f"procedure {name} recurs unconditionally; symbolic "
                       f"evaluation will unroll it to the engine bound")
        elif any(_mentions(test, ctx.symbolic) for test in tests):
            ctx.report(HL_RULES["HL001"][0], span,
                       f"recursion in {name} is bounded by a symbolic value; "
                       f"every path unrolls to the engine bound — guard the "
                       f"recursion with a concrete fuel parameter")


@hl_rule("HL002", WARNING, "symbolic index into a concrete sequence")
def _check_symbolic_index(ctx: HLContext) -> None:
    for form in ctx._subforms():
        if not form or not isinstance(form[0], Symbol):
            continue
        arg_pos = _INDEXED_ACCESS.get(form[0])
        if arg_pos is None or len(form) <= arg_pos + 1:
            continue
        index_expr = form[arg_pos + 1]
        if _mentions(index_expr, ctx.symbolic):
            span = ctx.span_of(index_expr, form, arg_pos + 1)
            ctx.report(HL_RULES["HL002"][0], span,
                       f"({form[0]} ...) with a symbolic index forces a "
                       f"merge over every element; prefer iterating with "
                       f"a concrete index and selecting symbolically")


# -- Layer-1 bridge: decide HL conditions with the abstract interpreter. ----

_ARITH = {Symbol("+"): T.mk_add, Symbol("*"): T.mk_mul,
          Symbol("bitwise-and"): T.mk_bvand, Symbol("bitwise-ior"): T.mk_bvor,
          Symbol("bitwise-xor"): T.mk_bvxor}
_COMPARE = {Symbol("="): T.mk_eq, Symbol("<"): T.mk_slt,
            Symbol("<="): T.mk_sle}
_SWAPPED = {Symbol(">"): T.mk_slt, Symbol(">="): T.mk_sle}


def _form_term(ctx: HLContext, form) -> Optional[T.Term]:
    """Translate a side-effect-free HL expression to a term, or None.

    Symbolic constants become fresh term variables; any construct
    outside the translated subset (unknown bindings, calls, effects)
    aborts the translation, so a verdict from the resulting term is
    sound for exactly the expressions we can see through.
    """
    width = default_int_width()
    if isinstance(form, bool):
        return T.TRUE if form else T.FALSE
    if isinstance(form, int):
        if -(1 << (width - 1)) <= form < (1 << width):
            return T.bv_const(form, width)
        return None
    if isinstance(form, Symbol):
        kind = ctx.symbolic.get(form)
        if kind == "boolean":
            return T.bool_var(f"lint!{form}")
        if kind == "number":
            return T.bv_var(f"lint!{form}", width)
        return None
    if not isinstance(form, list) or not form:
        return None
    head = form[0]
    if not isinstance(head, Symbol):
        return None
    args = [_form_term(ctx, arg) for arg in form[1:]]
    if any(arg is None for arg in args):
        return None
    bv = [a for a in args if a.sort is T.BV]
    booleans = [a for a in args if a.sort is T.BOOL]
    if head in _ARITH and args and len(bv) == len(args):
        out = args[0]
        for arg in args[1:]:
            out = _ARITH[head](out, arg)
        return out
    if head == Symbol("-") and args and len(bv) == len(args):
        if len(args) == 1:
            return T.mk_neg(args[0])
        out = args[0]
        for arg in args[1:]:
            out = T.mk_sub(out, arg)
        return out
    if head in _COMPARE and len(args) == 2:
        if head == Symbol("=") and args[0].sort is not args[1].sort:
            return None
        if head != Symbol("=") and len(bv) != 2:
            return None
        return _COMPARE[head](args[0], args[1])
    if head in _SWAPPED and len(bv) == 2:
        return _SWAPPED[head](args[1], args[0])
    if head == Symbol("zero?") and len(bv) == 1:
        return T.mk_eq(args[0], T.bv_const(0, width))
    if head == Symbol("not") and len(booleans) == 1:
        return T.mk_not(args[0])
    if head == Symbol("and") and len(booleans) == len(args):
        return T.mk_and(*args) if args else T.TRUE
    if head == Symbol("or") and len(booleans) == len(args):
        return T.mk_or(*args) if args else T.FALSE
    return None


def _decide(ctx: HLContext, form):
    """Three-valued verdict for an HL condition, or None if untranslated."""
    term = _form_term(ctx, form)
    if term is None or term.sort is not T.BOOL:
        return None
    try:
        return bool3_of(term)
    except AbstractError:
        return None


@hl_rule("HL003", WARNING, "assert decided statically (dead or failing)")
def _check_constant_assert(ctx: HLContext) -> None:
    rule = HL_RULES["HL003"][0]
    for form in ctx._subforms():
        if (len(form) not in (2, 3) or form[0] != Symbol("assert")):
            continue
        verdict = _decide(ctx, form[1])
        span = ctx.span_of(form)
        if verdict is BTRUE:
            ctx.report(rule, span,
                       "assertion is provably true — it constrains nothing "
                       "and can be removed")
        elif verdict is BFALSE:
            ctx.diagnostics.append(Diagnostic(
                rule.code, ERROR,
                "assertion is provably false — it fails on every path",
                span, ctx.filename))


@hl_rule("HL004", WARNING, "unreachable cond clause")
def _check_unreachable_cond(ctx: HLContext) -> None:
    rule = HL_RULES["HL004"][0]
    for form in ctx._subforms():
        if not form or form[0] != Symbol("cond"):
            continue
        closed_by = None      # the clause that made the rest unreachable
        for position, clause in enumerate(form[1:], start=1):
            if not isinstance(clause, list) or not clause:
                continue
            span = ctx.span_of(clause, form, position)
            if closed_by is not None:
                ctx.report(rule, span,
                           f"clause is unreachable: the {closed_by} clause "
                           f"above it always takes the branch")
                continue
            test = clause[0]
            if isinstance(test, Symbol) and test == Symbol("else"):
                closed_by = "else"
                continue
            verdict = _decide(ctx, test)
            if verdict is BTRUE and test is not True:
                ctx.report(rule, span, "clause test is provably true — "
                                       "use else")
                closed_by = "provably-true"
            elif test is True:
                closed_by = "#t"
            elif verdict is BFALSE:
                ctx.report(rule, span,
                           "clause test is provably false — the clause "
                           "is dead")


def lint_hl_source(text: str, filename: Optional[str] = None,
                   ) -> List[Diagnostic]:
    """Run every HL rule over one source text."""
    try:
        forms, srcmap = read_all_spanned(text, filename)
    except ParseError as error:
        span = None
        if error.line is not None:
            span = Span(error.line, error.col or 1, error.line,
                        (error.col or 1) + 1, filename)
        return [Diagnostic("HL000", ERROR, str(error), span, filename)]
    ctx = HLContext(forms, srcmap, filename)
    for _, checker in HL_RULES.values():
        checker(ctx)
    return ctx.diagnostics


# ---------------------------------------------------------------------------
# SYNTHCL (Python) rules
# ---------------------------------------------------------------------------


class PyContext:
    """A parsed Python module plus a reporter."""

    def __init__(self, tree: ast.Module, filename: Optional[str]):
        self.tree = tree
        self.filename = filename
        self.diagnostics: List[Diagnostic] = []

    def span(self, node: ast.AST) -> Optional[Span]:
        if not hasattr(node, "lineno"):
            return None
        return Span(node.lineno, node.col_offset + 1,
                    getattr(node, "end_lineno", node.lineno),
                    getattr(node, "end_col_offset", node.col_offset) + 1,
                    self.filename)

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        self.diagnostics.append(
            Diagnostic(rule.code, rule.severity, message, self.span(node),
                       self.filename))


def _runtime_calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "CLRuntime"):
            yield node


@py_rule("CL002", ERROR, "every work item writes the same concrete cell")
def _check_constant_write(ctx: PyContext) -> None:
    rule = PY_RULES["CL002"][0]
    seen: set = set()
    for fn in ast.walk(ctx.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # Only kernels: functions that ask for their global id.
        uses_gid = any(isinstance(node, ast.Call)
                       and isinstance(node.func, ast.Attribute)
                       and node.func.attr == "get_global_id"
                       for node in ast.walk(fn))
        if not uses_gid:
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "write" and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, int)
                    and id(node) not in seen):
                # An enclosing function walks nested kernels too.
                seen.add(id(node))
                ctx.report(rule, node.args[1],
                           f"kernel writes index {node.args[1].value} "
                           f"unconditionally — every work item hits the "
                           f"same cell, a definite race for any "
                           f"global_size > 1")


@py_rule("CL003", INFO, "race checking turned off")
def _check_race_mode_off(ctx: PyContext) -> None:
    rule = PY_RULES["CL003"][0]
    for call in _runtime_calls(ctx.tree):
        for keyword in call.keywords:
            if (keyword.arg == "race_mode"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value == "off"):
                ctx.report(rule, call,
                           "race_mode=\"off\" trusts the kernel's accesses; "
                           "the launch emits no obligations")


def lint_python_source(text: str, filename: Optional[str] = None,
                       ) -> List[Diagnostic]:
    """Run every SYNTHCL rule over one Python source text."""
    try:
        tree = ast.parse(text, filename=filename or "<string>")
    except SyntaxError as error:
        span = None
        if error.lineno is not None:
            span = Span(error.lineno, (error.offset or 1), error.lineno,
                        (error.offset or 1) + 1, filename)
        return [Diagnostic("CL000", ERROR, f"syntax error: {error.msg}",
                           span, filename)]
    ctx = PyContext(tree, filename)
    for _, checker in PY_RULES.values():
        checker(ctx)
    return ctx.diagnostics


# ---------------------------------------------------------------------------
# Drivers and CLI
# ---------------------------------------------------------------------------

_HL_SUFFIXES = (".hl", ".rkt")


def lint_file(path: str) -> List[Diagnostic]:
    """Lint one file, choosing the rule set by suffix."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(_HL_SUFFIXES):
        return lint_hl_source(text, path)
    if path.endswith(".py"):
        return lint_python_source(text, path)
    return []


def _lintable(paths: Iterable[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _, names in sorted(os.walk(path)):
                for name in sorted(names):
                    if name.endswith(_HL_SUFFIXES + (".py",)):
                        files.append(os.path.join(root, name))
        else:
            files.append(path)
    return files


def lint_paths(paths: Iterable[str]) -> List[Diagnostic]:
    """Lint files and directories; emits one ``analysis.lint`` span."""
    files = _lintable(paths)
    BUS.begin("analysis.lint", "analysis", files=len(files))
    diagnostics: List[Diagnostic] = []
    try:
        for path in files:
            diagnostics.extend(lint_file(path))
    finally:
        counts = {severity: 0 for severity in SEVERITIES}
        for diagnostic in diagnostics:
            counts[diagnostic.severity] = counts.get(diagnostic.severity,
                                                     0) + 1
        BUS.end("analysis.lint", "analysis", files=len(files),
                diagnostics=len(diagnostics), **counts)
    return diagnostics


def load_baseline(path: str) -> List[str]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return list(data.get("fingerprints", []))


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="symlint: static checks for HL programs (.hl/.rkt) "
                    "and SYNTHCL host programs (.py).")
    parser.add_argument("paths", nargs="*", default=[],
                        help="files or directories to lint")
    parser.add_argument("--fail-on-new", action="store_true",
                        help="exit 1 on any diagnostic not in the baseline "
                             "(without a baseline: on any diagnostic at all)")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="accepted-findings file (JSON) for --fail-on-new")
    parser.add_argument("--write-baseline", metavar="FILE", default=None,
                        help="record current findings as the baseline")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-diagnostic output")
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.severity:<8} {rule.summary}")
        return 0
    if not options.paths:
        parser.error("no paths given (or use --list-rules)")

    diagnostics = lint_paths(options.paths)
    diagnostics.sort(key=lambda d: (d.filename or "",
                                    d.span.line if d.span else 0,
                                    d.span.col if d.span else 0, d.rule))
    if not options.quiet:
        for diagnostic in diagnostics:
            print(diagnostic.format())

    if options.write_baseline:
        payload = {"fingerprints": sorted({d.fingerprint()
                                           for d in diagnostics})}
        with open(options.write_baseline, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    counts = {severity: sum(1 for d in diagnostics
                            if d.severity == severity)
              for severity in SEVERITIES}
    summary = ", ".join(f"{counts[s]} {s}{'s' if counts[s] != 1 else ''}"
                        for s in SEVERITIES)
    print(f"symlint: {len(diagnostics)} finding"
          f"{'s' if len(diagnostics) != 1 else ''} ({summary})")

    if options.fail_on_new:
        known = set()
        if options.baseline and os.path.exists(options.baseline):
            known = set(load_baseline(options.baseline))
        new = [d for d in diagnostics if d.fingerprint() not in known]
        if new:
            print(f"symlint: {len(new)} finding"
                  f"{'s' if len(new) != 1 else ''} not in baseline",
                  file=sys.stderr)
            return 1
        return 0
    return 1 if counts[ERROR] else 0


if __name__ == "__main__":
    sys.exit(main())
