"""Hash-consed term DAG for quantifier-free boolean/bitvector formulas.

Terms are immutable and globally interned, so structurally equal terms are
the *same object* and common subexpressions are shared — the paper's
"symbolic expressions are represented as DAGs that share common
subexpressions" (§4.3). All constructors simplify aggressively: applied to
concrete operands they constant-fold, which is what lets the SVM keep
concrete computation concrete.

Sorts
-----
- ``BOOL`` — the booleans.
- ``BV`` with a per-term ``width`` — fixed-width bitvectors, used to model
  the paper's finite-precision integers (footnote 2 of the paper). Values
  are stored unsigned, modulo ``2**width``; signed operators interpret them
  in two's complement.
"""

from __future__ import annotations

import gc
import weakref
from itertools import repeat
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# Sorts and operators
# ---------------------------------------------------------------------------

BOOL = "Bool"
BV = "BV"

# Boolean operators.
OP_TRUE = "true"
OP_FALSE = "false"
OP_BOOL_VAR = "bool-var"
OP_NOT = "not"
OP_AND = "and"
OP_OR = "or"
OP_XOR = "xor"
OP_ITE = "ite"            # boolean- or bitvector-sorted, by result
OP_EQ = "="
OP_ULT = "bvult"
OP_ULE = "bvule"
OP_SLT = "bvslt"
OP_SLE = "bvsle"

# Bitvector operators.
OP_BV_CONST = "bv-const"
OP_BV_VAR = "bv-var"
OP_ADD = "bvadd"
OP_SUB = "bvsub"
OP_MUL = "bvmul"
OP_UDIV = "bvudiv"
OP_UREM = "bvurem"
OP_SDIV = "bvsdiv"
OP_SREM = "bvsrem"
OP_SMOD = "bvsmod"
OP_NEG = "bvneg"
OP_BVAND = "bvand"
OP_BVOR = "bvor"
OP_BVXOR = "bvxor"
OP_BVNOT = "bvnot"
OP_SHL = "bvshl"
OP_LSHR = "bvlshr"
OP_ASHR = "bvashr"


class Term:
    """A node of the interned term DAG. Use the ``mk_*`` constructors."""

    __slots__ = ("op", "args", "payload", "sort", "width", "_hash", "__weakref__")

    def __init__(self, op: str, args: Tuple["Term", ...], payload, sort: str,
                 width: int):
        self.op = op
        self.args = args
        self.payload = payload      # constant value or variable name
        self.sort = sort
        self.width = width          # 0 for booleans
        self._hash = hash((op, args, payload, width))

    def __hash__(self) -> int:
        return self._hash

    # Identity equality: interning guarantees structural equality iff `is`.
    def __eq__(self, other) -> bool:
        return self is other

    def __ne__(self, other) -> bool:
        return self is not other

    @property
    def is_const(self) -> bool:
        return self.op in (OP_TRUE, OP_FALSE, OP_BV_CONST)

    @property
    def is_var(self) -> bool:
        return self.op in (OP_BOOL_VAR, OP_BV_VAR)

    def const_value(self):
        """Python value of a constant term (bool or unsigned int)."""
        if self.op == OP_TRUE:
            return True
        if self.op == OP_FALSE:
            return False
        if self.op == OP_BV_CONST:
            return self.payload
        raise ValueError(f"not a constant: {self!r}")

    def __repr__(self) -> str:
        return to_sexpr(self, max_depth=4)


# Weak-value interning: the table maps a structural key to the one live
# Term with that structure, but does not keep it alive. When the last
# outside reference to a term dies, its entry vanishes (each key tuple
# holds strong references to the term's *args*, so subterm entries only
# follow once every parent entry is gone — the DAG unravels top-down).
# This is what makes it safe for the table to outlive any particular
# query: live terms are never evicted, so structural equality remains
# object identity across query boundaries, and dead terms cost nothing.
_TABLE: "weakref.WeakValueDictionary[Tuple, Term]" = \
    weakref.WeakValueDictionary()


def _intern(op: str, args: Tuple[Term, ...], payload, sort: str,
            width: int) -> Term:
    key = (op, args, payload, width)
    term = _TABLE.get(key)
    if term is None:
        term = Term(op, args, payload, sort, width)
        _TABLE[key] = term
    return term


def reset_terms() -> None:
    """Reclaim interned terms that are no longer referenced.

    Historical note: this used to *clear* the table, which broke the
    interning invariant — a term built before the clear and a structurally
    equal one built after were distinct objects, so identity-based
    equality silently failed across query boundaries. Interning is weak
    now: dead terms leave the table on their own, so all this needs to do
    is run a collection to break any lingering reference cycles. Live
    terms are never evicted.
    """
    gc.collect()


def num_interned_terms() -> int:
    return len(_TABLE)


TRUE = Term(OP_TRUE, (), None, BOOL, 0)
FALSE = Term(OP_FALSE, (), None, BOOL, 0)
_TABLE[(OP_TRUE, (), None, 0)] = TRUE
_TABLE[(OP_FALSE, (), None, 0)] = FALSE


# ---------------------------------------------------------------------------
# Leaf constructors
# ---------------------------------------------------------------------------

def bool_const(value: bool) -> Term:
    return TRUE if value else FALSE


def bool_var(name: str) -> Term:
    return _intern(OP_BOOL_VAR, (), name, BOOL, 0)


def bv_const(value: int, width: int) -> Term:
    if width <= 0:
        raise ValueError("bitvector width must be positive")
    return _intern(OP_BV_CONST, (), value & ((1 << width) - 1), BV, width)


def bv_var(name: str, width: int) -> Term:
    if width <= 0:
        raise ValueError("bitvector width must be positive")
    return _intern(OP_BV_VAR, (), name, BV, width)


def to_signed(value: int, width: int) -> int:
    """Interpret an unsigned `width`-bit value in two's complement."""
    sign_bit = 1 << (width - 1)
    return value - (1 << width) if value & sign_bit else value


def _check_bool(*terms: Term) -> None:
    for term in terms:
        if term.sort is not BOOL:
            raise TypeError(f"expected Bool, got {term.sort}: {term!r}")


def _check_bv(*terms: Term) -> int:
    width = terms[0].width
    for term in terms:
        if term.sort is not BV:
            raise TypeError(f"expected BV, got {term.sort}: {term!r}")
        if term.width != width:
            raise TypeError(
                f"width mismatch: {width} vs {term.width} in {term!r}")
    return width


# ---------------------------------------------------------------------------
# Boolean constructors
# ---------------------------------------------------------------------------

def mk_not(a: Term) -> Term:
    _check_bool(a)
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    if a.op == OP_NOT:
        return a.args[0]
    return _intern(OP_NOT, (a,), None, BOOL, 0)


def _nary_bool(op: str, terms: Iterable[Term], unit: Term, zero: Term) -> Term:
    """Build a flattened, deduplicated n-ary and/or."""
    flat: List[Term] = []
    seen = set()
    for term in terms:
        _check_bool(term)
        if term is zero:
            return zero
        if term is unit:
            continue
        if term.op == op:
            children = term.args
        else:
            children = (term,)
        for child in children:
            if child is zero:
                return zero
            if child is unit or id(child) in seen:
                continue
            # Complementary pair: a /\ ~a = false, a \/ ~a = true.
            complement = mk_not(child)
            if id(complement) in seen:
                return zero
            seen.add(id(child))
            flat.append(child)
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=id)
    return _intern(op, tuple(flat), None, BOOL, 0)


def mk_and(*terms: Term) -> Term:
    return _nary_bool(OP_AND, terms, TRUE, FALSE)


def mk_or(*terms: Term) -> Term:
    return _nary_bool(OP_OR, terms, FALSE, TRUE)


def mk_implies(a: Term, b: Term) -> Term:
    return mk_or(mk_not(a), b)


def mk_xor(a: Term, b: Term) -> Term:
    _check_bool(a, b)
    if a is FALSE:
        return b
    if b is FALSE:
        return a
    if a is TRUE:
        return mk_not(b)
    if b is TRUE:
        return mk_not(a)
    if a is b:
        return FALSE
    if mk_not(a) is b:
        return TRUE
    if id(a) > id(b):
        a, b = b, a
    return _intern(OP_XOR, (a, b), None, BOOL, 0)


def mk_iff(a: Term, b: Term) -> Term:
    return mk_not(mk_xor(a, b))


def mk_eq(a: Term, b: Term) -> Term:
    if a.sort is BOOL and b.sort is BOOL:
        return mk_iff(a, b)
    width = _check_bv(a, b)
    if a is b:
        return TRUE
    if a.is_const and b.is_const:
        return bool_const(a.const_value() == b.const_value())
    if id(a) > id(b):
        a, b = b, a
    del width
    return _intern(OP_EQ, (a, b), None, BOOL, 0)


def mk_ite(cond: Term, then: Term, alt: Term) -> Term:
    """If-then-else over booleans or same-width bitvectors (the φ of §4.1)."""
    _check_bool(cond)
    if cond is TRUE:
        return then
    if cond is FALSE:
        return alt
    if then is alt:
        return then
    if then.sort is BOOL:
        _check_bool(then, alt)
        if then is TRUE and alt is FALSE:
            return cond
        if then is FALSE and alt is TRUE:
            return mk_not(cond)
        if then is TRUE:
            return mk_or(cond, alt)
        if then is FALSE:
            return mk_and(mk_not(cond), alt)
        if alt is TRUE:
            return mk_or(mk_not(cond), then)
        if alt is FALSE:
            return mk_and(cond, then)
        return _intern(OP_ITE, (cond, then, alt), None, BOOL, 0)
    width = _check_bv(then, alt)
    if cond.op == OP_NOT:
        return mk_ite(cond.args[0], alt, then)
    # Collapse nested ite on the same condition.
    if then.op == OP_ITE and then.args[0] is cond:
        then = then.args[1]
    if alt.op == OP_ITE and alt.args[0] is cond:
        alt = alt.args[2]
    if then is alt:
        return then
    return _intern(OP_ITE, (cond, then, alt), None, BV, width)


def _mk_compare(op: str, a: Term, b: Term) -> Term:
    width = _check_bv(a, b)
    if a.is_const and b.is_const:
        return bool_const(
            _SEMANTICS[op](width, a.const_value(), b.const_value()))
    if a is b:
        return bool_const(_SEMANTICS[op](width, 0, 0))
    return _intern(op, (a, b), None, BOOL, 0)


def mk_ult(a: Term, b: Term) -> Term:
    return _mk_compare(OP_ULT, a, b)


def mk_ule(a: Term, b: Term) -> Term:
    return _mk_compare(OP_ULE, a, b)


def mk_slt(a: Term, b: Term) -> Term:
    return _mk_compare(OP_SLT, a, b)


def mk_sle(a: Term, b: Term) -> Term:
    return _mk_compare(OP_SLE, a, b)


# ---------------------------------------------------------------------------
# Bitvector constructors
# ---------------------------------------------------------------------------

def _mk_bv_binop(op: str, a: Term, b: Term,
                 commutative: bool = False) -> Term:
    width = _check_bv(a, b)
    if a.is_const and b.is_const:
        return bv_const(
            _SEMANTICS[op](width, a.const_value(), b.const_value()), width)
    if commutative and id(a) > id(b):
        a, b = b, a
    return _intern(op, (a, b), None, BV, width)


# Additive terms are kept in a *linear normal form*: a canonical n-ary sum
# `c0 + c1*t1 + ... + cn*tn` over non-additive atoms, with the constant
# first and atoms sorted by identity. Two expressions that are equal as
# linear combinations (e.g. `(a+b)+2c` and `2c+b+a`, or `x+x` and `2x`)
# therefore intern to the SAME term, and equalities between them fold to
# TRUE at construction time — the kind of algebraic normalization a
# production symbolic engine performs before involving the solver.

def _linear_parts(term: Term) -> Tuple[int, Dict[Term, int]]:
    """Decompose a canonical term into (constant, {atom: coefficient})."""
    if term.op == OP_BV_CONST:
        return term.const_value(), {}
    if term.op == OP_ADD:
        constant = 0
        atoms: Dict[Term, int] = {}
        for arg in term.args:
            if arg.op == OP_BV_CONST:
                constant = arg.const_value()
            elif arg.op == OP_MUL and arg.args[0].op == OP_BV_CONST:
                atoms[arg.args[1]] = arg.args[0].const_value()
            else:
                atoms[arg] = 1
        return constant, atoms
    if term.op == OP_MUL and term.args[0].op == OP_BV_CONST:
        return 0, {term.args[1]: term.args[0].const_value()}
    return 0, {term: 1}


def _scale_atom(atom: Term, coeff: int, width: int) -> Term:
    if coeff == 1:
        return atom
    return _intern(OP_MUL, (bv_const(coeff, width), atom), None, BV, width)


def _build_linear(constant: int, atoms: Dict[Term, int], width: int) -> Term:
    mask = (1 << width) - 1
    constant &= mask
    live = [(atom, coeff & mask) for atom, coeff in atoms.items()
            if coeff & mask]
    if not live:
        return bv_const(constant, width)
    if len(live) == 1 and constant == 0:
        atom, coeff = live[0]
        return _scale_atom(atom, coeff, width)
    parts: List[Term] = []
    if constant:
        parts.append(bv_const(constant, width))
    parts.extend(_scale_atom(atom, coeff, width)
                 for atom, coeff in sorted(live, key=lambda ac: id(ac[0])))
    return _intern(OP_ADD, tuple(parts), None, BV, width)


def _combine_linear(a: Term, b: Term, sign: int) -> Term:
    width = a.width
    const_a, atoms_a = _linear_parts(a)
    const_b, atoms_b = _linear_parts(b)
    atoms = dict(atoms_a)
    for atom, coeff in atoms_b.items():
        atoms[atom] = atoms.get(atom, 0) + sign * coeff
    return _build_linear(const_a + sign * const_b, atoms, width)


def mk_add(*terms: Term) -> Term:
    if not terms:
        raise TypeError("mk_add needs at least one operand")
    _check_bv(*terms)
    result = terms[0]
    for term in terms[1:]:
        result = _combine_linear(result, term, 1)
    return result


def mk_sub(a: Term, b: Term) -> Term:
    _check_bv(a, b)
    return _combine_linear(a, b, -1)


def mk_neg(a: Term) -> Term:
    _check_bv(a)
    constant, atoms = _linear_parts(a)
    return _build_linear(-constant, {t: -c for t, c in atoms.items()},
                         a.width)


def mk_mul(a: Term, b: Term) -> Term:
    width = _check_bv(a, b)
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            value = x.const_value()
            if value == 0:
                return bv_const(0, width)
            if value == 1:
                return y
            # Distribute the constant over y's linear form.
            constant, atoms = _linear_parts(y)
            return _build_linear(constant * value,
                                 {t: c * value for t, c in atoms.items()},
                                 width)
    return _mk_bv_binop(OP_MUL, a, b, commutative=True)


def _udiv_fold(x: int, y: int, w: int) -> int:
    # SMT-LIB semantics: division by zero yields all-ones.
    return (1 << w) - 1 if y == 0 else x // y


def _urem_fold(x: int, y: int, w: int) -> int:
    return x if y == 0 else x % y


def _sdiv_fold(x: int, y: int, w: int) -> int:
    sx, sy = to_signed(x, w), to_signed(y, w)
    if sy == 0:
        return 1 if sx < 0 else (1 << w) - 1
    quotient = abs(sx) // abs(sy)
    return quotient if (sx < 0) == (sy < 0) else -quotient


def _srem_fold(x: int, y: int, w: int) -> int:
    # Remainder takes the sign of the dividend (SMT-LIB bvsrem).
    sx, sy = to_signed(x, w), to_signed(y, w)
    if sy == 0:
        return x
    magnitude = abs(sx) % abs(sy)
    return magnitude if sx >= 0 else -magnitude


def _smod_fold(x: int, y: int, w: int) -> int:
    # Modulus takes the sign of the divisor (SMT-LIB bvsmod).
    sx, sy = to_signed(x, w), to_signed(y, w)
    if sy == 0:
        return x
    return sx - sy * (sx // sy) if sx % sy else 0


def mk_udiv(a: Term, b: Term) -> Term:
    return _mk_bv_binop(OP_UDIV, a, b)


def mk_urem(a: Term, b: Term) -> Term:
    return _mk_bv_binop(OP_UREM, a, b)


def mk_sdiv(a: Term, b: Term) -> Term:
    return _mk_bv_binop(OP_SDIV, a, b)


def mk_srem(a: Term, b: Term) -> Term:
    return _mk_bv_binop(OP_SREM, a, b)


def mk_smod(a: Term, b: Term) -> Term:
    return _mk_bv_binop(OP_SMOD, a, b)


def mk_bvnot(a: Term) -> Term:
    _check_bv(a)
    if a.is_const:
        return bv_const(~a.const_value(), a.width)
    if a.op == OP_BVNOT:
        return a.args[0]
    return _intern(OP_BVNOT, (a,), None, BV, a.width)


def mk_bvand(a: Term, b: Term) -> Term:
    width = _check_bv(a, b)
    ones = (1 << width) - 1
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.const_value() == 0:
                return bv_const(0, width)
            if x.const_value() == ones:
                return y
    if a is b:
        return a
    return _mk_bv_binop(OP_BVAND, a, b, commutative=True)


def mk_bvor(a: Term, b: Term) -> Term:
    width = _check_bv(a, b)
    ones = (1 << width) - 1
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.const_value() == 0:
                return y
            if x.const_value() == ones:
                return bv_const(ones, width)
    if a is b:
        return a
    return _mk_bv_binop(OP_BVOR, a, b, commutative=True)


def mk_bvxor(a: Term, b: Term) -> Term:
    width = _check_bv(a, b)
    if a is b:
        return bv_const(0, width)
    for x, y in ((a, b), (b, a)):
        if x.is_const and x.const_value() == 0:
            return y
    return _mk_bv_binop(OP_BVXOR, a, b, commutative=True)


def mk_shl(a: Term, b: Term) -> Term:
    if b.is_const and b.const_value() == 0:
        return a
    return _mk_bv_binop(OP_SHL, a, b)


def mk_lshr(a: Term, b: Term) -> Term:
    if b.is_const and b.const_value() == 0:
        return a
    return _mk_bv_binop(OP_LSHR, a, b)


def mk_ashr(a: Term, b: Term) -> Term:
    if b.is_const and b.const_value() == 0:
        return a
    return _mk_bv_binop(OP_ASHR, a, b)


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------

def postorder(*roots: Term):
    """Iterative post-order traversal yielding each node exactly once.

    With several roots the walk covers their union DAG, roots in order.
    """
    seen = set()
    stack: List[Tuple[Term, bool]] = [(root, False) for root in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            yield node
        else:
            stack.append((node, True))
            for arg in node.args:
                if id(arg) not in seen:
                    stack.append((arg, False))


def term_size(term: Term) -> int:
    """Number of distinct DAG nodes reachable from `term`."""
    return sum(1 for _ in postorder(term))


def term_vars(term: Term) -> List[Term]:
    """All variable leaves reachable from `term`, in post order."""
    return [node for node in postorder(term) if node.is_var]


_REBUILDERS: Dict[str, Callable] = {}


def _rebuilders() -> Dict[str, Callable]:
    if not _REBUILDERS:
        _REBUILDERS.update({
            OP_NOT: lambda t, args: mk_not(*args),
            OP_AND: lambda t, args: mk_and(*args),
            OP_OR: lambda t, args: mk_or(*args),
            OP_XOR: lambda t, args: mk_xor(*args),
            OP_EQ: lambda t, args: mk_eq(*args),
            OP_ITE: lambda t, args: mk_ite(*args),
            OP_ULT: lambda t, args: mk_ult(*args),
            OP_ULE: lambda t, args: mk_ule(*args),
            OP_SLT: lambda t, args: mk_slt(*args),
            OP_SLE: lambda t, args: mk_sle(*args),
            OP_ADD: lambda t, args: mk_add(*args),
            OP_SUB: lambda t, args: mk_sub(*args),
            OP_MUL: lambda t, args: mk_mul(*args),
            OP_UDIV: lambda t, args: mk_udiv(*args),
            OP_UREM: lambda t, args: mk_urem(*args),
            OP_SDIV: lambda t, args: mk_sdiv(*args),
            OP_SREM: lambda t, args: mk_srem(*args),
            OP_SMOD: lambda t, args: mk_smod(*args),
            OP_NEG: lambda t, args: mk_neg(*args),
            OP_BVAND: lambda t, args: mk_bvand(*args),
            OP_BVOR: lambda t, args: mk_bvor(*args),
            OP_BVXOR: lambda t, args: mk_bvxor(*args),
            OP_BVNOT: lambda t, args: mk_bvnot(*args),
            OP_SHL: lambda t, args: mk_shl(*args),
            OP_LSHR: lambda t, args: mk_lshr(*args),
            OP_ASHR: lambda t, args: mk_ashr(*args),
        })
    return _REBUILDERS


def substitute(term: Term, env: Dict[Term, Term]) -> Term:
    """Replace variables per `env`, re-simplifying bottom-up.

    This is the workhorse of the CEGIS synthesis loop: substituting a
    counterexample model into a formula constant-folds everything that
    depended only on the inputs.
    """
    rebuild = _rebuilders()
    memo: Dict[int, Term] = {}
    for node in postorder(term):
        if node in env:
            replacement = env[node]
            if replacement.sort != node.sort or replacement.width != node.width:
                raise TypeError(f"substitution changes sort of {node!r}")
            memo[id(node)] = replacement
        elif not node.args:
            memo[id(node)] = node
        else:
            new_args = tuple(memo[id(arg)] for arg in node.args)
            if all(new is old for new, old in zip(new_args, node.args)):
                memo[id(node)] = node
            else:
                memo[id(node)] = rebuild[node.op](node, new_args)
    return memo[id(term)]


# ---------------------------------------------------------------------------
# Operator semantics and evaluation
# ---------------------------------------------------------------------------

def _masked(fold: Callable[[int, int, int], int]) -> Callable:
    return lambda w, x, y: fold(x, y, w) & ((1 << w) - 1)


#: The concrete semantics of every non-leaf operator, in one table:
#: ``_SEMANTICS[op](width, *arg_values)``, where `width` is the first
#: argument's width (the operand width of a comparison; unused by the
#: boolean connectives and ``ite``). Bitvector results are unsigned and
#: already reduced modulo ``2**width``. Constructor constant folding,
#: :func:`evaluate`, :func:`evaluate_many` and the abstract interpreter's
#: concrete fast path (:func:`eval_op`) all read this table.
_SEMANTICS: Dict[str, Callable] = {
    OP_NOT: lambda w, a: not a,
    OP_AND: lambda w, *xs: all(xs),
    OP_OR: lambda w, *xs: any(xs),
    OP_XOR: lambda w, a, b: a != b,
    OP_EQ: lambda w, a, b: a == b,
    OP_ITE: lambda w, c, t, e: t if c else e,
    OP_ULT: lambda w, a, b: a < b,
    OP_ULE: lambda w, a, b: a <= b,
    OP_SLT: lambda w, a, b: to_signed(a, w) < to_signed(b, w),
    OP_SLE: lambda w, a, b: to_signed(a, w) <= to_signed(b, w),
    OP_ADD: lambda w, *xs: sum(xs) & ((1 << w) - 1),
    OP_SUB: lambda w, a, b: (a - b) & ((1 << w) - 1),
    OP_MUL: lambda w, a, b: (a * b) & ((1 << w) - 1),
    OP_UDIV: _masked(_udiv_fold),
    OP_UREM: _masked(_urem_fold),
    OP_SDIV: _masked(_sdiv_fold),
    OP_SREM: _masked(_srem_fold),
    OP_SMOD: _masked(_smod_fold),
    OP_NEG: lambda w, a: -a & ((1 << w) - 1),
    OP_BVAND: lambda w, a, b: a & b,
    OP_BVOR: lambda w, a, b: a | b,
    OP_BVXOR: lambda w, a, b: a ^ b,
    OP_BVNOT: lambda w, a: ~a & ((1 << w) - 1),
    OP_SHL: lambda w, a, b: (a << b) & ((1 << w) - 1) if b < w else 0,
    OP_LSHR: lambda w, a, b: a >> b if b < w else 0,
    OP_ASHR: lambda w, a, b:
        (to_signed(a, w) >> min(b, w - 1)) & ((1 << w) - 1),
}


def _semantics(op: str) -> Callable:
    fn = _SEMANTICS.get(op)
    if fn is None:
        raise ValueError(f"cannot evaluate operator {op}")
    return fn


def eval_op(node: Term, values) -> object:
    """Apply `node`'s operator to concrete argument values."""
    return _semantics(node.op)(node.args[0].width, *values)


def evaluate(term: Term, env: Dict[Term, object]):
    """Concretely evaluate `term` under a variable assignment.

    `env` maps variable terms to Python values (bool / unsigned int).
    Unassigned variables default to False / 0 — matching how SAT models
    treat don't-care variables. The one-environment case of
    :func:`evaluate_many`.
    """
    return evaluate_many((term,), (env,))[0][0]


def evaluate_many(roots: Sequence[Term],
                  envs: Sequence[Dict[Term, object]]) -> List[List[object]]:
    """Evaluate every root under every environment in one DAG walk.

    One post-order walk over the union DAG of `roots` computes, per node,
    a column of values — one per environment. Returns one row per root:
    ``result[r][e]`` is the value of ``roots[r]`` under ``envs[e]``, as
    :func:`evaluate` would give it. Memory is (DAG nodes) x ``len(envs)``,
    so callers with many environments pass them in chunks.
    """
    count = len(envs)
    columns: Dict[int, List[object]] = {}
    for node in postorder(*roots):
        args = node.args
        if args:
            columns[id(node)] = list(map(
                _semantics(node.op), repeat(args[0].width, count),
                *[columns[id(arg)] for arg in args]))
        elif node.op in (OP_BOOL_VAR, OP_BV_VAR):
            default = False if node.sort is BOOL else 0
            columns[id(node)] = [env.get(node, default) for env in envs]
        else:
            columns[id(node)] = [node.const_value()] * count
    return [columns[id(root)] for root in roots]


def to_sexpr(term: Term, max_depth: Optional[int] = None) -> str:
    """Render a term as an SMT-LIB-flavoured s-expression."""
    def render(node: Term, depth: int) -> str:
        if node.op == OP_TRUE:
            return "true"
        if node.op == OP_FALSE:
            return "false"
        if node.op == OP_BV_CONST:
            return f"(_ bv{node.const_value()} {node.width})"
        if node.is_var:
            return str(node.payload)
        if max_depth is not None and depth >= max_depth:
            return "..."
        inner = " ".join(render(arg, depth + 1) for arg in node.args)
        return f"({node.op} {inner})"
    return render(term, 0)
