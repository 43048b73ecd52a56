"""Modal formulas: AST, concrete syntax, closure sets, substitution.

Concrete syntax::

    formula := iff
    iff     := imp ('<->' iff)?            right associative
    imp     := or ('->' imp)?              right associative
    or      := and ('|' and)*              left associative
    and     := unary ('&' unary)*          left associative
    unary   := '~' unary | '[]' unary | '<>' unary | atom
    atom    := ident | 'T' | 'F' | '(' formula ')'
    ident   := (letter | '_') (letter | digit | '_')*   (T, F reserved)

A letter is a str.isalpha() character and a digit any other
str.isalnum() one, so ``π`` and ``p²`` are identifiers.  Binding strength,
which the parser and the printer read from one table (_PREC, _INFIX,
_PREFIX): ``~ [] <>``  >  ``&``  >  ``|``  >  ``->``  >  ``<->``.
'T' is sugar for ~F; there is no separate AST node for it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class Formula:
    """Base class of all formula nodes.

    Nodes are immutable values with structural equality; hashes are computed
    once at construction so formulas are cheap dictionary keys, and the
    compiled program is kept on the node `compile` was called on.
    """

    __slots__ = ("_hash", "_program")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        # iterative, so separately built deep trees compare without
        # recursion; shared subtrees are skipped by identity
        stack = [(self, other)]
        while stack:
            f, g = stack.pop()
            if f is g:
                continue
            if (type(f) is not type(g) or f._hash != g._hash
                    or type(f) is Var and f.name != g.name):
                return False
            stack.extend(zip(children(f), children(g)))
        return True

    def __str__(self) -> str:
        return pretty(self)

    def __repr__(self) -> str:
        # iterative, so depth is unbounded; leaves print themselves
        parts: list[str] = []
        stack: list = [self]  # formulas and literal text, in output order
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif kids := children(item):
                parts.append(type(item).__name__ + "(")
                stack.append(")")
                stack += (kids[1], ", ", kids[0]) if len(kids) == 2 else kids
            else:
                parts.append(repr(item))
        return "".join(parts)


class Var(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        word = _TOKEN.fullmatch(name)
        if name in _RESERVED_NAMES or not (
                word and word.lastgroup == "word" and _is_identifier(name)):
            raise ValueError(f"invalid variable name {name!r}")
        self.name = name
        self._hash = hash(("Var", name))

    def __repr__(self):
        return f"Var({self.name!r})"


class Bottom(Formula):
    __slots__ = ()

    def __init__(self):
        self._hash = hash("Bottom")

    def __repr__(self):
        return "Bottom()"


class _Unary(Formula):
    __slots__ = ("sub",)

    def __init__(self, sub: Formula):
        if not isinstance(sub, Formula):
            raise TypeError(f"expected a Formula, got {sub!r}")
        self.sub = sub
        self._hash = hash((type(self).__name__, sub._hash))


class Not(_Unary):
    __slots__ = ()


class Diamond(_Unary):
    __slots__ = ()


class Box(_Unary):
    __slots__ = ()


class _Binary(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        if not (isinstance(left, Formula) and isinstance(right, Formula)):
            raise TypeError("expected Formula operands")
        self.left = left
        self.right = right
        self._hash = hash((type(self).__name__, left._hash, right._hash))


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


_RESERVED_NAMES = {"T", "F"}


def _is_identifier(word: str) -> bool:
    """Whether a word token names a variable, T or F: its first character
    is a letter (str.isalpha()) or '_'."""
    return word[0].isalpha() or word[0] == "_"


TOP = Not(Bottom())

_BINARY = (And, Or, Implies, Iff)
_UNARY = (Not, Box, Diamond)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, _BINARY):
        return (f.left, f.right)
    if isinstance(f, _UNARY):
        return (f.sub,)
    return ()


def ast_size(f: Formula) -> int:
    """Number of AST nodes; iterative, so depth is unbounded."""
    n = 0
    stack = [f]
    while stack:
        n += 1
        stack.extend(children(stack.pop()))
    return n


def modal_depth(f: Formula) -> int:
    """Most modalities on one path from f down; iterative, so depth is
    unbounded."""
    prog = compile(f)
    depth: list[int] = []  # of every program node, from its operands'
    for op, a, b in prog.code:
        if op in (VAR, BOT):
            depth.append(0)
        elif op == NOT:
            depth.append(depth[a])
        elif op in (DIA, BOX):
            depth.append(depth[a] + 1)
        else:
            depth.append(max(depth[a], depth[b]))
    return depth[prog.root]


def variables(f: Formula) -> frozenset[str]:
    """Set of variable names occurring in f."""
    return frozenset(compile(f).names)


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subformulas of f, including f itself."""
    return frozenset(compile(f).nodes)


def negate(f: Formula) -> Formula:
    """Single negation: strips a leading ~ instead of stacking one."""
    return f.sub if isinstance(f, Not) else Not(f)


def closure(phi: Formula) -> frozenset[Formula]:
    """Smallest set containing all subformulas of phi and closed under
    single negations.

    For every member psi, exactly one of psi / negate(psi) counts as the
    positive representative (the one that is not itself a negation).
    """
    subs = subformulas(phi)
    return subs | frozenset(negate(g) for g in subs)


def substitute(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Simultaneous substitution of variables; no re-substitution into images.
    Iterative, so depth is unbounded."""
    prog = compile(f)
    out: list[Formula] = []  # image of every program node, from its operands'
    for g, (op, a, b) in zip(prog.nodes, prog.code):
        if op == VAR:
            out.append(mapping.get(g.name, g))
        elif op == BOT:
            out.append(g)
        elif op in (NOT, DIA, BOX):
            out.append(type(g)(out[a]))
        else:
            out.append(type(g)(out[a], out[b]))
    return out[prog.root]


# ---------------------------------------------------------------------------
# Compiled programs

VAR, BOT, NOT, AND, OR, IMP, IFF, DIA, BOX = range(9)
_OPCODE = {Not: NOT, And: AND, Or: OR, Implies: IMP, Iff: IFF,
           Diamond: DIA, Box: BOX}


@dataclass(frozen=True, eq=False)
class Program:
    """A formula flattened into its distinct subformulas, children first.

    Node i is `nodes[i]`, computed by `code[i] = (opcode, a, b)`: for VAR,
    `a` indexes `names`; for NOT, DIA and BOX, `a` is the operand node; for
    the binary opcodes `a` and `b` are the left and right operand nodes.
    Unused operands are 0.  `names` are the variables in sorted order and
    `index` maps each node's formula to its position.
    """

    nodes: tuple[Formula, ...]
    code: tuple[tuple[int, int, int], ...]
    names: tuple[str, ...]
    root: int
    index: dict[Formula, int]


def compile(phi: Formula) -> Program:
    """Flatten phi into a Program; iterative, so depth is unbounded.  The
    program is kept on phi, so later calls on the same object (not on an
    equal one) return it without a walk."""
    prog = getattr(phi, "_program", None)
    if prog is not None:
        return prog
    index: dict[Formula, int] = {}
    code: list[tuple] = []
    # (formula, operands done): the True entry of f is popped after all of
    # f's subformulas and before anything else can index f
    stack = [(phi, False)]
    while stack:
        f, ready = stack.pop()
        if ready:
            op = _OPCODE[type(f)]
            if op in (NOT, DIA, BOX):
                code.append((op, index[f.sub], 0))
            else:
                code.append((op, index[f.left], index[f.right]))
        elif f in index:
            continue
        elif type(f) in _OPCODE:
            stack.append((f, True))
            if isinstance(f, _UNARY):
                stack.append((f.sub, False))
            else:
                stack += ((f.right, False), (f.left, False))
            continue
        elif isinstance(f, Var):
            code.append((VAR, f.name, 0))  # name replaced by its index below
        elif isinstance(f, Bottom):
            code.append((BOT, 0, 0))
        else:
            raise TypeError(f"not a formula: {f!r}")
        index[f] = len(index)
    names = sorted({a for op, a, _ in code if op == VAR})
    slot = {name: j for j, name in enumerate(names)}
    code = [(VAR, slot[a], 0) if op == VAR else (op, a, b) for op, a, b in code]
    phi._program = Program(tuple(index), tuple(code), tuple(names), index[phi],
                           index)
    return phi._program


# what a node whose operand is a constant folds to, by opcode: for NOT, DIA
# and BOX the constant (False, True) gives; for a binary opcode a pair for a
# constant left and a constant right operand, each giving (False, True) what
# the node becomes: a constant, the other operand "x" or its negation "~x"
_FOLDS = {
    NOT: (True, False), DIA: (False, True), BOX: (False, True),
    AND: ((False, "x"), (False, "x")), OR: (("x", True), ("x", True)),
    IMP: ((True, "x"), ("~x", True)), IFF: (("~x", "x"), ("~x", "x")),
}


def _folded(rule, other):
    """What a binary node folds to under `rule`, its other operand being
    `other` (a formula or a constant)."""
    if rule == "x":
        return other
    if rule == "~x":
        return not other if type(other) is bool else Not(other)
    return rule


def simplify(theta: Formula) -> Formula:
    """theta with its constants folded out: Boolean folding, and ◇F = □F = F
    and ◇T = □T = T, which hold on every reflexive frame.  So the result is
    S4-equivalent to theta, and it is F or T or holds neither.  When nothing
    folds (theta holds no F, T being ~F, or is F or T), theta itself, the
    same object, comes back.  Otherwise the result is built children first
    over theta's program, sharing every unchanged subformula and making
    fresh nodes for the rest.  Iterative, so depth is unbounded."""
    prog = compile(theta)
    if all(op != BOT for op, _, _ in prog.code):
        return theta
    out: list = []  # image of every program node: a formula, or a bool
    for g, (op, a, b) in zip(prog.nodes, prog.code):
        if op == VAR:
            out.append(g)
        elif op == BOT:
            out.append(False)
        elif op in (NOT, DIA, BOX):
            x = out[a]
            out.append(_FOLDS[op][x] if type(x) is bool
                       else g if x is prog.nodes[a] else type(g)(x))
        else:
            x, y = out[a], out[b]
            if type(x) is bool:
                out.append(_folded(_FOLDS[op][0][x], y))
            elif type(y) is bool:
                out.append(_folded(_FOLDS[op][1][y], x))
            elif x is prog.nodes[a] and y is prog.nodes[b]:
                out.append(g)
            else:
                out.append(type(g)(x, y))
    root = out[prog.root]
    if type(root) is bool:
        root = Not(Bottom()) if root else Bottom()
    return theta if root == theta else root


def conj(parts: list[Formula]) -> Formula:
    """Left-folded conjunction; empty list gives T."""
    if not parts:
        return TOP
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts: list[Formula]) -> Formula:
    if not parts:
        return Bottom()
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


# ---------------------------------------------------------------------------
# Printing

_PREC = {IFF: 0, IMP: 1, OR: 2, AND: 3}
_INFIX = {IFF: " <-> ", IMP: " -> ", OR: " | ", AND: " & "}
_PREFIX = {NOT: "~", BOX: "[]", DIA: "<>"}


def _operand_prec(prec: int) -> tuple[int, int]:
    """Binding strengths a binary operator demands of its left and right
    operands: & and | are left associative, -> and <-> right associative.
    An operand binding more weakly than demanded is parenthesised; prefix
    operators demand 4, so only binary operands ever are."""
    return (prec, prec + 1) if prec >= 2 else (prec + 1, prec)


def pretty(f: Formula) -> str:
    """Parenthesis-minimal rendering; parse(pretty(f)) == f.  Iterative, so
    depth is unbounded."""
    parts: list[str] = []
    # (formula, binding strength its context demands) or literal text,
    # popped in output order
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        g, min_prec = item
        if isinstance(g, Var):
            parts.append(g.name)
        elif isinstance(g, Bottom):
            parts.append("F")
        elif isinstance(g, _UNARY):
            parts.append(_PREFIX[_OPCODE[type(g)]])
            stack.append((g.sub, 4))
        else:
            op = _OPCODE[type(g)]
            lp, rp = _operand_prec(_PREC[op])
            wrap = _PREC[op] < min_prec
            if wrap:
                stack.append(")")
            stack += ((g.right, rp), _INFIX[op], (g.left, lp))
            if wrap:
                parts.append("(")
    return "".join(parts)


def _bracketed(op: int, text: str, min_prec: int) -> str:
    """An operand's text in a context demanding binding strength min_prec."""
    if op in _PREC and _PREC[op] < min_prec:
        return "(" + text + ")"
    return text


def render_nodes(program: Program) -> tuple[list[int], list[str]]:
    """`ast_size` and `pretty` of every program node, each built from its
    operands' in one pass, children first."""
    code, n = program.code, len(program.code)
    sizes = [0] * n
    texts = [""] * n
    for i, (op, a, b) in enumerate(code):
        if op == VAR:
            sizes[i], texts[i] = 1, program.names[a]
        elif op == BOT:
            sizes[i], texts[i] = 1, "F"
        elif op in _PREFIX:
            sizes[i] = sizes[a] + 1
            texts[i] = _PREFIX[op] + _bracketed(code[a][0], texts[a], 4)
        else:
            lp, rp = _operand_prec(_PREC[op])
            sizes[i] = sizes[a] + sizes[b] + 1
            texts[i] = (_bracketed(code[a][0], texts[a], lp) + _INFIX[op]
                        + _bracketed(code[b][0], texts[b], rp))
    return sizes, texts


# ---------------------------------------------------------------------------
# Parsing

class ParseError(ValueError):
    """Syntax error with position and the set of expected tokens."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...]):
        super().__init__(f"{message} at line {line}, column {col} (expected: {', '.join(expected)})")
        self.line = line
        self.col = col
        self.expected = expected


# one match per token: a newline, other whitespace, an operator or
# parenthesis, a run of word characters (str.isalnum() ones and '_'), or
# any other character
_TOKEN = re.compile(r"(?P<newline>\n)|(?P<space>\s)|(?P<op><->|->|\[\]|<>|[~&|()])"
                    r"|(?P<word>\w+)|(?P<other>.)")

# opcode and node class of every operator token; how it binds is read off
# the printer's _PREC, _PREFIX and _operand_prec
_OPERATOR = {"~": (NOT, Not), "[]": (BOX, Box), "<>": (DIA, Diamond),
             "&": (AND, And), "|": (OR, Or), "->": (IMP, Implies),
             "<->": (IFF, Iff)}


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    # token = (kind, value, line, col); kind is 'ident', an operator, '(', ')' or 'end'
    toks = []
    line, start = 1, 0  # the current line and the index of its first character
    for m in _TOKEN.finditer(text):
        kind, value, col = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "op":
            toks.append((value, value, line, col))
        elif kind == "word" and _is_identifier(value):
            toks.append(("ident", value, line, col))
        elif kind != "space":
            raise ParseError(f"unexpected character {value[0]!r}", line, col,
                             ("formula",))
    toks.append(("end", "", line, len(text) - start + 1))
    return toks


class _Parser:
    """Precedence climbing over the printer's tables: `binary` reads
    operands joined by infix operators that bind at least as strongly as
    asked, grouped as `_operand_prec` says; `unary` reads prefix operators,
    parentheses and atoms."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def fail(self, expected: tuple[str, ...]):
        kind, value, line, col = self.toks[self.pos]
        raise ParseError(f"unexpected {value or 'end of input'!r}", line, col, expected)

    def binary(self, min_prec: int) -> Formula:
        left = self.unary()
        op, node = _OPERATOR.get(self.toks[self.pos][0], (None, None))
        while op in _PREC and _PREC[op] >= min_prec:
            self.pos += 1
            left = node(left, self.binary(_operand_prec(_PREC[op])[1]))
            op, node = _OPERATOR.get(self.toks[self.pos][0], (None, None))
        return left

    def unary(self) -> Formula:
        kind, value, _, _ = self.toks[self.pos]
        self.pos += 1
        if kind == "ident":
            return Bottom() if value == "F" else TOP if value == "T" else Var(value)
        if kind == "(":
            f = self.binary(0)
            if self.toks[self.pos][0] != ")":
                self.fail((")",))
            self.pos += 1
            return f
        op, node = _OPERATOR.get(kind, (None, None))
        if op not in _PREFIX:
            self.pos -= 1
            self.fail(("identifier", "T", "F", *_PREFIX.values(), "("))
        return node(self.unary())


def parse(text: str) -> Formula:
    """Parse the concrete syntax above into a Formula."""
    p = _Parser(text)
    f = p.binary(0)
    if p.toks[p.pos][0] != "end":
        p.fail(("end of input", *(s.strip() for s in _INFIX.values())))
    return f
