"""Structural model of a C++ translation unit for iolint's checks.

iolint does not need a full C++ parser: every check operates on a small,
project-shaped vocabulary (coroutine bodies, `co_await` statements, call
roots, member mutations, spawn sites).  This module builds exactly that
vocabulary from a token stream and nothing more:

    SourceFile
      +- tokens        flat (kind, text, line) stream, comments stripped
      +- annotations   `// iolint: name(reason)` markers, by line
      +- functions     FunctionDef: qualified name, body token range,
      |                is_coroutine, is_lambda (+captures), parameters
      +- statements    per function: source-order segments split on
                       `;` / `{` / `}` at paren depth 0, each carrying its
                       tokens, line span, brace depth and enclosing loops

The token stream comes from the built-in lexer below (deterministic,
stdlib-only).

The model is deliberately linear: statements are examined in source order,
loops are tracked as index ranges so checks can reason about "next
iteration crosses a suspension".  That linearity is what makes the checks
explainable in a review — a finding always reads as "captured at line A,
suspended at line B, used at line C".
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Tokens

KIND_ID = "id"
KIND_PUNCT = "punct"
KIND_NUM = "num"
KIND_STR = "str"

# C++ keywords that open a parenthesised control clause — a `(` following
# one of these never introduces a function definition.
CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                    "sizeof", "alignof", "decltype", "static_assert",
                    "co_await", "co_yield", "co_return", "throw", "new",
                    "delete", "case", "else", "do"}

# Tokens allowed between a function's `)` and its body `{`:
# cv-qualifiers, ref-qualifiers, exception/virt specifiers, attributes and
# trailing-return-type material.
_TRAILER_OK = {"const", "noexcept", "override", "final", "mutable",
               "volatile", "&", "&&", "->", "::", "<", ">", ">>", ",", "*",
               "try", "requires"}

_TOKEN_RE = re.compile(
    r"""
      (?P<rawstr>  R"(?P<delim>[^()\s\\]{0,16})\( (?:.|\n)*? \)(?P=delim)" )
    | (?P<str>     "(?:[^"\\\n]|\\.)*" )
    | (?P<chr>     '(?:[^'\\\n]|\\.)*' )
    | (?P<lcom>    //[^\n]* )
    | (?P<bcom>    /\* (?:.|\n)*? \*/ )
    | (?P<id>      [A-Za-z_]\w* )
    | (?P<num>     \.?\d (?:[\w.']|[eEpP][+-])* )
    | (?P<punct>   ->\* | \.\.\. | ::|->|\+\+|--|<<=|>>=|<=>|<<|>>|<=|>=|==|!=
                 | &&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|\#\#
                 | [{}()\[\];:,.<>+\-*/%&|^!~=?\#@\\] )
    """,
    re.VERBOSE,
)

_ANNOTATION_RE = re.compile(r"iolint:\s*([\w-]+)\(([^)]*)\)")
_EXPECT_RE = re.compile(r"iolint-expect:\s*([\w-]+)")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int


@dataclass
class Annotation:
    name: str
    reason: str
    line: int


def lex(text: str):
    """The lexer: (tokens, annotations, expects) from raw source.

    Comments are consumed here and mined for `iolint:` annotations and
    `iolint-expect:` fixture markers; preprocessor directives are skipped
    whole (this codebase uses them only for #include / #pragma).
    """
    tokens: list[Token] = []
    annotations: dict[int, list[Annotation]] = {}
    expects: dict[int, list[str]] = {}

    # Annotations may wrap across adjacent comment lines; group consecutive
    # comment tokens into a run, mine the joined text, and attach each
    # annotation to every line the run covers (annotation_between then sees
    # it from any statement the run touches).  Expect markers stay strictly
    # per-line — fixtures pin them to the exact finding line.
    run_buf: list[str] = []
    run_first = run_last = 0

    def flush_run():
        nonlocal run_first, run_last
        if not run_buf:
            return
        joined = "\n".join(run_buf)
        for am in _ANNOTATION_RE.finditer(joined):
            arg = re.sub(r"\s*(?://|/\*|\*+/?)\s*", " ", am.group(2)).strip()
            name = am.group(1)
            for ln in range(run_first, run_last + 1):
                annotations.setdefault(ln, []).append(
                    Annotation(name, arg, ln))
        run_buf.clear()

    # Strip preprocessor lines first (keeping newlines for line numbers).
    lines = text.split("\n")
    out_lines = []
    in_directive = False
    for ln in lines:
        stripped = ln.lstrip()
        if in_directive or stripped.startswith("#"):
            in_directive = ln.rstrip().endswith("\\")
            out_lines.append("")
        else:
            in_directive = False
            out_lines.append(ln)
    text = "\n".join(out_lines)

    pos = 0
    line = 1
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
            continue
        if ch in " \t\r\f\v":
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:  # unknown byte; skip defensively
            pos += 1
            continue
        kind = m.lastgroup
        tok = m.group(0)
        if kind in ("lcom", "bcom"):
            if not run_buf:
                run_first = line
            run_buf.append(tok)
            run_last = line + tok.count("\n")
            for em in _EXPECT_RE.finditer(tok):
                expects.setdefault(line, []).append(em.group(1))
        elif kind in ("str", "chr", "rawstr"):
            flush_run()
            tokens.append(Token(KIND_STR, tok, line))
        elif kind == "id":
            flush_run()
            tokens.append(Token(KIND_ID, tok, line))
        elif kind == "num":
            flush_run()
            tokens.append(Token(KIND_NUM, tok, line))
        else:
            flush_run()
            tokens.append(Token(KIND_PUNCT, tok, line))
        line += tok.count("\n")
        pos = m.end()
    flush_run()
    return tokens, annotations, expects


# ---------------------------------------------------------------------------
# Statements

@dataclass
class Statement:
    """One source-order segment of a function body.

    Segments are split on `;`, `{` and `}` at paren depth 0, so a control
    header (`if (...)`, `for (...) {`) travels with the statement it
    guards — good enough for iolint's pattern vocabulary, and it keeps
    every token of the body attributed to exactly one statement.
    """
    index: int
    tokens: list[Token]
    depth: int            # brace depth relative to the body (0 = top level)
    first_line: int = 0
    last_line: int = 0

    def __post_init__(self):
        if self.tokens:
            self.first_line = self.tokens[0].line
            self.last_line = self.tokens[-1].line

    @property
    def text(self) -> str:
        return " ".join(t.text for t in self.tokens)

    def has_ident(self, name: str) -> bool:
        return any(t.kind == KIND_ID and t.text == name for t in self.tokens)

    @property
    def has_co_await(self) -> bool:
        return self.has_ident("co_await")

    def fingerprint_text(self) -> str:
        return self.text


@dataclass
class Loop:
    """A loop region over statement indices [first, last] (inclusive)."""
    first: int
    last: int

    def contains(self, idx: int) -> bool:
        return self.first <= idx <= self.last


@dataclass
class FunctionDef:
    name: str                  # unqualified (rightmost) name
    qualified: str             # e.g. "Filesystem::write" or "<lambda>"
    line: int
    body_start: int            # token index of the `{`
    body_end: int              # token index of the matching `}`
    params: list[Token] = field(default_factory=list)
    is_lambda: bool = False
    captures: str = ""         # raw capture-list text for lambdas
    statements: list[Statement] = field(default_factory=list)
    loops: list[Loop] = field(default_factory=list)

    @property
    def is_coroutine(self) -> bool:
        for s in self.statements:
            for t in s.tokens:
                if t.kind == KIND_ID and t.text in ("co_await", "co_return",
                                                    "co_yield"):
                    return True
        return False

    def co_await_statements(self) -> list[int]:
        return [s.index for s in self.statements if s.has_co_await]

    def innermost_loop(self, idx: int):
        best = None
        for lp in self.loops:
            if lp.contains(idx):
                if best is None or (lp.first >= best.first and
                                    lp.last <= best.last):
                    best = lp
        return best


# ---------------------------------------------------------------------------
# Function extraction

_LAMBDA_PREV_OK = {"(", ",", "=", "{", ";", ":", "?", "return", "&&", "||",
                   "!", "<", ">", "+", "-", "*", "/", "co_await", "co_return",
                   "[", "}"}


def _match_forward(tokens, i, open_t, close_t):
    """Index of the token matching tokens[i] (an `open_t`), or -1."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return -1


def _qualified_name(tokens, i):
    """Walks back from the name token at `i` across `A::B::name`."""
    parts = [tokens[i].text]
    j = i - 1
    while j >= 1 and tokens[j].text == "::" and tokens[j - 1].kind == KIND_ID:
        parts.append(tokens[j - 1].text)
        j -= 2
    return "::".join(reversed(parts))


def _skip_trailer(tokens, i):
    """From the token after a param-list `)`, skip cv/ref/noexcept/trailing
    return type/ctor-init-list material. Returns the index of the body `{`
    or -1 when this isn't a definition."""
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.text == "{":
            return i
        if t.text == ";" or t.text == "}":
            return -1  # declaration, not a definition
        if t.text == "=":  # `= default` / `= delete` / `= 0`
            return -1
        if t.text == "noexcept" and i + 1 < n and tokens[i + 1].text == "(":
            close = _match_forward(tokens, i + 1, "(", ")")
            if close < 0:
                return -1
            i = close + 1
            continue
        if t.text == ":":
            # Constructor initializer list: `name(expr)` / `name{expr}`
            # pairs separated by commas, then the body `{`.
            i += 1
            while i < n:
                # member/base name (possibly qualified/templated)
                while i < n and tokens[i].text not in ("(", "{"):
                    if tokens[i].text in (";", "}"):
                        return -1
                    i += 1
                if i >= n:
                    return -1
                close = _match_forward(tokens, i, tokens[i].text,
                                       ")" if tokens[i].text == "(" else "}")
                if close < 0:
                    return -1
                i = close + 1
                if i < n and tokens[i].text == ",":
                    i += 1
                    continue
                return i if i < n and tokens[i].text == "{" else -1
            return -1
        if (t.kind in (KIND_ID, KIND_NUM) or t.text in _TRAILER_OK or
                t.text == "[" or t.text == "]" or t.text == "("):
            # attributes `[[...]]`, trailing return types with parens, etc.
            if t.text == "(":
                close = _match_forward(tokens, i, "(", ")")
                if close < 0:
                    return -1
                i = close + 1
                continue
            i += 1
            continue
        return -1
    return -1


def _segment_body(fn: FunctionDef, tokens, nested_spans=()):
    """Splits body tokens into Statements and loop regions.

    `nested_spans` are body token ranges of functions/lambdas nested
    inside this one: their tokens are excluded, so a statement belongs to
    exactly one body and a `co_await` inside a nested lambda is never
    mistaken for a suspension of the parent."""
    body = [t for i, t in enumerate(tokens)
            if fn.body_start < i < fn.body_end and
            not any(s <= i <= e for (s, e) in nested_spans)]
    statements: list[Statement] = []
    loops: list[Loop] = []
    open_loops: list[tuple[int, int]] = []  # (depth_at_open, stmt_index)
    cur: list[Token] = []
    paren = 0
    depth = 0

    def flush():
        if cur:
            statements.append(Statement(len(statements), cur[:], depth))
            cur.clear()

    for t in body:
        if t.text == "(" or t.text == "[":
            paren += 1
        elif t.text == ")" or t.text == "]":
            paren -= 1
        if paren == 0 and t.text == "{":
            cur.append(t)
            head = [x.text for x in cur]
            is_loop = any(k in head for k in ("for", "while", "do"))
            flush()
            if is_loop:
                open_loops.append((depth, len(statements) - 1))
            depth += 1
            continue
        if paren == 0 and t.text == "}":
            flush()
            depth -= 1
            if open_loops and open_loops[-1][0] == depth:
                _, first = open_loops.pop()
                loops.append(Loop(first, max(len(statements) - 1, first)))
            continue
        cur.append(t)
        if paren == 0 and t.text == ";":
            flush()
    flush()
    fn.statements = statements
    fn.loops = loops


def extract_functions(tokens) -> list[FunctionDef]:
    """All function and lambda bodies in the token stream, outermost and
    nested alike (each body is modelled independently)."""
    fns: list[FunctionDef] = []
    n = len(tokens)
    i = 0
    while i < n:
        t = tokens[i]
        # Lambda: `[captures] (params) ... {` or `[captures] {`.
        if (t.text == "[" and
                (i == 0 or tokens[i - 1].text in _LAMBDA_PREV_OK or
                 tokens[i - 1].text == "]")):
            close_b = _match_forward(tokens, i, "[", "]")
            if close_b > 0:
                captures = " ".join(x.text for x in tokens[i:close_b + 1])
                j = close_b + 1
                params: list[Token] = []
                if j < n and tokens[j].text == "(":
                    close_p = _match_forward(tokens, j, "(", ")")
                    if close_p > 0:
                        params = tokens[j + 1:close_p]
                        j = _skip_trailer(tokens, close_p + 1)
                    else:
                        j = -1
                elif j < n and tokens[j].text == "{":
                    pass  # captureless-param lambda body
                else:
                    j = _skip_trailer(tokens, j)
                if j is not None and j >= 0 and j < n and \
                        tokens[j].text == "{":
                    body_end = _match_forward(tokens, j, "{", "}")
                    if body_end > 0:
                        fns.append(FunctionDef(
                            name="<lambda>", qualified="<lambda>",
                            line=t.line, body_start=j, body_end=body_end,
                            params=params, is_lambda=True, captures=captures))
                        # Continue scanning inside the lambda body for
                        # nested lambdas/functions.
                        i += 1
                        continue
        # Plain function: `name ( params ) trailer {`.
        if t.text == "(" and i > 0:
            prev = tokens[i - 1]
            if prev.kind == KIND_ID and prev.text not in CONTROL_KEYWORDS:
                close_p = _match_forward(tokens, i, "(", ")")
                if close_p > 0:
                    body = _skip_trailer(tokens, close_p + 1)
                    if body > 0:
                        body_end = _match_forward(tokens, body, "{", "}")
                        if body_end > 0:
                            fns.append(FunctionDef(
                                name=prev.text,
                                qualified=_qualified_name(tokens, i - 1),
                                line=prev.line, body_start=body,
                                body_end=body_end,
                                params=tokens[i + 1:close_p]))
        i += 1
    # Segment each body with nested bodies carved out, so statements (and
    # suspension points) belong to exactly one function.
    for fn in fns:
        nested = [(g.body_start, g.body_end) for g in fns
                  if g is not fn and g.body_start > fn.body_start and
                  g.body_end < fn.body_end]
        _segment_body(fn, tokens, nested)
    return fns


# ---------------------------------------------------------------------------
# File model

@dataclass
class SourceFile:
    path: str                  # repo-relative path
    tokens: list[Token]
    annotations: dict[int, list[Annotation]]
    expects: dict[int, list[str]]
    functions: list[FunctionDef]

    def annotation_between(self, name: str, first_line: int,
                           last_line: int) -> Annotation | None:
        """An `iolint: name(...)` annotation attached to a statement:
        on any of its lines, or on the line directly above it."""
        for ln in range(first_line - 1, last_line + 1):
            for a in self.annotations.get(ln, ()):
                if a.name == name:
                    return a
        return None


def parse_source(path: str, text: str) -> SourceFile:
    """Builds the full model."""
    tokens, annotations, expects = lex(text)
    return SourceFile(path=path, tokens=tokens, annotations=annotations,
                      expects=expects, functions=extract_functions(tokens))


# ---------------------------------------------------------------------------
# Findings

@dataclass
class Finding:
    check: str
    path: str
    line: int
    function: str
    message: str
    fingerprint: str = ""
    allowlisted: bool = False

    def render(self) -> str:
        return (f"{self.path}:{self.line}: [{self.check}] {self.message}"
                f"\n    fingerprint: {self.fingerprint}")


def make_fingerprint(check: str, path: str, function: str,
                     stmt_text: str) -> str:
    """Line-number-free identity for allowlisting: stable across pure code
    motion, invalidated when the offending statement itself changes."""
    digest = hashlib.sha256(
        f"{check}|{path}|{function}|{stmt_text}".encode()).hexdigest()[:12]
    return f"{check}:{path}:{function}:{digest}"
