"""conditional-await: no `co_await` where GCC 12.2 miscompiles it.

With the repo's toolchain (g++ 12.2.0, at -O0 and -O2) a standalone
program with its own minimal task type reproduces each of these:

    co_return c ? co_await a() : co_await b();  // runs both a and b
    co_return c ? co_await a() : 0;             // runs a when c is false
    f(c ? co_await a() : 0);                    // runs a when c is false
    while (c && co_await a() == 1) ...          // runs a when c is false
    if (co_await a()) {} co_return 0;           // body never runs (no
                                                //   named local): hangs
    co_await (c ? a() : b());                   // segfault / double free

One form behaved correctly and is what the repo uses: a `?:` whose two
arms are whole `co_await`s initialising (or assigned to) a named local,

    const FsStatus status = c ? co_await a() : co_await b();

Rule: a `co_await` is a finding when it sits
  1. inside an `if` / `while` / `for` / `switch` condition;
  2. inside a `co_return` operand whose top level is a `?:`, `&&` or
     `||` (one inside an argument list is evaluated before the await);
  3. inside any other operand of `?:`, `&&` or `||` — except the
     initialiser/assignment form above;
  4. applied to a parenthesised conditional: `co_await (c ? a() : b())`.

The fix is always the same: hoist the `co_await` into a named local and
test the local.  The annotation exists only for a misread of the token
model; a real conditional await is hoisted, never annotated.
"""

from ..model import KIND_ID, KIND_PUNCT, Finding, SourceFile, make_fingerprint

NAME = "conditional-await"
ANNOTATION = "await-ok"

_CONTROL = {"if", "while", "for", "switch"}
_SHORT_CIRCUIT = {"?", "&&", "||"}
_ASSIGN = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
_LEFT_STOP_WORDS = {"return", "co_return", "co_yield", "else", "do", "case",
                    "throw"}


def _is_punct(tok, text):
    return tok.kind == KIND_PUNCT and tok.text == text


def _depths(toks):
    """Paren/bracket depth inside which each token sits (an opening token
    sits at the outer depth, its contents one deeper)."""
    out = []
    d = 0
    for t in toks:
        if t.kind == KIND_PUNCT and t.text in (")", "]"):
            d -= 1
        out.append(d)
        if t.kind == KIND_PUNCT and t.text in ("(", "["):
            d += 1
    return out


def _match(toks, i):
    """Index of the `)` closing the `(` at `i` (len(toks) if unclosed)."""
    depth = 0
    for j in range(i, len(toks)):
        if _is_punct(toks[j], "("):
            depth += 1
        elif _is_punct(toks[j], ")"):
            depth -= 1
            if depth == 0:
                return j
    return len(toks)


def _match_back(toks, j):
    """Index of the `(` opening the `)` at `j` (-1 if unopened)."""
    depth = 0
    for i in range(j, -1, -1):
        if _is_punct(toks[i], ")"):
            depth += 1
        elif _is_punct(toks[i], "("):
            depth -= 1
            if depth == 0:
                return i
    return -1


def _awaits(toks, lo, hi):
    return [k for k in range(lo, hi) if toks[k].text == "co_await"]


def _conditions(toks):
    """Token ranges (open, close) of control-statement conditions."""
    out = []
    for k, t in enumerate(toks):
        if t.kind != KIND_ID or t.text not in _CONTROL:
            continue
        p = k + 1
        if p < len(toks) and toks[p].text == "constexpr":
            p += 1
        if p < len(toks) and _is_punct(toks[p], "("):
            out.append((p, _match(toks, p)))
    return out


def _operand(toks, depth, i):
    """[lo, hi) of the expression around toks[i] at paren depth `depth`,
    and the token that bounds it on the left (None at statement start)."""
    lo = i
    left = None
    while lo > 0:
        t = toks[lo - 1]
        d = depth[lo - 1]
        if d < depth[i]:
            left = t  # the group's opening `(` / `[`
            break
        if d == depth[i]:
            if t.text in (";", "{", "}", ",") or t.text in _ASSIGN or \
                    t.text in _LEFT_STOP_WORDS:
                left = t
                break
            if _is_punct(t, ")"):
                open_ = _match_back(toks, lo - 1)
                if open_ > 0 and toks[open_ - 1].text in _CONTROL:
                    left = t  # a control header ends here
                    break
                lo = max(open_, 0)
                continue
        lo -= 1
    hi = i
    while hi < len(toks):
        t = toks[hi]
        if depth[hi] < depth[i] or (depth[hi] == depth[i] and
                                    t.text in (";", ",", "{")):
            break
        hi += 1
    return lo, hi, left


def _hoisted_select(toks, depth, lo, hi, left, d):
    """True for `<local> = cond ? co_await x : co_await y;` — the one shape
    GCC 12.2 compiles correctly."""
    if left is None or left.text != "=":
        return False
    if hi >= len(toks) or toks[hi].text != ";":
        return False
    top = [k for k in range(lo, hi) if depth[k] == d]
    qs = [k for k in top if toks[k].text == "?"]
    if len(qs) != 1:
        return False
    q = qs[0]
    colons = [k for k in top if k > q and toks[k].text == ":"]
    if not colons:
        return False
    c = colons[0]
    if _awaits(toks, lo, q):
        return False  # the condition itself suspends
    if any(toks[k].text in _SHORT_CIRCUIT for k in top if k > q):
        return False
    return (q + 1 < hi and toks[q + 1].text == "co_await" and
            c + 1 < hi and toks[c + 1].text == "co_await")


def _offending_await(toks):
    """Index of the first miscompiled `co_await` in a statement, or None."""
    depth = _depths(toks)
    bad = []
    # 1. control conditions
    for open_, close in _conditions(toks):
        bad.extend(_awaits(toks, open_ + 1, close))
    # 2. co_return operands built on ?:, && or || (an argument list that
    #    merely contains one evaluates it before the await)
    for k, t in enumerate(toks):
        if t.text == "co_return":
            rest = range(k + 1, len(toks))
            if any(toks[j].text in _SHORT_CIRCUIT and depth[j] == depth[k]
                   for j in rest):
                bad.extend(_awaits(toks, k + 1, len(toks)))
    # 3. other operands of ?:, && or ||; 4. awaiting a conditional
    for k in _awaits(toks, 0, len(toks)):
        lo, hi, left = _operand(toks, depth, k)
        if any(toks[j].text in _SHORT_CIRCUIT and depth[j] == depth[k]
               for j in range(lo, hi)) and \
                not _hoisted_select(toks, depth, lo, hi, left, depth[k]):
            bad.append(k)
        if k + 1 < len(toks) and _is_punct(toks[k + 1], "("):
            close = _match(toks, k + 1)
            if any(toks[j].text == "?" and depth[j] == depth[k] + 1
                   for j in range(k + 2, close)):
                bad.append(k)
    return min(bad) if bad else None


def run(src: SourceFile, config, symbols):
    findings: list[Finding] = []
    for fn in src.functions:
        for stmt in fn.statements:
            if not stmt.has_co_await:
                continue
            k = _offending_await(stmt.tokens)
            if k is None:
                continue
            if src.annotation_between(ANNOTATION, stmt.first_line,
                                      stmt.last_line):
                continue
            findings.append(Finding(
                check=NAME, path=src.path, line=stmt.tokens[k].line,
                function=fn.qualified,
                message=("`co_await` in a condition or under `?:`/`&&`/"
                         "`||`, which GCC 12.2 miscompiles; hoist it into "
                         "a named local and test the local"),
                fingerprint=make_fingerprint(NAME, src.path, fn.qualified,
                                             stmt.fingerprint_text())))
    return findings
