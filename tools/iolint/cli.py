"""iolint command line: config, file gathering, check dispatch,
allowlist diffing, reporting.

Exit codes: 0 clean, 1 findings (or expect-mode mismatch), 2 usage/config
error.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import re
import sys

from .checks import CHECKS
from .checks import status_discard as status_discard_check
from .model import parse_source

DEFAULT_CONFIG = ".iolint.toml"


# ---------------------------------------------------------------------------
# Config

def _parse_toml_minimal(text: str):
    """Fallback TOML-subset parser for pythons without tomllib (<3.11):
    tables, string/bool/int scalars, and (possibly multi-line) arrays of
    strings — exactly what .iolint.toml uses."""
    data: dict = {}
    cur = data
    buf_key = None
    buf: list[str] = []

    def close_array(line):
        nonlocal buf_key
        buf.append(line)
        joined = " ".join(buf)
        items = re.findall(r'"((?:[^"\\]|\\.)*)"', joined)
        cur[buf_key] = [i.encode().decode("unicode_escape") for i in items]
        buf.clear()
        buf_key = None

    for raw in text.split("\n"):
        line = raw.split("#", 1)[0].rstrip() if '"' not in raw else raw.rstrip()
        if '"' in raw:  # keep # inside strings; strip trailing comments crudely
            line = re.sub(r'\s+#(?![^"]*").*$', "", raw.rstrip())
        if buf_key is not None:
            if line.strip().endswith("]"):
                close_array(line)
            else:
                buf.append(line)
            continue
        s = line.strip()
        if not s:
            continue
        m = re.match(r"\[([\w.\-]+)\]$", s)
        if m:
            cur = data
            for part in m.group(1).split("."):
                cur = cur.setdefault(part, {})
            continue
        m = re.match(r"([\w\-]+)\s*=\s*(.*)$", s)
        if not m:
            continue
        key, val = m.group(1), m.group(2).strip()
        if val.startswith("[") and not val.endswith("]"):
            buf_key = key
            buf.append(val)
        elif val.startswith("["):
            items = re.findall(r'"((?:[^"\\]|\\.)*)"', val)
            cur[key] = [i.encode().decode("unicode_escape") for i in items]
        elif val in ("true", "false"):
            cur[key] = val == "true"
        elif val.startswith('"'):
            cur[key] = val.strip('"')
        else:
            try:
                cur[key] = int(val)
            except ValueError:
                cur[key] = val
    return data


def load_config(path: str):
    with open(path, "rb") as f:
        raw = f.read()
    try:
        import tomllib  # noqa: PLC0415 - 3.11+
        return tomllib.loads(raw.decode())
    except ModuleNotFoundError:
        return _parse_toml_minimal(raw.decode())


# ---------------------------------------------------------------------------
# File gathering

def gather_files(root: str, cfg: dict, explicit: list[str]):
    exts = tuple(cfg.get("extensions", [".cc", ".h"]))
    excludes = cfg.get("exclude", [])

    def excluded(rel: str) -> bool:
        return any(fnmatch.fnmatch(rel, pat) for pat in excludes)

    out = []
    roots = explicit if explicit else cfg.get("include", ["src"])
    for r in roots:
        full = r if os.path.isabs(r) else os.path.join(root, r)
        if os.path.isfile(full):
            rel = os.path.relpath(full, root)
            if not excluded(rel):
                out.append(rel)
            continue
        for dirpath, _dirnames, filenames in os.walk(full):
            for fname in sorted(filenames):
                if not fname.endswith(exts):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, fname), root)
                if not excluded(rel):
                    out.append(rel)
    return sorted(set(out))


def file_in_scope(rel: str, check_cfg: dict) -> bool:
    pats = check_cfg.get("include")
    if not pats:
        return True
    return any(fnmatch.fnmatch(rel, p) for p in pats)


# ---------------------------------------------------------------------------
# Main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="iolint",
        description="suspension-safety & status-discipline lint for the "
                    "BarrierIO coroutine stack")
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to scan (default: config include set)")
    ap.add_argument("--config", default=None,
                    help=f"config file (default: <root>/{DEFAULT_CONFIG})")
    ap.add_argument("--root", default=None,
                    help="repo root (default: the config file's directory)")
    ap.add_argument("--ci", action="store_true",
                    help="fail on any un-allowlisted finding; warn on stale "
                         "allowlist entries")
    ap.add_argument("--expect-mode", action="store_true",
                    help="fixture mode: findings must exactly match "
                         "`iolint-expect: <check>` markers")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checks:
        for c in CHECKS:
            print(f"{c.NAME}\t(annotation: // iolint: {c.ANNOTATION}(...))")
        return 0

    # Locate root + config: explicit flags win; else walk up from cwd.
    config_path = args.config
    if config_path is None:
        probe = os.path.abspath(args.root or os.getcwd())
        while True:
            cand = os.path.join(probe, DEFAULT_CONFIG)
            if os.path.isfile(cand):
                config_path = cand
                break
            parent = os.path.dirname(probe)
            if parent == probe:
                print(f"iolint: no {DEFAULT_CONFIG} found", file=sys.stderr)
                return 2
            probe = parent
    root = os.path.abspath(args.root or os.path.dirname(
        os.path.abspath(config_path)) or ".")
    cfg = load_config(config_path)
    top = cfg.get("iolint", {})
    checks_cfg = cfg.get("checks", {})
    allow_entries = list(cfg.get("allowlist", {}).get("entries", []))

    files = gather_files(root, top, args.paths)
    if not files:
        print("iolint: no files to scan", file=sys.stderr)
        return 2

    sources = []
    for rel in files:
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            text = f.read()
        sources.append(parse_source(rel, text))

    # Cross-file symbol harvest (status-returning function names).  A name
    # also declared with a non-status return somewhere is ambiguous at the
    # call site and dropped — the [[nodiscard]] attributes + -Werror cover
    # those precisely; `always_watch` re-pins a name despite ambiguity.
    sd_cfg = checks_cfg.get(status_discard_check.NAME.replace("-", "_"), {})
    status_names, other_names = set(), set()
    for src in sources:
        s, o = status_discard_check.harvest(src, sd_cfg)
        status_names |= s
        other_names |= o
    always = set(sd_cfg.get("always_watch", []))
    symbols = {"status_returning": (status_names - other_names) | always,
               "status_ambiguous": status_names & other_names}

    findings = []
    for src in sources:
        for check in CHECKS:
            ccfg = checks_cfg.get(check.NAME.replace("-", "_"), {})
            if not ccfg.get("enabled", True):
                continue
            if not file_in_scope(src.path, ccfg):
                continue
            findings.extend(check.run(src, ccfg, symbols))
    findings.sort(key=lambda f: (f.path, f.line, f.check))

    # Allowlist: matched entries suppress; unmatched entries are stale and
    # must be deleted (the list only ever shrinks).
    allow_set = set(allow_entries)
    matched = set()
    for f in findings:
        if f.fingerprint in allow_set:
            f.allowlisted = True
            matched.add(f.fingerprint)
    stale = [e for e in allow_entries if e not in matched]
    active = [f for f in findings if not f.allowlisted]

    if args.expect_mode:
        return _expect_mode(sources, findings, quiet=args.quiet)

    for f in active:
        print(f.render())
    if not args.quiet:
        per_check = {}
        for f in findings:
            per_check[f.check] = per_check.get(f.check, 0) + 1
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(per_check.items()))
        grand = len(active)
        print(f"iolint: {len(files)} files, {grand} finding(s)"
              f"{' [' + summary + ']' if summary else ''}"
              f"{f', {len(findings) - grand} allowlisted' if grand != len(findings) else ''}")
    for e in stale:
        msg = (f"stale allowlist entry (no longer fires — delete it so the "
               f"grandfather list shrinks): {e}")
        if os.environ.get("GITHUB_ACTIONS"):
            print(f"::warning::iolint: {msg}")
        else:
            print(f"iolint: warning: {msg}")
    return 1 if active else 0


def _expect_mode(sources, findings, quiet=False) -> int:
    """Fixture contract: every finding must land on a line carrying a
    matching `iolint-expect: <check>` marker, and every marker must be
    hit.  Allowlisted findings still count as hits (the allowlist test
    uses its own config)."""
    failures = []
    by_file = {}
    for f in findings:
        by_file.setdefault(f.path, []).append(f)
    for src in sources:
        fs = by_file.get(src.path, [])
        expected = {}  # (line, check) -> hit?
        for line, names in src.expects.items():
            for name in names:
                expected[(line, name)] = False
        for f in fs:
            key = (f.line, f.check)
            if key in expected:
                expected[key] = True
            else:
                failures.append(f"unexpected finding: {f.render()}")
        for (line, name), hit in sorted(expected.items()):
            if not hit:
                failures.append(
                    f"{src.path}:{line}: expected [{name}] did not fire")
    if failures:
        for msg in failures:
            print(msg)
        print(f"iolint --expect-mode: {len(failures)} mismatch(es)")
        return 1
    if not quiet:
        n = sum(len(v) for v in by_file.values())
        print(f"iolint --expect-mode: OK "
              f"({n} finding(s) matched expectations)")
    return 0
