#!/usr/bin/env python3
"""iolint self-test: proves each check fires on the reconstructed ledger
bugs (DESIGN.md §9.2-3, §10.4, §11.4) and stays silent on the fixed
forms, and that the allowlist mechanism suppresses exactly the
fingerprinted finding while flagging stale entries.

Run:  python3 tools/iolint/selftest.py
Exit: 0 on success, 1 on any contract violation.  Wired into ctest via
tests/iolint_test.cc.
"""

import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
FIXTURES = os.path.join(HERE, "fixtures")
CONFIG = os.path.join(FIXTURES, "fixtures.iolint.toml")
CHECKS = ["suspend-hazard", "status-discard", "txn-join-before-mutate",
          "detached-task-capture", "conditional-await"]

_failures = []


def run_iolint(*args, config=CONFIG):
    cmd = [sys.executable, os.path.join(HERE, "iolint.py"),
           "--config", config, "--root", REPO, *args]
    p = subprocess.run(cmd, capture_output=True, text=True)
    return p.returncode, p.stdout + p.stderr


def check(cond, what):
    if cond:
        print(f"  ok: {what}")
    else:
        print(f"  FAIL: {what}")
        _failures.append(what)


def main() -> int:
    rel_fixtures = os.path.relpath(FIXTURES, REPO)

    print("[1/4] expect-mode: every ledger fixture fires on its marked "
          "line, nothing else")
    code, out = run_iolint("--expect-mode", rel_fixtures)
    check(code == 0, f"expect-mode exits 0 (got {code}):\n{out.strip()}")

    print("[2/4] each check fires at least once on its known-bad fixture")
    code, out = run_iolint(rel_fixtures)
    check(code == 1, f"plain run over fixtures exits 1 (got {code})")
    for name in CHECKS:
        n = len(re.findall(rf"\[{re.escape(name)}\]", out))
        check(n >= 1, f"[{name}] fires on its fixture ({n} finding(s))")

    print("[3/4] fixed/annotated forms are silent (no findings beyond "
          "the expect-marked lines — implied by step 1; spot-check the "
          "good-only lines carry none)")
    # Every finding line must carry an expect marker; step 1 already
    # proved the bidirectional match.  Here we assert the finding count
    # equals the marker count, so a silent regression in either direction
    # trips the diff below.
    findings = re.findall(r"^\S+\.cc:\d+: \[", out, flags=re.M)
    markers = 0
    for fname in sorted(os.listdir(FIXTURES)):
        if fname.endswith(".cc"):
            with open(os.path.join(FIXTURES, fname), encoding="utf-8") as f:
                markers += len(re.findall(r"iolint-expect:\s*[\w-]+",
                                          f.read()))
    check(len(findings) == markers,
          f"finding count equals marker count ({len(findings)} findings, "
          f"{markers} markers)")

    print("[4/4] allowlist: a fingerprinted entry suppresses exactly that "
          "finding; a stale entry warns")
    fps = re.findall(r"fingerprint: (\S+)", out)
    check(len(fps) == len(findings), "every finding prints a fingerprint")
    if fps:
        with open(CONFIG, encoding="utf-8") as f:
            cfg_text = f.read()
        grandfathered = fps[0]
        stale = "suspend-hazard:tools/nope.cc:gone:deadbeefdead"
        cfg_text = cfg_text.replace(
            "entries = []",
            f'entries = ["{grandfathered}", "{stale}"]')
        with tempfile.NamedTemporaryFile(
                "w", suffix=".toml", delete=False) as tf:
            tf.write(cfg_text)
            tmp_cfg = tf.name
        try:
            code2, out2 = run_iolint(rel_fixtures, config=tmp_cfg)
            check(code2 == 1, "other findings still fail the run")
            check(grandfathered not in out2.split("stale")[0],
                  "allowlisted finding is suppressed")
            n2 = len(re.findall(r"^\S+\.cc:\d+: \[", out2, flags=re.M))
            check(n2 == len(findings) - 1,
                  f"exactly one finding suppressed ({n2} vs {len(findings)})")
            check("stale allowlist entry" in out2 and stale in out2,
                  "stale entry produces a shrink warning")
        finally:
            os.unlink(tmp_cfg)

    if _failures:
        print(f"iolint selftest: {len(_failures)} failure(s)")
        return 1
    print("iolint selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
