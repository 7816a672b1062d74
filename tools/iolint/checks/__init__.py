"""iolint check registry.

Each check module exposes
    NAME        the check id used in findings, config and annotations
    ANNOTATION  the `// iolint: <name>(reason)` that suppresses a finding
    run(source, config, symbols) -> list[Finding]

`symbols` is the cross-file symbol table the runner harvests before any
check runs (today: the set of function names returning status-like types,
used by status-discard).  Adding a check = adding a module here and a
`[checks.<name>]` table to .iolint.toml; DESIGN.md §12 walks through it.
"""

from . import (conditional_await, detached_capture, status_discard,
               suspend_hazard, txn_join)

CHECKS = [
    suspend_hazard,
    status_discard,
    txn_join,
    detached_capture,
    conditional_await,
]

BY_NAME = {c.NAME: c for c in CHECKS}
