"""The identity of a checkout of the program, as the measurement scripts record it.

    from tree_identity import tree_identity  # in a script of this directory

``tree_identity(tree)`` returns the checkout's ``commit``: ``git rev-parse
HEAD``, suffixed ``+dirty`` when ``src/`` has uncommitted changes, and None
for a tree that is no git checkout (a plain export).  It also returns
``source_sha256``, the hash ``perfbench/run.py`` records in its provenance
(every ``src/cmjsim/*.py`` in name order, its name and then its bytes), and
``src_lines``, the lines in those files.
"""

from __future__ import annotations

import hashlib
import subprocess
from pathlib import Path


def tree_identity(tree: Path) -> dict:
    paths = sorted((tree / "src" / "cmjsim").glob("*.py"))
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (tree / ".git").exists():  # a plain export has no commit; never ask a parent repository
        git = dict(cwd=tree, capture_output=True, text=True)
        head = subprocess.run(["git", "rev-parse", "HEAD"], **git)
        status = subprocess.run(["git", "status", "--porcelain", "--", "src"], **git)
        if head.returncode == 0:
            # "+dirty": the measured sources differ from that commit; the hash names them
            commit = head.stdout.strip() + ("+dirty" if status.stdout.strip() else "")
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "src_lines": sum(len(path.read_bytes().splitlines()) for path in paths),
    }
