"""The benchmark's reports, pinned as one hash.

The 808 commands of the free-decide, finite-eq and paradox-search
workloads, seeds 1 and 2, rounds 0 and 1 (in that nesting), run through
`paracon.cli.main` in one process.  Each input is written as
`json.dumps(doc, sort_keys=True)`, and the hash takes the command string,
the exit code and stdout of each command, each followed by a NUL byte.  A
change that alters any report on purpose changes this hash, and records
the new value here.  The documents come from bench/workloads.py, which is
imported read-only.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from paracon.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
OUTPUT_HASH = "e484a97732bd4139ebe8701ff489b95e541789ff86070b76a1cf95d7a5d951ad"


def test_benchmark_reports_keep_their_hash(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    digest, count = hashlib.sha256(), 0
    path = tmp_path / "doc.json"
    for workload in ("free-decide", "finite-eq", "paradox-search"):
        for seed in (1, 2):
            for index in (0, 1):
                for command, doc in workloads.make_round(workload, seed, index):
                    path.write_text(json.dumps(doc, sort_keys=True))
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        code = main(command.split() + ["--input", str(path)])
                    for part in (command, str(code), out.getvalue()):
                        digest.update(part.encode() + b"\0")
                    count += 1
    assert count == 808
    assert digest.hexdigest() == OUTPUT_HASH
