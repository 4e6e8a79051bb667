"""Self-checks of the benchmark: generator determinism, checker mutations,
and exact repetition of the traced counts.

Run from the root of a paracon checkout:

    python3 bench/selftest.py

Exits 0 when every check passes and 1 otherwise.  It takes about a minute,
most of it in two traced passes per workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run
from workloads import WORKLOADS, make_round

sys.path.insert(0, str(run.SRC))
import paracon.cli as real_cli  # noqa: E402

# An infeasible F2 document (the first-letter partition with tuple (a, b))
# and a search that finds the four-piece decomposition of F2.
FIRST_LETTER_DOC = {
    "action": {"backend": "free-self", "rank": 2},
    "tuple": ["a", "b"],
    "partition": [{"kind": "singleton", "word": "e"}] + [
        {"kind": "cone", "word": w} for w in ("a", "A", "b", "B")],
}
FOUND_SEARCH_DOC = {
    "action": {"backend": "free-self", "rank": 2},
    "max_pieces": 4, "cone_depth": 1, "translator_length": 1,
}


class MutatingCli:
    """Runs the real CLI, then edits its report before the checker sees it."""

    def __init__(self, mutate):
        self.mutate = mutate

    def main(self, argv):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = real_cli.main(argv)
        report = json.loads(captured.getvalue())
        self.mutate(report)
        sys.stdout.write(json.dumps(report))
        return code


def drop_configuration(report):
    data = report["data"]
    key = "configurations" if "configurations" in data else "variables"
    del data[key][1]
    if "base_cells" in data:
        del data["base_cells"][1]


def change_normalization_multiplier(report):
    certificate = report["data"]["certificate"]
    certificate[-1] = "-" + certificate[-1]


def change_balance_multiplier(report):
    # raise the multiplier of a row with a +1 entry, so that column turns positive
    data = report["data"]
    row = next(r for r, label in enumerate(data["rows"])
               if label[0] == "balance" and any(c[label[1]] == label[2] != c[0]
                                                for c in data["variables"]))
    num, _, den = data["certificate"][row].partition("/")
    data["certificate"][row] = f"{int(num) + 1000 * int(den or 1)}/{den or 1}"


def remove_piece(report):
    dec = report["data"]["decomposition"]
    del dec["pieces_a"][0]
    del dec["translators_a"][0]
    dec["piece_count"] -= 1


MUTATIONS = [
    ("certificate normalization entry changed", "eq solve", FIRST_LETTER_DOC,
     change_normalization_multiplier),
    ("certificate balance entry changed", "eq solve", FIRST_LETTER_DOC, change_balance_multiplier),
    ("configuration list entry dropped", "con compute", FIRST_LETTER_DOC, drop_configuration),
    ("variable list entry dropped", "eq solve", FIRST_LETTER_DOC, drop_configuration),
    ("decomposition piece removed", "paradox search", FOUND_SEARCH_DOC, remove_piece),
]


def check_determinism(workdir: Path) -> list[str]:
    problems = []
    for name in WORKLOADS:
        first = json.dumps(make_round(name, 7, 0), sort_keys=True)
        again = json.dumps(make_round(name, 7, 0), sort_keys=True)
        other = json.dumps(make_round(name, 8, 0), sort_keys=True)
        if first != again:
            problems.append(f"{name}: seed 7 gave different documents twice")
        if first == other:
            problems.append(f"{name}: seeds 7 and 8 gave the same documents")
    return problems


def check_mutations(workdir: Path) -> list[str]:
    problems = []
    for label, command, doc, mutate in MUTATIONS:
        clean = run.run_commands(real_cli, [(command, doc)], workdir)
        if clean.failures:
            problems.append(f"{label}: unmutated report failed: {clean.failures}")
        mutated = run.run_commands(MutatingCli(mutate), [(command, doc)], workdir)
        if len(mutated.failures) != 1:
            problems.append(f"{label}: the checker accepted the mutated report")
    return problems


def check_trace_counts(workdir: Path) -> list[str]:
    problems = []
    for name in WORKLOADS:
        first = run.traced(real_cli, name, 3, workdir)
        second = run.traced(real_cli, name, 3, workdir)
        for result in (first, second):
            problems += [f"{name}: {f}" for f in result[0].failures]
        counts = [{key: entry["value"] for key, entry in result[1].items()
                   if entry["unit"] != "s" and key != "trace_overhead"} for result in (first, second)]
        if counts[0] != counts[1]:
            changed = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
            problems.append(f"{name}: traced counts differ between runs: {changed}")
    return problems


def main() -> int:
    workdir = run.ROOT / ".bench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        problems = []
        for check in (check_determinism, check_mutations, check_trace_counts):
            found = check(workdir)
            print(f"{check.__name__}: {'ok' if not found else 'FAILED'}")
            for problem in found:
                print(f"  {problem}")
            problems += found
    finally:
        run.remove_workdir(workdir)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
