"""The benchmark tracer's hooks reach what they are meant to time.

bench/tracer.py wraps a class entry point by replacing `owner.__dict__[name]`
for the length of a traced pass, so a method a backend only inherits makes
a traced run fail with KeyError.  It wraps a module function by rebinding
the module's name, so a deleted or renamed function makes a traced run fail
with AttributeError, and a call that does not go through that name (an
inlined check, say) drops out of the layer it belongs to.  The harness
rejects a run with any report that bench/checker.py does not accept, so the
first round of each workload is run through the harness's command loop too.
These tests change nothing under bench/.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def layer_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer
    return tracer._layer_targets()


def test_every_class_target_is_in_its_owner_namespace(monkeypatch):
    missing = [f"{owner.__name__}.{name}" for owner, name, _ in layer_targets(monkeypatch)
               if isinstance(owner, type) and name not in owner.__dict__]
    assert not missing, missing


def test_every_module_target_resolves_to_a_function(monkeypatch):
    missing = [f"{owner.__name__}.{name}" for owner, name, _ in layer_targets(monkeypatch)
               if not isinstance(owner, type) and not callable(getattr(owner, name, None))]
    assert not missing, missing


def test_solver_rechecks_through_the_public_verifiers(monkeypatch, z3, f2, five_blocks):
    """The tracer times the solver's re-check as equations.verify only while
    solve_feasibility calls the public verifiers by module-level lookup."""
    from paracon import compute_configurations, configuration_pair, equations

    calls = Counter()

    def counting(name):
        original = getattr(equations, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("verify_solution", "verify_certificate"):
        monkeypatch.setattr(equations, name, counting(name))
    for action, words, blocks, feasible in (
            (z3, ["a"], [z3.point_set([0]), z3.point_set([1, 2])], True),
            (f2, ["a", "b"], five_blocks, False)):
        system = equations.build_equations(
            compute_configurations(configuration_pair(action, words, blocks)))
        calls.clear()
        assert equations.solve_feasibility(system).feasible is feasible
        name = "verify_solution" if feasible else "verify_certificate"
        assert calls == Counter({name: 1})


def bench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, name, raising=False)
    return __import__(name)


@pytest.mark.parametrize("workload", ["free-decide", "finite-eq", "paradox-search"])
def test_first_benchmark_round_passes_the_checker(workload, monkeypatch, tmp_path):
    """Round 0 of each workload at seed 1, run through the harness's own
    command loop, which checks every report with bench/checker.py: a report
    the checker rejects fails here before any timed run."""
    import paracon.cli

    run = bench_module(monkeypatch, "run")
    workloads = bench_module(monkeypatch, "workloads")
    commands = workloads.make_round(workload, 1, 0)
    result = run.run_commands(paracon.cli, commands, tmp_path)
    assert result.attempted == len(commands)
    assert result.failures == []


def test_traced_free_decide_round_times_the_configuration_layers(monkeypatch, tmp_path):
    """A traced free-decide round passes the checker, its traced count of
    realized configurations matches the reports, and the spans of
    compute_configurations and verify_cell_partition still time work."""
    import paracon.cli

    run = bench_module(monkeypatch, "run")
    total, metrics, _ = run.traced(paracon.cli, "free-decide", 1, tmp_path)
    assert total.failures == []
    assert metrics["configurations.realized"]["value"] > 0
    assert metrics["configurations.compute_s"]["value"] > 0
    assert metrics["configurations.verify_cells_s"]["value"] > 0


def test_traced_finite_eq_round_counts_the_equations_it_builds(monkeypatch, tmp_path, capsys):
    """A traced finite-eq round passes the checker, and its traced counts of
    equation variables and rows are the totals of the round's reports, so
    the counters bench/tracer.py reads off each built system still count."""
    import paracon.cli

    run = bench_module(monkeypatch, "run")
    workloads = bench_module(monkeypatch, "workloads")
    total, metrics, _ = run.traced(paracon.cli, "finite-eq", 1, tmp_path)
    assert total.failures == []
    variables = rows = 0
    path = tmp_path / "doc.json"
    for command, doc in workloads.make_round("finite-eq", 1, 0):
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert paracon.cli.main([*command.split(), "--input", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        variables += len(data["variables"])
        rows += len(data["rows"])
    assert metrics["equations.vars"]["value"] == variables > 0
    assert metrics["equations.rows"]["value"] == rows > 0
