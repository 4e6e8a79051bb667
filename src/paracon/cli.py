"""Command-line interface: paracon <command words> [options].

Reads a JSON document, dispatches to the engines, and prints a
deterministic JSON report: {"command", "status", "data", "bounds",
"input_digest", "seed"}.  Identical inputs produce byte-identical reports;
wall-clock timing goes to stderr so stdout stays diffable.

Exit codes: 0 = computed result (including negative outcomes such as
"infeasible" or "hypothesis-violated"), 2 = schema/parse error with a
location, 3 = a size past its fixed cap (a search or comparison bound,
rank, degree, group order, closure size, search table bits, family limit,
candidate family size, tuple length, set nesting depth, automaton states,
the n of probe cardinality); the report names the bound and its cap.
Whatever bytes the input holds, the run ends with one of these codes and a
report; so do an unreadable --input and an unwritable --output (exit 2).

argv is read in one pass, by argparse's rules.  The command words are the
first run of bare arguments.  An option may be shortened to any unique
prefix of its name; its value is the next argument, or follows "=", and an
argument starting with "-" is a value only when it is a negative number.
The last of a repeated option wins, and after a lone "--" every argument
is bare.  A malformed argv prints the usage and the error to stderr and
exits 2 before any input is read.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import time
from fractions import Fraction
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable

from . import configurations as cfg
from . import equations as eqs
from . import paradox as pdx
from .serialization import (
    DocumentError,
    element_json,
    is_integer,
    parse_action,
    parse_element,
    parse_elements,
    parse_prefix_partition,
    parse_rational,
    parse_sets,
    rational_str,
    set_json,
)
from .words import BoundExceeded, value


def _at(parent: str, key: str) -> str:
    """The location of field `key` of the object at `parent` ("" for the document)."""
    return f"{parent}.{key}" if parent else key


def _require(doc: dict, key: str, parent: str = ""):
    if key not in doc:
        raise DocumentError(f"missing field {key!r}", _at(parent, key))
    return doc[key]


def _field(doc: dict, key: str, parse, action, parent: str = ""):
    """Field `key` of the object at `parent`, read by parse(value, action, location)."""
    return parse(_require(doc, key, parent), action, _at(parent, key))


def _object(value, location: str, name: str = "") -> dict:
    if not isinstance(value, dict):
        raise DocumentError(f"{name or location} must be an object", location)
    return value


def _int_field(doc: dict, key: str, default=None, parent: str = "") -> int:
    value = doc.get(key, default)
    if not is_integer(value):
        raise DocumentError(f"field {key!r} must be an integer", _at(parent, key))
    return value


def _rationals(doc: dict, key: str) -> list[Fraction]:
    raw = _require(doc, key)
    if not isinstance(raw, list):
        raise DocumentError(f"{key} must be an array of 'p/q' strings", key)
    return [parse_rational(v, f"{key}[{i}]") for i, v in enumerate(raw)]


def _parse_pair(doc: dict, action, location: str) -> cfg.ConfigurationPair:
    """A validated pair.  A partition over F_rank whose every block is a
    cone, a singleton or a union of those is read as one labelled trie; any
    other, and one whose blocks meet, is read block by block, and labelled
    by one pass.  Either way the partition is checked on that one
    labelling, for the same report."""
    _object(doc, location)
    elements = _field(doc, "tuple", parse_elements, action, location)
    blocks = (_field(doc, "partition", parse_prefix_partition, action, location)
              or _field(doc, "partition", parse_sets, action, location))
    try:
        return cfg.configuration_pair(action, elements, blocks)
    except ValueError as err:   # elements are already normalized: only the partition can fail
        raise DocumentError(str(err), _at(location, "partition")) from None


def _witness_json(point):
    return point if isinstance(point, int) else element_json(point)


def _decomposition_json(dec: pdx.ParadoxicalDecomposition) -> dict:
    return {
        "pieces_a": [set_json(p) for p in dec.pieces_a],
        "translators_a": [element_json(t) for t in dec.translators_a],
        "pieces_b": [set_json(p) for p in dec.pieces_b],
        "translators_b": [element_json(t) for t in dec.translators_b],
        "piece_count": dec.piece_count,
    }


def _parse_decomposition(doc: dict, action, location: str) -> pdx.ParadoxicalDecomposition:
    _object(doc, location)
    return pdx.ParadoxicalDecomposition(
        tuple(_field(doc, "pieces_a", parse_sets, action, location)),
        tuple(_field(doc, "translators_a", parse_elements, action, location)),
        tuple(_field(doc, "pieces_b", parse_sets, action, location)),
        tuple(_field(doc, "translators_b", parse_elements, action, location)),
    )


# ---------------------------------------------------------------------------
# command handlers: (args, doc, action, cs) -> (status, data, bounds)
# ---------------------------------------------------------------------------


def cmd_con_compute(args, doc, action, cs):
    cfg.verify_cell_partition(cs).require("base cells failed verification")
    return "ok", {
        "tuple_length": cs.pair.tuple_length,
        "block_count": cs.pair.block_count,
        "configurations": cs.configurations,
        "base_cells": [{"configuration": c, "cell": set_json(cs.base_cells[c])}
                       for c in cs.configurations],
        "cell_partition_ok": True,
    }, {}


def cmd_eq_solve(args, doc, action, cs):
    system, result = eqs.decide(cs)
    data = {
        "variables": cs.configurations,
        "rows": system.labels,
    }
    if result.feasible:
        data["solution"] = [rational_str(v) for v in result.solution]
        return "feasible", data, {}
    data["certificate"] = [rational_str(v) for v in result.certificate]
    return "infeasible", data, {}


def cmd_eq_verify(args, doc, action, cs):
    system = eqs.build_equations(cs)
    data = {"variables": cs.configurations}
    if "solution" in doc:
        report = eqs.verify_solution(system, _rationals(doc, "solution"))
        kind = "solution"
    elif "multipliers" in doc:
        report = eqs.verify_certificate(system, _rationals(doc, "multipliers"))
        kind = "certificate"
    else:
        raise DocumentError("need either 'solution' or 'multipliers'", "")
    data["kind"] = kind
    if report.ok:
        return "ok", data, {}
    data["violation"] = [str(part) for part in report.violation]
    return "violated", data, {}


def cmd_coarsen(args, doc, action, cs):
    mode = _require(doc, "mode")
    if mode not in ("partition", "string", "composed"):
        raise DocumentError("mode must be partition | string | composed", "mode")
    fine = _field(doc, "fine", _parse_pair, action)
    coarse = _field(doc, "coarse", _parse_pair, action)
    fine_cs = cfg.compute_configurations(fine)
    coarse_cs = cfg.compute_configurations(coarse)
    result = cfg.coarsen_solution(mode, fine_cs, coarse_cs, _rationals(doc, "solution"))
    data = {
        "mode": mode,
        "fine_configurations": fine_cs.configurations,
        "coarse_configurations": coarse_cs.configurations,
        "solution": [rational_str(v) for v in result],
    }
    return "ok", data, {}


def cmd_compare_con(args, doc, action, cs):
    action_a = parse_action(_require(doc, "action_a"), "action_a")
    action_b = parse_action(_require(doc, "action_b"), "action_b")
    raw_bounds = _object(doc.get("bounds", {}), "bounds")
    bounds = cfg.ConSearchBounds(
        **{name: _int_field(raw_bounds, name, getattr(cfg.ConSearchBounds, name), "bounds")
           for name in ("max_tuple_length", "max_word_length", "max_blocks", "family_limit")},
        seed=args.seed)

    def explicit(key, action):
        if key not in doc:
            if not action.is_finite:
                raise DocumentError("supply explicit pairs for infinite actions", key)
            return None
        items = doc[key]
        if not isinstance(items, list):
            raise DocumentError(f"{key} must be an array of pairs", key)
        if not items and key == "pairs_a":   # no pair of A checked proves nothing
            raise DocumentError("pairs_a must hold at least one pair", key)
        return [_parse_pair(item, action, f"{key}[{i}]") for i, item in enumerate(items)]

    report = cfg.con_included(action_a, action_b, bounds,
                              pairs_a=explicit("pairs_a", action_a),
                              pairs_b=explicit("pairs_b", action_b))
    bounds_json = {k: v for k, v in vars(bounds).items() if k != "seed"}
    data = {"pairs_checked": report.pairs_checked}
    if report.included:
        return "included-up-to-bounds", data, bounds_json
    elements, blocks, configs = report.counterexample
    data["counterexample"] = {
        "tuple": [element_json(g) for g in elements],
        "partition": [set_json(b) for b in blocks],
        "configurations": configs,
    }
    return "counterexample", data, bounds_json


def cmd_probe_cardinality(args, doc, action, cs):
    n = _int_field(doc, "n")
    probe = cfg.cardinality_probe(action, n)
    data = {"n": n}
    if probe.possible:
        data["witness_partition"] = [set_json(b) for b in probe.witness]
        return "yes", data, {}
    return "no", data, {}


def cmd_paradox_verify(args, doc, action, cs):
    dec = _field(doc, "decomposition", _parse_decomposition, action)
    report = pdx.verify_decomposition(action, dec, strict=args.strict_partition)
    data = {"piece_count": report.piece_count, "strict": args.strict_partition}
    if report.ok:
        return "ok", data, {}
    data["problem"] = report.problem
    data["witness"] = _witness_json(report.witness)
    return "failed", data, {}


def cmd_paradox_chain(args, doc, action, cs):
    raw = _object(_require(doc, "chain"), "chain")
    sets = _field(raw, "sets", parse_sets, action, "chain")
    elements = _field(raw, "elements", parse_elements, action, "chain")
    chain = pdx.PingPongChain(tuple(sets), tuple(elements))
    try:
        result = pdx.chain_to_decomposition(action, chain)
    except pdx.ChainHypothesisError as err:
        return "hypothesis-violated", {
            "message": str(err),
            "witness": _witness_json(err.witness),
        }, {}
    data = {
        "piece_bound": result.piece_bound,
        "stage_elements": [element_json(s) for s in result.stage_elements],
        "decomposition": _decomposition_json(result.decomposition),
    }
    if result.note:
        data["note"] = result.note
    return "ok", data, {}


def cmd_paradox_search(args, doc, action, cs):
    bounds_json = {name: _int_field(doc, name, default)
                   for name, default in (("max_pieces", 4), ("cone_depth", 1), ("translator_length", 1))}
    result = pdx.bounded_paradox_search(action, **bounds_json)
    if result.decomposition is not None:
        return "found", {"decomposition": _decomposition_json(result.decomposition)}, bounds_json
    return "none-within-bounds", {"reason": result.reason}, bounds_json


def cmd_paradox_pattern(args, doc, action, cs):
    raw = _object(_require(doc, "pattern"), "pattern")

    def family(key):
        items = raw.get(key)
        if not (isinstance(items, list) and items
                and all(isinstance(p, list) and len(p) == 2
                        and all(map(is_integer, p)) for p in items)):
            raise DocumentError(f"pattern.{key} must be a nonempty array of [coordinate, block] pairs",
                                _at("pattern", key))
        return tuple((j, i) for j, i in items)

    pattern = pdx.ParadoxPattern(family("family_a"), family("family_b"))
    report = pdx.pattern_check(cs, pattern)
    data = {"configurations": cs.configurations}
    if report.holds:
        data["decomposition"] = _decomposition_json(report.decomposition)
        return "holds", data, {}
    data["problem"] = report.problem
    if report.counterexample is not None:
        data["counterexample"] = report.counterexample
    return "fails", data, {}


def cmd_pingpong_cyclic(args, doc, action, cs):
    raw = _object(_require(doc, "tableau"), "tableau")
    sets_a = _field(raw, "sets_a", parse_sets, action, "tableau")
    sets_b = _field(raw, "sets_b", parse_sets, action, "tableau")
    elements = _field(raw, "elements", parse_elements, action, "tableau")
    try:
        tableau = pdx.CyclicTableau(tuple(sets_a), tuple(sets_b), tuple(elements))
        report = pdx.check_pingpong_cyclic(action, tableau)
    except ValueError as err:
        return "precondition-failed", {"message": str(err)}, {}
    if report.ok:
        return "ok", {
            "conclusion": report.conclusion,
            "inclusions": report.inclusions,
        }, {}
    return "failed", {"problem": report.problem, "witness": _witness_json(report.witness)}, {}


def cmd_pingpong_subgroups(args, doc, action, cs):
    raw_specs = _require(doc, "subgroups")
    if not isinstance(raw_specs, list) or len(raw_specs) < 2:
        raise DocumentError("subgroups must be an array of at least two descriptions", "subgroups")
    specs = []
    for i, item in enumerate(raw_specs):
        loc = f"subgroups[{i}]"
        kind = _object(item, loc, "subgroup description").get("kind")
        if kind == "cyclic":
            specs.append(pdx.CyclicSubgroup(_field(item, "generator", parse_element, action, loc)))
        elif kind == "finite":
            elements = _field(item, "elements", parse_elements, action, loc)
            specs.append(pdx.FiniteSubgroup(tuple(elements)))
        else:
            raise DocumentError(f"unknown subgroup kind {kind!r}", _at(loc, "kind"))
    sets = _field(doc, "sets", parse_sets, action)
    try:
        report = pdx.check_pingpong_subgroups(action, specs, sets)
    except ValueError as err:
        return "precondition-failed", {"message": str(err)}, {}
    if report.ok:
        return "ok", {
            "conclusion": report.conclusion,
            "checks": len(report.inclusions),
        }, {}
    return "failed", {"problem": report.problem, "witness": _witness_json(report.witness)}, {}


def cmd_witness_nonabelian(args, doc, action, cs):
    g1 = _field(doc, "g1", parse_element, action)
    g2 = _field(doc, "g2", parse_element, action)
    try:
        witness = pdx.make_nonabelian_witness(action, g1, g2)
    except ValueError as err:
        return "no-witness", {"message": str(err)}, {}
    report = pdx.verify_nonabelian(action, witness)
    report.require("nonabelian witness failed verification")
    return "ok", {
        "sets": [set_json(s) for s in witness.sets],
        "conclusion": report.conclusion,
    }, {}


def cmd_witness_infinite_order(args, doc, action, cs):
    element = _field(doc, "element", parse_element, action)
    try:
        witness = pdx.make_infinite_order_witness(action, element)
    except ValueError as err:
        data = {"message": str(err)}
        order = element.order()
        if order is not None:
            data["order"] = order
        return "finite-order", data, {}
    report = pdx.verify_infinite_order(action, witness)
    report.require("infinite-order witness failed verification")
    return "ok", {
        "e1": set_json(witness.e1),
        "e2": set_json(witness.e2),
        "conclusion": report.conclusion,
    }, {}


@value
class Command:
    """A command's table entry.

    _run parses the `action` field (None: run reads its own actions) and,
    with `pair`, the top-level tuple and partition, whose configuration set
    it passes to run as cs.  An engine ValueError that run does not report
    as an outcome is a schema error at `where`.
    """

    run: Callable
    action: str | None = "action"
    pair: bool = False
    where: str = ""


COMMANDS = {
    "con compute": Command(cmd_con_compute, pair=True),
    "eq solve": Command(cmd_eq_solve, pair=True),
    "eq verify": Command(cmd_eq_verify, pair=True),
    "coarsen": Command(cmd_coarsen, where="solution"),
    "compare con": Command(cmd_compare_con, action=None, where="bounds"),
    "probe cardinality": Command(cmd_probe_cardinality, where="n"),
    "paradox verify": Command(cmd_paradox_verify, where="decomposition"),
    "paradox chain": Command(cmd_paradox_chain, where="chain"),
    "paradox search": Command(cmd_paradox_search),
    "paradox pattern": Command(cmd_paradox_pattern, pair=True, where="pattern"),
    "pingpong cyclic": Command(cmd_pingpong_cyclic),
    "pingpong subgroups": Command(cmd_pingpong_subgroups),
    "witness nonabelian": Command(cmd_witness_nonabelian),
    "witness infinite-order": Command(cmd_witness_infinite_order),
}

_USAGE = "usage: paracon <command words> [options]\n"
HELP = (_USAGE + "\n" + __doc__ + "\ncommand words, one of:\n"
        + "".join(f"  {name}\n" for name in COMMANDS) + """
options:
  -h, --help          show this help message and exit
  --input INPUT       input JSON document (default: stdin)
  --output OUTPUT     output path (default: stdout)
  --strict-partition  verify decompositions as exact covers
  --seed SEED         seed for sampled candidate families
""")
# each option and whether it takes a value, in the order an ambiguous
# prefix's error lists them
_OPTIONS = {"--help": False, "--input": True, "--output": True,
            "--strict-partition": False, "--seed": True}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


@value
class Arguments:
    """One command line: its command words and options."""

    words: tuple
    input: str | None = None
    output: str | None = None
    strict_partition: bool = False
    seed: int = 0


def _fail(message: str):
    sys.stderr.write(f"{_USAGE}paracon: error: {message}\n")
    raise SystemExit(2)


def _option(token: str):
    """(option, value written after "=" or None) for an option token,
    ("", None) for an unknown one, None for a bare argument.  "-h" stays
    apart from "--help": it may carry more h's, as "-hh"."""
    if token[:1] != "-" or token == "-":
        return None
    head, eq, tail = token.partition("=")
    if token[1] == "-":
        names = [name for name in _OPTIONS if name.startswith(head)]
        if len(names) > 1:
            _fail(f"ambiguous option: {token} could match {', '.join(names)}")
        if names:
            return names[0], (tail if eq else None)
    elif token[1] == "h":
        return "-h", (tail if eq and head == "-h" else token[2:] or None)
    return None if _NEGATIVE.match(token) or " " in token else ("", None)


def read_argv(argv: list[str]) -> Arguments:
    """The command words and options of argv, read as argparse reads them.
    Help exits 0 with HELP on stdout; a malformed argv exits 2."""
    argv = list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    kinds = [_option(token) for token in argv[:split]]
    words, values, extras = None, {}, []
    i = 0
    while i < len(argv):
        if i == split or kinds[i] is None:   # a run of bare arguments
            end = next((j for j in range(i, split) if kinds[j] is not None), len(argv))
            run = [token for j, token in enumerate(argv[i:end], i) if j != split]
            if words is None and run:
                words = run
            else:
                extras += argv[i:end]
            i = end
            continue
        name, inline = kinds[i]
        i += 1
        if not name:
            extras.append(argv[i - 1])
        elif name in ("-h", "--help"):
            if name == "-h" and inline:
                inline = inline.lstrip("h") or None
            if inline is not None:
                _fail(f"argument -h/--help: ignored explicit argument {inline!r}")
            sys.stdout.write(HELP)
            raise SystemExit(0)
        elif not _OPTIONS[name]:
            if inline is not None:
                _fail(f"argument {name}: ignored explicit argument {inline!r}")
            values["strict_partition"] = True
        else:
            if inline is None:
                if i >= split or kinds[i] is not None:
                    _fail(f"argument {name}: expected one argument")
                inline, i = argv[i], i + 1
            if name == "--seed":
                try:
                    inline = int(inline)
                except ValueError:
                    _fail(f"argument --seed: invalid int value: {inline!r}")
            values[name[2:]] = inline
    if words is None:
        _fail("the following arguments are required: command words")
    if extras:
        _fail(f"unrecognized arguments: {' '.join(extras)}")
    return Arguments(tuple(words), **values)


def _load(raw: bytes) -> dict:
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise DocumentError(f"invalid JSON: {err.msg}", f"line {err.lineno} column {err.colno}") from None
    except UnicodeDecodeError as err:
        raise DocumentError(f"invalid JSON: {err.reason}", f"byte {err.start}") from None
    except ValueError as err:   # an integer past CPython's limit on its digits
        raise DocumentError(f"invalid JSON: {err}", "") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply", "") from None
    return _object(doc, "", "document")


def _error(message: str, location: str) -> dict:
    return {"status": "error", "error": {"message": message, "location": location}}


def _run(command: Command, args, raw: bytes) -> tuple[int, dict]:
    """Exit code and report body of one command on the input bytes."""
    try:
        doc = _load(raw)
        action = None if command.action is None else parse_action(
            _require(doc, command.action), command.action)
        cs = cfg.compute_configurations(_parse_pair(doc, action, "")) if command.pair else None
        status, data, bounds = command.run(args, doc, action, cs)
    except DocumentError as err:
        message, location = err.reason, err.location
    except ValueError as err:
        message, location = str(err), command.where
    except RecursionError:
        message, location = "input nested too deeply", ""
    except BoundExceeded as err:
        return 3, {"status": "bound-exceeded",
                   "error": {"message": str(err), "bound": err.name,
                             "requested": err.requested, "cap": err.cap}}
    else:
        return 0, {"status": status, "data": data, "bounds": bounds}
    return 2, _error(message, location)


_SCALARS = {str, int, bool, type(None)}
_ROWS = {list, tuple}
# json's C encoder, writing an array with one item a line: "[a,\nb]" or "[[a,\nb],\n[c]]"
_encode = c_make_encoder(None, None, encode_basestring_ascii, None, ": ", ",\n", True, False, False)


def _array(value, indent: str):
    """Given a nonempty list, its indented bytes if it holds scalars, or
    nonempty rows of scalars, written by one C-encoder call; else None.
    The encoder escapes every control character in a string, and no scalar
    starts with "[" or ends with "]", so each newline separates two items and
    "],\n[" two rows: one str.replace per level re-indents them."""
    inner = indent + "  "
    types = set(map(type, value))
    if types <= _SCALARS:
        text = "".join(_encode(value, 0))
        return f"[\n{inner}" + text[1:-1].replace("\n", "\n" + inner) + f"\n{indent}]"
    if types <= _ROWS and all(value) and set(map(type, chain.from_iterable(value))) <= _SCALARS:
        cell = inner + "  "
        text = "".join(_encode(value, 0))[2:-2].replace("\n", "\n" + cell)
        rows = text.replace(f"],\n{cell}[", f"\n{inner}],\n{inner}[\n{cell}")
        return f"[\n{inner}[\n{cell}" + rows + f"\n{inner}]\n{indent}]"
    return None


def _json(value, indent: str = "") -> str:
    """The bytes of json.dumps(value, sort_keys=True, indent=2), nested at
    `indent`, for objects with string keys.  Given an indent, json.dumps runs
    the json module's pure-Python encoder; this one pass is faster, and
    writes an array of scalars or of rows of scalars in one C call."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return str(value)
    if type(value) is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{encode_basestring_ascii(key)}: {_json(value[key], inner)}"
                 for key in sorted(value))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = (_json(v, inner) for v in value)
        return _array(value, indent) or f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    return json.dumps(value)


def _report(name: str, seed: int, raw: bytes, body: dict) -> str:
    report = {"command": name, "input_digest": "sha256:" + hashlib.sha256(raw).hexdigest(),
              "seed": seed, **body}
    return _json(report) + "\n"


def main(argv=None) -> int:
    args = read_argv(sys.argv[1:] if argv is None else argv)
    name = " ".join(args.words)
    if name not in COMMANDS:
        _fail(f"unknown command {name!r}; one of: {', '.join(COMMANDS)}")
    started = time.monotonic()
    raw = b""
    try:
        if args.input is not None:
            with open(args.input, "rb") as handle:
                raw = handle.read()
        else:
            raw = sys.stdin.buffer.read()
    except OSError as err:
        code, body = 2, _error(f"cannot read input: {err.strerror or err}", "--input")
    else:
        code, body = _run(COMMANDS[name], args, raw)
    text = _report(name, args.seed, raw, body)
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:   # the report goes to stdout instead
            code, text = 2, _report(name, args.seed, raw, _error(
                f"cannot write output: {err.strerror or err}", "--output"))
        else:
            text = ""
    sys.stdout.write(text)
    print(f"{name}: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
