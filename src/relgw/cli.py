"""Command-line front end: run scenario files through the engines.

Commands work over a parsed scenario and print deterministic reports:

    relgw dim FILE NAME          raw and expected dimension with codims
    relgw index FILE [NAME...]   canonical key and index per stratum
    relgw vanish FILE NAME       structural verdict with its trace
    relgw eval FILE NAME         evaluator value with its derivation trace
    relgw decompose FILE SETUP NAME   splitting ledger (tab separated)
    relgw run FILE               execute the file's [run] directives
    relgw verify                 the full regression suite, pass/fail lines

Exit status is 0 only when every command succeeded (and, for verify,
every check passed).
"""

from __future__ import annotations

import argparse
import sys

from .decompose import Bounds, DecompositionError, evaluate_decomposition
from .dimension import (DefinedZero, InvariantError, constraint_codim,
                        expected_dimension, raw_dimension)
from .kbeval import EvalError, Evaluator, KnowledgeBase, Value, seed_table
from .scenario import Scenario, ScenarioError, parse_scenario
from .spaces import CatalogError, builtin
from .strata import multilevel_index, stratum_flags, stratum_key, validate
from .vanishing import decide

__all__ = ["CommandError", "run", "main"]


class CommandError(Exception):
    pass


def _invariant(scenario: Scenario, name: str):
    if name not in scenario.invariants:
        raise CommandError(f"unknown invariant {name!r}")
    return scenario.invariants[name]


def _knowledge(options) -> KnowledgeBase:
    kb = seed_table()
    path = options.get("kb")
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise CommandError(f"cannot read kb file: {e}")
        try:
            kb.load(text)
        except ScenarioError as e:
            raise CommandError(f"kb file {path}: {e}") from e
    return kb


def _bounds(options) -> Bounds | None:
    """The budgets given as options; `Bounds` defaults fill the rest."""
    given = {field: options[name]
             for name, field in (("area_budget", "area"),
                                 ("max_terms", "max_terms"))
             if options.get(name) is not None}
    return Bounds(**given) if given else None


# -- individual commands -------------------------------------------------


def cmd_dim(scenario, args, options):
    if len(args) != 1:
        raise CommandError("usage: dim <invariant>")
    spec = _invariant(scenario, args[0])
    lines = [f"invariant {args[0]}", f"key {spec.key()}"]
    try:
        lines.append(f"raw {raw_dimension(spec)}")
    except DefinedZero as e:
        lines.append(f"raw none ({e})")
        lines.append("expected none (count is zero by definition)")
        return "\n".join(lines) + "\n", 0
    for ins in scenario.written.get(args[0], spec.absolutes + spec.relatives):
        lines.append(f"constraint {ins.token()} codim "
                     f"{constraint_codim(ins, spec.n)}")
    lines.append(f"expected {expected_dimension(spec)}")
    return "\n".join(lines) + "\n", 0


def cmd_vanish(scenario, args, options):
    if len(args) != 1:
        raise CommandError("usage: vanish <invariant>")
    spec = _invariant(scenario, args[0])
    verdict = decide(spec)
    lines = [f"invariant {args[0]}", f"key {spec.key()}",
             f"verdict {verdict.describe()}"]
    lines += [f"trace {t}" for t in verdict.trace]
    return "\n".join(lines) + "\n", 0


def cmd_eval(scenario, args, options):
    if len(args) != 1:
        raise CommandError("usage: eval <invariant>")
    spec = _invariant(scenario, args[0])
    result = Evaluator(_knowledge(options)).evaluate(spec)
    lines = [f"invariant {args[0]}", f"key {spec.key()}"]
    if isinstance(result, Value):
        lines.append(f"value {result.value}")
        lines += [f"trace {t}" for t in result.trace]
    else:
        lines.append("value unknown")
        lines += [f"blocker {b}" for b in result.blockers]
    return "\n".join(lines) + "\n", 0


def cmd_index(scenario, args, options):
    names = list(args) or list(scenario.strata)
    if not names:
        raise CommandError("the file declares no strata")
    cap = options.get("max_levels")
    lines, status = [], 0
    for name in names:
        if name not in scenario.strata:
            raise CommandError(f"unknown stratum {name!r}")
        s = scenario.strata[name]
        lines.append(f"stratum {name}")
        lines.append(f"key {stratum_key(s)}")
        if cap is not None and s.depth > cap:
            lines.append(f"issue depth {s.depth} exceeds --max-levels {cap}")
            status = 1
            continue
        issues = validate(s)
        if issues:
            lines += [f"issue {t}" for t in issues]
            status = 1
            continue
        lines.append(f"index {multilevel_index(s)}")
        lines += [f"flag {f}" for f in stratum_flags(s)]
    return "\n".join(lines) + "\n", status


def _setup(scenario, name):
    key = name if name.startswith("fibersum_of:") else f"fibersum_of:{name}"
    try:
        return builtin(key)
    except CatalogError as e:
        raise CommandError(f"fiber-sum setup {name!r}: {e}")


def cmd_decompose(scenario, args, options):
    if len(args) != 2:
        raise CommandError("usage: decompose <setup> <invariant>")
    setup = _setup(scenario, args[0])
    spec = _invariant(scenario, args[1])
    try:
        ledger = evaluate_decomposition(
            setup, spec, bounds=_bounds(options), kb=_knowledge(options))
    except DecompositionError as e:
        raise CommandError(str(e))
    return ledger.dump(), 0


def cmd_run(scenario, args, options):
    """Each directive's report in file order; a CommandError a directive
    raises is pinned to its line as a ScenarioError."""
    if args:
        raise CommandError("run takes no extra arguments")
    if not scenario.runs:
        raise CommandError("the file declares no [run] directives")
    chunks, status = [], 0
    for directive in scenario.runs:
        try:
            if directive.command == "run":
                raise CommandError("run directives cannot nest")
            text, code = run(directive.command, scenario,
                             directive.args, **options)
        except CommandError as e:
            raise ScenarioError(str(e), directive.line, 2) from e
        head = " ".join((directive.command,) + directive.args)
        chunks.append(f"== {head}\n{text}")
        status = max(status, code)
    return "".join(chunks), status


def cmd_verify(scenario, args, options):
    from .acceptance import run_all
    results = run_all(golden=options.get("golden"))
    lines, failed = [], 0
    for name, ok, detail in results:
        if ok:
            lines.append(f"ok   {name}")
        else:
            failed += 1
            lines.append(f"FAIL {name}: {detail}")
    lines.append(f"passed {len(results) - failed}/{len(results)}")
    return "\n".join(lines) + "\n", 0 if failed == 0 else 1


_COMMANDS = {
    "dim": cmd_dim,
    "index": cmd_index,
    "vanish": cmd_vanish,
    "eval": cmd_eval,
    "decompose": cmd_decompose,
    "run": cmd_run,
    "verify": cmd_verify,
}


def run(command: str, scenario: Scenario, args=(), **options):
    """Execute one command against a parsed scenario.

    Returns (report text, exit status).  Unknown names and malformed
    arguments raise CommandError.
    """
    if command not in _COMMANDS:
        raise CommandError(f"unknown command {command!r}")
    return _COMMANDS[command](scenario, tuple(args), options)


# -- argument parsing ------------------------------------------------------


def _at_least(least: int):
    """An argument type: an integer no smaller than `least`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {least}, got {text!r}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relgw",
        description="dimension, vanishing and splitting reports for "
                    "curve counts relative a divisor")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *positional, scenario=True, kb=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if scenario:
            p.add_argument("scenario", help="scenario file")
        for arg in positional:
            p.add_argument(arg)
        if kb:
            p.add_argument("--kb", metavar="FILE",
                           help="extra knowledge-base entries to import, one "
                                "key<TAB>p/q<TAB>provenance line each")
        return p

    add("dim", "invariant", help="print raw/expected dimensions")
    p = add("index", help="print stratum keys and indices")
    p.add_argument("names", nargs="*", metavar="stratum")
    p.add_argument("--max-levels", type=_at_least(0), metavar="K")
    add("vanish", "invariant", help="print the structural verdict")
    add("eval", "invariant", kb=True, help="evaluate through the knowledge base")
    p = add("decompose", "setup", "invariant", kb=True,
            help="print a splitting ledger")
    p.add_argument("--area-budget", type=_at_least(0), metavar="A")
    p.add_argument("--max-terms", type=_at_least(1), metavar="N")
    p = add("run", kb=True, help="execute the file's [run] directives")
    p.add_argument("--area-budget", type=_at_least(0), metavar="A")
    p.add_argument("--max-terms", type=_at_least(1), metavar="N")
    p.add_argument("--max-levels", type=_at_least(0), metavar="K")
    p = add("verify", scenario=False, help="run the full regression suite")
    p.add_argument("--golden", metavar="DIR",
                   help="directory of expected ledger reports")
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    options = {k: v for k, v in vars(ns).items()
               if k not in ("command", "scenario", "invariant", "setup",
                            "names")}
    scenario = Scenario()
    if getattr(ns, "scenario", None) is not None:
        try:
            with open(ns.scenario, encoding="utf-8") as fh:
                scenario = parse_scenario(fh.read())
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        except (ScenarioError, UnicodeDecodeError) as e:
            print(f"error: {ns.scenario}: {e}", file=sys.stderr)
            return 2

    if ns.command == "dim" or ns.command == "vanish" or ns.command == "eval":
        args = (ns.invariant,)
    elif ns.command == "decompose":
        args = (ns.setup, ns.invariant)
    elif ns.command == "index":
        args = tuple(ns.names)
    else:
        args = ()

    try:
        text, status = run(ns.command, scenario, args, **options)
    except ScenarioError as e:
        print(f"error: {ns.scenario}: {e}", file=sys.stderr)
        return 2
    except (CommandError, InvariantError, DecompositionError, EvalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
