"""Sectioned text files declaring spaces, classes, counts and commands.

The format is line oriented.  A section starts with a bracketed header and
owns the indented-or-not `key = value` lines up to the next header:

    [space p4blow2]
    [divisor p4blow2_hyperplane in p4blow2]
    [class beta = 4*lambda - 2*eps1 - 2*eps2]
    [invariant main]
    genus = 0
    class = beta
    abs = pt, pt, pi@split, pi@split, pi@split
    [run decompose p4blow2_hyperplane main]

An `abs =` entry is a class of the ambient space or `pull(<divisor
class>)`: the preimage of a class of the divisor, on a `pair =` target
whose ambient is ruled over it.  A trailing `@X`, `@Y` or `@split` places
it for a splitting.

Blank lines and `#` comments are skipped; everything else must parse, and
every diagnostic carries the 1-based line and column it points at.
`parse_key` reads a knowledge-base key (`InvariantSpec.key()`) back into the
count it names, with the same class and contact syntax; a `pb:<class>`
entry is a pulled-back constraint, its class in the divisor's basis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .dimension import (_PLACES, DefinedZero, Insertion, InvariantError,
                        InvariantSpec, check_contact_orders)
from .lattice import GradeError, HomologyClass, cls, gen
from .spaces import CatalogError, DivisorPair, RuledSetup, Space, builtin
from .strata import Contact, LevelComponent, StratumType, neck_model

__all__ = [
    "ScenarioError",
    "RunDirective",
    "Scenario",
    "parse_scenario",
    "parse_key",
]


class ScenarioError(Exception):
    """Parse or resolution failure, pinned to a position in the text."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class RunDirective:
    command: str
    args: tuple[str, ...]
    line: int = field(compare=False, default=0)


@dataclass
class Scenario:
    """Everything a file declares, with all names resolved."""

    spaces: dict[str, Space] = field(default_factory=dict)
    pairs: dict[str, DivisorPair] = field(default_factory=dict)
    classes: dict[str, HomologyClass] = field(default_factory=dict)
    invariants: dict[str, InvariantSpec] = field(default_factory=dict)
    strata: dict[str, StratumType] = field(default_factory=dict)
    runs: tuple[RunDirective, ...] = ()


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_HEADER = re.compile(r"\[\s*(" + _NAME + r")((?:\s+[^\s\]]+)*)\s*\]\s*$")
_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:(?P<num>\d+)(?P<frac>/\d+)?\s*\*\s*)?(?P<name>"
    + _NAME + r")")
_PULL = re.compile(r"pull\(\s*(.*?)\s*\)$")
_RELATIVE = re.compile(r"\(\s*(\d+)\s*,\s*(.*?)\s*\)$")
_KEY = re.compile(r"(?P<head>space|pair):(?P<target>[^;]+);g=(?P<genus>\d+);"
                  r"b=(?P<beta>[^;]*);abs=(?P<abs>[^;]*)(?:;rel=(?P<rel>[^;]*))?")
_COMP_KEYS = ("level", "genus", "class", "alpha", "fiber", "zero", "inf")


def _split_list(text: str, line: int, base_col: int):
    """Comma-split with column tracking; parens shield nested commas.  A
    blank text is the empty list; a blank entry of a longer list, such as
    the one after a trailing comma, is an error at its column.

    A text with no parenthesis, the common case, splits with `str.split`.
    Otherwise parentheses must balance: a `)` with none open is an
    `unbalanced parenthesis` error at its column, and so is a `(` never
    closed, at the column of the outermost one."""
    if not text.strip():
        return []
    if "(" not in text and ")" not in text:
        pieces = text.split(",")
    else:
        pieces, depth, start, opened = [], 0, 0, 0
        for i, ch in enumerate(text):
            if ch == "(":
                if not depth:
                    opened = i
                depth += 1
            elif ch == ")":
                if not depth:
                    raise ScenarioError("unbalanced parenthesis", line,
                                        base_col + i)
                depth -= 1
            elif ch == "," and not depth:
                pieces.append(text[start:i])
                start = i + 1
        if depth:
            raise ScenarioError("unbalanced parenthesis", line,
                                base_col + opened)
        pieces.append(text[start:])
    out, col = [], base_col
    for s in pieces:
        item = s.strip()
        lead = col + len(s) - len(s.lstrip())
        if not item:
            raise ScenarioError("empty list entry", line, lead)
        out.append((item, lead))
        col += len(s) + 1
    return out


def split_lines(text: str) -> list[str]:
    """The lines of `text`, broken at line feeds, carriage returns and CR LF
    pairs only: the lines a file opened in text mode yields.
    `str.splitlines` also breaks at form feeds, U+0085, U+2028 and other
    separators that such a read keeps inside a line, so every line number
    after one would point past the line it names."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


class _Parser:
    """One scenario text, scanned once.

    The scan keeps `lines` (the text's lines, for the header of a
    `[class]` section) and `rows`: one `(lineno, text, col)` per line that
    is not blank once its `#` comment is cut, where `text` is what remains,
    stripped, and `col` the 1-based column it starts at.  `parse` walks the
    rows; a section's body is the slice of rows up to the next row that
    starts with `[`.
    """

    def __init__(self, text: str):
        self.lines = split_lines(text)
        self.rows = []
        for lineno, raw in enumerate(self.lines, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                self.rows.append((lineno, text, raw.find(text[0]) + 1))
        self.sc = Scenario()
        self.runs: list[RunDirective] = []
        # which space owns each class
        self.class_owner: dict[str, str] = {}
        self.current_space: str | None = None

    # -- lattice-level pieces ------------------------------------------

    def fail(self, message, line, col=1):
        raise ScenarioError(message, line, col)

    def parse_comb(self, basis, text, line, col) -> HomologyClass:
        """Integer combination of basis generators, e.g. 2*lambda - eps1,
        or 0 for the zero class.  A bare generator name, the commonest
        text, is read straight from the basis without the term loop."""
        if text in basis._index:
            return gen(basis, text)
        if text == "0":
            return cls(basis, {})
        pos, coeffs = 0, {}
        while pos < len(text):
            m = _TERM.match(text, pos)
            if not m:
                self.fail("expected a class term", line, col + pos)
            if m.group("frac"):
                self.fail("non-integer class coefficient "
                          f"{m.group('num')}{m.group('frac')}",
                          line, col + m.start("num"))
            name = m.group("name")
            if name not in basis._index:
                self.fail(f"unknown generator {name!r} in basis {basis.name}",
                          line, col + m.start("name"))
            k = int(m.group("num") or 1)
            if m.group("sign") == "-":
                k = -k
            if pos > 0 and not m.group("sign"):
                self.fail("missing + or - between terms", line, col + m.start())
            coeffs[name] = coeffs.get(name, 0) + k
            pos = m.end()
        if not coeffs:
            self.fail("empty class expression", line, col)
        try:
            return cls(basis, coeffs)
        except GradeError as e:
            self.fail(str(e), line, col)

    def resolve_class(self, space, text, line, col) -> HomologyClass:
        """A declared class name, a generator, or an inline combination."""
        if text in self.sc.classes:
            c = self.sc.classes[text]
            if c.basis is not space.basis:
                self.fail(f"class {text!r} lives in {c.basis.name}, "
                          f"not {space.basis.name}", line, col)
            return c
        return self.parse_comb(space.basis, text, line, col)

    def resolve_curve(self, key, space, text, line, col) -> HomologyClass:
        """resolve_class for the `key=` field, which takes a curve class:
        zero (degree-zero counts) or of grade 1."""
        c = self.resolve_class(space, text, line, col)
        if not c.is_zero and c.grade != 1:
            self.fail(f"{key} must be a curve class, got grade {c.grade}",
                      line, col)
        return c

    def parse_insertion(self, target, text, line, col) -> Insertion:
        """One absolute constraint on `target`, a Space or a DivisorPair:
        `pull(c)` reads c in the divisor of a pair with `ruled`, anything
        else is a class of the ambient space."""
        place = "X"
        at = text.rfind("@")
        if at >= 0 and "(" not in text[at:]:
            tag = text[at + 1:].strip()
            if tag not in _PLACES:
                self.fail(f"unknown placement {tag!r} (use X, Y or split)",
                          line, col + at + 1)
            place = tag
            text = text[:at].rstrip()
        pulled = False
        space = target.ambient if isinstance(target, DivisorPair) else target
        m = _PULL.match(text)
        if m:
            if not isinstance(target, DivisorPair) or target.ruled is None:
                self.fail(f"pull() needs a pair= target whose ambient is "
                          f"ruled over the divisor, not {target.name}",
                          line, col)
            pulled = True
            space, text, col = target.divisor, m.group(1), col + m.start(1)
        c = self.resolve_class(space, text, line, col)
        try:
            return Insertion(c, pulled_back=pulled, place=place)
        except InvariantError as e:
            self.fail(str(e), line, col)

    def parse_relative(self, divisor, text, line, col) -> Insertion:
        m = _RELATIVE.match(text)
        if not m:
            self.fail("relative entries look like (order, class)", line, col)
        c = self.resolve_class(divisor, m.group(2), line, col + m.start(2))
        try:
            return Insertion(c, order=int(m.group(1)))
        except InvariantError as e:
            self.fail(str(e), line, col)

    def insertions(self, parse, owner, value, line, col) -> list[Insertion]:
        """The entries of one `abs =` or `rel =` list, each read by
        `parse(owner, text, line, col)`.  An entry whose text repeats is the
        Insertion its first occurrence built: the text alone decides it,
        and the first occurrence raises any error it has."""
        built: dict[str, Insertion] = {}
        out = []
        for text, tcol in _split_list(value, line, col):
            ins = built.get(text)
            if ins is None:
                ins = built[text] = parse(owner, text, line, tcol)
            out.append(ins)
        return out

    def parse_contact(self, divisor, text, line, col) -> Contact:
        parts = text.split(":")
        if len(parts) not in (2, 3) or not parts[0].strip().isdecimal():
            self.fail("contacts look like mult:node or mult:node:class",
                      line, col)
        constraint = None
        if len(parts) == 3:
            ccol = col + len(parts[0]) + len(parts[1]) + 2
            constraint = self.resolve_class(divisor, parts[2].strip(), line,
                                            ccol)
            if constraint.is_zero:
                self.fail("contact constraints must be nonzero", line, ccol)
        try:
            return Contact(parts[1].strip(), int(parts[0]), constraint)
        except InvariantError as e:
            self.fail(str(e), line, col)

    # -- catalog lookups -----------------------------------------------

    def lookup(self, kind, name, line, col):
        try:
            obj = builtin(name)
        except CatalogError:
            self.fail(f"unknown {kind} id {name!r}", line, col)
        if kind == "space" and not isinstance(obj, Space):
            self.fail(f"{name!r} is not a space id", line, col)
        if kind == "divisor" and not isinstance(obj, DivisorPair):
            self.fail(f"{name!r} is not a divisor pair id", line, col)
        return obj

    def named_space(self, name, line, col) -> Space:
        if name in self.sc.spaces:
            return self.sc.spaces[name]
        self.fail(f"unknown space {name!r} (declare it with [space ...])",
                  line, col)

    def named_pair(self, name, line, col) -> DivisorPair:
        if name in self.sc.pairs:
            return self.sc.pairs[name]
        obj = self.lookup("divisor", name, line, col)
        return obj

    def fresh(self, name, line, col):
        for held in (self.sc.spaces, self.sc.pairs, self.sc.classes,
                     self.sc.invariants, self.sc.strata):
            if name in held:
                self.fail(f"duplicate name {name!r}", line, col)

    # -- sections --------------------------------------------------------

    def parse(self) -> Scenario:
        rows, i = self.rows, 0
        while i < len(rows):
            header_line, text, col = rows[i]
            m = _HEADER.match(text)
            if not m:
                self.fail("expected a [section] header", header_line, col)
            kind, args = m.group(1), m.group(2).split()
            i += 1
            start = i
            while i < len(rows) and not rows[i][1].startswith("["):
                i += 1
            handler = getattr(self, "section_" + kind, None)
            if handler is None:
                self.fail(f"unknown section kind {kind!r}", header_line, 2)
            handler(args, header_line, rows[start:i])
        self.sc.runs = tuple(self.runs)
        return self.sc

    def key_value(self, text, lineno, col, allowed, seen):
        """Split a `key = value` row into (key, value, value column); the
        key must be in `allowed` and not yet in `seen`.  The row's text is
        stripped already, so only the sides of the `=` need it."""
        key, eq, value = text.partition("=")
        if not eq:
            self.fail("expected key = value", lineno, col)
        vcol = col + len(key) + 1
        key = key.rstrip()
        if key not in allowed:
            self.fail(f"unknown field {key!r}", lineno, col)
        if key in seen:
            self.fail(f"duplicate field {key!r}", lineno, col)
        stripped = value.lstrip()
        return key, stripped, vcol + len(value) - len(stripped)

    def fields(self, body, allowed):
        out = {}
        for lineno, text, col in body:
            key, value, vcol = self.key_value(text, lineno, col, allowed, out)
            out[key] = (value, lineno, vcol)
        return out

    def section_space(self, args, line, body):
        if len(args) != 1:
            self.fail("usage: [space <catalog-id>]", line)
        if body:
            self.fail("[space] sections take no body", body[0][0], body[0][2])
        name = args[0]
        self.fresh(name, line, 2)
        self.sc.spaces[name] = self.lookup("space", name, line, 2)
        self.current_space = name

    def section_divisor(self, args, line, body):
        if len(args) != 3 or args[1] != "in":
            self.fail("usage: [divisor <pair-id> in <space>]", line)
        if body:
            self.fail("[divisor] sections take no body", body[0][0], body[0][2])
        name, ambient_name = args[0], args[2]
        self.fresh(name, line, 2)
        ambient = self.named_space(ambient_name, line, 2)
        pair = self.lookup("divisor", name, line, 2)
        if pair.ambient is not ambient:
            self.fail(f"pair {name!r} sits in {pair.ambient.name}, "
                      f"not {ambient_name}", line, 2)
        self.sc.pairs[name] = pair

    def section_class(self, args, line, body):
        if len(args) < 3 or args[1] != "=":
            self.fail("usage: [class <name> = <combination>]", line)
        if body:
            self.fail("[class] sections take no body", body[0][0], body[0][2])
        name = args[0]
        self.fresh(name, line, 2)
        if self.current_space is None:
            self.fail("declare a [space] before classes", line, 2)
        space = self.sc.spaces[self.current_space]
        raw = self.lines[line - 1].split("#", 1)[0]
        col = raw.index("=") + 2
        comb = raw[col - 1:].rsplit("]", 1)[0].strip()
        col += len(raw[col - 1:]) - len(raw[col - 1:].lstrip())
        c = self.parse_comb(space.basis, comb, line, col)
        self.sc.classes[name] = c
        self.class_owner[name] = self.current_space

    def section_invariant(self, args, line, body):
        if len(args) != 1:
            self.fail("usage: [invariant <name>]", line)
        name = args[0]
        self.fresh(name, line, 2)
        got = self.fields(body, ("space", "pair", "genus", "class", "abs",
                                 "rel"))
        if "space" in got and "pair" in got:
            self.fail("give space= or pair=, not both", got["pair"][1], 1)
        if "genus" not in got or "class" not in got:
            self.fail("invariants need genus= and class=", line, 1)

        if "pair" in got:
            value, lineno, col = got["pair"]
            target = self.named_pair(value, lineno, col)
            space = target.ambient
        elif "space" in got:
            value, lineno, col = got["space"]
            target = self.named_space(value, lineno, col)
            space = target
        else:
            # fall back to the space the named class was declared in
            cname = got["class"][0]
            owner = self.class_owner.get(cname, self.current_space)
            if owner is None:
                self.fail("no space in scope; add space= or pair=", line, 1)
            target = space = self.sc.spaces[owner]

        value, lineno, col = got["genus"]
        if not value.isdecimal():
            self.fail("genus must be a non-negative integer", lineno, col)
        genus = int(value)

        value, lineno, col = got["class"]
        beta = self.resolve_curve("class", space, value, lineno, col)

        absolutes = []
        if "abs" in got:
            absolutes = self.insertions(self.parse_insertion, target,
                                        *got["abs"])

        relatives = []
        if "rel" in got:
            if "pair" not in got:
                self.fail("rel= needs a pair= target", got["rel"][1], got["rel"][2])
            relatives = self.insertions(self.parse_relative, target.divisor,
                                        *got["rel"])

        try:
            spec = InvariantSpec(target, genus, beta, tuple(absolutes),
                                 tuple(relatives))
        except InvariantError as e:
            self.fail(str(e), line, 1)
        if spec.pair is not None:
            try:
                check_contact_orders(spec)
            except DefinedZero:
                pass        # a verdict, which the commands report
            except InvariantError as e:
                _, lineno, col = got.get("rel", got["pair"])
                self.fail(str(e), lineno, col)
        self.sc.invariants[name] = spec

    def section_stratum(self, args, line, body):
        if len(args) != 1:
            self.fail("usage: [stratum <name>]", line)
        name = args[0]
        self.fresh(name, line, 2)

        pair = None
        comps: list[LevelComponent] = []
        matchings: list[tuple[str, str]] = []
        insertions: list[Insertion] = []
        nodes: set[str] = set()
        seen: set[str] = set()

        for lineno, text, col in body:
            if text.startswith("comp "):
                if pair is None:
                    self.fail("set pair= before components", lineno, col)
                comps.append(self.parse_component(pair, text[5:], lineno,
                                                  col + 5, nodes))
                continue
            key, value, vcol = self.key_value(text, lineno, col,
                                              ("pair", "match", "abs"), seen)
            seen.add(key)
            if key == "pair":
                pair = self.named_pair(value, lineno, vcol)
            elif key == "match":
                for item, icol in _split_list(value, lineno, vcol):
                    if "->" not in item:
                        self.fail("matchings look like node->node", lineno, icol)
                    a, b = (s.strip() for s in item.split("->", 1))
                    for node in (a, b):
                        if node not in nodes:
                            self.fail(f"unknown node {node!r}", lineno, icol)
                    matchings.append((a, b))
            else:
                if pair is None:
                    self.fail("set pair= before abs", lineno, col)
                insertions = self.insertions(self.parse_insertion, pair,
                                             value, lineno, vcol)

        if pair is None:
            self.fail("strata need a pair= line", line, 1)
        try:
            stratum = StratumType(pair, tuple(comps), tuple(matchings),
                                  tuple(insertions))
        except InvariantError as e:
            self.fail(str(e), line, 1)
        self.sc.strata[name] = stratum

    def parse_component(self, pair, text, lineno, col, nodes) -> LevelComponent:
        got = {}
        for m in re.finditer(r"\S+", text):
            chunk, ccol = m.group(), col + m.start()
            if "=" not in chunk:
                self.fail("component fields look like key=value", lineno, ccol)
            key, value = chunk.split("=", 1)
            if key not in _COMP_KEYS:
                self.fail(f"unknown component field {key!r}", lineno, ccol)
            if key in got:
                self.fail(f"duplicate component field {key!r}", lineno, ccol)
            got[key] = (value, ccol + len(key) + 1)

        def number(key):
            value, vcol = got.get(key, ("0", col))
            if not value.isdecimal():
                self.fail(f"{key} must be a non-negative integer", lineno, vcol)
            return int(value)

        if "level" not in got:
            self.fail("components need level=<int>", lineno, col)
        level, genus, fiber = number("level"), number("genus"), number("fiber")
        if level >= 1:
            try:
                neck_model(pair)
            except InvariantError as e:
                self.fail(str(e), lineno, got["level"][1])

        def contacts(key):
            out = []
            value, vcol = got.get(key, ("", col))
            for item, icol in _split_list(value, lineno, vcol):
                c = self.parse_contact(pair.divisor, item, lineno, icol)
                if c.node in nodes:
                    self.fail(f"duplicate node {c.node!r}", lineno, icol)
                nodes.add(c.node)
                out.append(c)
            return tuple(out)

        zero, inf = contacts("zero"), contacts("inf")
        try:
            if level == 0:
                if "class" not in got:
                    self.fail("level-0 components need class=", lineno, col)
                c = self.resolve_curve("class", pair.ambient, got["class"][0],
                                       lineno, got["class"][1])
                return LevelComponent(0, genus, cls=c, zero=zero, inf=inf)
            if "alpha" not in got:
                self.fail("positive-level components need alpha=", lineno, col)
            alpha = self.resolve_curve("alpha", pair.divisor, got["alpha"][0],
                                       lineno, got["alpha"][1])
            return LevelComponent(level, genus, alpha=alpha, fiber=fiber,
                                  zero=zero, inf=inf)
        except InvariantError as e:
            self.fail(str(e), lineno, col)

    def section_run(self, args, line, body):
        if body:
            self.fail("[run] sections take no body", body[0][0], body[0][2])
        if not args:
            self.fail("usage: [run <command> <args...>]", line)
        self.runs.append(RunDirective(args[0], tuple(args[1:]), line))


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario file; empty text gives an empty scenario."""
    return _Parser(text).parse()


def parse_key(text: str, line: int) -> InvariantSpec:
    """The count a knowledge-base key names, read back from the form that
    `InvariantSpec.key()` writes (`pb:` prefixes a pulled-back constraint,
    whose class is in the divisor's basis).
    A ScenarioError points into `line`, with the key as its first column,
    at the entry at fault when the text names no count.  The text need not
    be canonical: the spec's own key says what it should read."""
    p = _Parser("")
    m = _KEY.fullmatch(text)
    if m is None:
        p.fail("keys look like space:<id>;g=<genus>;b=<class>;abs=<list>, "
               "with ;rel=<list> after a pair:<id>", line)
    head, col = m["head"], m.start("target") + 1
    if (head == "pair") != (m["rel"] is not None):
        p.fail("pair keys end in ;rel=<list> and space keys do not", line)
    try:
        target = builtin(m["target"])
    except CatalogError:
        p.fail(f"unknown {head} id {m['target']!r}", line, col)
    if isinstance(target, RuledSetup):
        target = target.total if head == "space" else target.infinity_pair
    if not isinstance(target, Space if head == "space" else DivisorPair):
        p.fail(f"{m['target']!r} is not a {head} id", line, col)
    space = target if head == "space" else target.ambient
    beta = p.resolve_curve("b", space, m["beta"], line, m.start("beta") + 1)
    genus = int(m["genus"])
    absolutes = []
    for token, tcol in _split_list(m["abs"], line, m.start("abs") + 1):
        pulled = token.startswith("pb:")
        skip = 3 if pulled else 0
        basis = (target.divisor.basis if pulled and head == "pair"
                 else space.basis)
        c = p.parse_comb(basis, token[skip:], line, tcol + skip)
        try:
            ins = Insertion(c, pulled_back=pulled)
            # the spec's rules on this entry alone, so an error points at it
            InvariantSpec(target, genus, beta, (ins,))
        except InvariantError as e:
            p.fail(str(e), line, tcol)
        absolutes.append(ins)
    relatives = []
    if head == "pair":
        relatives = [p.parse_relative(target.divisor, token, line, tcol)
                     for token, tcol in _split_list(m["rel"], line,
                                                    m.start("rel") + 1)]
    try:
        return InvariantSpec(target, genus, beta, tuple(absolutes),
                             tuple(relatives))
    except InvariantError as e:
        p.fail(str(e), line)
