import io
import re
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from relgw import cli
from relgw.dimension import Insertion, InvariantSpec
from relgw.lattice import cls
from relgw.scenario import (_HEADER, ScenarioError, _Parser, _split_list,
                             parse_scenario)
from relgw.spaces import CatalogError, builtin
from relgw.strata import stratum_key
from test_shipped_outputs import BRACKETS, bracket_text

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

ZERO_CLASS = """\
[space p3]
[invariant triple]
space = p3
genus = 0
class = 0
abs = pi, pi, pi
"""

STRATUM = """\
[space p2]
[divisor p2_hyperplane in p2]
[stratum s]
pair = p2_hyperplane
comp {}
"""


# -- the zero class -------------------------------------------------------


def test_zero_class_round_trip():
    # `class = 0` parses to the zero class, whose text form is that 0 again
    beta = parse_scenario(ZERO_CLASS).invariants["triple"].beta
    assert beta.is_zero
    assert beta.encode() == "0"


# -- any text parses or fails with a ScenarioError -----------------------

SHIPPED = [p.read_text(encoding="utf-8").splitlines()
           for p in sorted(SCENARIOS.glob("*.gw"))]
TOKENS = sorted({tok for lines in SHIPPED for line in lines
                 for tok in re.split(r"(\W)", line) if tok})


@st.composite
def edited_scenarios(draw, files, least):
    """One of `files` with `least` to 3 lines dropped, copied or spliced."""
    lines = list(draw(st.sampled_from(files)))
    for _ in range(draw(st.integers(least, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "copy", "splice")))
        if kind == "drop":
            del lines[i]
        elif kind == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        else:
            line = lines[i]
            j = draw(st.integers(0, len(line)))
            k = draw(st.integers(j, len(line)))
            piece = draw(st.sampled_from(TOKENS) | st.text(max_size=4))
            lines[i] = line[:j] + piece + line[k:]
    return "\n".join(lines)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(edited_scenarios(SHIPPED, 0) | st.text(max_size=80))
def test_any_text_parses_or_raises_scenario_error(text):
    try:
        parse_scenario(text)
    except ScenarioError:
        pass


# -- malformed component lines fail at a position ------------------------


@pytest.mark.parametrize("before, after", [
    ("level=0 genus=", "x class=lambda inf=1:a"),
    ("level=0 genus=", "\u00b2 class=lambda inf=1:a"),
    ("level=1 genus=0 alpha=fund fiber=", "z zero=1:b inf=1:c"),
    ("level=", "x class=lambda inf=1:a"),
    ("level=0 genus=0 class=lambda inf=", "0:a"),
    ("level=0 ", "genis=1 class=lambda inf=1:a"),
    ("level=0 genus=0 class=lambda inf=1:a:", "0"),
], ids=["genus", "genus-superscript", "fiber", "level", "zero-mult",
        "unknown-key", "zero-constraint"])
def test_malformed_component_is_positioned(before, after):
    """The error points at the first character of `after`."""
    with pytest.raises(ScenarioError) as info:
        parse_scenario(STRATUM.format(before + after))
    assert (info.value.line, info.value.col) == (5, len("comp " + before) + 1)


# -- every parser diagnostic carries its line and column -------------------

P3 = "[space p3]\n"
P3_INVARIANT = P3 + "[invariant x]\nspace = p3\ngenus = 0\n"
P2_PAIR = "[space p2]\n[divisor p2_hyperplane in p2]\n"
P2_STRATUM = P2_PAIR + "[stratum s]\npair = p2_hyperplane\n"
P2_NODE = P2_STRATUM + "comp level=0 genus=0 class=lambda inf=1:a\n"
P2_CUBIC = (P2_PAIR + "[invariant x]\npair = p2_hyperplane\ngenus = 0\n"
            "class = 3*lambda\n")

MALFORMED = {
    "fraction": (P3 + "[class b = 1/2*lambda]\n",
                 2, 12, "non-integer class coefficient 1/2"),
    "no-sign": (P3_INVARIANT + "class = lambda pi\n",
                5, 15, "missing + or - between terms"),
    "empty-class": (P3_INVARIANT + "class =\n", 5, 8, "empty class expression"),
    "bad-term": (P3_INVARIANT + "class = lambda + 2\n",
                 5, 15, "expected a class term"),
    "unknown-generator": (P3_INVARIANT + "class = lambda + eps\n",
                          5, 18, "unknown generator 'eps' in basis p3"),
    "wrong-basis": ("[space p2]\n[class c = lambda]\n" + P3_INVARIANT
                    + "class = c\n", 7, 9, "class 'c' lives in p2, not p3"),
    "placement": (P3_INVARIANT + "class = lambda\nabs = pt, pt@Z\n",
                  6, 14, "unknown placement 'Z' (use X, Y or split)"),
    "relative": (P2_PAIR + "[invariant x]\npair = p2_hyperplane\ngenus = 0\n"
                 "class = lambda\nrel = (x, pt)\n",
                 7, 7, "relative entries look like (order, class)"),
    # the contact orders of a relative count add up to the class's
    # meeting number with the divisor, checked where the count is read
    "contact-sum": (P2_CUBIC + "rel = (2,fund)\n",
                    7, 7, "contact orders must sum to 3"),
    "contact-sum-empty": (P2_CUBIC + "rel =\n",
                          7, 6, "contact orders must sum to 3"),
    "contact-sum-absent": (P2_CUBIC, 4, 8, "contact orders must sum to 3"),
    "rel-needs-pair": (P3_INVARIANT + "class = lambda\nrel = (1, pt)\n",
                       6, 7, "rel= needs a pair= target"),
    "contact": (P2_STRATUM + "comp level=0 class=lambda inf=a\n",
                5, 31, "contacts look like mult:node or mult:node:class"),
    "space-id": ("[space p2_hyperplane]\n",
                 1, 2, "'p2_hyperplane' is not a space id"),
    "pair-id": ("[space p2]\n[divisor p3 in p2]\n",
                2, 2, "'p3' is not a divisor pair id"),
    "unknown-id": ("[space p9]\n", 1, 2, "unknown space id 'p9'"),
    "id-case": ("[space P2]\n", 1, 2, "unknown space id 'P2'"),
    "id-paren": ("[space p2)]\n", 1, 2, "unknown space id 'p2)'"),
    "id-alias": ("[space pn:2]\n", 1, 2, "unknown space id 'pn:2'"),
    "unknown-space": (P3 + "[divisor p2_hyperplane in p2]\n",
                      2, 2, "unknown space 'p2' (declare it with [space ...])"),
    "pair-space": (P3 + "[divisor p2_hyperplane in p3]\n",
                   2, 2, "pair 'p2_hyperplane' sits in p2, not p3"),
    "space-and-pair": (P2_PAIR + "[invariant x]\nspace = p2\n"
                       "pair = p2_hyperplane\ngenus = 0\nclass = lambda\n",
                       5, 1, "give space= or pair=, not both"),
    "genus": (P3 + "[invariant x]\nspace = p3\ngenus = -1\nclass = lambda\n",
              4, 9, "genus must be a non-negative integer"),
    "needs-genus": (P3 + "[invariant x]\nspace = p3\nclass = lambda\n",
                    2, 1, "invariants need genus= and class="),
    "no-space": ("[invariant x]\ngenus = 0\nclass = lambda\n",
                 1, 1, "no space in scope; add space= or pair="),
    "connected": (P3_INVARIANT + "class = lambda\nabs = pt, pt, pi\n"
                  "connected = false\n", 7, 1, "unknown field 'connected'"),
    "matching": (P2_NODE + "match = a-b\n",
                 6, 9, "matchings look like node->node"),
    "unknown-node": (P2_NODE + "match = a->b\n", 6, 9, "unknown node 'b'"),
    "stratum-pair": ("[stratum s]\n", 1, 1, "strata need a pair= line"),
    "comp-before-pair": (P2_PAIR + "[stratum s]\ncomp level=0 class=lambda\n",
                         4, 1, "set pair= before components"),
    "level-zero-class": (P2_STRATUM + "comp level=0 genus=0 inf=1:a\n",
                         5, 6, "level-0 components need class="),
    "level-alpha": (P2_STRATUM + "comp level=1 fiber=1 zero=1:a inf=1:b\n",
                    5, 6, "positive-level components need alpha="),
    "class-grade": (P3_INVARIANT + "class = pt\n",
                    5, 9, "class must be a curve class, got grade 0"),
    "class-fund": (P3_INVARIANT + "class = fund\n",
                   5, 9, "class must be a curve class, got grade 3"),
    "level-zero-class-grade": (P2_STRATUM + "comp level=0 class=pt inf=1:a\n",
                               5, 20, "class must be a curve class, got grade 0"),
    # positive levels live in the neck model, which a point divisor lacks
    "neck-model": ("[space p1]\n[divisor p1_point in p1]\n[stratum s]\n"
                   "pair = p1_point\n"
                   "comp level=0 genus=0 class=fund inf=1:a\n"
                   "comp level=1 genus=0 alpha=0 fiber=1 zero=1:b inf=1:c\n"
                   "match = a->b\n",
                   6, 12, "no neck model below dimension 2"),
    "alpha-grade": (P2_STRATUM
                    + "comp level=1 alpha=pt fiber=1 zero=1:a inf=1:b\n",
                    5, 20, "alpha must be a curve class, got grade 0"),
    "empty-run": ("[run]\n", 1, 1, "usage: [run <command> <args...>]"),
    "header": ("genus = 0\n" + P3, 1, 1, "expected a [section] header"),
    "space-body": (P3 + "genus = 0\n", 2, 1, "[space] sections take no body"),
    "section-kind": ("[spaces p3]\n", 1, 2, "unknown section kind 'spaces'"),
    "key-value": (P3_INVARIANT + "class lambda\n", 5, 1, "expected key = value"),
    "duplicate-field": (P3_INVARIANT + "class = lambda\ngenus = 1\n",
                        6, 1, "duplicate field 'genus'"),
    # a second pair= used to crash validation on the mixed bases
    "duplicate-pair": (P2_NODE + "pair = p2blow1_exc\n",
                       6, 1, "duplicate field 'pair'"),
    "duplicate-match": (P2_NODE + "match = a->a\nmatch = a->a\n",
                        7, 1, "duplicate field 'match'"),
    "duplicate-abs": (P2_NODE + "abs = pt\nabs = pt\n",
                      7, 1, "duplicate field 'abs'"),
    "stratum-field": (P2_NODE + "genus = 0\n", 6, 1, "unknown field 'genus'"),
    "duplicate-name": (P3 + "[class p3 = lambda]\n",
                       2, 2, "duplicate name 'p3'"),
    "class-before-space": ("[class b = lambda]\n",
                           1, 2, "declare a [space] before classes"),
    # pull(c) reads c in the divisor of a pair whose ambient is ruled
    "pull-space": (P3_INVARIANT + "class = lambda\nabs = pull(pt)\n", 6, 7,
                   "pull() needs a pair= target whose ambient is ruled over "
                   "the divisor, not p3"),
    "pull-not-ruled": (P2_PAIR + "[invariant x]\npair = p2_hyperplane\n"
                       "genus = 0\nclass = lambda\nabs = pull(pt)\n", 7, 7,
                       "pull() needs a pair= target whose ambient is ruled "
                       "over the divisor, not p2_hyperplane"),
    "pull-ambient-class": ("[invariant x]\npair = t2_ruled_section\n"
                           "genus = 0\nclass = f\nabs = pull(f)\n", 5, 12,
                           "unknown generator 'f' in basis t2_base"),
    # constraints are primary: a psi power is no syntax, so `tau1` reads
    # as a class name and fails where it starts
    "tau-class": (P3_INVARIANT + "class = lambda\nabs = pt, tau1(foo)\n",
                  6, 11, "unknown generator 'tau1' in basis p3"),
    "tau-pull": ("[invariant x]\npair = t2_ruled_section\ngenus = 0\n"
                 "class = f\nabs = tau1( pull(f))\n", 5, 7,
                 "unknown generator 'tau1' in basis t2_ruled"),
    # texts next to a bare generator name take the term loop
    "near-generator": (P3_INVARIANT + "class = lambd\n", 5, 9,
                       "unknown generator 'lambd' in basis p3"),
    "near-generator-abs": (P3_INVARIANT + "class = lambda\nabs = pt, lambd\n",
                           6, 11, "unknown generator 'lambd' in basis p3"),
    "generator-multiple": (P3_INVARIANT + "class = 2*pi\n", 5, 9,
                           "class must be a curve class, got grade 2"),
    "generator-negative": (P3_INVARIANT + "class = -pi\n", 5, 9,
                           "class must be a curve class, got grade 2"),
    "generator-dangling-sign": (P3_INVARIANT + "class = pi+\n", 5, 11,
                                "expected a class term"),
    "generator-dangling-sign-abs": (P3_INVARIANT
                                    + "class = lambda\nabs = pt, pi+\n",
                                    6, 13, "expected a class term"),
    # an empty entry of a list is an error where the entry starts
    "empty-entry": (P3_INVARIANT + "class = lambda\nabs = pt, , pt\n",
                    6, 11, "empty list entry"),
    "trailing-comma": (P3_INVARIANT + "class = lambda\nabs = pt,\n",
                       6, 10, "empty list entry"),
    "leading-comma": (P3_INVARIANT + "class = lambda\nabs = ,pt\n",
                      6, 7, "empty list entry"),
    "blank-entries": (P3_INVARIANT + "class = lambda\nabs = ,\n",
                      6, 7, "empty list entry"),
    "rel-trailing-comma": (P2_CUBIC + "rel = (3,fund),\n",
                           7, 16, "empty list entry"),
    "match-trailing-comma": (P2_NODE + "match = a->a,\n",
                             6, 14, "empty list entry"),
    "contacts-trailing-comma": (P2_STRATUM + "comp level=0 genus=0 "
                                "class=lambda inf=1:a,\n",
                                5, 43, "empty list entry"),
    # parentheses in a list value balance: an unclosed one is an error at
    # its column, an unmatched `)` at its own
    "unclosed-paren": ("[invariant x]\npair = t2_ruled_section\ngenus = 0\n"
                       "class = f\nabs = pull(pt, pt\n", 5, 11,
                       "unbalanced parenthesis"),
    "unmatched-paren": (P2_PAIR + "[invariant x]\npair = p2_hyperplane\n"
                        "genus = 0\nclass = lambda\nrel = (1,pt)), (1,pt)\n",
                        7, 13, "unbalanced parenthesis"),
    # a repeated entry is read once, where it first appears
    "repeated-unknown-entry": (P3_INVARIANT
                               + "class = lambda\nabs = pt, qq, qq\n", 6, 11,
                               "unknown generator 'qq' in basis p3"),
    # lines break at \n, \r\n and \r only, as a file read in text mode
    # does: a form feed or a U+2028 stays inside its line
    "form-feed-after-a-header": ("[space p2]\x0c\n[bogus]\n", 2, 2,
                                 "unknown section kind 'bogus'"),
    "form-feed-after-a-value": (P3_INVARIANT.replace("= 0\n", "= 0\x0c\n")
                                + "class = qq\n", 5, 9,
                                "unknown generator 'qq' in basis p3"),
    "line-separator-in-a-comment": (P3 + "[invariant x]\n"
                                    "space = p3  # the\u2028ambient\n"
                                    "genus = 0\nclass = qq\n", 5, 9,
                                    "unknown generator 'qq' in basis p3"),
    "carriage-returns": ("[space p3]\r\n[invariant x]\rspace = p3\r\n"
                         "genus = 0\nclass = qq\r", 5, 9,
                         "unknown generator 'qq' in basis p3"),
}


@pytest.mark.parametrize("text, line, col, message", MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_parser_errors_are_positioned(tmp_path, capsys, text, line, col,
                                      message):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert (info.value.line, info.value.col, info.value.message) == \
        (line, col, message)
    path = tmp_path / "bad.gw"
    path.write_text(text, encoding="utf-8")
    assert status("dim", path, "x") == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: line {line}, col {col}: {message}\n"


# -- a bare generator name ------------------------------------------------

CATALOG_SPACES = ("p0", "p1", "p2", "p3", "p4", "p2blow1", "p3blow2",
                  "p4blow2", "t2_ruled", "t2_base", "s2xs2", "antidiag_sphere")
CATALOG_PAIRS = ("p1_point", "p2_hyperplane", "p3_hyperplane",
                 "p4_hyperplane", "p2blow1_exc", "p4blow2_hyperplane",
                 "t2_ruled_section", "s2xs2_antidiag")


def catalog_bases():
    """The basis of every catalog space, divisor and `y_of:` bundle."""
    bases = {builtin(name).basis.name: builtin(name).basis
             for name in CATALOG_SPACES}
    for name in CATALOG_PAIRS:
        pair = builtin(name)
        bases[pair.divisor.basis.name] = pair.divisor.basis
        try:
            total = builtin(f"y_of:{name}").total
        except CatalogError:
            continue  # no P1-bundle over a zero-dimensional divisor
        bases[total.basis.name] = total.basis
    return list(bases.values())


def test_a_bare_generator_name_reads_as_its_class():
    bases = catalog_bases()
    assert len(bases) == 19
    parser = _Parser("")
    for basis in bases:
        for name, _ in basis.elements:
            got = parser.parse_comb(basis, name, 1, 1)
            want = cls(basis, {name: 1})
            assert (got, got.vec, got.grade, got.encode()) == \
                (want, want.vec, want.grade, want.encode())


def test_a_declared_class_shadows_a_generator():
    sc = parse_scenario(P3 + "[class lambda = 2*lambda]\n[class pi = 2*pi]\n"
                        "[invariant x]\nspace = p3\ngenus = 0\n"
                        "class = lambda\nabs = pt, pi, lambda\n")
    assert sc.invariants["x"].key() == "space:p3;g=0;b=2*lambda;abs=pt,2*lambda,2*pi"


def test_near_generator_texts_that_parse_keep_their_classes():
    sc = parse_scenario(P3_INVARIANT + "class = lambda\nabs = pt, 2*pi, -pi\n")
    assert sc.invariants["x"].key() == "space:p3;g=0;b=lambda;abs=pt,-pi,2*pi"


# -- list entries ------------------------------------------------------------


def test_an_empty_list_value_is_the_empty_list():
    spec = parse_scenario(P3_INVARIANT + "class = 0\nabs =\n").invariants["x"]
    assert spec.absolutes == ()


def walked_split(text, line, base_col):
    """The character walk `_split_list` made on every text before it
    split texts with no parenthesis by `str.split` and required balance."""
    if not text.strip():
        return []
    items, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append((text[start:i], base_col + start))
            start = i + 1
    items.append((text[start:], base_col + start))
    out = []
    for s, col in items:
        col += len(s) - len(s.lstrip())
        if not s.strip():
            raise ScenarioError("empty list entry", line, col)
        out.append((s.strip(), col))
    return out


def split_outcome(split, text, base_col):
    """The entries `split` gives, or its error as (message, line, col)."""
    try:
        return split(text, 3, base_col)
    except ScenarioError as e:
        return (e.message, e.line, e.col)


def unbalanced_at(text):
    """Offset of the first `)` with none open, else of the outermost `(`
    left open, else None."""
    opened = []
    for i, ch in enumerate(text):
        if ch == "(":
            opened.append(i)
        elif ch == ")":
            if not opened:
                return i
            opened.pop()
    return opened[0] if opened else None


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(("pt", ",", " ", "(", ")")), max_size=12)
       .map("".join), st.integers(1, 40))
def test_split_list_keeps_the_walk_where_parentheses_balance(text, base_col):
    got = split_outcome(_split_list, text, base_col)
    at = unbalanced_at(text)
    if at is None:
        assert got == split_outcome(walked_split, text, base_col)
    else:
        assert got == ("unbalanced parenthesis", 3, base_col + at)


# -- the one scan reads what the line walk read ------------------------


class WalkedParser(_Parser):
    """The walk `_Parser.parse` made before it scanned the text once into
    rows, over the same line split: every section strips its body lines
    again, `key_value` splits and strips each one again, and every list
    entry builds its own insertion."""

    def parse(self):
        i = 0
        while i < len(self.lines):
            raw = self.lines[i]
            text = raw.split("#", 1)[0].rstrip()
            if not text.strip():
                i += 1
                continue
            m = _HEADER.match(text.strip())
            if not m:
                self.fail("expected a [section] header",
                          i + 1, 1 + len(raw) - len(raw.lstrip()))
            kind, args, header_line = m.group(1), m.group(2).split(), i + 1
            body, i = self.collect_body(i + 1)
            handler = getattr(self, "section_" + kind, None)
            if handler is None:
                self.fail(f"unknown section kind {kind!r}", header_line, 2)
            handler(args, header_line, body)
        self.sc.runs = tuple(self.runs)
        return self.sc

    def collect_body(self, start):
        body, i = [], start
        while i < len(self.lines):
            raw = self.lines[i]
            text = raw.split("#", 1)[0].rstrip()
            if text.strip().startswith("["):
                break
            if text.strip():
                body.append((i + 1, text.strip(),
                             1 + len(raw) - len(raw.lstrip())))
            i += 1
        return body, i

    def key_value(self, text, lineno, col, allowed, seen):
        if "=" not in text:
            self.fail("expected key = value", lineno, col)
        key, value = text.split("=", 1)
        key = key.strip()
        if key not in allowed:
            self.fail(f"unknown field {key!r}", lineno, col)
        if key in seen:
            self.fail(f"duplicate field {key!r}", lineno, col)
        vcol = col + text.index("=") + 1 + len(value) - len(value.lstrip())
        return key, value.strip(), vcol

    def insertions(self, parse, owner, value, line, col):
        return [parse(owner, text, line, tcol)
                for text, tcol in _split_list(value, line, col)]


def parsed(parser, text):
    """What `parser` reads from `text`: each invariant spec with its key,
    the classes, each stratum with its key and the runs with their lines;
    or the error's message, line and column."""
    try:
        sc = parser(text).parse()
    except ScenarioError as e:
        return e.message, e.line, e.col
    return ({name: (spec, spec.key()) for name, spec in sc.invariants.items()},
            sc.classes,
            {name: (s, stratum_key(s)) for name, s in sc.strata.items()},
            [(run.command, run.args, run.line) for run in sc.runs])


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.gw")),
                         ids=lambda path: path.name)
def test_the_scan_reads_each_shipped_file_as_the_walk(path):
    text = path.read_text(encoding="utf-8")
    got = parsed(_Parser, text)
    assert got == parsed(WalkedParser, text)
    assert got[0]


def test_the_scan_reads_each_bracket_as_the_walk():
    texts = [bracket_text(row) for row in BRACKETS]
    assert len(texts) == 1870
    for text in texts:
        assert parsed(_Parser, text) == parsed(WalkedParser, text), text


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(edited_scenarios(SHIPPED, 0) | st.text(max_size=80))
def test_the_scan_reads_any_text_as_the_walk(text):
    assert parsed(_Parser, text) == parsed(WalkedParser, text)


@pytest.mark.parametrize("entries, builds", [
    ("pt, pt, pi, pi, pi", 2),
    # the placement is part of the text, so it has an insertion of its own
    ("pi@split, pi, pi@split, pi@Y", 3),
])
def test_a_repeated_entry_is_one_insertion(monkeypatch, entries, builds):
    text = P3_INVARIANT + f"class = lambda\nabs = {entries}\n"
    walked = parsed(WalkedParser, text)
    built = []
    post = Insertion.__post_init__

    def counted(self):
        built.append(self)
        post(self)

    monkeypatch.setattr(Insertion, "__post_init__", counted)
    spec = parse_scenario(text).invariants["x"]
    assert len(built) == builds
    texts = [entry.strip() for entry in entries.split(",")]
    assert [[a is b for b in spec.absolutes] for a in spec.absolutes] == \
        [[s == t for t in texts] for s in texts]
    assert parsed(_Parser, text) == walked


# -- exit statuses of the command line -----------------------------------


def status(*argv):
    return cli.main([str(a) for a in argv])


def test_exit_zero_on_success(capsys):
    assert status("run", SCENARIOS / "vanishing_checks.gw") == 0
    assert "verdict" in capsys.readouterr().out


def test_exit_one_on_failed_check(capsys):
    assert status("index", SCENARIOS / "conic_tangent.gw",
                  "--max-levels", "0") == 1
    assert "exceeds --max-levels 0" in capsys.readouterr().out


# `index` prints the key of a declared stratum before validating it, so a
# stratum `validate` rejects still gets one.  These two break condition P
# of `strata.stratum_key`, so their keys come from the exhaustive search
MALFORMED_STRATA = {
    "reversed-matching": (
        "comp level=0 genus=0 class=lambda inf=1:a\n"
        "comp level=1 genus=0 alpha=fund fiber=2 zero=1:b inf=2:c:pt\n"
        "match = b->a\n",
        ["key L0:g0:lambda:z[]:i[1]&L1:g0:fund+2f:z[1]:i[2:pt]#1z0-0i0",
         "issue matching-structure"]),
    "reused-node": (
        "comp level=0 genus=0 class=lambda inf=1:a1\n"
        "comp level=0 genus=0 class=lambda inf=1:a2\n"
        "comp level=1 genus=0 alpha=0 fiber=2 zero=1:b1,1:b2 inf=2:c:pt\n"
        "match = a1->b1, a2->b1\n",
        ["key L0:g0:lambda:z[]:i[1]&L0:g0:lambda:z[]:i[1]"
         "&L1:g0:0+2f:z[1,1]:i[2:pt]#0i0-2z0;1i0-2z0",
         "issue node-reuse", "issue unmatched-node"]),
}


@pytest.mark.parametrize("body, lines", MALFORMED_STRATA.values(),
                         ids=MALFORMED_STRATA.keys())
def test_index_keys_a_malformed_stratum(tmp_path, capsys, body, lines):
    path = tmp_path / "bad.gw"
    path.write_text(P2_STRATUM + body, encoding="utf-8")
    assert status("index", path) == 1
    assert capsys.readouterr().out == "\n".join(["stratum s", *lines]) + "\n"


def test_a_far_off_level_is_a_gap(tmp_path, capsys):
    # validation walks the levels present, not every level up to the depth
    path = tmp_path / "far.gw"
    path.write_text(P2_NODE + f"comp level={10 ** 12} genus=0 alpha=0 "
                    "fiber=1 zero=1:b inf=1:c\nmatch = a->b\n",
                    encoding="utf-8")
    start = time.perf_counter()
    assert status("index", path) == 1
    assert time.perf_counter() - start < 0.5
    assert "issue level-gap\n" in capsys.readouterr().out


def test_exit_two_on_unknown_name(capsys):
    assert status("dim", SCENARIOS / "conic_tangent.gw", "nosuch") == 2
    assert "unknown invariant 'nosuch'" in capsys.readouterr().err


@pytest.mark.parametrize("directive, message", [
    ("run frobnicate", "unknown command 'frobnicate'"),
    ("run eval nosuch", "unknown invariant 'nosuch'"),
    ("run run", "run directives cannot nest"),
], ids=["command", "invariant", "nested"])
def test_run_directive_errors_are_positioned(tmp_path, capsys, directive,
                                             message):
    path = tmp_path / "runs.gw"
    path.write_text(f"[space p3]\n\n[{directive}]\n", encoding="utf-8")
    assert status("run", path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: line 3, col 2: {message}\n"


def test_exit_two_on_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.gw"
    path.write_text(STRATUM.format("level=0 genus=x class=lambda inf=1:a"),
                    encoding="utf-8")
    assert status("index", path) == 2
    assert "line 5, col 20" in capsys.readouterr().err
    path.write_bytes(b"\xff")
    assert status("dim", path, "x") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "decode" in err


MIXED_GRADES = """\
[space p3]
[invariant x]
space = p3
genus = 0
class = lambda + pi
abs = pt
"""


def test_exit_two_on_mixed_grades(tmp_path, capsys):
    path = tmp_path / "mixed.gw"
    path.write_text(MIXED_GRADES, encoding="utf-8")
    assert status("dim", path, "x") == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line 5, col 9: mixed grades in class: "
        "(('lambda', 1), ('pi', 1))\n")


@pytest.mark.parametrize("line, position", [
    ("only-two\tfields", "line 1, col 9"),
    ("key\tnot-a-number\tprov", "line 1, col 5"),
    # the file is loaded into the seeded base, which holds the value 1
    ("space:s2xs2;g=0;b=a1;abs=pt\t2/1\tconflict", "line 1, col 29"),
    ("key\t1/0\tprov", "line 1, col 5"),
    ("key\tnonzero\tprov", "line 1, col 5"),
    # a pb: class is in the divisor's basis; the fiber f is not
    ("pair:t2_ruled_section;g=0;b=f;abs=pb:f,pb:f;rel=(1,pt)\t0/1\tuser",
     "line 1, col 38"),
    # constraints are primary: tau1 is no prefix, so it is no class either
    ("space:p2;g=0;b=lambda;abs=tau1:pt\t1/1\tuser", "line 1, col 27"),
], ids=["two-fields", "bad-value", "conflicts-with-seed", "zero-denominator",
        "nonzero", "pulled-back-ambient-class", "psi-power"])
def test_exit_two_on_malformed_kb(tmp_path, capsys, line, position):
    path = tmp_path / "extra.kb"
    path.write_text(line + "\n", encoding="utf-8")
    assert status("eval", SCENARIOS / "vanishing_checks.gw",
                  "ruling_absolute", "--kb", path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: kb file {path}: {position}: ")
    assert "Traceback" not in err


LINE_POINT_TWO_LINES = """\
[space p3]
[invariant x]
space = p3
genus = 0
class = lambda
abs = pt, lambda, lambda
"""


def test_exit_two_on_a_kb_key_that_is_not_canonical(tmp_path, capsys):
    # the seeded line count with its insertions in another order: kept as
    # written, the line was never read and eval printed the seed's 1
    path = tmp_path / "line.gw"
    path.write_text(LINE_POINT_TWO_LINES, encoding="utf-8")
    kb = tmp_path / "extra.kb"
    kb.write_text("space:p3;g=0;b=lambda;abs=lambda,pt,lambda\t5/1\tuser\n",
                  encoding="utf-8")
    assert status("eval", path, "x", "--kb", kb) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: kb file {kb}: line 1, col 27: key "
        "space:p3;g=0;b=lambda;abs=lambda,pt,lambda is not canonical; "
        "write space:p3;g=0;b=lambda;abs=pt,lambda,lambda\n")


@pytest.mark.parametrize("line, message", [
    ("space:p3;g=0;b=lambda;abs=pt,lambda,lambda",
     "line 1, col 43: expected 3 tab fields"),
    ("space:p3;g=0;b=lambda;abs=pt,lambda,lambda\t5\tuser",
     "line 1, col 44: bad value '5'"),
    ("space:p3;g=0;b=2*lambda-lambda;abs=pt,lambda,lambda\t5/1\tuser",
     "line 1, col 16: key space:p3;g=0;b=2*lambda-lambda;abs=pt,lambda,"
     "lambda is not canonical; write space:p3;g=0;b=lambda;"
     "abs=pt,lambda,lambda"),
    ("space:p2;g=0;b=lambda;abs=pb:pt,pt\t1/1\tuser",
     "line 1, col 27: pulled-back constraint pb:pt needs a pair whose "
     "ambient is ruled"),
    # the verdict outranks the base, so no value but 0 could be read
    ("space:p3;g=0;b=lambda;abs=pt,pt,pt\t1/1\tuser",
     "line 1, col 36: the count is zero [dimension-mismatch], not 1/1"),
    ("pair:p2_hyperplane;g=0;b=lambda;abs=pt;rel=(2,pt)\t3/1\tuser",
     "line 1, col 44: contact orders must sum to 1"),
], ids=["field-count", "bad-value", "not-canonical", "pulled-back-on-a-space",
        "zero-count", "contact-orders"])
def test_kb_errors_exit_two_with_their_position(tmp_path, capsys, line,
                                                message):
    path = tmp_path / "line.gw"
    path.write_text(LINE_POINT_TWO_LINES, encoding="utf-8")
    kb = tmp_path / "extra.kb"
    kb.write_text(line + "\n", encoding="utf-8")
    assert status("eval", path, "x", "--kb", kb) == 2
    assert capsys.readouterr() == ("", f"error: kb file {kb}: {message}\n")


def test_eval_of_a_zero_count_held_as_zero_agrees_with_vanish(tmp_path,
                                                             capsys):
    # a 0/1 line for a structurally zero count loads, and eval reports the
    # verdict's reason, not the line
    path = tmp_path / "points.gw"
    path.write_text(LINE_POINT_TWO_LINES.replace("pt, lambda, lambda",
                                                 "pt, pt, pt"),
                    encoding="utf-8")
    kb = tmp_path / "extra.kb"
    kb.write_text("space:p3;g=0;b=lambda;abs=pt,pt,pt\t0/1\tuser\n",
                  encoding="utf-8")
    assert status("vanish", path, "x") == 0
    vanish = capsys.readouterr().out
    assert status("eval", path, "x", "--kb", kb) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "verdict zero[dimension-mismatch]\n" in vanish
    assert out == ("invariant x\nkey space:p3;g=0;b=lambda;abs=pt,pt,pt\n"
                   "value 0\ntrace vanishing: dimension-mismatch\n")


# -- any --kb text ends in a value or a positioned error ----------------

KB_LINES = ["space:p2;g=0;b=lambda;abs=pt,pt\t1/1\tseed",
            "space:p2;g=0;b=2*lambda;abs=pt,pt,pt,pt,pt\t1/1\tseed",
            "pair:p2_hyperplane;g=0;b=lambda;abs=pt;rel=(1,pt)\t1/1\tuser"]
KB_TOKENS = sorted({tok for line in KB_LINES
                    for tok in re.split(r"(\W)", line) if tok})
CONICS_P2 = """\
[space p2]
[invariant x]
space = p2
genus = 0
class = 2*lambda
abs = pt, pt, pt, pt, pt
"""


@st.composite
def edited_kb_files(draw):
    """The three-line kb file with a few lines dropped, copied or spliced."""
    lines = list(KB_LINES)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "copy", "splice", "splice")))
        if kind == "drop":
            del lines[i]
        elif kind == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        else:
            line = lines[i]
            j = draw(st.integers(0, len(line)))
            k = draw(st.integers(j, min(len(line), j + 8)))
            piece = draw(st.sampled_from(KB_TOKENS) | st.text(max_size=3))
            lines[i] = line[:j] + piece + line[k:]
    return "\n".join(lines) + "\n"


def test_the_unedited_kb_file_evaluates(tmp_path, capsys):
    path, kb = tmp_path / "conics.gw", tmp_path / "extra.kb"
    path.write_text(CONICS_P2, encoding="utf-8")
    kb.write_text("\n".join(KB_LINES) + "\n", encoding="utf-8")
    assert status("eval", path, "x", "--kb", kb) == 0
    assert "value 1\n" in capsys.readouterr().out


def test_a_kb_line_keeps_its_separators(tmp_path, capsys):
    # a form feed or a U+2028 is no line break to a text-mode read, so the
    # provenance keeps both and the line loads
    path, kb = tmp_path / "conics.gw", tmp_path / "extra.kb"
    path.write_text(CONICS_P2, encoding="utf-8")
    kb.write_text(KB_LINES[1] + "\x0cnote\u2028more\n", encoding="utf-8")
    assert status("eval", path, "x", "--kb", kb) == 0
    out = capsys.readouterr().out
    assert "value 1\n" in out and "[seed\x0cnote\u2028more]\n" in out


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(edited_kb_files())
def test_any_kb_text_evaluates_or_exits_two_with_a_position(text):
    with tempfile.TemporaryDirectory() as tmp:
        path, kb = Path(tmp) / "conics.gw", Path(tmp) / "extra.kb"
        path.write_text(CONICS_P2, encoding="utf-8")
        kb.write_text(text, encoding="utf-8", newline="")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = status("eval", path, "x", "--kb", kb)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert re.search(r"line \d+, col \d+: ", err.getvalue()), \
            err.getvalue()


# -- any edit of a cheap shipped scenario runs or exits two with a position

# the shipped files whose runs take milliseconds: the quartic is left out
CHEAP = [(SCENARIOS / f"{name}.gw").read_text(encoding="utf-8").splitlines()
         for name in ("blowup_line", "conic_tangent", "torus_section",
                      "vanishing_checks")]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(edited_scenarios(CHEAP, 1))
def test_any_scenario_runs_or_exits_two_with_a_position(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.gw"
        path.write_text(text, encoding="utf-8", newline="")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = status("run", path)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert re.match(r"error: .*: line \d+, col \d+: ", err.getvalue()), \
            err.getvalue()


DISTINCT_FIBERS = """\
[invariant x]
pair = t2_ruled_section
genus = 0
class = f
abs = pull(pt), pull(pt)
rel = (1,pt)
"""


def test_pull_reads_a_class_of_the_divisor(tmp_path, capsys):
    # two fibers through distinct points of the base never meet
    pair = builtin("t2_ruled_section")
    T, TD = pair.ambient, pair.divisor
    pulled = Insertion(TD.point, pulled_back=True)
    assert parse_scenario(DISTINCT_FIBERS).invariants["x"] == InvariantSpec(
        pair, 0, T.gen("f"), (pulled, pulled), (Insertion(TD.point, order=1),))
    path = tmp_path / "fibers.gw"
    path.write_text(DISTINCT_FIBERS, encoding="utf-8")
    assert status("eval", path, "x") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "key pair:t2_ruled_section;g=0;b=f;abs=pb:pt,pb:pt;rel=(1,pt)"
    assert out[2] == "value 0"


CONIC_THREE_POINTS = """\
[space p3]
[invariant c]
space = p3
genus = 0
class = 2*lambda
abs = pt, pt, pt, lambda, lambda
[run eval c]
"""


@pytest.mark.parametrize("argv", [("eval", "c"), ("run",)],
                         ids=["eval", "run"])
def test_exit_two_when_kb_contradicts_an_identity(tmp_path, capsys, argv):
    # the conics through two points and four lines number 4; claiming 97
    # leaves the conics-two-points identity with 0 = -93 and no unknown
    path = tmp_path / "conic.gw"
    path.write_text(CONIC_THREE_POINTS, encoding="utf-8")
    kb = tmp_path / "extra.kb"
    kb.write_text("space:p3;g=0;b=2*lambda;abs=pt,pt,lambda,lambda,lambda,"
                  "lambda\t97/1\tuser\n", encoding="utf-8")
    command, *rest = argv
    assert status(command, path, *rest, "--kb", kb) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: identity conics-two-points is inconsistent: 0 = -93\n"
    assert "Traceback" not in err


POINT_DIVISOR = """\
[space p1]
[divisor p1_point in p1]
[invariant x]
space = p1
genus = 0
class = fund
"""


def test_exit_two_on_a_zero_dimensional_divisor(tmp_path, capsys):
    path = tmp_path / "point.gw"
    path.write_text(POINT_DIVISOR, encoding="utf-8")
    assert status("decompose", path, "p1_point", "x") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fiber-sum setup 'p1_point': ")
    assert "zero-dimensional divisor p0" in err
    assert "unknown" not in err


# -- bound options are integers checked at argument parsing --------------


def test_area_budget_runs_a_decompose(capsys):
    assert status("decompose", SCENARIOS / "blowup_line.gw", "p2blow1_exc",
                  "lines", "--area-budget", "3") == 0
    assert capsys.readouterr().out.startswith("status\t")


def bound_error(flag):
    return f"error: argument {flag}: expected an integer"


# argparse rejects bad bounds, unknown commands, and options a command does
# not take
@pytest.mark.parametrize("argv, message", [
    (("decompose", "blowup_line.gw", "p2blow1_exc", "lines",
      "--area-budget", "1/2"), bound_error("--area-budget")),
    (("decompose", "blowup_line.gw", "p2blow1_exc", "lines",
      "--area-budget", "-1"), bound_error("--area-budget")),
    (("decompose", "blowup_line.gw", "p2blow1_exc", "lines",
      "--max-terms", "0"), bound_error("--max-terms")),
    (("run", "blowup_line.gw", "--max-terms", "0"), bound_error("--max-terms")),
    (("index", "conic_tangent.gw", "--max-levels", "-1"),
     bound_error("--max-levels")),
    (("verify-paper",),
     "error: argument command: invalid choice: 'verify-paper'"),
    (("dim", "vanishing_checks.gw", "ruling_absolute", "--kb", "extra.kb"),
     "error: unrecognized arguments: --kb extra.kb"),
    (("run", "blowup_line.gw", "--golden", "DIR"),
     "error: unrecognized arguments: --golden DIR"),
], ids=["area-fraction", "area-negative", "terms-zero", "run-terms-zero",
        "levels-negative", "verify-paper", "dim-kb", "run-golden"])
def test_exit_two_on_bad_bound(capsys, argv, message):
    argv = [SCENARIOS / a if a.endswith(".gw") else a for a in argv]
    with pytest.raises(SystemExit) as info:
        status(*argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
