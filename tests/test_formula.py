import math
import random

import pytest

from xormpe.benchgen import gen_random
from xormpe.formula import (
    Clause,
    ClauseKind,
    Formula,
    Literal,
    ParseError,
    WeightFunction,
    evaluate_clause,
    evaluate_weight,
    format_formula,
    parse_formula,
)

from conftest import MIXED6_TEXT, disj, xor


def test_parse_minimal():
    formula, weights = parse_formula("p cnf 2 1\n1 -2 0\n")
    assert formula.var_count == 2
    assert len(formula.clauses) == 1
    clause = formula.clauses[0]
    assert clause.kind is ClauseKind.DISJUNCTION
    assert [l.to_int() for l in clause.literals] == [1, -2]
    assert weights == WeightFunction()
    assert weights.pair(1) == (1.0, 1.0)


def test_parse_mixed6():
    formula, weights = parse_formula(MIXED6_TEXT)
    assert formula.var_count == 6
    assert len(formula.clauses) == 5
    assert sum(c.kind is ClauseKind.XOR for c in formula.clauses) == 2
    assert formula.clauses[0].variables == {2, 4}


def test_parse_negative_weight_reports_line():
    with pytest.raises(ParseError) as err:
        parse_formula("p cnf 1 1\n1 0\nw 1 -0.5 1\n")
    assert "negative weight" in str(err.value)
    assert err.value.line == 3


@pytest.mark.parametrize("text, fragment", [
    ("p cnf x 1\n1 0\n", "non-numeric"),
    ("p wcnf 1 1\n1 0\n", "malformed header"),
    ("p cnf 1 1 1\n1 0\n", "malformed header"),
    ("p cnf -1 0\n", "line 1: malformed header: negative count"),
    ("1 0\np cnf 1 1\n", "before 'p cnf' header"),
    ("p cnf 1 1\np cnf 1 1\n1 0\n", "duplicate"),
    ("p cnf 1 1\n2 0\n", "out of range"),
    ("p cnf 2 1\n1 1 0\n", "duplicate variable"),
    ("p cnf 2 1\n1 -1 0\n", "duplicate variable"),
    ("p cnf 2 1\n1 two 0\n", "non-numeric"),
    ("p cnf 1 1\n1\n", "not terminated"),
    ("p cnf 1 1\n0\n", "empty clause"),
    ("p cnf 1 1\n1 0\nw 1 abc\n", "non-numeric"),
    ("p cnf 1_0 1\n1 0\n", "non-numeric"),
    ("p cnf 3 1\n\u0663 0\n", "non-numeric"),
    ("p cnf 1 1\n1 0\nw 1 1_000\n", "non-numeric"),
    ("p cnf 1 1\n1 0\nw 0 1.0\n", "literal 0"),
    ("p cnf 1 1\n1 0\nw 2 1.0\n", "out of range"),
    ("p cnf 1 1\n1 0\nw 1 0.5 7\n", "malformed weight"),
    ("p cnf 1 0\nw 1\n", "line 2: malformed weight line"),
    ("p cnf 1 2\n1 0\n", "declares 2 clauses"),
    ("", "missing 'p cnf' header"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert fragment in str(err.value)


def test_parse_comments_and_blank_lines():
    text = "c a comment\n\np cnf 1 1\nc another\n1 0\nc\n"
    formula, _ = parse_formula(text)
    assert len(formula.clauses) == 1


def test_weight_last_occurrence_wins():
    _, weights = parse_formula("p cnf 1 1\n1 0\nw 1 2.0\nw 1 3.5\nw -1 0.25\n")
    assert weights.pair(1) == (0.25, 3.5)


def test_a_zero_weight_is_positive_zero():
    # -0 passes the weight rule, as 0.0 <= -0.0; it is stored and printed as +0
    formula, weights = parse_formula("p cnf 1 1\n1 0\nw 1 -0\n")
    w_neg, w_pos = weights.pair(1)
    assert (w_neg, w_pos, math.copysign(1.0, w_pos)) == (1.0, 0.0, 1.0)
    assert "w 1 0.0\n" in format_formula(formula, weights)


@pytest.mark.parametrize("token", ["1e-400", "1e-324", ".5e-400"])
def test_a_nonzero_weight_that_reads_as_zero_is_refused(token):
    with pytest.raises(ParseError, match="double range") as err:
        parse_formula(f"p cnf 1 1\n1 0\nw -1 0.5\nw 1 {token}\n")
    assert err.value.line == 4
    assert repr(token) in str(err.value)


def test_only_a_zero_mantissa_reads_as_zero():
    for token in ("0e-400", "0.000", "-0"):
        _, weights = parse_formula(f"p cnf 1 1\n1 0\nw 1 {token}\n")
        w_pos = weights.pair(1)[1]
        assert (w_pos, math.copysign(1.0, w_pos)) == (0.0, 1.0), token
    with pytest.raises(ParseError, match="line 3: weight '2e-324'"):
        parse_formula("p cnf 1 1\n1 0\nw 1 2e-324\n")
    # the smallest subnormal is in range, so a library-made one round-trips
    tiny = math.ulp(0.0)
    formula, weights = parse_formula("p cnf 1 1\n1 0\nw 1 5e-324\n")
    assert weights.pair(1) == (1.0, tiny)
    made = WeightFunction({1: (tiny, 1.0)})
    assert parse_formula(format_formula(formula, made))[1] == made


def test_weight_line_with_trailing_zero_terminator():
    _, weights = parse_formula("p cnf 1 1\n1 0\nw 1 2.0 0\n")
    assert weights.pair(1) == (1.0, 2.0)


def test_parse_accepts_bytes_and_streams(tmp_path):
    formula, _ = parse_formula(MIXED6_TEXT.encode("utf-8"))
    assert formula.var_count == 6
    path = tmp_path / "inst.xcnf"
    path.write_text(MIXED6_TEXT)
    with open(path) as handle:
        formula, _ = parse_formula(handle)
    assert len(formula.clauses) == 5


def test_round_trip_random_instances():
    for seed in range(25):
        n = 1 + seed % 9
        formula, weights = gen_random(n, (seed * 3) % 12, max(1, min(n, 3)), 0.5, seed)
        text = format_formula(formula, weights)
        formula2, weights2 = parse_formula(text)
        assert formula2 == formula
        assert weights2 == weights
        assert format_formula(formula2, weights2) == text


def test_clause_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Clause(ClauseKind.DISJUNCTION, ())
    with pytest.raises(ValueError):
        disj(1, -1)


def test_formula_rejects_out_of_range_literal():
    with pytest.raises(ValueError):
        Formula(1, [disj(2)])


def test_empty_formula_is_legal():
    formula = Formula(3, [])
    assert list(formula.variables) == [1, 2, 3]


def test_evaluate_clause():
    assert evaluate_clause(xor(2, -4), {2: True, 4: True}) is True
    assert evaluate_clause(disj(1, 6), {1: False, 6: False}) is False
    assert evaluate_clause(xor(3, 5), {3: True, 5: True}) is False


def test_evaluate_clause_unbound():
    with pytest.raises(KeyError):
        evaluate_clause(disj(1, 2), {1: False})


def test_evaluate_weight():
    assert evaluate_weight(WeightFunction(), {1: True, 2: False}) == 1.0
    weights = WeightFunction({1: (10, 100), 2: (100, 10)})
    assert evaluate_weight(weights, {1: True, 2: True}) == 1000.0
    assert evaluate_weight(WeightFunction({1: (0, 5)}), {1: False}) == 0.0
    # a running product of these weights underflows to 0.0 after two factors
    mixed = WeightFunction({1: (1, 1e-200), 2: (1, 1e-200), 3: (1, 1e200), 4: (1, 1e200)})
    assert evaluate_weight(mixed, dict.fromkeys(range(1, 5), True)) == \
        pytest.approx(1.0, rel=1e-15)
    # where every partial product is in range, the running product bit for bit
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 25)
        weights = WeightFunction({v: (10 ** rng.uniform(-12, 12), 10 ** rng.uniform(-12, 12))
                                  for v in range(1, n + 1)})
        assignment = {v: rng.random() < 0.5 for v in range(1, n + 1)}
        product = 1.0
        for var in sorted(assignment):
            product *= weights.weight(var, assignment[var])
        assert evaluate_weight(weights, assignment) == product
    # a product out of double range overflows to inf, or underflows to 0.0
    both = {1: True, 2: True}
    assert evaluate_weight(WeightFunction({1: (1, 1e200), 2: (1, 1e200)}), both) == math.inf
    assert evaluate_weight(WeightFunction({1: (1, 1e-200), 2: (1, 1e-200)}), both) == 0.0


def test_evaluate_weight_multiplicative_over_disjoint_sets():
    weights = WeightFunction({1: (2, 3), 2: (5, 7), 3: (0.5, 4)})
    left = {1: True}
    right = {2: False, 3: True}
    combined = dict(left) | dict(right)
    assert evaluate_weight(weights, combined) == pytest.approx(
        evaluate_weight(weights, left) * evaluate_weight(weights, right))


def test_weight_function_rejects_bad_values():
    with pytest.raises(ValueError):
        WeightFunction({1: (-1.0, 2.0)})
    weights = WeightFunction()
    with pytest.raises(ValueError):
        weights.set_literal(1, float("nan"))
    with pytest.raises(ValueError):
        weights.set_literal(0, 1.0)
    # float() of an int beyond double range raises OverflowError, not ValueError
    with pytest.raises(ValueError, match="infinite or NaN weight"):
        WeightFunction({1: (10**400, 1)})
    with pytest.raises(ValueError, match="infinite or NaN weight"):
        weights.set_literal(1, 10**400)
    # a key of -2 would print lines that reparse with the polarities swapped,
    # and a key of 0 text that does not reparse
    for var in (0, -2, 1.5):
        with pytest.raises(ValueError, match="integer >= 1"):
            WeightFunction({var: (2.0, 3.0)})


def test_set_literal_rejects_a_non_integer_literal():
    # -2.5 was stored under key 2.5 and printed as a line that does not reparse
    weights = WeightFunction()
    for lit in (-2.5, 3.0, "1", True):
        with pytest.raises(ValueError, match="nonzero integer"):
            weights.set_literal(lit, 3.0)
    assert weights.listed() == []


def test_format_formula_rejects_weights_beyond_var_count():
    # "w -5 2.0" under "p cnf 1 0" would not reparse: literal -5 out of range
    weights = WeightFunction({5: (2.0, 3.0)})
    with pytest.raises(ValueError, match="variable 5"):
        format_formula(Formula(1, []), weights)
    text = format_formula(Formula(5, []), weights)
    assert parse_formula(text) == (Formula(5, []), weights)


def test_parse_shares_one_literal_per_distinct_literal():
    formula, _ = parse_formula("p cnf 3 4\n1 -2 0\nx -2 3 0\n1 3 -2 0\n-1 0\n")
    by_int = {}
    for clause in formula.clauses:
        for lit in clause.literals:
            assert by_int.setdefault(lit.to_int(), lit) is lit
    assert sorted(by_int) == [-2, -1, 1, 3]
    # a second parse builds its own literals
    again, _ = parse_formula("p cnf 1 1\n1 0\n")
    assert again.clauses[0].literals[0] == by_int[1]
    assert again.clauses[0].literals[0] is not by_int[1]


def test_literal_from_int():
    assert Literal.from_int(-3) == Literal(3, False)
    with pytest.raises(ValueError):
        Literal.from_int(0)


@pytest.mark.parametrize("build", [lambda: Literal(1.5, True), lambda: Literal.from_int(-1.5),
                                   lambda: Literal(2.0, False), lambda: Formula(2.5, []),
                                   lambda: Formula(2.0, [disj(1)]),
                                   lambda: Literal(True, True), lambda: Literal.from_int(True),
                                   lambda: Formula(True, []),
                                   lambda: WeightFunction({True: (1.0, 2.0)})],
                         ids=["literal", "from_int", "integral-float", "formula",
                              "integral-float-count", "bool-literal", "bool-from_int",
                              "bool-count", "bool-weight-key"])
def test_float_indices_are_rejected(build):
    # a float index would reach format_formula and export_wcnf as "1.5"
    with pytest.raises(ValueError, match="must be an integer"):
        build()


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_parse_non_utf8_reports_line_of_first_bad_byte(newline):
    text = newline.join(["c café", "p cnf 2 1", "1 \udcff2 0", "w 1 \udcfe"]) + newline
    with pytest.raises(ParseError) as err:
        parse_formula(text.encode("utf-8", "surrogateescape"))
    assert err.value.line == 3
    assert "not UTF-8" in str(err.value)


def test_parse_non_utf8_counts_lines_at_newlines_only():
    text = "c a\u2028b\np cnf 1 0\nc \udcff\n"
    with pytest.raises(ParseError) as err:
        parse_formula(text.encode("utf-8", "surrogateescape"))
    assert err.value.line == 3


def test_parse_non_utf8_text_handle_is_parse_error(tmp_path):
    # the handle decodes inside read(), which knows no line number
    path = tmp_path / "latin1.xcnf"
    path.write_bytes(b"c caf\xe9\np cnf 1 0\n")
    with path.open(encoding="utf-8") as handle, pytest.raises(ParseError) as err:
        parse_formula(handle)
    assert err.value.line is None
    assert "not utf-8 text" in str(err.value)


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                  "\x85", "\u2028", "\u2029"])
def test_parse_breaks_lines_only_at_newlines(char):
    # str.splitlines breaks at each of these, which would cut the comment
    formula, _ = parse_formula(f"p cnf 2 1\nc note{char}more\n1 2 0\n")
    assert formula.clauses == [disj(1, 2)]


def test_parse_form_feed_between_literals_is_whitespace():
    formula, _ = parse_formula("p cnf 2 1\n1 \x0c2 0\n")
    assert formula.clauses == [disj(1, 2)]


def test_parse_carriage_return_only_file():
    text = "p cnf 2 1\n1 -2 0\nw 1 2\n"
    assert parse_formula(text.replace("\n", "\r")) == parse_formula(text)


def test_parse_zero_inside_clause_reports_constructor_message():
    with pytest.raises(ParseError) as err:
        parse_formula("p cnf 2 1\n1 0 2 0\n")
    assert err.value.line == 2
    assert "literal 0 is reserved as the clause terminator" in str(err.value)


_CORRUPT_TOKENS = ["0", "-0", "x", "nan", "inf", "1e999"]


def _corrupt(lines, rng):
    """One corruption of one line after the header: a token replaced (by a bad
    token or the previous literal), a terminator dropped, or a non-UTF-8 byte
    inserted. Returns the corrupted bytes and that line's number."""
    i = rng.randrange(1, len(lines))
    tokens = lines[i].split()
    j = rng.randrange(len(tokens))
    kind = rng.randrange(4)
    if kind == 0:
        tokens[j] = rng.choice(_CORRUPT_TOKENS)
    elif kind == 1 and j > 0:
        tokens[j] = tokens[j - 1]
    elif kind == 2 and tokens[-1] == "0":
        tokens.pop()
    line = " ".join(tokens).encode()
    if kind == 3:
        cut = rng.randrange(len(line) + 1)
        line = line[:cut] + b"\xff" + line[cut:]
    data = [text.encode() for text in lines]
    data[i] = line
    return b"\n".join(data) + b"\n", i + 1


def test_corrupted_instances_raise_parse_error_on_their_line():
    # a corrupted header moves the fault to later lines, so only the lines
    # after it are corrupted; a wrong clause count is a whole-file fault
    rng = random.Random(2205)
    for seed in range(300):
        n = 1 + seed % 8
        formula, weights = gen_random(n, 1 + seed % 7, min(n, 3), 0.5, 7000 + seed)
        data, corrupted = _corrupt(format_formula(formula, weights).splitlines(), rng)
        try:
            parse_formula(data)
        except ParseError as err:
            assert err.line in (corrupted, None), (data, str(err))
