"""Expression substrate: parsing, differentiation, simplification,
evaluation, and the tri-state zero test."""

import glob
import itertools
import json
import math
import os
import random
import time
from fractions import Fraction

import pytest

from exformal import symbolic
from exformal.errors import (
    DomainError,
    ExformalError,
    ExprSyntaxError,
    UnboundSymbolError,
    UnknownSymbolError,
)
from exformal.symbolic import (
    Add,
    Chart,
    Mul,
    Pow,
    Rat,
    Sym,
    Verdict,
    ONE,
    ZERO,
    ZeroVerdict,
    _fold_verdicts,
    add,
    diff,
    eval_at,
    func,
    interpretation_table,
    is_zero,
    mul,
    neg,
    opaque,
    parse_expr,
    pow_,
    rational,
    simplify,
    sub,
    substitute,
    substitute_function,
    to_text,
)

from helpers import off_domain_constants, rand_expr, termwise_product

CH = Chart(("t", "x", "y", "z"))


class TestChart:
    def test_basic(self):
        assert CH.dim == 4
        assert CH.index("y") == 2

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Chart(("x", "x"))

    def test_rejects_bad_identifier(self):
        with pytest.raises(ValueError):
            Chart(("2x",))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Chart(())

    def test_equal_and_hashed_by_names(self):
        assert Chart(["x", "y"]) == Chart(("x", "y"))
        assert Chart(("x", "y")) != Chart(("y", "x"))
        assert Chart(("x",)) != ("x",)
        assert hash(Chart(["x", "y"])) == hash(Chart(("x", "y")))
        assert len({Chart(("x", "y")), Chart(["x", "y"]), Chart(("y", "x"))}) == 2

    def test_immutable(self):
        ch = Chart(("x", "y"))
        with pytest.raises(AttributeError):
            ch.names = ("u",)
        with pytest.raises(AttributeError):
            del ch.names
        assert ch.names == ("x", "y")


class TestParse:
    def test_power_and_function(self):
        e = parse_expr("x^2 + sin(t)", CH)
        assert e == add(pow_(Sym("x"), 2), func("sin", Sym("t")))

    def test_precedence(self):
        ch = Chart(("a", "b", "c"))
        e = parse_expr("a + b*c", ch)
        assert e == add(Sym("a"), mul(Sym("b"), Sym("c")))
        assert e != mul(add(Sym("a"), Sym("b")), Sym("c"))

    def test_incomplete_input(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("x +", CH)
        assert exc.value.position == 3
        assert exc.value.expected

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            parse_expr("x + w", CH)

    def test_params_allowed(self):
        e = parse_expr("m*x", CH, params=["m"])
        assert e == mul(Sym("m"), Sym("x"))

    def test_decimal_is_exact(self):
        e = parse_expr("0.5*x", CH)
        assert e == mul(Rat(Fraction(1, 2)), Sym("x"))

    @pytest.mark.parametrize("text, shared", [("0", "ZERO"), ("0.0", "ZERO"),
                                              ("1", "ONE"), ("1.0", "ONE")])
    def test_zero_and_one_literals_are_the_shared_nodes(self, text, shared):
        # the curvature loops skip a product by the test `is ZERO`
        assert parse_expr(text, CH) is getattr(symbolic, shared)

    def test_unary_minus_binds_looser_than_power(self):
        e = parse_expr("-x^2", CH)
        assert e == mul(Rat(-1), pow_(Sym("x"), 2))

    def test_opaque_function_and_primes(self):
        e = parse_expr("a''(t)", CH)
        assert e == opaque("a", Sym("t"), 2)

    def test_prime_without_call_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("a' + x", CH)

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x @ y", CH)

    def test_negative_exponent_accepted(self):
        e = parse_expr("x^-2", CH)
        assert e == pow_(Sym("x"), -2)

    def test_parenthesised_term_is_inverted_factor_by_factor(self):
        assert parse_expr("1/((x+1)^2*(y+1)^3)", CH) == parse_expr(
            "1/(x+1)^2/(y+1)^3", CH)
        assert parse_expr("1/(a/b)", CH, ("a", "b")) == parse_expr(
            "b/a", CH, ("a", "b"))
        assert parse_expr("1/-(x+1)^2", CH) == parse_expr("-1/(x+1)^2", CH)

    def test_parenthesised_sum_is_inverted_whole(self):
        assert parse_expr("1/((x+1)*(y+1) + 1)", CH) == pow_(
            parse_expr("(x+1)*(y+1) + 1", CH), -1)

    @pytest.mark.parametrize("text", ["1/(x/0)", "1/(0^-1*x)", "3/0^-1"])
    def test_inverting_keeps_a_zero_divisor_refused(self, text):
        with pytest.raises(DomainError, match="0 raised to a negative power"):
            parse_expr(text, CH)

    def test_parentheses_with_an_exponent_are_inverted_whole(self):
        assert parse_expr("2/(0)^0", CH) == Rat(2)
        assert parse_expr("1/((x+1)*(y+1))^2", CH) == pow_(
            parse_expr("(x+1)*(y+1)", CH), -2)

    def test_a_nested_divisor_stays_factored(self):
        assert parse_expr("y/(1/(x + 1)^-2)", CH) == mul(
            Sym("y"), pow_(add(Sym("x"), Rat(1)), -2))

    def test_a_power_of_a_power_expands_in_two_steps(self):
        # (x+1)^100 in one step would take 10,100 term products, past the
        # budget; (x+1)^50 and then its square take 2,550 and 2,601
        assert parse_expr("x/((x+1)^50)^-2", CH) == mul(
            Sym("x"), pow_(pow_(add(Sym("x"), Rat(1)), 50), 2))

    def test_deep_nesting_is_a_syntax_error(self):
        with pytest.raises(ExprSyntaxError, match="nested too deeply") as exc:
            parse_expr("(" * 300 + "x" + ")" * 300, CH)
        assert 0 < exc.value.position < 300
        assert parse_expr("(" * 100 + "x" + ")" * 100, CH) == Sym("x")

    # 5000 digits are past the interpreter's 4300-digit conversion limit
    @pytest.mark.parametrize("text, position", [
        ("1" * 5000, 0),
        ("x^" + "1" * 5000, 2),
        ("x + 0." + "1" * 5000, 4),
    ])
    def test_number_past_digit_limit_is_a_syntax_error(self, text, position):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr(text, CH)
        assert exc.value.position == position


class TestFunc:
    """One node for every call: the name decides built-in or profile."""

    def test_keys(self):
        t = Sym("t")
        assert func("sin", t).key == (2, "sin", t.key)
        assert opaque("a", t, 2).key == (3, "a", 2, t.key)
        assert not func("sin", t).opaque and opaque("a", t).opaque

    @pytest.mark.parametrize("name, order", [("sin", 0), ("1a", 0), ("a", -1)])
    def test_opaque_refuses_what_is_not_a_profile(self, name, order):
        with pytest.raises(ValueError):
            opaque(name, Sym("t"), order)

    def test_builtin_has_no_formal_derivative(self):
        with pytest.raises(ValueError):
            symbolic.Func("sin", Sym("t"), 1)

    def test_sqrt_of_zero_is_zero(self):
        assert func("sqrt", Rat(0)) is ZERO


class TestDiff:
    def test_product_power(self):
        e = parse_expr("x*y^2", CH)
        assert diff(e, "x") == pow_(Sym("y"), 2)

    def test_sin(self):
        assert diff(func("sin", Sym("t")), "t") == func("cos", Sym("t"))

    def test_chain_rule_opaque(self):
        e = parse_expr("a(t)^2", CH)
        expected = mul(Rat(2), opaque("a", Sym("t"), 0), opaque("a", Sym("t"), 1))
        assert diff(e, "t") == expected

    def test_parameters_are_constant(self):
        e = parse_expr("m*x^2", CH, params=["m"])
        assert diff(e, "x") == mul(Rat(2), Sym("m"), Sym("x"))
        assert diff(Sym("m"), "x") == ZERO

    def test_quotient(self):
        e = parse_expr("x/y", CH)
        assert diff(e, "y") == mul(Rat(-1), Sym("x"), pow_(Sym("y"), -2))

    def test_ln_sqrt_tan(self):
        assert diff(func("ln", Sym("x")), "x") == pow_(Sym("x"), -1)
        d = diff(func("sqrt", Sym("x")), "x")
        assert is_zero(sub(d, parse_expr("1/(2*sqrt(x))", CH))) is ZeroVerdict.ZERO
        d2 = diff(func("tan", Sym("x")), "x")
        assert d2 == add(Rat(1), pow_(func("tan", Sym("x")), 2))

    def test_memo_matches_the_plain_product_rule_on_random(self):
        # seeded trees of profiles, built-ins, Pow(sum, -k), cos(u)^k and
        # constants, each differentiated by every coordinate twice: both
        # calls equal the plain product rule through `mul`, and the second
        # returns the object the first kept on the tree
        rng = random.Random(3131)
        t, x, y = Sym("t"), Sym("x"), Sym("y")
        atoms = [t, x, y, Sym("m"), Rat(2), Rat(Fraction(-1, 3)),
                 opaque("a", t), opaque("f", sub(x, t)), opaque("g", y, 1)]

        def tree(depth=0):
            pick = rng.random()
            if depth > 2 or pick < 0.25:
                return rng.choice(atoms)
            if pick < 0.45:
                return mul(*(pow_(tree(depth + 1), rng.choice((1, 1, 2, -1)))
                             for _ in range(rng.randint(2, 3))))
            if pick < 0.6:
                return add(*(tree(depth + 1) for _ in range(rng.randint(2, 3))))
            if pick < 0.7:
                return pow_(add(tree(depth + 1), rng.choice(atoms[:4]), ONE),
                            -rng.randint(1, 3))
            if pick < 0.8:
                return pow_(func("cos", tree(depth + 1)), rng.randint(-2, 3))
            name = rng.choice(("sin", "cos", "tan", "exp", "ln", "sqrt"))
            return func(name, add(tree(depth + 1), ONE))

        trees = [tree() for _ in range(300)]
        assert {type(e) for e in trees} == {Rat, Sym, symbolic.Func, Pow, Mul, Add}
        for e in trees:
            for name in CH.names:
                want = plain_diff(e, name)
                first = diff(e, name)
                assert first == want, (to_text(e), name)
                assert diff(e, name) is first

    def test_memo_is_kept_per_symbol(self):
        e = parse_expr("x^2*y + sin(x*y)", CH)
        dx, dy = diff(e, "x"), diff(e, "y")
        assert dx != dy
        assert diff(e, "x") is dx and diff(e, "y") is dy
        assert diff(e, "t") is ZERO


def plain_diff(e, name):
    """The derivative by the textbook rules, every product through `mul`:
    the reference that `diff`, its memo and its product-rule shortcuts
    must agree with."""
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.name == name else ZERO
    if isinstance(e, Add):
        return add(*(plain_diff(u, name) for u in e.terms))
    if isinstance(e, Mul):
        fs = e.factors
        return add(*(mul(plain_diff(f, name), *fs[:i], *fs[i + 1:])
                     for i, f in enumerate(fs)))
    if isinstance(e, Pow):
        return mul(Rat(e.exp), pow_(e.base, e.exp - 1), plain_diff(e.base, name))
    u = e.arg
    if e.opaque:
        outer = opaque(e.name, u, e.order + 1)
    elif e.name == "sin":
        outer = func("cos", u)
    elif e.name == "cos":
        outer = neg(func("sin", u))
    elif e.name == "tan":
        outer = add(ONE, pow_(func("tan", u), 2))
    elif e.name == "exp":
        outer = func("exp", u)
    elif e.name == "ln":
        outer = pow_(u, -1)
    else:
        outer = mul(Rat(Fraction(1, 2)), pow_(func("sqrt", u), -1))
    return mul(outer, plain_diff(u, name))


class TestSimplify:
    def test_collect(self):
        assert simplify(parse_expr("x + x", CH)) == mul(Rat(2), Sym("x"))

    def test_commutative_cancel(self):
        assert simplify(parse_expr("x*y - y*x", CH)) == ZERO

    def test_factor_cancel(self):
        assert simplify(parse_expr("(x^2*y)/x", CH)) == mul(Sym("x"), Sym("y"))

    def test_pythagorean(self):
        assert simplify(parse_expr("sin(t)^2 + cos(t)^2", CH)) == Rat(1)
        e = parse_expr("x*sin(t)^2 + x*cos(t)^2", CH)
        assert simplify(e) == Sym("x")

    def test_pythagorean_partial_coefficients(self):
        e = parse_expr("3*sin(t)^2 + 2*cos(t)^2", CH)
        s = simplify(e)
        # extracts the common part: 2 + sin(t)^2
        assert s == add(Rat(2), pow_(func("sin", Sym("t")), 2))

    def test_idempotent_on_random(self):
        # `simplify` keeps its result on the tree, so the second call on `s`
        # only reads that memo; the reparsed copy carries none
        rng = random.Random(42)
        for _ in range(60):
            e = rand_expr(rng, CH.names)
            s = simplify(e)
            assert simplify(s) == s
            assert simplify(parse_expr(to_text(s), CH)) == s

    def test_second_simplify_builds_nothing(self, monkeypatch):
        e = parse_expr("(x + sin(t))^2/(y - 1) + x*sin(t)^2 + x*cos(t)^2", CH)
        s = simplify(e)
        assert s != e  # the sin^2 + cos^2 rule rewrote it
        calls = []
        for name in ("add", "mul"):
            body = getattr(symbolic, name)
            monkeypatch.setattr(symbolic, name, lambda *a, body=body, name=name:
                                calls.append(name) or body(*a))
        assert simplify(s) is s
        assert simplify(e) is s
        assert calls == []

    def test_expansion(self):
        e = parse_expr("(x + y)^2", CH)
        assert simplify(e) == parse_expr("x^2 + 2*x*y + y^2", CH)

    # (input, its normal form as printed); r and m are parameters
    NORMAL_FORMS = [
        ("(r^2 - 4*m^2)/(r - 2*m)", "r + 2*m"),
        ("1/(1 - 2*m/r)", "r/(r - 2*m)"),
        ("cos(t)^2 + 3*sin(t)", "1 - sin(t)^2 + 3*sin(t)"),
        ("1/(1 - L*r^2)", "1/(1 - L*r^2)"),
        ("1/(x + y/2)", "2/(y + 2*x)"),
        ("1/r + 1/(r - 2*m)", "-2*m/r/(r - 2*m) + 2/(r - 2*m)"),
        ("cos(x)^3/(1 - sin(x))", "cos(x) + cos(x)*sin(x)"),
        ("(sin(t)^2 - 1)/(sin(t) - 1) - sin(t) - 1", "0"),
        # cos(1)^2 shows up only once the arguments are simplified
        ("cos(sin(y)^2 + cos(y)^2)*cos(1)", "1 - sin(1)^2"),
        # a negative power of cos(u) takes the rational path too
        ("(1 - sin(x)^2)/cos(x)^2", "1"),
        ("sin(x)^2/cos(x)^2 + 1", "1/cos(x)^2"),
        ("(1 - sin(x)^2)/cos(x)", "cos(x)"),
        # inverting a one-term numerator, once reduced modulo sin^2 + cos^2
        ("1/(sin(x)^2 + cos(x)^2)", "1"),
        ("x/(sin(x)^2 + cos(x)^2)^2", "x"),
    ]

    @pytest.mark.parametrize("text, expected", NORMAL_FORMS)
    def test_rational_normal_form(self, text, expected):
        params = ("m", "r", "L")
        s = simplify(parse_expr(text, CH, params))
        assert to_text(s) == expected
        assert parse_expr(expected, CH, params) == s
        assert simplify(s) is s
        assert simplify(parse_expr(to_text(s), CH, params)) == s

    def test_inverse_of_a_value_with_a_denominator(self):
        # 1/(n/d) multiplies the old denominator d back into the numerator
        s = simplify(parse_expr("(1 + 1/(1 + x))^-1", CH))
        assert to_text(s) == "1/(2 + x) + x/(2 + x)"
        want = parse_expr("(1 + x)/(2 + x)", CH)
        assert is_zero(sub(s, want)) is ZeroVerdict.ZERO

    def test_rational_normal_form_on_random(self):
        # sums of products with sum denominators and powers of sin and cos,
        # negative ones too: the normal form is a fixed point, also of a
        # memo-free copy, and keeps the value
        rng = random.Random(11)
        atoms = [Sym("t"), Sym("x"), Sym("y"), Rat(2), func("exp", Sym("x"))] + [
            func(f, Sym(v)) for f in ("sin", "cos") for v in ("t", "x")]

        def poly():
            return add(*(mul(*(pow_(a, rng.choice((1, 1, 2, 3, -1)))
                               for a in rng.sample(atoms, rng.randint(1, 3))))
                         for _ in range(rng.randint(1, 3))))

        def tree(depth=0):
            pick = rng.random()
            if depth > 1 or pick < 0.3:
                return poly()
            if pick < 0.55:
                return add(tree(depth + 1), tree(depth + 1))
            if pick < 0.8:
                return mul(tree(depth + 1), tree(depth + 1))
            base = tree(depth + 1)
            return base if base == ZERO else pow_(base, rng.choice((-1, -2)))

        for _ in range(150):
            e = tree()
            s = simplify(e)
            assert simplify(s) is s
            assert simplify(substitute(s, {})) == s
            env = {v: rng.uniform(0.3, 1.7) for v in ("t", "x", "y")}
            try:
                want = eval_at(e, env)
            except DomainError:
                continue
            assert eval_at(s, env) == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_cos_power_reduces_in_one_step(self):
        # cos(x)^60 becomes (1 - sin(x)^2)^30, expanded: 31 terms
        s = simplify(parse_expr("cos(x)^60", CH))
        assert s == pow_(parse_expr("1 - sin(x)^2", CH), 30)
        assert simplify(s) is s

    @pytest.mark.parametrize("text", [
        "1 + (x + 1)^-1200", "1 + (x + y + z)^-300", "(x + 1)^-1000000 + 1",
        "(x + 1)^-200 + (y + 1)^-200", "cos(x)^100000",
        # each term alone fits in the budget, the sum does not
        "cos(y)^140 + x*cos(y)^142"])
    def test_expansion_past_budget_keeps_the_constructors_form(self, text):
        # the normal form would cost more than _EXPANSION_BUDGET, so the
        # tree stays as the constructors built it
        e = parse_expr(text, CH)
        assert simplify(e) is e

    def test_failed_division_stops_at_the_degree_bound(self):
        # dividing x^200 by x + y + z under lex order would run through the
        # degree-199 monomials in x, y, z, past the budget; x^200 has degree
        # 0 in y and z, so the first quotient term already breaks the bound
        # deg(p) - deg(b) < 0 and proves that the division fails
        s = simplify(parse_expr("x^200/(2*x + 2*y + 2*z)", CH))
        assert s == parse_expr("x^200/2/(x + y + z)", CH)

    @staticmethod
    def rational_trigger(e):
        """Some node is a power of a sum or of cos(u)."""
        stack = [e]
        while stack:
            n = stack.pop()
            if isinstance(n, symbolic.Pow) and (
                    isinstance(n.base, symbolic.Add)
                    or (isinstance(n.base, symbolic.Func)
                        and n.base.name == "cos")):
                return True
            stack.extend(symbolic._children(n))
        return False

    def test_polynomial_trees_are_fixed_points(self, monkeypatch):
        # Laurent polynomials over kernels, products of them expanded by
        # the constructors: without a power of a sum or of cos(u),
        # simplify leaves the tree as it is and never takes the rational
        # path, so reports of such trees keep their bytes and their cost
        calls = []
        monkeypatch.setattr(symbolic, "_rational_form",
                            lambda e: calls.append(e))
        rng = random.Random(2024)
        kernels = [Sym(n) for n in CH.names] + [
            func("sin", Sym("t")), func("cos", Sym("x")),
            func("exp", parse_expr("x + y", CH)), opaque("a", Sym("t"))]
        checked = 0
        while checked < 200:
            polys = []
            for _ in range(rng.randint(1, 2)):
                terms = []
                for _ in range(rng.randint(1, 4)):
                    factors = [Rat(rng.choice((-3, -1, 1, 2, 5)))]
                    for k in rng.sample(kernels, rng.randint(0, 3)):
                        factors.append(pow_(k, rng.choice((-2, -1, 1, 2, 3))))
                    terms.append(mul(*factors))
                polys.append(add(*terms))
            e = mul(*polys)
            if self.rational_trigger(e):
                continue
            assert simplify(e) is e
            checked += 1
        assert calls == []

    def test_constructors_give_a_canonical_node_back_from_its_children(self):
        # the premise that lets `simplify` keep a node whose children all
        # simplify to themselves: the constructor of each node of a
        # simplified tree, given that node's children, builds it again
        rng = random.Random(1818)
        seen = set()
        for _ in range(500):
            e = rand_expr(rng, CH.names)
            if rng.random() < 0.3:
                e = mul(e, opaque("a", rand_expr(rng, CH.names)))
            stack = [simplify(e)]
            while stack:
                e = stack.pop()
                stack.extend(symbolic._children(e))
                if isinstance(e, symbolic.Add):
                    again = add(*e.terms)
                elif isinstance(e, symbolic.Mul):
                    again = mul(*e.factors)
                elif isinstance(e, symbolic.Pow):
                    again = pow_(e.base, e.exp)
                elif isinstance(e, symbolic.Func):
                    again = (opaque(e.name, e.arg, e.order) if e.opaque
                             else func(e.name, e.arg))
                else:
                    continue
                assert again == e, to_text(e)
                seen.add((type(e), getattr(e, "opaque", None)))
        assert len(seen) == 5  # Add, Mul, Pow, built-in and profile calls

    def test_first_simplify_of_a_polynomial_tree_builds_nothing(self, monkeypatch):
        # no power of a sum or of cos(u), so no node has a changed child
        # and none is rebuilt, at any depth
        trees = [parse_expr(text, CH, ("m",)) for text in (
            "3*x^2*y - 2*sin(t)*exp(x + y) + a(t)/z + 5",
            "m*x^-2*b'(t^2 + 1)*sin(exp(2*y) - z)^3 - 7/2",
            "(x + y)^3*(1 - t)")]
        assert not any(map(self.rational_trigger, trees))
        calls = []
        for name in ("add", "mul", "pow_", "func"):
            body = getattr(symbolic, name)
            monkeypatch.setattr(symbolic, name, lambda *a, body=body, name=name:
                                calls.append(name) or body(*a))
        for e in trees:
            assert simplify(e) is e
        assert calls == []

    def test_add_keeps_the_terms_that_meet_no_like_term(self):
        x, y, z, w = (Sym(n) for n in "xyzw")
        t1 = mul(Rat(3), x, y, z)
        t2 = mul(Rat(-2), x, w)
        s = add(t1, t2)
        assert isinstance(s, symbolic.Add)
        assert sorted(map(id, s.terms)) == sorted((id(t1), id(t2)))
        # like terms are merged into a new term
        assert add(t1, t2, t1) == add(mul(Rat(6), x, y, z), t2)
        assert add(t1, mul(Rat(-3), z, y, x)) == ZERO

    def test_mul_keeps_the_factors_it_does_not_merge(self):
        x, y = Sym("x"), Sym("y")
        p = pow_(add(x, ONE), -1)
        out = mul(x, p, y)
        assert isinstance(out, Mul) and any(f is p for f in out.factors)
        # a merged power is rebuilt
        q = pow_(x, 2)
        assert mul(q, x) == pow_(x, 3)
        assert any(f is q for f in mul(q, y).factors)

    def test_a_single_rational_is_kept_as_the_coefficient(self):
        half = Rat(Fraction(3, 2))
        x = Sym("x")
        assert mul(half, x).factors[0] is half
        assert add(half, x).terms[0] is half
        assert mul(half, x, Rat(2)) == mul(Rat(3), x)

    def test_zero_and_one_powers(self):
        assert pow_(Sym("x"), 0) == Rat(1)
        assert pow_(Sym("x"), 1) == Sym("x")
        assert mul(Sym("x"), Rat(0)) == ZERO
        assert mul(Sym("x"), Rat(1)) == Sym("x")

    def test_a_kernel_whose_argument_simplifies_to_a_constant_folds(self):
        # the argument of exp is zero once (x^2 - 1)/(x - 1) cancels, so the
        # kernel converts as the constant exp(0) = 1
        ch = Chart(("x", "y"))
        e = parse_expr("exp((x^2 - 1)/(x - 1) - x - 1)/(1 + y)", ch)
        assert simplify(e) == parse_expr("1/(1 + y)", ch)


CURVATURE_CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "bench", "corpus", "curvature")


class TestNormalFormShortcuts:
    """Work the rational normal form skips because its result is known:
    a division of a single term, which cannot succeed, and the conversion
    of a term already in normal form, which would give the term back."""

    @staticmethod
    def full_path(e):
        """The normal form of `e` without the shortcut, None past budget."""
        r = symbolic._Rational()
        try:
            return r.expr(r.value(e))
        except symbolic._OverBudget:
            return None

    def test_no_single_term_is_divided(self, monkeypatch):
        single = []
        divide = symbolic._divide_exact

        def watched(p, b, spend):
            if len(p) == 1:
                single.append(p)
            return divide(p, b, spend)

        monkeypatch.setattr(symbolic, "_divide_exact", watched)
        for path in sorted(glob.glob(os.path.join(CURVATURE_CORPUS, "*.json"))):
            with open(path, encoding="utf-8") as fh:
                scenario = json.load(fh)
            chart = Chart(scenario["chart"])
            for row in scenario["metric"]["matrix"]:
                for text in row:
                    simplify(parse_expr(text, chart, scenario.get("params", ())))
        chart = Chart(("t", "r", "th", "ph"))
        for text in ("(1/2)*(1 - 2*m/r)*(2*m/r^2)", "-(m/r^2)/(1 - 2*m/r)",
                     "r*(1 - 2*m/r)^-1 - 2*m/(1 - 2*m/r)",
                     "L*r/(1 - L*r^2) - r*sin(th)^2*(1 - L*r^2)",
                     "cos(th)/sin(th) - r/(1 - 2*m/r)"):
            simplify(parse_expr(text, chart, ("m", "L")))
        assert single == []

    def test_an_impossible_division_is_not_charged(self):
        r = symbolic._Rational()
        r.number(Sym("x"))
        b = r.base_number({(1,): 1, (): 1})  # x + 1
        assert r.cancel({(2,): 3}, {b: 1}) == ({(2,): 3}, {b: 1})
        assert r.budget == symbolic._EXPANSION_BUDGET

    REJECTED = {
        "negative constant lead": "1/(-1 + x)",
        "content 2": "1/(2 + 2*x)",
        "Fraction coefficient in a base": "1/(1/2 + x)",
        "Laurent base": "1/(1 - 2*m/x)",
        "cos(x)^2 in the term": "cos(x)^2/(1 + y)",
        "cos(x)^2 in a base": "1/(1 + cos(x)^2)",
    }

    @pytest.mark.parametrize("text", REJECTED.values(), ids=REJECTED.keys())
    def test_terms_not_in_normal_form_are_converted(self, text):
        e = parse_expr(text, CH, ("m",))
        assert not symbolic._normal_term(e)
        assert self.full_path(e) != e

    def test_an_unsimplified_function_argument_is_converted(self):
        arg = pow_(add(Rat(2), mul(Rat(2), Sym("x"))), -1)  # 1/(2 + 2*x)
        e = mul(func("sin", arg), pow_(add(ONE, Sym("y")), -1))
        assert not symbolic._normal_term(e)
        assert self.full_path(e) != e

    @pytest.mark.parametrize("text", ["r^5*sin(th)^2/(r - 2*m)", "-1/(1 - L*r^2)"])
    def test_terms_in_normal_form_come_back_unconverted(self, text, monkeypatch):
        e = parse_expr(text, Chart(("t", "r", "th", "ph")), ("m", "L"))
        assert symbolic._normal_term(e)
        assert self.full_path(e) == e
        monkeypatch.setattr(symbolic, "_Rational", None)  # never reached
        assert symbolic._rational_form(e) is e
        assert simplify(e) is e

    def test_recognised_terms_equal_the_full_path(self):
        # seeded terms c * kernel powers / (bases)^k over random integer
        # polynomials; whenever a term is recognised, converting it must
        # give it back (or go past the budget, where simplify keeps it too)
        rng = random.Random(2020)
        x, y, t = Sym("x"), Sym("y"), Sym("t")
        kernels = [x, y, t, func("sin", t), func("cos", x), func("exp", y),
                   opaque("a", t), func("sin", add(x, y)),
                   func("cos", mul(Rat(2), t)), opaque("b", mul(x, y), 1)]

        def monomial(low, high):
            factors = [pow_(k, rng.choice((low, 1, 1, high)))
                       for k in rng.sample(kernels, rng.randint(0, 2))]
            return mul(*factors)

        def base():
            while True:
                terms = [mul(Rat(rng.choice((-3, -2, -1, 1, 1, 1, 2, 3))),
                             monomial(1, 2)) for _ in range(rng.randint(2, 4))]
                if rng.random() < 0.1:
                    terms[0] = mul(Rat(Fraction(1, 2)), terms[0])
                elif rng.random() < 0.1:
                    terms[0] = mul(terms[0], pow_(x, -1))
                b = add(*terms)
                if isinstance(b, symbolic.Add):
                    return b

        recognised = checked = 0
        while checked < 3000:
            factors = [Rat(rng.choice((-2, -1, 1, 1, 3, Fraction(1, 2)))),
                       monomial(-1, 2)]
            for _ in range(rng.randint(1, 2)):
                factors.append(pow_(base(), -rng.randint(1, 2)))
            e = mul(*factors)
            if isinstance(e, symbolic.Add) or not symbolic._needs_rational(e):
                continue
            checked += 1
            if symbolic._normal_term(e):
                recognised += 1
                out = self.full_path(e)
                assert out is None or out == e, to_text(e)
        assert 500 < recognised < 2500  # both branches are exercised


NF_CHART = Chart(("x", "y", "r", "u"))
NF_COEFFS = ("1", "-1", "2", "3", "-3", "1/2", "-1/2", "3/2", "2/3", "-5/4", "7/6")
NF_LEADS = ("2", "3", "-2", "5", "4", "1/2", "3/4")
NF_KERNELS = ("x", "y", "r", "m", "sin(u)", "cos(u)")
NF_PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "normal_form_pins.txt")


def normal_form_inputs(count=300, seed=3030):
    """Seeded rational functions with fractional coefficients and bases
    whose leading coefficient is not +-1 (-2*x + 3*m, 3/4*y + 7/6*r):
    removable factors, powers of cos(u), nested denominators and
    sin(u)^2 + cos(u)^2 as a divisor."""
    rng = random.Random(seed)

    def mono():
        ks = rng.sample(NF_KERNELS, rng.randint(1, 2))
        return "*".join(k if rng.random() < 0.7 else f"{k}^{rng.choice((2, 3, -1))}"
                        for k in ks)

    def base():
        a, b = rng.sample(("x", "y", "r", "m"), 2)
        return f"{rng.choice(NF_LEADS)}*{a} + {rng.choice(NF_COEFFS)}*{b}"

    def poly():
        return " + ".join(f"{rng.choice(NF_COEFFS)}*{mono()}"
                          for _ in range(rng.randint(1, 2)))

    def term():
        kind = rng.randrange(5)
        if kind == 0:  # a removable factor
            b = base()
            return f"({b})*({poly()})/({b})"
        if kind == 1:
            k = rng.choice((2, 3, 4, -2, -3))
            return f"{rng.choice(NF_COEFFS)}*cos(u)^{k}*({poly()})"
        if kind == 2:  # a nested denominator
            return f"1/(1/{mono()} + {rng.choice(NF_COEFFS)}/({base()}))"
        if kind == 3:
            return f"({poly()})/({base()})^{rng.choice((1, 2))}"
        return f"{rng.choice(NF_COEFFS)}/({base()}) - ({poly()})/(sin(u)^2 + cos(u)^2)"

    return [term() for _ in range(count)]


class TestIntegerNormalForm:
    """The rational normal form computes on ints: a value is an integer
    numerator over a positive int scale times its bases."""

    def test_normal_forms_are_pinned(self):
        # `normal_form_pins.txt` holds to_text(simplify(e)) for each input,
        # as the normal form over Fraction coefficients printed them
        with open(NF_PINS, encoding="utf-8") as fh:
            pins = fh.read().splitlines()
        inputs = normal_form_inputs()
        assert len(pins) == len(inputs) == 300
        for text, want in zip(inputs, pins):
            assert to_text(simplify(parse_expr(text, NF_CHART, ("m",)))) == want, text

    def test_a_non_integral_quotient_coefficient_ends_the_division(self):
        # x^2 + 1 by 2*x + 1: the first quotient coefficient is 1/2, so no
        # integer quotient exists (Gauss's lemma) after one step of 2
        spent = []
        assert symbolic._divide_exact({(2,): 1, (): 1}, {(1,): 2, (): 1},
                                      spent.append) is None
        assert spent == [2]
        # (4*x^2 - 1)/(2*x + 1) = 2*x - 1
        assert symbolic._divide_exact({(2,): 4, (): -1}, {(1,): 2, (): 1},
                                      spent.append) == {(1,): 2, (): -1}

    @pytest.mark.parametrize("text, value, verdict", [
        ("1/3", "0.3333333333333333", ZeroVerdict.NONZERO),
        ("-7/2", "-3.5", ZeroVerdict.NONZERO),
        ("10^400/3", "DomainError: constant too large for a float",
         ZeroVerdict.NONZERO),
        ("1/3 - 2/6", "0.0", ZeroVerdict.ZERO),
    ])
    def test_fractional_constants_evaluate_and_test_as_before(self, text, value,
                                                              verdict):
        e = parse_expr(text, CH)
        try:
            got = repr(eval_at(e, {}))
        except ExformalError as exc:
            got = f"{type(exc).__name__}: {exc}"
        assert got == value
        assert is_zero(e) is verdict


class TestKernelShortcuts:
    """A constant times a sum scales the sum's terms without a `mul` per
    term, 1 times a sum is the sum itself, and each gives the tree that the
    term-by-term product gives."""

    CONSTANTS = [1, -1, 2, -3, 12, Fraction(1, 2), Fraction(-2, 3),
                 Fraction(5, 7), Fraction(-7, 5)]

    @staticmethod
    def sums():
        """Seeded canonical sums, with a negative power of a sum, built-in
        and profile calls and constant terms among them."""
        rng = random.Random(2024)
        out = [parse_expr(text, CH) for text in (
            "x + 1", "1/2 - x", "2*x/3 - 3/2*y", "t - x + 1/(x + y)^2",
            "sin(x)*y - 2*a'(t) + 5", "x^-2 + 4*x^2/7 - z/(1 + t)")]
        while len(out) < 40:
            s = rand_expr(rng, ("x", "y", "z"))
            if isinstance(s, Add):
                out.append(s)
        return out

    def test_constant_times_sum_is_the_termwise_product(self):
        sums = self.sums()
        for s, u in zip(sums, sums[1:] + sums[:1]):
            for c in map(Rat, self.CONSTANTS):
                assert mul(c, s) == termwise_product(c, s)
                assert mul(s, c) == termwise_product(c, s)
                assert mul(c, s, u) == termwise_product(c, s, u)
            assert pow_(s, 2) == termwise_product(ONE, s, s)
            assert neg(s) == termwise_product(Rat(-1), s)
            assert neg(neg(s)) == s

    def test_one_times_a_sum_is_the_sum(self):
        for s in self.sums():
            assert mul(ONE, s) is s
            assert mul(s) is s
            assert mul(Rat(2), Rat(Fraction(1, 2)), s) is s

    def test_a_scaled_term_is_its_coefficient_times_its_rest(self):
        # the coefficient 1 leaves a bare factor or a Mul of the rest
        s = parse_expr("2*x + x*y/3 + sin(x)", CH)
        assert to_text(mul(Rat(Fraction(1, 2)), s)) == "x + sin(x)/2 + x*y/6"
        assert to_text(mul(Rat(3), s)) == "3*sin(x) + 6*x + x*y"

    def test_budget_charges_a_constant_times_a_sum(self):
        # the scaled terms are term products, charged as before
        big = add(*(pow_(Sym("x"), k) for k in range(1, 10_002)))
        with pytest.raises(ExformalError, match="a sum of 10001 terms to "
                                                "the power 1"):
            mul(Rat(2), big)

    def test_an_expression_minus_itself_is_the_shared_zero(self):
        # sub(a, a) answers with ZERO and no algebra; on canonical trees
        # that is what add(a, neg(a)) gives
        rng = random.Random(2026)
        for a in self.sums() + [rand_expr(rng, CH.names) for _ in range(40)]:
            assert add(a, neg(a)) is ZERO
            assert sub(a, a) is ZERO
        assert sub(ZERO, ZERO) is ZERO
        x = Sym("x")
        assert sub(x, Sym("x")) is ZERO  # equal, not one object
        assert sub(x, ONE) == add(x, Rat(-1))

    def test_an_expression_past_the_budget_minus_itself_is_zero(self):
        # the one place where the shortcut and add(a, neg(a)) differ: neg of
        # a sum of more than _EXPANSION_BUDGET terms raises
        big = add(*(pow_(Sym("x"), k) for k in range(1, 10_002)))
        with pytest.raises(ExformalError, match="10001 terms"):
            neg(big)
        assert sub(big, big) is ZERO


class TestCoefficientDomain:
    """An integral constant is a Python int, any other a Fraction."""

    def test_float_is_refused(self):
        # Fraction(0.1) would be 3602879701896397/36028797018963968
        for make in (Rat, rational):
            with pytest.raises(TypeError):
                make(0.5)
        half = rational("0.5")
        assert half == Rat(Fraction(1, 2)) and type(half.value) is Fraction

    def test_integral_results_are_ints(self):
        half = Rat(Fraction(1, 2))
        assert type(mul(half, Rat(2)).value) is int
        assert type(add(half, half).value) is int
        assert type(pow_(half, -2).value) is int
        assert pow_(Rat(2), -1) == half
        assert type(Rat(Fraction(6, 3)).value) is int
        assert type(parse_expr("2.0", CH).value) is int
        assert type(parse_expr("7", CH).value) is int

    def test_random_trees_keep_the_domain(self):
        # sums, products, powers (negative ones too), derivatives and
        # normal forms of seeded random trees with coefficients such as
        # 1/2 and -4/3
        rng = random.Random(29)
        for _ in range(120):
            a, b = rand_expr(rng, CH.names), rand_expr(rng, CH.names)
            k = rng.choice((-2, -1, 2, 3))
            trees = [add(a, b), mul(a, b), sub(a, mul(Rat(Fraction(1, 3)), b)),
                     diff(mul(a, b), "x"), simplify(add(a, pow_(b, -1)))]
            if a != ZERO:
                trees += [pow_(a, k), simplify(pow_(a, k)),
                          simplify(mul(b, pow_(a, -1)))]
            assert off_domain_constants(trees) == []

    def test_power_of_a_sum_past_the_budget_is_an_engine_error(self):
        # (x + 1)^99 spends 9898 term products of _EXPANSION_BUDGET, the
        # next power more than all of it
        assert len(pow_(parse_expr("x + 1", CH), 99).terms) == 100
        for text in ("(x + 1)^100", "(x + 1)^5000", "(x + y + z)^40"):
            with pytest.raises(ExformalError, match="term products"):
                parse_expr(text, CH)

    def test_power_of_a_constant_past_the_bound_is_an_engine_error(self):
        # the exponent times the larger bit length of the numerator and
        # denominator is past _POWER_BITS: 3^30000000 alone has 47.5 million
        # bits, and computing it used to stall
        for base, exp in ((Rat(3), 30_000_000), (Rat(3), -30_000_000),
                          (Rat(Fraction(2, 3)), -30_000_000),
                          (Rat(Fraction(1, 3**400_000)), 2)):
            with pytest.raises(ExformalError, match="to the power"):
                pow_(base, exp)
        # 1 and -1 take any power, and 2^99999 is within the bound
        assert pow_(Rat(-1), 10**9 + 1) == Rat(-1)
        assert pow_(Rat(1), -10**9) == Rat(1)
        assert pow_(Rat(2), 99_999).value == 2**99_999

    def test_product_of_sums_is_expanded_one_sum_at_a_time(self):
        # 18 sums, each two terms, merged after every step: 342 term
        # products, where distributing all of them at once takes 2^18
        text = "(1/" + "/".join(f"(x + {i})" for i in range(1, 19)) + ")^-1"
        start = time.perf_counter()
        e = parse_expr(text, CH)
        assert time.perf_counter() - start < 0.1
        assert len(e.terms) == 19
        assert substitute(e, {"x": Rat(1)}) == Rat(math.factorial(19))

    def test_product_of_sums_past_the_budget_is_an_engine_error(self):
        text = "(1/" + "/".join(f"(x + {i})" for i in range(1, 101)) + ")^-1"
        with pytest.raises(ExformalError, match="expanding a product of 100 "
                                                "sums takes more than 10000"):
            parse_expr(text, CH)


class TestConstantFolding:
    """Constants are folded on the reduced (numerator, denominator) pair of
    each Rat's key; seeded constants, 0, +-1, small fractions, about 2^200
    and about 1/3^50 among them, are checked against `Fraction`."""

    X, Y = Sym("x"), Sym("y")

    @staticmethod
    def constants(rng, n):
        edges = [0, 1, -1, 2**200 + 1, -(2**200) + 3, Fraction(1, 3**50),
                 Fraction(-(2**200), 3**50), Fraction(3**50, 2**200 + 1)]
        out = []
        for _ in range(n):
            kind = rng.randrange(4)
            if kind == 0:
                out.append(rng.choice(edges))
            elif kind == 1:
                out.append(rng.randint(-40, 40))
            elif kind == 2:
                out.append(Fraction(rng.randint(-30, 30), rng.randint(1, 30)))
            else:
                out.append(Fraction(rng.randint(-2**200, 2**200),
                                    rng.choice((3**50, rng.randint(1, 2**70)))))
        return out

    @staticmethod
    def coefficients(e):
        """{keys of a term's other factors: its coefficient} of a canonical
        tree."""
        out = {}
        for t in (e.terms if isinstance(e, Add) else (e,)):
            fs = t.factors if isinstance(t, Mul) else (t,)
            c = fs[0].value if isinstance(fs[0], Rat) else 1
            out[tuple(f.key for f in fs if not isinstance(f, Rat))] = c
        return {m: c for m, c in out.items() if c}

    @staticmethod
    def assert_reduced(e, want):
        assert isinstance(e, Rat) and e.value == want
        _, n, d = e.key
        assert d > 0 and math.gcd(n, d) == 1 and Fraction(n, d) == want

    def test_folds_match_fraction_arithmetic(self):
        rng = random.Random(28)
        cs = self.constants(rng, 2000)
        x, y = self.X, self.Y
        trees = []
        for a, b in zip(cs[::2], cs[1::2]):
            ra, rb = Rat(a), Rat(b)
            self.assert_reduced(ra, Fraction(a))
            for got, want in ((add(ra, rb), a + b), (mul(ra, rb), a * b),
                              (sub(ra, rb), a - b)):
                self.assert_reduced(got, want)
                trees.append(got)
            for k in range(-3, 4):
                if a == 0 and k < 0:
                    with pytest.raises(DomainError, match="0 raised to a negative"):
                        pow_(ra, k)
                    continue
                got = pow_(ra, k)
                self.assert_reduced(got, Fraction(a) ** k)
                trees.append(got)
            # like terms merge their coefficients
            got = add(mul(ra, x), mul(rb, pow_(y, 2)), mul(rb, x))
            want = {(x.key,): a + b, (Pow(y, 2).key,): b}
            assert self.coefficients(got) == {m: c for m, c in want.items() if c}
            trees.append(got)
            # a constant times a sum scales each term's coefficient
            s = add(mul(rb, x), mul(Rat(b + 1), pow_(y, 2)), Rat(a - b))
            got = mul(ra, s)
            want = {(x.key,): a * b, (Pow(y, 2).key,): a * (b + 1), (): a * (a - b)}
            assert self.coefficients(got) == {m: c for m, c in want.items() if c}
            trees.append(got)
        assert off_domain_constants(trees) == []

    def test_parse_and_print_match_fraction_arithmetic(self):
        rng = random.Random(29)
        ch = Chart(("x",))
        x = self.X
        for _ in range(300):
            p, r = rng.randint(-60, 60), rng.choice((rng.randint(-60, 60), 2**200))
            q, w = rng.randint(1, 60), rng.choice((rng.randint(1, 60), 3**50))
            e = parse_expr(f"{p}/{q}*x + {r}/{w}*x^2", ch)
            want = {(x.key,): Fraction(p, q), (Pow(x, 2).key,): Fraction(r, w)}
            assert self.coefficients(e) == {m: c for m, c in want.items() if c}
            assert parse_expr(to_text(e), ch) == e
            assert off_domain_constants(e) == []
            c = Fraction(p, q) * Fraction(r, w)
            mag = abs(c)
            body = (f"{mag.numerator}*x" if mag.numerator != 1 else "x") + (
                f"/{mag.denominator}" if mag.denominator != 1 else "")
            want_text = ("-" if c < 0 else "") + body if c else "0"
            assert to_text(mul(Rat(c), x)) == want_text
            assert to_text(Rat(c)) == (str(c.numerator) if c.denominator == 1
                                       else f"{c.numerator}/{c.denominator}")

    def test_a_zero_denominator_is_a_domain_error(self):
        # as `parse_expr("1/0")` is; `Fraction("1/0")` raises ZeroDivisionError
        for make in (Rat, rational):
            for text in ("1/0", "3/0", "-2/0"):
                with pytest.raises(DomainError, match="zero denominator"):
                    make(text)
        with pytest.raises(DomainError, match="0 raised to a negative power"):
            parse_expr("1/0", CH)


class TestPrintRoundTrip:
    CASES = [
        "x^2 + sin(t)",
        "3*x/2 - 1/4",
        "a''(t)*x - f(z - t)",
        "1/(x + y/2)",
        "-x^3*y + 2/7",
        "exp(x)*ln(y) + sqrt(z)",
        "tan(x)^2/(1 + x^2)",
        "(r^2 - 4*m^2)/(r - 2*m)",
        "1/(1 - 2*m/r)",
        "cos(t)^2 + 3*sin(t)",
        "-2*t/(1 + t^2)^2",
        "sin(a'(t))*a(t) + b''(cos(x) + t)^-2 - a(sin(t))",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_fixpoint(self, text):
        e = parse_expr(text, CH, ("m", "r"))
        printed = to_text(e)
        assert parse_expr(printed, CH, ("m", "r")) == e

    def test_negative_power_of_a_sum_reads_back_unexpanded(self):
        # a/(s)^k is a*s^-k, the tree it was printed from, not a/(s^k expanded)
        e = simplify(diff(parse_expr("1/(1 + t^2)", CH), "t"))
        assert to_text(e) == "-2*t/(1 + t^2)^2"
        assert parse_expr(to_text(e), CH) == e
        assert parse_expr("1/(x + 1)^100", CH) == pow_(parse_expr("x + 1", CH), -100)

    def test_integer_past_digit_limit_is_an_engine_error(self):
        # 2^99999 has 30103 digits, past the interpreter's 4300-digit limit
        with pytest.raises(ExformalError):
            to_text(parse_expr("2^99999", CH))

    def test_fixpoint_random(self):
        rng = random.Random(7)
        for _ in range(80):
            e = rand_expr(rng, CH.names)
            assert parse_expr(to_text(e), CH) == e


class TestEval:
    def test_square(self):
        assert eval_at(parse_expr("x^2", CH), {"x": 3}) == 9

    def test_ln_negative_domain_error(self):
        with pytest.raises(DomainError):
            eval_at(func("ln", Sym("x")), {"x": -1})

    def test_identity_close(self):
        v = eval_at(parse_expr("sin(t)^2 + cos(t)^2", CH), {"t": 0.7})
        assert abs(v - 1.0) < 1e-12

    def test_unbound(self):
        with pytest.raises(UnboundSymbolError):
            eval_at(Sym("x"), {})
        with pytest.raises(UnboundSymbolError):
            eval_at(opaque("a", Sym("x"), 0), {"x": 1.0})

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_at(pow_(Sym("x"), -1), {"x": 0.0})

    @pytest.mark.parametrize("text, x", [("x^3", 1e200), ("1/x^200", 1e-200)])
    def test_power_overflow_is_domain_error(self, text, x):
        with pytest.raises(DomainError):
            eval_at(parse_expr(text, CH), {"x": x})

    def test_opaque_fn_table(self):
        e = opaque("a", Sym("t"), 1)
        assert eval_at(e, {"t": 2.0}, {"a'": lambda s: 3 * s}) == 6.0

    def test_huge_constant_is_domain_error(self):
        with pytest.raises(DomainError, match="constant too large for a float"):
            eval_at(parse_expr("10^400*x", CH), {"x": 1.0})

    def test_trig_of_infinity_is_domain_error(self):
        with pytest.raises(DomainError, match="cos of an infinite value"):
            eval_at(parse_expr("cos(x*y)", CH), {"x": 1e200, "y": 1e200})


# Values and errors of `eval_at` at fixed points, as printed by the
# recursive evaluator it replaced: the plan evaluator computes each
# distinct subexpression once but in the same float operations and order,
# so every value is bit-identical and the first failing node is the same.
# The fifth tree divides by the expanded (x^2 + 1)^2, spelled out because
# a/(s)^k now reads as a*s^-k.
EVAL_POINTS = [
    {"x": 0.3, "y": -1.7},
    {"x": 1.25, "y": 1.25},
    {"x": -0.5, "y": 2.0},
    {"x": 1e200, "y": 1e-200},
    {"x": 20.0, "y": 30.0},
    {"x": 0.0, "y": 0.0},
]
EVAL_FNS = {"a": lambda s: s * s + 0.5, "a'": lambda s: 2 * s,
            "a''": lambda s: 2.0}
EVAL_PINS = [
    ("3/7*x*y*sin(x)*cos(y)*exp(x*y)/(x + y)*ln(y^2 + 1)*a(x)", [
        '-0.0028609536951343553',
        '0.7421269429813493',
        '-0.025312831433365934',
        'DomainError: value is not finite',
        '7.44565375622913e+263',
        'DomainError: division by zero',
    ]),
    ("x*y*sin(x)*cos(y)*exp(x)*tan(y)/(x - y)", [
        '0.10087431746856002',
        'DomainError: division by zero',
        '-0.10576448945119672',
        'DomainError: exp overflow',
        '26257687024.33062',
        'DomainError: division by zero',
    ]),
    ('1/(x + y) + x/(x + y) + sin(1/(x + y))^2 + cos(1/(x + y))', [
        '0.25611696950109786',
        '1.9727076393293026',
        '1.5016018074587867',
        '2.0',
        '1.420199953336089',
        'DomainError: division by zero',
    ]),
    ('sin(x*y)^2 + cos(x*y)*sin(x*y) + exp(x*y)/(x*y - 1)', [
        '-0.5854161778669076',
        '9.489530553264588',
        '0.0694849842750091',
        'DomainError: division by zero',
        '6.298865277011586e+257',
        '-1.0',
    ]),
    ('sqrt(x^2 + 1)*ln(x^2 + 1)/(x^4 + 2*x^2 + 1) - 3/7*x^5*y^-3', [
        '0.0759397379707651',
        '-0.4402467068528323',
        '0.16134263497622853',
        'DomainError: power overflow',
        '-50.792904349387115',
        'DomainError: division by zero',
    ]),
    ('tan(x - y)^3 + 1/tan(x - y) + (x - y)^-2', [
        '-10.63991013831594',
        'DomainError: division by zero',
        '1.9155181785978561',
        '-1.7844045659815093',
        '-1.8049036291859486',
        'DomainError: division by zero',
    ]),
    ("a(x*y)^2 + a'(x*y)*a(x*y) + a''(x*y)/(a(x*y) - 1)", [
        '-8.534356992917884',
        '18.873946345308177',
        '3.25',
        '9.25',
        '130032360600.25',
        '-3.75',
    ]),
    ('ln(x - y) + sqrt(y)', [
        'DomainError: sqrt of a negative value',
        'DomainError: ln of a non-positive value',
        'DomainError: ln of a non-positive value',
        '460.51701859880916',
        'DomainError: ln of a non-positive value',
        'DomainError: ln of a non-positive value',
    ]),
    ('exp(x*y^2)', [
        '2.3797608513294968',
        '7.050686584819912',
        '0.1353352832366127',
        '1.0',
        'DomainError: exp overflow',
        '1.0',
    ]),
    ('x^3*y^-3', [
        '-0.005495623855078363',
        '1.0',
        '-0.015625',
        'DomainError: power overflow',
        '0.2962962962962963',
        'DomainError: division by zero',
    ]),
]


@pytest.mark.parametrize("text, expected", EVAL_PINS)
def test_eval_at_pinned(text, expected):
    e = parse_expr(text, CH)
    for at, want in zip(EVAL_POINTS, expected):
        try:
            got = repr(eval_at(e, at, EVAL_FNS))
        except ExformalError as exc:
            got = f"{type(exc).__name__}: {exc}"
        assert got == want, at


class TestFiniteDifferenceOracle:
    """diff agrees with central differences (the stated derivative oracle)."""

    def test_against_central_differences(self):
        rng = random.Random(11)
        h = 1e-5
        exprs_done = 0
        while exprs_done < 6:
            e = rand_expr(rng, CH.names)
            name = rng.choice(CH.names)
            d = diff(e, name)
            if d == ZERO:
                continue
            fns = interpretation_table(e)
            points_done = 0
            while points_done < 10:
                env = {n: rng.uniform(-1.2, 1.2) for n in CH.names}
                try:
                    up = dict(env, **{name: env[name] + h})
                    dn = dict(env, **{name: env[name] - h})
                    fd = (eval_at(e, up, fns) - eval_at(e, dn, fns)) / (2 * h)
                    exact = eval_at(d, env, fns)
                except DomainError:
                    continue
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))
                points_done += 1
            exprs_done += 1

    @pytest.mark.parametrize("order", [3, 4])
    def test_profile_derivatives_match_central_differences(self, order):
        # derivative k of a profile's interpretation is the central
        # difference of derivative k - 1
        interp = symbolic._OpaqueInterp(random.Random(f"0:a{order}"))
        lower, exact = interp.derivative(order - 1), interp.derivative(order)
        h = 1e-5
        for s in (-1.1, -0.3, 0.0, 0.7, 1.2):
            fd = (lower(s + h) - lower(s - h)) / (2 * h)
            assert abs(fd - exact(s)) <= 1e-6 * max(1.0, abs(exact(s)))


class TestIsZero:
    def test_pythagorean_symbolic(self):
        assert is_zero(parse_expr("sin(t)^2 + cos(t)^2 - 1", CH)) is ZeroVerdict.ZERO

    def test_commutative(self):
        assert is_zero(parse_expr("x*y - y*x", CH)) is ZeroVerdict.ZERO

    def test_nonzero(self):
        assert is_zero(parse_expr("x + 1", CH)) is ZeroVerdict.NONZERO

    def test_opaque_consistency(self):
        e = parse_expr("a(t)*a(t) - a(t)^2", CH)
        assert is_zero(e) is ZeroVerdict.ZERO
        e2 = parse_expr("a'(t) - a(t)", CH)
        assert is_zero(e2) is ZeroVerdict.NONZERO

    def test_deterministic_for_seed(self):
        e = parse_expr("sin(x)*cos(y) - sin(x + y)/2 - sin(x - y)/2", CH)
        assert is_zero(e, 123) is is_zero(e, 123)
        assert is_zero(e, 123) is ZeroVerdict.ZERO

    def test_domain_redraw(self):
        # 1/x is nonzero; points near the pole get redrawn, not crashed
        assert is_zero(parse_expr("1/x", CH)) is ZeroVerdict.NONZERO

    def test_power_overflow_redraws(self):
        # 1/x^1100 overflows a float at every point with |x| < 0.52
        assert is_zero(parse_expr("1/x^1100", CH)) is ZeroVerdict.NONZERO

    def test_fixed_tolerance(self):
        # |x|/10^10 <= 2e-10 on the box (-2, 2) is within the tolerance
        # 1e-9; |x|/10^8 is not at every one of the 20 points of seed 0
        assert is_zero(parse_expr("x/10^10", CH)) is ZeroVerdict.ZERO
        assert is_zero(parse_expr("x/10^8", CH)) is ZeroVerdict.NONZERO

    def test_one_point_generator(self):
        # the determinant check's points are the box center, then those of
        # is_zero for the same seed
        points = symbolic._sample_points(("x", "y"), 5)
        centered = symbolic._sample_points(("x", "y"), 5, center=True)
        assert next(centered) == {"x": 0.0, "y": 0.0}
        for _ in range(30):
            p = next(points)
            assert p == next(centered)
            assert all(-2.0 <= v <= 2.0 for v in p.values())

    def test_huge_constant_redraws_until_unknown(self):
        # 10^400 is past the float range, so no point can be evaluated
        assert is_zero(parse_expr("10^400*x", CH)) is ZeroVerdict.UNKNOWN

    @pytest.mark.parametrize("seed", range(10))
    def test_non_finite_value_redraws_until_unknown(self, seed):
        # each product overflows a float to inf at every point of the box,
        # and inf - inf is nan, which is within no tolerance: the point is
        # redrawn, never counted as zero
        e = parse_expr("17*10^307*exp(x^2 + 1) - 17*10^307*exp(y^2 + 1)", CH)
        assert is_zero(e, seed) is ZeroVerdict.UNKNOWN


class TestFoldVerdicts:
    KINDS = list(ZeroVerdict) + list(Verdict)

    @pytest.mark.parametrize("size", range(4))
    def test_fail_beats_unknown_beats_pass(self, size):
        for combo in itertools.product(self.KINDS, repeat=size):
            values = {v.value for v in combo}
            if values & {"NonZero", "Fail"}:
                expected = Verdict.FAIL
            elif "Unknown" in values:
                expected = Verdict.UNKNOWN
            else:
                expected = Verdict.PASS
            assert _fold_verdicts(combo) is expected, combo

    def test_consumes_every_verdict(self):
        verdicts = iter([ZeroVerdict.NONZERO, ZeroVerdict.ZERO, Verdict.PASS])
        assert _fold_verdicts(verdicts) is Verdict.FAIL
        assert next(verdicts, None) is None


class TestSubstitute:
    def test_symbol(self):
        e = parse_expr("x^2 + y", CH)
        assert substitute(e, {"x": Rat(3)}) == add(Rat(9), Sym("y"))

    def test_a_tree_without_the_symbol_comes_back_as_it_is(self):
        e = parse_expr("x^2*sin(y) + a'(t)/(1 + x)^2 - 3*f(x*y)", CH)
        assert substitute(e, {"z": Sym("t")}) is e
        assert substitute(e, {}) is e
        out = substitute(e, {"t": Rat(2)})
        assert out == parse_expr("x^2*sin(y) + a'(2)/(1 + x)^2 - 3*f(x*y)", CH)
        kept = [t for t in e.terms if "t" not in symbolic.free_symbols(t)]
        assert len(kept) == 2
        assert all(any(u is t for u in out.terms) for t in kept)

    def test_function_profile(self):
        e = parse_expr("a'(t) + a(t)", CH)
        prof = parse_expr("u^2", Chart(("u",)))
        out = substitute_function(e, "a", "u", prof)
        assert out == parse_expr("t^2 + 2*t", CH)

    # The rebuild walk reaches every node kind: a symbol inside a built-in
    # function, an opaque argument, a negative power of a sum and a nested
    # profile.  Substitution rebuilds through the constructors only, so the
    # sin^2 + cos^2 pair below is left as it is.
    @pytest.mark.parametrize("text, mapping, expected", [
        ("sin(x*y) + cos(x)^2 + sin(x)^2", {"x": "t + 1"},
         "sin(y + t*y) + cos(1 + t)^2 + sin(1 + t)^2"),
        ("f(x + y)*z", {"x": "2*t", "z": "y"}, "y*f(y + 2*t)"),
        ("1/(x + y)^2 + x", {"y": "t - x"}, "x + 1/t^2"),
        ("a(a(t)) + a'(t)", {"t": "x + y"}, "a(a(x + y)) + a'(x + y)"),
    ])
    def test_symbol_in_every_node_kind(self, text, mapping, expected):
        out = substitute(parse_expr(text, CH),
                         {k: parse_expr(v, CH) for k, v in mapping.items()})
        assert to_text(out) == expected

    @pytest.mark.parametrize("profile, expected", [
        ("u^3", "72*t^7"),
        ("sin(u)", "-cos(sin(t))*sin(t) - sin(sin(t))*cos(t)^2"),
        ("u^2 + u", "4 + 12*t + 12*t^2"),
    ])
    def test_nested_profile_second_derivative(self, profile, expected):
        e = diff(diff(parse_expr("a(a(t))", CH), "t"), "t")
        assert to_text(e) == "a'(a(t))*a''(t) + a''(a(t))*a'(t)^2"
        out = substitute_function(e, "a", "u",
                                  parse_expr(profile, Chart(("u",))))
        assert to_text(out) == expected

    # The sum under 1/ is spelled out expanded, as the constructors left
    # (a(t) + x)^2 before a/(s)^k read as a*s^-k.
    @pytest.mark.parametrize("text, expected", [
        ("sin(a(x)) + f(a(y)) + 1/(a(t)^2 + 2*a(t)*x + x^2)",
         "sin(x^2) + f(y^2) + 1/(t^4 + x^2 + 2*x*t^2)"),
        ("a(x + a(y))*x", "x^3 + 2*x^2*y^2 + x*y^4"),
    ])
    def test_profile_in_every_node_kind(self, text, expected):
        out = substitute_function(parse_expr(text, CH), "a", "u",
                                  parse_expr("u^2", Chart(("u",))))
        assert to_text(out) == expected
