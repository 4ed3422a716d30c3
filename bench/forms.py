"""Seeded generator of the ``forms`` workload: light degree-1/2 scenarios.

``generate(seed, out_dir)`` writes one JSON scenario per entry of ``PLAN``
(122 files) and returns ``[(path, known), ...]`` in a seeded order.  Every
known answer follows from how the input was built, never from engine
output:

* plane waves ``E = c f(x_i - s t) e_j``, ``B = s e_i x E`` solve the vacuum
  Maxwell equations; a Coulomb field ``c/r^2 dr`` (with an optional
  monopole ``g sin(th) dth^dph``) is closed and co-closed for ``r > 0``;
  ``c/r^n`` with ``n != 2`` and a static ``E_j = c x_j^n`` violate Gauss;
* ``H = sum p_i^2/(2 m_i) + V(q)`` flows in the kernel of ``d theta``; the
  corrupted (sign-flipped) flow does not when ``V`` depends on ``q``;
* ``d phi`` of a generated potential is closed (differentiated here: the
  power rule on monomials and ``sin``/``cos``/``exp`` of one coordinate),
  and ``d(d phi) = 0``; adding ``c x_j^n dx_i`` (``i != j``) breaks closure;
* ``a ^ a = 0`` for a 1-form; a positive constant mass matrix makes the
  Legendre transform nondegenerate;
* ``alpha dT + beta T/V dV`` has integrating factor ``1/T`` and
  ``c (n y dx + x dy)`` has ``x^(n-1)``; ``a x^m y dx + (b x + y^k) dy``
  yields no single-variable candidate, so none is found;
* on a 2-dim surface the Einstein tensor vanishes identically;
* malformed inputs must exit 2 with a message and no traceback.

The count of each kind and each file's shape (number of terms, degrees,
dimension, profile kind) follow from the file's index; the seed draws the
coefficients, variables and axes.  So the inputs differ from seed to seed
while the cost of a pass hardly does.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

# The mix has no measured source: there is no record of which scenarios
# users run.  The assumption is the plainest one: each of the six kinds of
# well-formed content the workload is defined by (Maxwell fields,
# Hamiltonian flows, exact 1-forms, perturbed 1-forms, form algebra,
# integrating factors) gets an equal share of 18 files, split as evenly as
# whole files allow between its variants (verified cases and controls);
# malformed files are 10% (12, two of each shape).  The two surface files
# ride along so that the connection layer is not empty on this workload.
PLAN = (
    ("maxwell_wave", 5),
    ("coulomb", 5),
    ("coulomb_control", 4),
    ("static_e_control", 4),
    ("hamiltonian", 9),
    ("hamiltonian_corrupted", 9),
    ("exact_1form", 18),
    ("perturbed_1form", 18),
    ("algebra", 18),
    ("first_law", 9),
    ("no_factor", 9),
    ("surface", 2),
    ("malformed", 12),
)

MALFORMED_SHAPES = (
    "forms_list", "metric_rows", "eval_at_text",
    "syntax_error", "unknown_symbol", "truncated_json",
)

SPACETIME = ["t", "x", "y", "z"]
MINKOWSKI = {
    "matrix": [["-1", "0", "0", "0"], ["0", "1", "0", "0"],
               ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    "det_sign": -1,
}
SPHERICAL = {
    "matrix": [["-1", "0", "0", "0"], ["0", "1", "0", "0"],
               ["0", "0", "r^2", "0"], ["0", "0", "0", "r^2*sin(th)^2"]],
    "det_sign": -1,
}
EUCLIDEAN3 = {
    "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "det_sign": 1,
}
ZERO4 = ["0", "0", "0", "0"]


# Verdicts of a falsification control, and of a verified identity.
CONTROL = {"Fail", "NonClosed"}
SUCCESS = {"Pass", "Closed", "Exact"}


def known(*verdicts, **values):
    """Known answer of one task: accepted verdicts, optional value checks."""
    return {"verdicts": list(verdicts), "values": values}


class _Gen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seen: set[str] = set()

    # -- numbers and expressions --------------------------------------------

    def coeff(self, positive=False) -> Fraction:
        r = self.rng
        c = Fraction(r.randint(1, 97), r.randint(1, 13))
        return c if positive or r.random() < 0.5 else -c

    def fresh(self, exprs) -> bool:
        """Record a file's expressions; False if another file used one."""
        exprs = {e for e in exprs if e != "0"}
        if exprs & self.seen:
            return False
        self.seen |= exprs
        return True

    # -- potentials and their exact derivatives -----------------------------

    def exponents(self, n: int, degree: int) -> tuple[int, ...]:
        """Random exponents of ``n`` variables with a fixed total degree."""
        exps = [0] * n
        for _ in range(degree):
            exps[self.rng.randrange(n)] += 1
        return tuple(exps)

    def potential(self, names, index):
        """Terms of phi: ('mono', c, exps) or (fn, c, k, axis)."""
        r = self.rng
        fn = ("sin", "cos", "exp")[index % 3]
        return [("mono", self.coeff(), self.exponents(len(names), 3)),
                ("mono", self.coeff(), self.exponents(len(names), 2)),
                (fn, self.coeff(), r.randint(1, 3), r.randrange(len(names)))]

    @staticmethod
    def term_text(c: Fraction, factors) -> str:
        body = "*".join(f for f in factors if f) or "1"
        return f"({c})*{body}"

    def phi_text(self, terms, names) -> str:
        return " + ".join(self._term(t, names) for t in terms)

    def _term(self, t, names) -> str:
        if t[0] == "mono":
            _, c, exps = t
            return self.term_text(c, [_pw(n, e) for n, e in zip(names, exps)])
        fn, c, k, axis = t
        return self.term_text(c, [f"{fn}({k}*{names[axis]})"])

    def d_phi(self, terms, names) -> list[str]:
        """Component i of d phi, as text, by the power and chain rules."""
        comps = []
        for i, name in enumerate(names):
            parts = []
            for t in terms:
                if t[0] == "mono":
                    _, c, exps = t
                    if exps[i] == 0:
                        continue
                    new = list(exps)
                    new[i] -= 1
                    parts.append(self.term_text(
                        c * exps[i], [_pw(n, e) for n, e in zip(names, new)]))
                else:
                    fn, c, k, axis = t
                    if axis != i:
                        continue
                    arg = f"{k}*{name}"
                    if fn == "sin":
                        parts.append(self.term_text(c * k, [f"cos({arg})"]))
                    elif fn == "cos":
                        parts.append(self.term_text(-c * k, [f"sin({arg})"]))
                    else:
                        parts.append(self.term_text(c * k, [f"exp({arg})"]))
            comps.append(" + ".join(parts) if parts else "0")
        return comps

    def poly(self, names, terms=2) -> str:
        """``terms`` random monomials of total degree 2."""
        return " + ".join(
            self.term_text(self.coeff(), [
                _pw(n, e) for n, e in zip(names, self.exponents(len(names), 2))])
            for _ in range(terms))

    # -- scenario kinds -----------------------------------------------------

    def maxwell_wave(self, index):
        r = self.rng
        kinds = ("opaque", "sin", "cos", "exp", "power")
        E, B = ["0"] * 3, ["0"] * 3
        axis = r.randrange(3)
        sign = r.choice((1, -1))
        u = f"{SPACETIME[1 + axis]} {'-' if sign > 0 else '+'} t"
        pols = [j for j in range(3) if j != axis]
        r.shuffle(pols)
        for n, j in enumerate(pols[: 1 + index % 2]):
            c = self.coeff()
            kind = kinds[(index // 2 + n) % len(kinds)]
            if kind == "opaque":
                prof = f"{r.choice('fgh')}({u})"
            elif kind == "power":
                prof = f"({u})^3"
            else:
                prof = f"{kind}({r.randint(1, 3)}*({u}))"
            k = 3 - axis - j   # e_axis x e_j = eps(axis, j, k) e_k
            eps = 1 if (axis, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
            E[j] = f"({c})*{prof}"
            B[k] = f"({c * sign * eps})*{prof}"
        task = {"op": "verify_maxwell", "E": E, "B": B, "J": ZERO4}
        scen = {"chart": SPACETIME, "metric": MINKOWSKI, "tasks": [task]}
        return scen, [known("Pass")], E + B

    def coulomb(self, index, control=False):
        c = self.coeff()
        charge = f"({c})*q" if index % 2 else f"({c})"
        power = (1, 3)[index % 2] if control else 2
        E = [f"{charge}/r^{power}", "0", "0"]
        B = ["0", "0", "0"]
        if not control and index % 4 < 2:
            B[0] = f"({self.coeff()})*sin(th)"
        task = {"op": "verify_maxwell", "E": E, "B": B, "J": ZERO4}
        scen = {"chart": ["t", "r", "th", "ph"], "params": ["q"],
                "metric": SPHERICAL, "tasks": [task]}
        return scen, [known("Fail" if control else "Pass")], E + B

    def static_e_control(self, index):
        E = ["0", "0", "0"]
        j = self.rng.randrange(3)
        E[j] = f"({self.coeff()})*{SPACETIME[1 + j]}^{1 + index % 3}"
        other = (j + 1) % 3
        E[other] = f"({self.coeff()})*{SPACETIME[1 + j]}"   # divergence-free
        task = {"op": "verify_maxwell", "E": E, "B": ["0", "0", "0"],
                "J": ZERO4}
        scen = {"chart": SPACETIME, "metric": MINKOWSKI, "tasks": [task]}
        return scen, [known("Fail")], E

    def hamiltonian(self, index, corrupted=False):
        r = self.rng
        k = 1 + index % 3
        qs = ["q"] if k == 1 else [f"q{i + 1}" for i in range(k)]
        ps = ["p"] if k == 1 else [f"p{i + 1}" for i in range(k)]
        parts = [f"{p}^2/(2*({self.coeff(positive=True)}))" for p in ps]
        for i, q in enumerate(qs):
            kind = ("power", "cos", "sin")[(index + i) % 3]
            if kind == "power":
                parts.append(f"({self.coeff()})*{q}^3")
            else:
                parts.append(f"({self.coeff()})*{kind}({r.randint(1, 3)}*{q})")
        if k > 1:
            a, b = r.sample(qs, 2)
            parts.append(f"({self.coeff()})*{a}*{b}")
        H = " + ".join(parts)
        task = {"op": "verify_hamiltonian", "hamiltonian": H, "k": k}
        if corrupted:
            task["corrupted"] = True
        scen = {"chart": ["t"] + qs + ps, "tasks": [task]}
        return scen, [known("Fail" if corrupted else "Pass")], [H]

    def one_form(self, index, perturbed=False):
        r = self.rng
        names = ["x", "y", "z"][: 2 + index % 2]
        terms = self.potential(names, index)
        comps = self.d_phi(terms, names)
        if perturbed:
            i, j = r.sample(range(len(names)), 2)
            extra = self.term_text(self.coeff(), [_pw(names[j], r.randint(1, 3))])
            comps[i] = extra if comps[i] == "0" else f"{comps[i]} + {extra}"
        form = {"degree": 1, "components": {
            str(i): c for i, c in enumerate(comps) if c != "0"}}
        tasks = [{"op": "classify_closure", "form": "w"},
                 {"op": "ext_d", "form": "w"}]
        answers = [known("NonClosed") if perturbed
                   else known("Closed", "Exact"),
                   known("Value") if perturbed else known("Value", result="0")]
        scen = {"chart": names, "forms": {"w": form}, "tasks": tasks}
        return scen, answers, [self.phi_text(terms, names)] + comps

    def algebra(self):
        names = ["x", "y", "z"]
        a = {str(i): self.poly(names, 2) for i in range(3)}
        b = {f"{i},{j}": self.poly(names, 2) for i, j in ((0, 1), (0, 2), (1, 2))}
        phi = [self.poly(["u", "v"], 2) for _ in range(3)]
        X = [self.poly(names, 2) for _ in range(3)]
        m1, m2 = self.coeff(positive=True), self.coeff(positive=True)
        scen = {
            "chart": names,
            "metric": EUCLIDEAN3,
            "forms": {"a": {"degree": 1, "components": a},
                      "b": {"degree": 2, "components": b}},
            "maps": {"phi": {"source": ["u", "v"], "exprs": phi}},
            "vectors": {"X": X},
            "tasks": [
                {"op": "wedge", "a": "a", "b": "b"},
                {"op": "wedge", "a": "a", "b": "a"},
                {"op": "pullback", "map": "phi", "form": "a"},
                {"op": "interior_product", "vector": "X", "form": "b"},
                {"op": "hodge", "form": "a"},
                {"op": "codifferential", "form": "a"},
                {"op": "legendre", "q": ["q1", "q2"], "v": ["v1", "v2"],
                 "mass": [[str(m1), "0"], ["0", str(m2)]],
                 "potential": self.poly(["q1", "q2"], 2)},
            ],
        }
        answers = [known("Value"), known("Value", result="0"),
                   known("Value"), known("Value"), known("Value"),
                   known("Value"),
                   known("Value", degeneracy="Nondegenerate")]
        return scen, answers, list(a.values()) + list(b.values()) + phi + X

    def first_law(self, index):
        r = self.rng
        if index % 2:
            alpha, beta = self.coeff(positive=True), self.coeff(positive=True)
            scen = {"chart": ["T", "V"], "params": ["Cv", "R"],
                    "forms": {"w": {"degree": 1, "components": {
                        "0": f"({alpha})*Cv", "1": f"({beta})*R*T/V"}}}}
            key = [f"{alpha}", f"{beta}"]
        else:
            n, c = r.randint(2, 4), self.coeff()
            scen = {"chart": ["x", "y"],
                    "forms": {"w": {"degree": 1, "components": {
                        "0": f"({c * n})*y", "1": f"({c})*x"}}}}
            key = [f"{c * n}*y", f"{c}*x"]
        scen["tasks"] = [{"op": "integrating_factor", "form": "w"}]
        return scen, [known("Value", found="found")], key

    def no_factor(self):
        r = self.rng
        a, b = self.coeff(), self.coeff()
        m, k = r.randint(2, 3), r.randint(2, 3)
        comps = {"0": f"({a})*x^{m}*y", "1": f"({b})*x + y^{k}"}
        scen = {"chart": ["x", "y"],
                "forms": {"w": {"degree": 1, "components": comps}},
                "tasks": [{"op": "integrating_factor", "form": "w"}]}
        return scen, [known("Value", found="absent")], \
            list(comps.values())

    def surface(self):
        c = self.coeff(positive=True)
        radius = f"(({c}) + u^2)^2"
        scen = {"chart": ["u", "v"],
                "metric": {"matrix": [["1", "0"], ["0", radius]],
                           "det_sign": 1},
                "tasks": [{"op": "verify_einstein"}]}
        return scen, [known("Pass")], [radius]

    def malformed(self, shape):
        """Text of a malformed scenario; every shape must exit 2."""
        expr = self.poly(["x", "y"], 2)
        form = {"degree": 1, "components": {"0": expr}}
        task = {"op": "classify_closure", "form": "w"}
        if shape == "forms_list":
            scen = {"chart": ["x", "y"], "forms": [form], "tasks": [task]}
        elif shape == "metric_rows":
            scen = {"chart": ["x", "y"], "metric": [[expr, "0"], ["0", "1"]],
                    "tasks": [{"op": "hodge", "form": "w"}]}
        elif shape == "eval_at_text":
            scen = {"chart": ["x", "y"], "tasks": [
                {"op": "eval_at", "expr": expr, "at": {"x": "abc", "y": "1"}}]}
        elif shape == "syntax_error":
            form["components"]["0"] = expr + " +"
            scen = {"chart": ["x", "y"], "forms": {"w": form}, "tasks": [task]}
        elif shape == "unknown_symbol":
            form["components"]["0"] = expr + " + zeta"
            scen = {"chart": ["x", "y"], "forms": {"w": form}, "tasks": [task]}
        else:
            scen = {"chart": ["x", "y"], "forms": {"w": form}, "tasks": [task]}
            return json.dumps(scen)[:-7], [expr]
        return json.dumps(scen), [expr]

    # -- assembly -----------------------------------------------------------

    def build(self, kind, index):
        if kind in ("coulomb", "coulomb_control"):
            return self.coulomb(index, control=kind == "coulomb_control")
        if kind in ("hamiltonian", "hamiltonian_corrupted"):
            return self.hamiltonian(index,
                                    corrupted=kind == "hamiltonian_corrupted")
        if kind in ("exact_1form", "perturbed_1form"):
            return self.one_form(index, perturbed=kind == "perturbed_1form")
        if kind in ("maxwell_wave", "static_e_control", "first_law"):
            return getattr(self, kind)(index)
        return getattr(self, kind)()


def generate(seed: int, out_dir: str) -> list[tuple[str, dict]]:
    """Write the forms corpus for ``seed``; return (path, known) pairs."""
    gen = _Gen(seed)
    entries = []
    for kind, count in PLAN:
        for index in range(count):
            while True:
                if kind == "malformed":
                    shape = MALFORMED_SHAPES[index % len(MALFORMED_SHAPES)]
                    text, exprs = gen.malformed(shape)
                    answer = {"exit": 2, "tasks": []}
                else:
                    scen, tasks, exprs = gen.build(kind, index)
                    text = json.dumps(scen, indent=1)
                    answer = {"exit": _exit_code(tasks), "tasks": tasks}
                if gen.fresh(exprs):
                    break
            name = f"{kind}_{index:02d}.json"
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            answer["kind"] = kind
            entries.append((path, answer))
    random.Random(seed).shuffle(entries)
    return entries


def _exit_code(tasks) -> int:
    return 1 if any(set(t["verdicts"]) & CONTROL for t in tasks) else 0


def _pw(name: str, exp: int) -> str:
    if exp == 0:
        return ""
    return name if exp == 1 else f"{name}^{exp}"
