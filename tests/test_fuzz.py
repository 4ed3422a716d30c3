"""Seeded fuzz test of scenario decoding: mutated scenario files must only
ever end in exit code 0, 1 or 2, never in an exception escaping `main`.

Mutants start from the bundled fixtures, the README example and one task
of every op on small charts, and change value types, drop keys and change
list lengths and nesting.  Exit 1 must come with a Fail/NonClosed verdict
in the report (or Unknown under --strict).
"""

import contextlib
import copy
import io
import json
import os
import random
import re

from exformal.cli import ENGINE_OPS, main

ROOT = os.path.join(os.path.dirname(__file__), "..")
SEED = 20231018
MUTANTS = 600

# one task of every op, on small charts so that a mutant stays cheap
PLANE = {
    "chart": ["x", "y"],
    "params": ["m"],
    "metric": {"matrix": [["1", "0"], ["0", "1"]], "det_sign": 1},
    "connection": [[["0", "m"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
    "forms": {"a": {"degree": 1, "components": {"0": "y", "1": "x"}},
              "w": {"degree": 1, "components": {"0": "x"}}},
    "maps": {"id": {"source": ["u", "v"], "exprs": ["u", "v"]}},
    "vectors": {"X": ["1", "y"]},
    "tasks": [
        {"op": "parse_expr", "expr": "x^2 + m"},
        {"op": "diff", "expr": "x^2*y", "by": "x", "expect": "2*x*y"},
        {"op": "simplify", "expr": "x + x"},
        {"op": "eval_at", "expr": "x^2", "at": {"x": 3.0}},
        {"op": "is_zero", "expr": "x*y - y*x"},
        {"op": "wedge", "a": "a", "b": "w"},
        {"op": "ext_d", "form": "a"},
        {"op": "linear_combine", "coeffs": ["1", "-1"], "forms": ["a", "a"]},
        {"op": "pullback", "map": "id", "form": "a"},
        {"op": "interior_product", "vector": "X", "form": "a"},
        {"op": "classify_closure", "form": "a", "expect": "Exact"},
        {"op": "hodge", "form": "w"},
        {"op": "codifferential", "form": "w"},
        {"op": "christoffel"},
        {"op": "torsion"},
        {"op": "covariant_derivative_1form", "form": "a"},
        {"op": "evolutionary_commutator", "form": "a"},
        {"op": "riemann"},
        {"op": "ricci_and_scalar"},
        {"op": "einstein_tensor"},
        {"op": "bianchi_residual"},
        {"op": "legendre", "q": ["q"], "v": ["v"], "mass": [["m"]],
         "linear": ["0"], "potential": "q^2/2"},
        {"op": "inverse_legendre", "q": ["q"], "p": ["p"],
         "hamiltonian": "p^2/2"},
        {"op": "jacobian_degeneracy", "map": "id"},
        {"op": "integrating_factor", "form": "w"},
        {"op": "verify_einstein", "T": [["0", "0"], ["0", "0"]],
         "kappa": "m"},
        {"op": "correspondence_table"},
    ],
}
PHASE = {
    "chart": ["t", "q", "p"],
    "params": ["m"],
    "tasks": [
        {"op": "poisson_bracket", "f": "q", "g": "p", "expect": "1"},
        {"op": "poincare_cartan", "hamiltonian": "p^2/(2*m) + q^2/2"},
        {"op": "hamilton_flow_check", "hamiltonian": "p^2/(2*m) + q^2/2"},
        {"op": "verify_hamiltonian", "hamiltonian": "(p^2 + q^2)/2", "k": 1,
         "corrupted": False},
    ],
}
SPACETIME = {
    "chart": ["t", "x", "y", "z"],
    "metric": {"matrix": [["-1", "0", "0", "0"], ["0", "1", "0", "0"],
                          ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
               "det_sign": -1},
    "forms": {"F": {"degree": 2, "components": {"0,1": "-f(z - t)",
                                                "1,3": "-f(z - t)"}},
              "J": {"degree": 1, "components": {}}},
    "tasks": [
        {"op": "build_em_form", "E": ["f(z - t)", "0", "0"],
         "B": ["0", "f(z - t)", "0"]},
        {"op": "maxwell_residual", "form": "F", "current": "J"},
        {"op": "verify_maxwell", "E": ["0", "0", "0"], "B": ["0", "0", "0"],
         "J": ["0", "0", "0", "0"]},
    ],
}
EVERY_OP = (PLANE, PHASE, SPACETIME)

# values a mutant may put in place of another, one or more of each JSON type
SWAPS = [None, True, False, 0, 1, -3, 2.5, "", "x", "abc", "x +", [], ["x"],
         [["0"]], {}, {"x": "1"}]


def _bases():
    bases = list(EVERY_OP)
    folder = os.path.join(ROOT, "scenarios")
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), encoding="utf-8") as fh:
            bases.append(json.load(fh))
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        bases.append(json.loads(re.search(r"```json\n(.*?)```", fh.read(),
                                          re.S).group(1)))
    return bases


def _paths(node):
    """Every (container, key) slot in a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield node, key
        yield from _paths(child)


def _mutate(doc, rng: random.Random):
    container, key = rng.choice(list(_paths(doc)))
    value = container[key]
    how = rng.choice(("swap", "drop", "length", "nest"))
    if how == "swap":
        container[key] = copy.deepcopy(rng.choice(SWAPS))
    elif how == "drop":
        del container[key]
    elif how == "length" and isinstance(value, list) and value:
        if rng.random() < 0.5:
            value.append(copy.deepcopy(rng.choice(value)))
        else:
            value.pop(rng.randrange(len(value)))
    elif how == "nest" and isinstance(value, list) and value \
            and rng.random() < 0.5:
        container[key] = value[0]
    else:
        container[key] = [value]


def _run(path, strict):
    out, err = io.StringIO(), io.StringIO()
    argv = ["run", path, "--format", "json"] + (["--strict"] if strict else [])
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_op_base_covers_every_op():
    ops = [t["op"] for base in EVERY_OP for t in base["tasks"]]
    assert sorted(ops) == sorted(ENGINE_OPS)


def test_mutated_scenarios_end_in_a_documented_exit_code(tmp_path):
    rng = random.Random(SEED)
    bases = _bases()
    codes = set()
    for i in range(MUTANTS):
        doc = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            _mutate(doc, rng)
        path = tmp_path / f"mutant_{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        strict = rng.random() < 0.5
        code, out, err = _run(str(path), strict)
        where = f"mutant {i}: {json.dumps(doc)[:300]}"
        assert code in (0, 1, 2), where
        codes.add(code)
        if code == 2:
            assert "error:" in err, where
            continue
        verdicts = {t["verdict"] for t in json.loads(out)["tasks"]}
        failing = {"Fail", "NonClosed"} | ({"Unknown"} if strict else set())
        assert (code == 1) == bool(verdicts & failing), where
    assert codes == {0, 1, 2}
