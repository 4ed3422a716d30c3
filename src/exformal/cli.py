"""Batch front-end: `exformal run <file>` plus `table` and `check-expr`.

Scenario files are UTF-8 JSON with keys chart, params, metric, connection,
forms, maps, vectors, tasks (see README for the schema).  Reports are
byte-identical for identical (file, seed, version) triples: no wall-clock
content is emitted and JSON is dumped with sorted keys.  Exit codes:
0 all task verdicts in {Pass, Closed, Exact, Value}; 1 any Fail/NonClosed
(or Unknown under --strict; a classify_closure whose only non-Zero
components are Unknown counts as Unknown, not NonClosed, and an Unknown
outcome stays Unknown whatever the task's "expect"); 2 input errors
(missing file, JSON or expression ParseError, unresolved names, values of
the wrong shape) and engine errors inside a task, which report that
task's verdict as Error.

The command line is read from one table, `COMMANDS`, that each
subcommand's handler declares with `_command` (its positionals, options
and help text), the way `_op` declares task ops; no parser module is
imported or built.  Argument errors exit 2 with the usage lines and
messages of Python 3.11's argument parser, and help prints fixed text
whatever the terminal width.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
from typing import Callable, NamedTuple

from . import __version__
from .catalog import (ENGINE_CONVENTIONS, _nonzero_text, correspondence_table,
                      verify_einstein, verify_hamiltonian, verify_maxwell)
from .connection import (Connection, bianchi_residual, christoffel,
                         covariant_derivative_1form, einstein_tensor,
                         evolutionary_commutator, ricci_and_scalar, riemann,
                         torsion)
from .errors import (DegenerateLagrangianError, ExformalError, ExprSyntaxError,
                     NotVerifiableError, PatternMismatchError, ScenarioError,
                     UnknownSymbolError)
from .exterior import (Form, SubmanifoldMap, VectorField, classify_closure, ext_d,
                       form_to_text, interior_product, linear_combine, pullback, wedge)
from .geometry import Metric, build_em_form, codifferential, hodge, maxwell_residual
from .symbolic import (Chart, ZERO, _check_names, _check_residuals, diff, eval_at,
                       is_zero, parse_expr, simplify, to_text)
from .transform import (HamiltonianSystem, QuadraticLagrangian, _canonical_chart,
                        hamilton_flow_check, integrating_factor, inverse_legendre,
                        jacobian_degeneracy, legendre, poincare_cartan,
                        poisson_bracket)

__all__ = ["main", "run_scenario", "ENGINE_OPS"]


class ScenarioContext:
    """A scenario's chart and parameters, its metric and connection, its
    named forms, maps and vectors, and its tasks."""

    __slots__ = ("chart", "params", "metric", "connection", "forms", "maps",
                 "vectors", "tasks")

    def __init__(self, chart: Chart, params: tuple[str, ...],
                 metric: Metric | None = None,
                 connection: Connection | None = None,
                 forms: dict | None = None, maps: dict | None = None,
                 vectors: dict | None = None, tasks: list | None = None):
        self.chart = chart
        self.params = params
        self.metric = metric
        self.connection = connection
        self.forms = {} if forms is None else forms
        self.maps = {} if maps is None else maps
        self.vectors = {} if vectors is None else vectors
        self.tasks = [] if tasks is None else tasks


# ---------------------------------------------------------------------------
# Shape decoders
#
# One decoder per kind of JSON value.  Each takes the raw value, the name of
# its field for messages, and the scope it is decoded in (a ScenarioContext:
# the chart and params expressions parse in, and the named forms, maps and
# vectors).  A value of the wrong shape raises ScenarioError naming the field.
# ---------------------------------------------------------------------------


def _typed(kind: type, what: str):
    """Decoder of a JSON value of exactly this type (no bool for int)."""
    def decode(raw, where: str, scope=None):
        if type(raw) is not kind:
            raise ScenarioError(f"{where}: expected {what}")
        return raw
    return decode


_object, _int = _typed(dict, "an object"), _typed(int, "an integer")
_bool, _name = _typed(bool, "true or false"), _typed(str, "a name string")


def _count(raw, where: str, scope=None) -> int:
    if _int(raw, where) < 1:
        raise ScenarioError(f"{where}: expected an integer of at least 1")
    return raw


def _list(raw, where: str, size: int | None = None, what: str = "entries"):
    if not isinstance(raw, list):
        raise ScenarioError(f"{where}: expected a list")
    if size is not None and len(raw) != size:
        raise ScenarioError(f"{where}: expected {size} {what}, got {len(raw)}")
    return raw


def _expr(raw, where: str, scope: ScenarioContext):
    if not isinstance(raw, str):
        raise ScenarioError(f"{where}: expected an expression string")
    try:
        return parse_expr(raw, scope.chart, scope.params)
    except ExprSyntaxError as e:
        raise ScenarioError(
            f"{where}: syntax error at position {e.position} of {raw!r}"
        ) from e
    except UnknownSymbolError as e:
        raise ScenarioError(
            f"{where}: unknown symbol '{e.name}' in {raw!r}"
        ) from e
    except ExformalError as e:
        raise ScenarioError(f"{where}: {e} in {raw!r}") from e


def _exprs(raw, where: str, scope: ScenarioContext, size: int | None = None):
    """A list of expressions, `size` of them when given."""
    return [_expr(e, f"{where}[{i}]", scope)
            for i, e in enumerate(_list(raw, where, size, "expressions"))]


def _exprs_of(size: int):
    return lambda raw, where, scope: _exprs(raw, where, scope, size)


def _row(raw, where: str, scope: ScenarioContext):
    """One expression per coordinate of the scope's chart."""
    return _exprs(raw, where, scope, scope.chart.dim)


def _matrix(raw, where: str, scope: ScenarioContext):
    """n x n expressions, n the dimension of the scope's chart."""
    rows = _list(raw, where, scope.chart.dim, "rows")
    return [_row(r, f"{where}[{i}]", scope) for i, r in enumerate(rows)]


def _names(raw, where: str, scope=None) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(n, str) for n in raw):
        raise ScenarioError(f"{where}: expected a list of name strings")
    return tuple(raw)


def _params(raw, where: str, scope=None) -> tuple[str, ...]:
    """Declared parameter names: identifiers, none of them twice."""
    names = _names(raw, where)
    try:
        _check_names(names, "parameter")
    except ValueError as e:
        raise ScenarioError(f"{where}: {e}") from None
    return names


def _chart(raw, where: str) -> Chart:
    try:
        return Chart(_names(raw, where))
    except ValueError as e:
        raise ScenarioError(f"{where}: {e}") from e


def _coordinate(raw, where: str, scope: ScenarioContext) -> str:
    """A coordinate of the scope's chart or a declared parameter."""
    if not isinstance(raw, str) or raw not in scope.chart.names + scope.params:
        raise ScenarioError(
            f"{where}: {raw!r} is neither a coordinate nor a parameter"
        )
    return raw


def _point(raw, where: str, scope: ScenarioContext) -> dict:
    """Finite numeric values by symbol name: JSON numbers only, so neither a
    string, a bool, NaN nor a number past the float range is read, and each
    name a coordinate of the scope's chart or a declared parameter."""
    try:
        point = {name: float(x) for name, x in _object(raw, where).items()
                 if type(x) in (int, float)}
    except OverflowError:
        point = {}
    if len(point) != len(raw) or not all(map(math.isfinite, point.values())):
        raise ScenarioError(f"{where}: expected numbers, got {raw!r}")
    for name in point:
        _coordinate(name, where, scope)
    return point


def _new_symbol(raw, where: str, scope: ScenarioContext) -> str:
    """The name of a symbol of its own: an identifier, not a coordinate."""
    try:
        Chart(scope.chart.names + (_name(raw, where),))
    except ValueError:
        raise ScenarioError(f"{where}: expected an identifier that is not a "
                            f"coordinate, got {raw!r}") from None
    return raw


def _named(table: str):
    """Decoder of a name declared in the scenario's `table` section."""
    def decode(raw, where: str, scope: ScenarioContext):
        declared = getattr(scope, table)
        if not isinstance(raw, str) or raw not in declared:
            raise ScenarioError(
                f"{where}: unresolved {table[:-1]} name {raw!r}"
            )
        return declared[raw]
    return decode


_form, _map, _vector = _named("forms"), _named("maps"), _named("vectors")


def _form_list(raw, where: str, scope: ScenarioContext):
    return [_form(n, f"{where}[{i}]", scope)
            for i, n in enumerate(_list(raw, where))]


def _component_key(raw: str, degree: int, where: str) -> tuple[int, ...]:
    raw = raw.strip()
    if degree == 0:
        if raw not in ("", "()"):
            raise ScenarioError(f"{where}: degree-0 component key must be empty")
        return ()
    try:
        idx = tuple(int(p) for p in raw.split(","))
    except ValueError:
        raise ScenarioError(
            f"{where}: bad component key {raw!r} (want comma-separated ints)"
        ) from None
    return idx


def _on_chart(ctx: ScenarioContext, chart: Chart, where: str) -> ScenarioContext:
    """The scenario on `chart`, none of whose names may be a declared
    parameter: a parameter and a coordinate of one name would be read as
    one symbol.  It shares the named objects of `ctx`."""
    for name in chart.names:
        if name in ctx.params:
            raise ScenarioError(
                f"{where}: bad chart: {name!r} is a declared parameter")
    return ScenarioContext(chart, ctx.params, ctx.metric, ctx.connection,
                           ctx.forms, ctx.maps, ctx.vectors, ctx.tasks)


def _build(where: str, make, *parts):
    """An engine object from decoded parts; its errors name the field."""
    try:
        return make(*parts)
    except ExformalError as e:
        raise ScenarioError(f"{where}: {e}") from e


# ---------------------------------------------------------------------------
# Scenario loading
# ---------------------------------------------------------------------------


def load_scenario(data: dict) -> ScenarioContext:
    data = _object(data, "scenario root")
    ctx = ScenarioContext(chart=_chart(data.get("chart"), "chart"),
                          params=_params(data.get("params", []), "params"))
    ctx = _on_chart(ctx, ctx.chart, "chart")

    if "metric" in data:
        m = _object(data["metric"], "metric")
        rows = _matrix(m.get("matrix"), "metric matrix", ctx)
        det_sign = _int(m.get("det_sign", 1), "metric det_sign")
        ctx.metric = _build("metric", Metric, ctx.chart, rows, det_sign)

    if "connection" in data:
        planes = _list(data["connection"], "connection", ctx.chart.dim, "planes")
        gamma = [_matrix(p, f"connection[{s}]", ctx)
                 for s, p in enumerate(planes)]
        ctx.connection = _build("connection", Connection, ctx.chart, gamma)

    for name, spec in _object(data.get("forms", {}), "forms").items():
        where = f"form '{name}'"
        spec = _object(spec, where)
        degree = _int(spec.get("degree"), f"{where} degree")
        raw = _object(spec.get("components", {}), f"{where} components")
        comps, keys = {}, {}
        for key, text in raw.items():
            at = f"{where} component {key!r}"
            idx = _component_key(key, degree, at)
            if idx in keys:
                raise ScenarioError(
                    f"{where}: component keys {keys[idx]!r} and {key!r} "
                    "name the same index"
                )
            keys[idx] = key
            comps[idx] = _expr(text, at, ctx)
        ctx.forms[name] = _build(where, Form, ctx.chart, degree, comps)

    for name, spec in _object(data.get("maps", {}), "maps").items():
        where = f"map '{name}'"
        spec = _object(spec, where)
        at = f"{where} source"
        source = _on_chart(ctx, _chart(spec.get("source"), at), at)
        exprs = _exprs(spec.get("exprs"), f"{where} exprs", source)
        ctx.maps[name] = _build(where, SubmanifoldMap, source.chart, ctx.chart,
                                tuple(exprs))

    for name, comps in _object(data.get("vectors", {}), "vectors").items():
        where = f"vector '{name}'"
        exprs = _exprs(comps, where, ctx)
        ctx.vectors[name] = _build(where, VectorField, ctx.chart, tuple(exprs))

    ctx.tasks = _list(data.get("tasks", []), "tasks")
    return ctx


# ---------------------------------------------------------------------------
# Op declarations
# ---------------------------------------------------------------------------


class _Opt(NamedTuple):
    """An argument kind whose key may be absent; then it is not passed."""
    kind: Callable


class OpSpec(NamedTuple):
    """A task op: its handler and the arguments the binder decodes for it.

    `args` maps each task key to its kind (a shape decoder, wrapped in
    `_Opt` when the key is optional).  `needs` names scenario sections of
    which at least one must be present.  An op whose expressions live on a
    chart of their own sets `chart`, which builds that chart from the
    decoded `args`, and lists those expressions in `charted`.
    """
    handler: Callable
    args: dict
    needs: tuple
    chart: Callable | None
    charted: dict


OPS: dict[str, OpSpec] = {}


def _op(name: str, needs=(), chart=None, charted=None, **args):
    """Declare the handler below it as task op `name` (see OpSpec)."""
    def register(handler):
        OPS[name] = OpSpec(handler, args, needs, chart, charted or {})
        return handler
    return register


def _decode(scope: ScenarioContext, kinds: dict, task: dict, where: str):
    args = {}
    for key, kind in kinds.items():
        optional = isinstance(kind, _Opt)
        if key in task:
            decode = kind.kind if optional else kind
            args[key] = decode(task[key], f"{where} {key}", scope)
        elif not optional:
            raise ScenarioError(f"{where}: missing '{key}'")
    return args


def _bind(ctx: ScenarioContext, spec: OpSpec, task: dict, where: str):
    """Decode a task's arguments as its op declares them; returns the
    scope the handler runs in (the scenario on the op's chart) and them."""
    if spec.needs and all(getattr(ctx, s) is None for s in spec.needs):
        sections = " or ".join(f"'{s}'" for s in spec.needs)
        raise ScenarioError(f"{where} needs a {sections} section")
    args = _decode(ctx, spec.args, task, where)
    if spec.chart is None:
        return ctx, args
    try:
        chart = spec.chart(args)
    except ValueError as e:
        raise ScenarioError(f"{where}: bad chart: {e}") from e
    scope = _on_chart(ctx, chart, where)
    args.update(_decode(scope, spec.charted, task, where))
    return scope, args


# ---------------------------------------------------------------------------
# Task handlers: each takes the scenario, the task's zero-test seed and its
# decoded arguments, calls the engine and formats the outcome.
# ---------------------------------------------------------------------------


class TaskOutcome:
    """A handler's result: the outcome (Pass/Fail/Unknown/Closed/Exact/
    NonClosed/Value), the string an "expect" field matches, and the values
    and details the report shows."""

    __slots__ = ("outcome", "expectable", "values", "details")

    def __init__(self, outcome: str, expectable: str, values: dict,
                 details: list | None = None):
        self.outcome = outcome
        self.expectable = expectable
        self.values = values
        self.details = [] if details is None else details


def _value(values: dict, expectable: str | None = None) -> TaskOutcome:
    exp = expectable if expectable is not None else values.get("result", "")
    return TaskOutcome("Value", exp, values)


def _form_value(f: Form) -> TaskOutcome:
    return _value({"result": form_to_text(f)})


def _nonzero_value(t) -> TaskOutcome:
    text = _nonzero_text(t)
    return _value({"nonzero": text}, expectable=text)


@_op("parse_expr", expr=_expr)
def _op_parse_expr(ctx, seed, expr):
    return _value({"result": to_text(expr)})


@_op("diff", expr=_expr, by=_coordinate)
def _op_diff(ctx, seed, expr, by):
    return _value({"result": to_text(diff(expr, by))})


@_op("simplify", expr=_expr)
def _op_simplify(ctx, seed, expr):
    return _value({"result": to_text(simplify(expr))})


@_op("eval_at", expr=_expr, at=_point)
def _op_eval_at(ctx, seed, expr, at):
    return _value({"result": repr(eval_at(expr, at))})


@_op("is_zero", expr=_expr)
def _op_is_zero(ctx, seed, expr):
    v = is_zero(expr, seed)
    return _value({"verdict": v.value}, expectable=v.value)


@_op("wedge", a=_form, b=_form)
def _op_wedge(ctx, seed, a, b):
    return _form_value(wedge(a, b))


@_op("ext_d", form=_form)
def _op_ext_d(ctx, seed, form):
    return _form_value(ext_d(form))


@_op("linear_combine", coeffs=_exprs, forms=_form_list)
def _op_linear_combine(ctx, seed, coeffs, forms):
    return _form_value(linear_combine(coeffs, forms))


@_op("pullback", map=_map, form=_form)
def _op_pullback(ctx, seed, map, form):
    return _form_value(pullback(map, form))


@_op("interior_product", vector=_vector, form=_form)
def _op_interior_product(ctx, seed, vector, form):
    return _form_value(interior_product(vector, form))


@_op("classify_closure", form=_form)
def _op_classify_closure(ctx, seed, form):
    rep = classify_closure(form, seed)
    values = {"status": rep.status.value}
    if rep.potential is not None:
        values["potential"] = form_to_text(rep.potential)
    if rep.commutator:
        values["commutator"] = "; ".join(
            f"{idx}={to_text(c)}" for idx, c in sorted(rep.commutator.items())
        )
    if rep.uncertain:
        values["uncertain"] = "true"
    # an uncertain NonClosed has no component of d(a) shown nonzero, so the
    # form is not known to be non-closed: the task counts as Unknown
    outcome = "Unknown" if rep.uncertain else rep.status.value
    return TaskOutcome(outcome, rep.status.value, values)


@_op("hodge", needs=("metric",), form=_form)
def _op_hodge(ctx, seed, form):
    return _form_value(hodge(form, ctx.metric))


@_op("codifferential", needs=("metric",), form=_form)
def _op_codifferential(ctx, seed, form):
    return _form_value(codifferential(form, ctx.metric))


@_op("build_em_form", E=_exprs_of(3), B=_exprs_of(3))
def _op_build_em_form(ctx, seed, E, B):
    text = form_to_text(build_em_form(E, B, ctx.chart))
    return _value({"F": text}, expectable=text)


@_op("maxwell_residual", needs=("metric",), form=_form, current=_Opt(_form))
def _op_maxwell_residual(ctx, seed, form, current=None):
    if current is None:
        current = Form.zero(ctx.chart, 1)
    r1, r2 = maxwell_residual(form, current, ctx.metric)
    out = _check_residuals({(k, idx): c for k, r in enumerate((r1, r2))
                            for idx, c in r.components.items()}, seed)[0].value
    return TaskOutcome(out, out, {"dF": form_to_text(r1),
                                  "dstarF_minus_starJ": form_to_text(r2)})


@_op("christoffel", needs=("metric",))
def _op_christoffel(ctx, seed):
    return _nonzero_value(christoffel(ctx.metric))


@_op("torsion", needs=("connection",))
def _op_torsion(ctx, seed):
    return _nonzero_value(torsion(ctx.connection))


@_op("covariant_derivative_1form", needs=("connection",), form=_form)
def _op_covariant_derivative_1form(ctx, seed, form):
    return _nonzero_value(covariant_derivative_1form(form, ctx.connection))


@_op("evolutionary_commutator", needs=("connection",), form=_form)
def _op_evolutionary_commutator(ctx, seed, form):
    return _form_value(evolutionary_commutator(form, ctx.connection))


@_op("riemann", needs=("connection", "metric"))
def _op_riemann(ctx, seed):
    c = ctx.connection if ctx.connection is not None else christoffel(ctx.metric)
    return _nonzero_value(riemann(c))


@_op("ricci_and_scalar", needs=("metric",))
def _op_ricci_and_scalar(ctx, seed):
    ric, scal = ricci_and_scalar(ctx.metric)
    return _value(
        {"ricci_nonzero": _nonzero_text(ric), "scalar": to_text(scal)},
        expectable=to_text(scal),
    )


@_op("einstein_tensor", needs=("metric",))
def _op_einstein_tensor(ctx, seed):
    return _nonzero_value(einstein_tensor(ctx.metric))


@_op("bianchi_residual", needs=("metric",))
def _op_bianchi_residual(ctx, seed):
    res = bianchi_residual(ctx.metric)
    out = _check_residuals(dict(enumerate(res)), seed)[0].value
    text = "; ".join(
        f"{ctx.chart.names[i]}={to_text(e)}" for i, e in enumerate(res)
    )
    return TaskOutcome(out, out, {"residuals": text})


@_op("legendre", q=_names, v=_names, chart=lambda a: Chart(a["q"]),
     charted={"mass": _matrix, "linear": _Opt(_row), "potential": _Opt(_expr)})
def _op_legendre(ctx, seed, q, v, mass, linear=None, potential=ZERO):
    if linear is None:
        linear = [ZERO] * len(q)
    try:
        H, rep = legendre(QuadraticLagrangian(q, v, mass, linear, potential), seed)
    except DegenerateLagrangianError as e:
        cls = e.report.classification.value
        return TaskOutcome("Value", cls,
                           {"degeneracy": cls, "error": str(e)})
    cls = rep.classification.value
    return _value(
        {
            "H": to_text(H.hamiltonian),
            "chart": ",".join(H.chart.names),
            "degeneracy": cls,
            "determinant": to_text(rep.determinant),
        },
        expectable=cls,
    )


@_op("inverse_legendre", q=_names, p=_names,
     chart=lambda a: Chart(a["q"] + a["p"]), charted={"hamiltonian": _expr})
def _op_inverse_legendre(ctx, seed, q, p, hamiltonian):
    try:
        L = inverse_legendre(HamiltonianSystem(ctx.chart, hamiltonian), seed)
    except PatternMismatchError:
        return TaskOutcome("Value", "PatternMismatch",
                           {"result": "PatternMismatch"})
    mass_text = "; ".join(
        f"({i},{j})={to_text(L.mass[i][j])}"
        for i in range(L.k)
        for j in range(L.k)
    )
    return _value(
        {
            "mass": mass_text,
            "linear": "; ".join(to_text(e) for e in L.linear),
            "potential": to_text(L.potential),
        },
        expectable="Quadratic",
    )


@_op("poisson_bracket", f=_expr, g=_expr)
def _op_poisson_bracket(ctx, seed, f, g):
    return _value({"result": to_text(poisson_bracket(f, g, ctx.chart))})


@_op("jacobian_degeneracy", map=_map)
def _op_jacobian_degeneracy(ctx, seed, map):
    rep = jacobian_degeneracy(map, seed)
    cls = rep.classification.value
    return _value(
        {"determinant": to_text(rep.determinant), "classification": cls},
        expectable=cls,
    )


@_op("integrating_factor", form=_form)
def _op_integrating_factor(ctx, seed, form):
    try:
        out = integrating_factor(form, seed)
    except NotVerifiableError as e:
        return TaskOutcome("Value", "not-verifiable",
                           {"found": "not-verifiable", "error": str(e)})
    if out is None:
        return TaskOutcome("Value", "absent", {"found": "absent"})
    mu, psi = out
    return TaskOutcome("Value", "found",
                       {"found": "found", "mu": to_text(mu),
                        "psi": to_text(psi)})


@_op("poincare_cartan", hamiltonian=_expr)
def _op_poincare_cartan(ctx, seed, hamiltonian):
    theta = form_to_text(poincare_cartan(HamiltonianSystem(ctx.chart, hamiltonian)))
    return _value({"theta": theta}, expectable=theta)


@_op("hamilton_flow_check", hamiltonian=_expr)
def _op_hamilton_flow_check(ctx, seed, hamiltonian):
    fc = hamilton_flow_check(HamiltonianSystem(ctx.chart, hamiltonian), seed)
    out = fc.verdict.value
    return TaskOutcome(out, out, {"residual": form_to_text(fc.residual)})


def _report_outcome(report) -> TaskOutcome:
    out = report.verdict.value
    values = dict(report.values)
    details = [
        f"{c.verdict.value}: {c.name} [{c.residual_summary}]"
        for c in report.checks
    ]
    details += [f"note: {n}" for n in report.notes]
    return TaskOutcome(out, out, values, details)


@_op("verify_maxwell", needs=("metric",), E=_exprs_of(3), B=_exprs_of(3),
     J=_Opt(_exprs_of(4)))
def _op_verify_maxwell(ctx, seed, E, B, J=(ZERO,) * 4):
    return _report_outcome(verify_maxwell(E, B, J, ctx.metric, seed))


@_op("verify_hamiltonian", k=_Opt(_count), corrupted=_Opt(_bool),
     chart=lambda a: _canonical_chart(a.get("k", 1)),
     charted={"hamiltonian": _expr})
def _op_verify_hamiltonian(ctx, seed, hamiltonian, k=1, corrupted=False):
    return _report_outcome(
        verify_hamiltonian(hamiltonian, k, corrupted=corrupted, seed=seed)
    )


@_op("verify_einstein", needs=("metric",), T=_Opt(_matrix), kappa=_Opt(_new_symbol))
def _op_verify_einstein(ctx, seed, T=None, kappa="kappa"):
    return _report_outcome(verify_einstein(ctx.metric, T, kappa, seed))


@_op("correspondence_table")
def _op_correspondence_table(ctx, seed):
    rows = correspondence_table()
    values = {
        f"k={e.degree}": f"{e.family} | {e.interaction} | "
                         f"{e.verifiability.value}"
                         + (f" | verifier={e.verifier_id}" if e.verifier_id else "")
        for e in rows
    }
    return _value(values, expectable=str(len(rows)))


ENGINE_OPS = tuple(sorted(OPS))

_FAIL_VERDICTS = frozenset({"Fail", "NonClosed", "Error"})


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _run_task(ctx: ScenarioContext, index: int, task, seed: int) -> dict:
    where = f"task[{index}]"
    if not isinstance(task, dict) or "op" not in task:
        raise ScenarioError(f"{where}: needs an 'op' field")
    op = task["op"]
    spec = OPS.get(op) if isinstance(op, str) else None
    if spec is None:
        raise ScenarioError(f"{where}: unknown op {op!r}")
    scope, args = _bind(ctx, spec, task, f"{where} op '{op}'")
    try:
        out = spec.handler(scope, seed + index, **args)
    except ExformalError as e:
        out = TaskOutcome("Error", "", {"error": f"{type(e).__name__}: {e}"})
    verdict, failed = out.outcome, False
    expect = task.get("expect")
    if expect is None or verdict in ("Error", "Unknown"):
        # an Unknown outcome decided nothing an expectation could match
        failed = verdict in _FAIL_VERDICTS
    elif str(expect) == out.expectable:
        # a matched expectation is a success even for NonClosed/Fail
        if verdict == "Value":
            verdict = "Pass"
    else:
        verdict, failed = "Fail", True
        out.details.append(f"expected {expect!r}, got {out.expectable!r}")
    return {
        "index": index,
        "op": op,
        "verdict": verdict,
        "failed": failed,
        "unknown": verdict == "Unknown",
        "values": out.values,
        "details": out.details,
    }


def run_scenario(path: str, seed: int = 0,
                 strict: bool = False) -> tuple[int, dict]:
    """Execute a scenario file; returns (exit_code, report dict).

    Tasks run in order.  An engine error inside a task is that task's
    verdict Error and makes the exit code 2; the other tasks still run.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except RecursionError:
            raise json.JSONDecodeError(
                "arrays and objects nested too deeply", "", 0) from None
        except ValueError:  # an integer past the interpreter's digit limit
            limit = sys.get_int_max_str_digits()
            raise ScenarioError(f"a JSON number has more than {limit} digits") from None
    ctx = load_scenario(data)
    task_reports = [_run_task(ctx, i, t, seed) for i, t in enumerate(ctx.tasks)]

    failed = sum(r.pop("failed") for r in task_reports)
    unknown = sum(r.pop("unknown") for r in task_reports)
    report = {
        "version": __version__,
        "file": os.path.basename(path),
        "seed": seed,
        "strict": strict,
        "conventions": dict(ENGINE_CONVENTIONS),
        "tasks": task_reports,
        "summary": {
            "tasks": len(task_reports),
            "failed": failed,
            "unknown": unknown,
        },
    }
    code = 0
    if any(r["verdict"] == "Error" for r in task_reports):
        code = 2
    elif failed or (strict and unknown):
        code = 1
    return code, report


def _emit_text(report: dict, out) -> None:
    w = out.write
    w(f"exformal {report['version']} run report\n")
    w(f"file: {report['file']}\n")
    w(f"seed: {report['seed']}\n")
    w("conventions:\n")
    for k in sorted(report["conventions"]):
        w(f"  {k}: {report['conventions'][k]}\n")
    for t in report["tasks"]:
        w(f"task[{t['index']}] op={t['op']} verdict={t['verdict']}\n")
        for k in sorted(t["values"]):
            w(f"  {k}: {t['values'][k]}\n")
        for d in t["details"]:
            w(f"  - {d}\n")
    s = report["summary"]
    w(f"summary: {s['tasks']} tasks, {s['failed']} failed, "
      f"{s['unknown']} unknown\n")


def _emit_json(report: dict, out) -> None:
    out.write(json.dumps(report, sort_keys=True, indent=2))
    out.write("\n")


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


class _Arg(NamedTuple):
    """A command's `--name` option.  `kind` reads its value: `int`, `str`,
    or a tuple of the values allowed; None makes it a flag, which takes no
    value and reads True when given.  An option not given reads `default`
    (or the environment variable `env` when that is set), read like a
    given value, unless it is `required`."""
    kind: type | tuple | None
    default: object = False
    required: bool = False
    env: str | None = None


class CommandSpec(NamedTuple):
    """A subcommand: its handler, its positionals in order, its options
    (`--name` → `_Arg`, in the order its help lists them) and the help text
    `-h` prints.  The help's first paragraph is the usage every error of
    the command prints."""
    handler: Callable
    positionals: tuple
    options: dict
    help: str


COMMANDS: dict[str, CommandSpec] = {}

_HELP = """\
usage: exformal [-h] {run,table,check-expr} ...

Symbolic exterior-calculus verification engine

positional arguments:
  {run,table,check-expr}
    run                 execute a JSON scenario file
    table               print the correspondence table
    check-expr          parse an expression, echo canonical form

options:
  -h, --help            show this help message and exit
"""


def _command(name: str, positionals: tuple, help_text: str, **options):
    """Declare the handler below it as subcommand `name` (see CommandSpec);
    the handler takes each positional and option by name."""
    def register(handler):
        COMMANDS[name] = CommandSpec(
            handler, positionals,
            {f"--{key}": arg for key, arg in options.items()}, help_text)
        return handler
    return register


@_command("run", ("file",), seed=_Arg(int, "0", env="EXFORMAL_SEED"),
          format=_Arg(("text", "json"), "text"), strict=_Arg(None),
          parallel=_Arg(None), help_text="""\
usage: exformal run [-h] [--seed SEED] [--format {text,json}] [--strict]
                    [--parallel]
                    file

positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --seed SEED           sampling seed (env EXFORMAL_SEED)
  --format {text,json}
  --strict              treat Unknown verdicts as failures
  --parallel            accepted and ignored: tasks always run in order
""")
def _cmd_run(file, seed, format, strict, parallel) -> int:
    try:
        code, report = run_scenario(file, seed=seed, strict=strict)
    except FileNotFoundError:
        print(f"error: file not found: {file}", file=sys.stderr)
        return 2
    except OSError as e:  # a directory, or a file without read permission
        print(f"error: cannot read {file}: {e.strerror}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(
            f"error: ParseError in {file}: line {e.lineno} "
            f"column {e.colno}: {e.msg}",
            file=sys.stderr,
        )
        return 2
    except UnicodeDecodeError as e:
        print(f"error: ParseError in {file}: byte {e.start}: not UTF-8",
              file=sys.stderr)
        return 2
    except ExformalError as e:
        print(f"error: ValidationError in {file}: {e}", file=sys.stderr)
        return 2
    if format == "json":
        _emit_json(report, sys.stdout)
    else:
        _emit_text(report, sys.stdout)
    for t in report["tasks"]:
        if t["verdict"] == "Error":
            print(f"error: task[{t['index']}] op={t['op']}: "
                  f"{t['values']['error']}", file=sys.stderr)
    return code


@_command("table", (), format=_Arg(("text", "json"), "text"), help_text="""\
usage: exformal table [-h] [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --format {text,json}
""")
def _cmd_table(format) -> int:
    rows = correspondence_table()
    if format == "json":
        payload = [
            {
                "degree": e.degree,
                "family": e.family,
                "interaction": e.interaction,
                "verifiability": e.verifiability.value,
                "verifier_id": e.verifier_id,
                "note": e.note,
            }
            for e in rows
        ]
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for e in rows:
            verifier = e.verifier_id or "-"
            print(f"k={e.degree}  interaction={e.interaction:16s} "
                  f"{e.verifiability.value:10s} verifier={verifier}")
            print(f"      {e.family}")
            if e.note:
                print(f"      note: {e.note}")
    return 0


@_command("check-expr", ("expr",), chart=_Arg(str, required=True),
          params=_Arg(str, ""), help_text="""\
usage: exformal check-expr [-h] --chart CHART [--params PARAMS] expr

positional arguments:
  expr

options:
  -h, --help       show this help message and exit
  --chart CHART    comma-separated coordinate names
  --params PARAMS  comma-separated parameter names
""")
def _cmd_check_expr(expr, chart, params) -> int:
    chart_names = chart.split(",") if chart else []
    param_names = params.split(",") if params else []
    try:
        coords = _chart(chart_names, "chart")
        for name in _params(param_names, "params"):
            if name in coords.names:
                raise ScenarioError(f"params: {name!r} is a chart coordinate")
        text = to_text(simplify(parse_expr(expr, coords, param_names)))
    except ExprSyntaxError as err:
        print(f"error: SyntaxError at position {err.position}: {err}",
              file=sys.stderr)
        if err.expected:
            print(f"  expected: {', '.join(err.expected)}", file=sys.stderr)
        return 2
    except UnknownSymbolError as err:
        print(f"error: UnknownSymbol: {err}", file=sys.stderr)
        return 2
    except (ValueError, ExformalError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(text)
    return 0


def _exit_with_error(help_text: str, prog: str, message: str):
    usage = help_text.partition("\n\n")[0]
    sys.stderr.write(f"{usage}\n{prog}: error: {message}\n")
    sys.exit(2)


def _option(token: str, names: tuple, fail) -> tuple[str, str | None] | None:
    """The option `token` names and its `=value` (None without one), or
    None when the token is a positional.  A token names an option when it
    is `-h`, or `--name` or `--name=value` with `--name` one of `names` or
    a prefix of exactly one of them."""
    if token == "-h":
        return "--help", None
    if not token.startswith("--") or token == "--":
        return None
    name, eq, value = token.partition("=")
    if name not in names:
        matches = [n for n in names if n.startswith(name)]
        if len(matches) > 1:
            fail(f"ambiguous option: {token} could match {', '.join(matches)}")
        if not matches:
            return None
        name = matches[0]
    return name, (value if eq else None)


def _option_value(label: str, kind, text: str, fail):
    """`text` read as `kind` (see `_Arg`), or exit naming the argument."""
    if kind is int:
        try:
            return int(text)
        except ValueError:
            fail(f"argument {label}: invalid int value: {text!r}")
    if isinstance(kind, tuple) and text not in kind:
        choices = ", ".join(map(repr, kind))
        fail(f"argument {label}: invalid choice: {text!r} "
             f"(choose from {choices})")
    return text


def _parse(argv: list) -> tuple[Callable, dict]:
    """The handler `argv` calls and its arguments, read by the grammar
    `COMMANDS` declares; exits 0 after printing help and 2 on an error.

    The grammar is that of Python's argument parser on every call this
    front-end documents:
    options and positionals come in any order, an option takes its value
    as `--name value` or `--name=value` and may be abbreviated to a unique
    prefix, `--` makes every later token a positional, and a missing,
    malformed or extra argument exits 2 with the command's usage and
    that parser's message.  Unlike there, a token that names no option,
    such as `-x^2`, is a positional.
    """
    def fail_main(message):
        _exit_with_error(_HELP, "exformal", message)

    for i, token in enumerate(argv):
        found = _option(token, ("--help",), fail_main)
        if found is None:
            break
        if found[1] is not None:
            fail_main(f"argument -h/--help: ignored explicit argument "
                      f"{found[1]!r}")
        sys.stdout.write(_HELP)
        sys.exit(0)
    else:
        fail_main("the following arguments are required: command")
    spec = COMMANDS[_option_value("command", tuple(COMMANDS), token,
                                  fail_main)]
    args, extra = _parse_command(spec, f"exformal {token}", argv[i + 1:])
    if extra:
        fail_main(f"unrecognized arguments: {' '.join(extra)}")
    return spec.handler, args


def _parse_command(spec: CommandSpec, prog: str, argv: list):
    """A command's arguments by name, and the positionals left over."""
    def fail(message):
        _exit_with_error(spec.help, prog, message)

    # every token is read as an option or a positional before any is used,
    # as the standard parser does, so an ambiguous prefix anywhere is the
    # error
    names = ("--help", *spec.options)
    tokens = []
    for i, text in enumerate(argv):
        if text == "--":
            tokens.append(("--", None))
            tokens.extend((None, rest) for rest in argv[i + 1:])
            break
        tokens.append(_option(text, names, fail) or (None, text))

    given, positionals = {}, []
    k = 0
    while k < len(tokens):
        name, text = tokens[k]
        k += 1
        if name is None:
            positionals.append(text)
            continue
        if name == "--":
            continue
        arg = spec.options.get(name)  # None for --help
        if arg is None or arg.kind is None:
            if text is not None:
                label = "-h/--help" if arg is None else name
                fail(f"argument {label}: ignored explicit argument {text!r}")
            if arg is None:
                sys.stdout.write(spec.help)
                sys.exit(0)
            given[name] = True
            continue
        if text is None:
            if k == len(tokens) or tokens[k][0] is not None:
                fail(f"argument {name}: expected one argument")
            text = tokens[k][1]
            k += 1
        given[name] = _option_value(name, arg.kind, text, fail)

    args = dict(zip(spec.positionals, positionals))
    missing = list(spec.positionals[len(positionals):])
    for name, arg in spec.options.items():
        if name in given:
            args[name[2:]] = given[name]
        elif arg.required:
            missing.append(name)
        elif arg.kind is None:
            args[name[2:]] = arg.default
        else:
            default = os.environ.get(arg.env, arg.default) if arg.env \
                else arg.default
            args[name[2:]] = _option_value(name, arg.kind, default, fail)
    if missing:
        fail(f"the following arguments are required: {', '.join(missing)}")
    return args, positionals[len(spec.positionals):]


_gc_frozen = False


def main(argv=None) -> int:
    global _gc_frozen
    if not _gc_frozen:
        # Once per process: the modules and whatever else is alive now
        # live as long as the process, so move them out of the collector's
        # generations; no later collection then walks them inside a task.
        # Not at import, which would only move that cost, and not per
        # file, which would keep each file's leftovers for good.
        gc.freeze()
        _gc_frozen = True
    handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
    return handler(**args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
