"""Named identity suites: every titled law of the calculus, re-verified on
seeded random instances with structured, replayable reports.

Each suite checks one block of identities over the algebroids and Poisson
structures of a model (the built-in fixture set by default).  A suite result
is a JSON-ready dict::

    {"suite": ..., "title": ..., "seed": ..., "trials": ...,
     "status": "pass" | "fail", "notes": [...],
     "items": [{"id": ..., "label": ..., "status": ..., "checked": n,
                "witness": {...}?}, ...]}

A failing identity carries a witness with everything needed to replay it:
a self-contained mini model (the inputs and the nonzero residual as named
tensors), an integer point where the residual does not vanish, the residual's
term values at that point, and the one-line ``eval`` command that reproduces
them.

Instances are drawn from a per-(seed, suite, item) generator, so results are
deterministic for a given seed and independent of item order.  Every item
names its fixtures, and one loop, ``_Run._record``, is the only loop over
them: it builds the item's generator, runs the item's check on each fixture,
counts instances up to the first witness and appends the item.

A residual item is declared (``_Run.declare``): an id, a label, the
fixtures, the arguments and a residual function of ``(fixture,
**arguments)`` that never sees the generator and must vanish.  It checks the
trial share per fixture, or one instance when it has no arguments
(theorem-20 ``poisson-routes``), and skips a fixture where a tensor argument
of a fixed int degree has no basis keys (theorem-19 ``bivectors``).  One
enumerator, ``_Run.arguments``, draws the arguments in declaration order,
each spec read once by ``declare`` and its degree lists resolved once per
fixture: a tensor ``(kind, degrees[, keys])`` (a degree chosen from the
list, an int taken as is, a str naming an earlier degree argument); a
degree argument, a list or a function of the owner giving one, chosen once
and passed as an int (theorem-6 ``antisymmetry``); ``FUNCTION``, one random
coefficient as a function on the owner.  A ``BASIS`` tensor is not drawn:
each draw checks every basis tensor of the listed degrees (theorem-2
``operator-identity``).
A predicate item (``_Run.predicate``) decorates ``check(rng, fixture)``,
which yields ``(inputs, ok)``: theorem-5 ``lambda-inverse`` (Poisson
structures, an invertibility probe first), theorem-17 ``injectivity`` (the
first canonical fixture of rank 2), theorem-24 ``injectivity`` (the
canonical fixtures of rank 2) and ``nijenhuis-instance`` (those of rank 1).

The suites call the library's guard-free kernels (``_differential`` for
:func:`~algebroids.calculus.differential` and so on; see :mod:`algebroids.tensor`):
``run_suite`` checks its model and settings once, and every tensor an item
passes on was drawn by the runner, built by a kernel or built by a checked
constructor.

The written-out references (velocities, lifts on a chart, the tangent anchor,
the expansions of H and G) sum their terms in one call of a library kernel
(``GradedTensor``, ``poly_sum``, ``_tensor_sum``) and call no map they check.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from operator import add, attrgetter

from . import tensor as _tensor_conventions
from .algebroid import (
    _anchor_apply,
    _bracket_tensors,
    _dotted_chart,
    _dual_chart,
    _linear_poisson,
    _tangent_lift,
    _vector_fields,
)
from .calculus import (
    _differential,
    _fn_bracket,
    _lie_derivative,
    _nr_bracket,
    _schouten,
    _sym_schouten,
)
from .errors import DimensionMismatch, NotInvertible, UnknownName, ValidationError
from .lifts import (
    _canonical_transport,
    _classical_complete_lift,
    _classical_vertical_lift,
    _complete_lift_T,
    _cot_complete_G_vec,
    _G_map,
    _H_map,
    _iota,
    _J_map,
    _Jstar,
    _vertical_lift_V,
    _vertical_pi,
)
from .model import Model, _check_model, builtin_model, model_document, tensor_key_string
from .poisson import (
    _extended_bracket,
    _g_p,
    _h_p,
    _koszul_schouten,
    _lambda_p,
    _poisson_bracket,
    _r_p,
    _tangent_poisson,
)
from .ring import poly_sum
from .tensor import (
    GradedTensor,
    Kind,
    _as_kind,
    _basis_table,
    _contract,
    _contract_mixed,
    _draw_coefficient,
    _draw_tensor,
    _key,
    _remap,
    _slot_offsets,
    _slots,
    _sym_product,
    _tensor_sum,
    _wedge,
)

DEFAULT_SEED = 0
DEFAULT_TRIALS = 50


# -- witnesses ---------------------------------------------------------------

def _grid_points(dim, rng):
    """Small integer points, deterministic first, then seeded random draws."""
    values = (0, 1, -1, 2, -2, 3, -3)
    if dim == 0:
        yield ()
        return
    if len(values) ** dim <= 20000:
        yield from itertools.product(values, repeat=dim)
    else:
        for _ in range(5000):
            yield tuple(rng.randint(-9, 9) for _ in range(dim))


def _witness_point(residual, rng):
    chart = residual.owner.base
    for values in _grid_points(chart.dim, rng):
        point = dict(zip(chart.coords, values))
        evaluated = {key: coeff.eval_at(point)
                     for key, coeff in residual.terms.items()}
        if any(evaluated.values()):
            return point, evaluated
    return None, {}


def _witness_model(tensors):
    """A self-contained model holding the named inputs that are tensors (and
    the residual), inventing names for their charts and owners; a degree
    argument, an int, is left out."""
    model = Model()
    charts = {}      # Chart -> name
    owners = {}      # Algebroid -> name

    def chart_name(chart):
        if chart not in charts:
            charts[chart] = f"chart{len(charts) + 1}" if charts else "chart"
            model.charts[charts[chart]] = chart
        return charts[chart]

    def owner_name(owner):
        if owner not in owners:
            name = chart_name(owner.base)
            if not owner.is_canonical:
                name = f"A{len(model.algebroids) + 1}"
                model.algebroids[name] = owner
            owners[owner] = name
        return owners[owner]

    for name, tensor in tensors.items():
        if isinstance(tensor, GradedTensor):
            model.tensors[name] = tensor
            model.tensor_owners[name] = owner_name(tensor.owner)
    return model


def _witness(fixture, label, inputs, residual, rng):
    named = dict(inputs)
    named["residual"] = residual
    model = _witness_model(named)
    point, evaluated = _witness_point(residual, rng)
    at = ",".join(f"{name}={value}" for name, value in point.items()) if point else ""
    payload = {
        "fixture": fixture,
        "identity": label,
        "model": model_document(model),
        "point": {name: str(value) for name, value in (point or {}).items()},
        "residual_at_point": {
            tensor_key_string(residual.kind, key): str(value)
            for key, value in sorted(evaluated.items(), key=repr)},
        "replay": ("save the 'model' object as witness.json, then: "
                   f"algebroids eval --model witness.json --tensor residual"
                   + (f" --at {at}" if at else "")),
    }
    return payload


#: The argument spec of one random function on the draw owner's base.
FUNCTION = "function"
#: The keys entry of a tensor argument that is not drawn: each draw checks
#: one instance per basis tensor of the listed degrees.
BASIS = "basis"


#: The forms of a tensor argument that is drawn, by its degrees: a str
#: naming an earlier degree argument, an int, or a degree list.  A degree
#: argument has the form ``_DEGREE``; ``FUNCTION`` and ``BASIS`` are their
#: own forms.
_DEGREE, _NAMED, _FIXED, _CHOICE = "degree", "named", "fixed", "choice"


def _degrees(owner, degrees):
    """The degree list of a spec on ``owner``: a function of the owner that
    returns it, or entries each an int or a function of the owner."""
    if callable(degrees):
        return degrees(owner)
    return [d(owner) if callable(d) else d for d in degrees]


def _read_specs(args):
    """The argument specs ``args`` ({name: spec}) of a declaration, each
    read once, in declaration order, as ``(name, form, kind, degrees,
    keys)``: ``FUNCTION``; a degree argument, form ``_DEGREE`` with its
    degree list; a tensor ``(kind, degrees[, keys])``, form ``BASIS`` with
    keys ``BASIS``, else ``_NAMED``, ``_FIXED`` or ``_CHOICE`` by its
    degrees, its keys 2 unless given."""
    read = []
    for name, spec in args.items():
        if spec is FUNCTION:
            read.append((name, FUNCTION, None, None, None))
        elif not (isinstance(spec, tuple) and isinstance(spec[0], Kind)):
            read.append((name, _DEGREE, None, spec, None))
        else:
            kind, degrees, *keys = spec
            keys = keys[0] if keys else 2
            if keys == BASIS:
                form = BASIS
            elif isinstance(degrees, str):
                form = _NAMED
            elif isinstance(degrees, int):
                form = _FIXED
            else:
                form = _CHOICE
            read.append((name, form, kind, degrees, keys))
    return tuple(read)


def _bound_specs(specs, owner):
    """Read ``specs`` with every degree list resolved on ``owner``, and a
    ``BASIS`` tensor's degrees replaced by the list of basis tensors of
    each listed degree: what every draw on ``owner`` reads."""
    bound = []
    for name, form, kind, degrees, keys in specs:
        if form is _DEGREE or form is _CHOICE:
            degrees = _degrees(owner, degrees)
        elif form is BASIS:
            degrees = [GradedTensor.basis(owner, kind, key)
                       for degree in _degrees(owner, degrees)
                       for key in _basis_table(owner.rank, kind, degree)]
        bound.append((name, form, kind, degrees, keys))
    return bound


class _Run:
    """Accumulates one suite's items."""

    def __init__(self, suite, title, model, seed, trials, coeff_degree):
        self.suite = suite
        self.title = title
        self.model = model
        self.seed = seed
        self.trials = trials
        self.coeff_degree = coeff_degree
        self.items = []
        self.notes = []

    def rng(self, item_id):
        return random.Random(f"{self.seed}:{self.suite}:{item_id}")

    def share(self, buckets):
        return max(1, -(-self.trials // max(1, buckets)))

    def algebroids(self):
        return sorted(self.model.algebroids.items())

    def poisson(self):
        return sorted(self.model.poisson.items())

    def canonical(self):
        return [(name, A) for name, A in self.algebroids() if A.is_canonical]

    def draw(self, rng, owner, kind, degree, keys=2):
        # the settings were checked by run_suite, so the draw skips the guards
        return _draw_tensor(rng, owner, kind, degree, self.coeff_degree, keys)

    def note(self, text):
        self.notes.append(text)

    def arguments(self, rng, owner, specs):
        """The enumerator: draw the arguments of ``specs``, read by
        :func:`_read_specs` and bound to ``owner`` by :func:`_bound_specs`,
        in declaration order.  ``FUNCTION`` is one random coefficient on the
        owner's base, handed over as ``owner.fn(...)``.  A tensor of an int
        degree takes it as is, with no ``rng.choice``; one of a str degree
        takes the value of that earlier degree argument; one of a degree
        list makes one ``rng.choice`` over its entries exactly as listed,
        duplicates included.  A ``BASIS`` tensor's value is the list of
        basis tensors, for ``declare`` to expand.  A degree argument is one
        ``rng.choice`` of an int.  A degree list is a sequence of ints and
        functions of the owner (``_upto2``, ``_rank``), or one function of
        it (``_upto3``)."""
        drawn = {}
        for name, form, kind, degrees, keys in specs:
            if form is FUNCTION:
                drawn[name] = owner.fn(_draw_coefficient(
                    rng, owner.base, self.coeff_degree))
            elif form is _DEGREE:
                drawn[name] = rng.choice(degrees)
            elif form is BASIS:
                drawn[name] = degrees
            else:
                if form is _NAMED:
                    degrees = drawn[degrees]
                elif form is _CHOICE:
                    degrees = rng.choice(degrees)
                drawn[name] = self.draw(rng, owner, kind, degrees, keys)
        return drawn

    def declare(self, item_id, label, fixtures, owner=None, **args):
        """Decorate ``residual(fixture, **args)`` into an item: on each of
        ``fixtures`` in turn, ``share(len(fixtures))`` draws of ``args`` on
        ``owner(fixture)`` (the fixture itself by default), or one instance
        with no arguments; a draw with a ``BASIS`` argument is one instance
        per basis tensor.  A fixture where a tensor of a fixed int degree
        has no basis keys is skipped.  The residual, or each of a tuple of
        them, must vanish; the witness of the first nonzero one carries its
        1-based position as ``component``."""
        per = self.share(len(fixtures)) if args else 1
        specs = _read_specs(args)
        basis = [name for name, form, *_ in specs if form is BASIS]
        fixed = [(kind, degree) for _, form, kind, degree, _ in specs if form is _FIXED]

        def witness(fixture, inputs, residual):
            residuals = residual if isinstance(residual, tuple) else (residual,)
            for component, nonzero in enumerate(residuals, 1):
                if not nonzero.is_zero():
                    found = _witness(fixture, label, inputs, nonzero,
                                     self.rng(f"{item_id}/witness"))
                    found["component"] = component
                    return found
            return None

        def declared(residual):
            def check(rng, fixture):
                on = fixture if owner is None else owner(fixture)
                if any(not _basis_table(on.rank, kind, degree)
                       for kind, degree in fixed):
                    return
                bound = _bound_specs(specs, on)
                for _ in range(per):
                    drawn = self.arguments(rng, on, bound)
                    if not basis:
                        yield drawn, residual(fixture, **drawn)
                        continue
                    for chosen in itertools.product(*(drawn[name] for name in basis)):
                        inputs = {**drawn, **dict(zip(basis, chosen))}
                        yield inputs, residual(fixture, **inputs)

            self._record(item_id, label, fixtures, check, witness)
            return residual
        return declared

    def predicate(self, item_id, label, fixtures):
        """Decorate ``check(rng, fixture)``, yielding (inputs, ok) for a check
        that is not residual-shaped, into an item over ``fixtures``; the
        witness of the first false ``ok`` holds the inputs that are tensors."""
        def witness(fixture, inputs, ok):
            if ok:
                return None
            return {"fixture": fixture, "identity": label,
                    "model": model_document(_witness_model(inputs))}

        def predicated(check):
            self._record(item_id, label, fixtures, check, witness)
            return check
        return predicated

    def _record(self, item_id, label, fixtures, check, witness):
        """The one fixture loop: run ``check(rng, fixture)`` on each of
        ``fixtures`` in turn on the item's one generator, count instances up
        to the first one ``witness`` turns into a witness; append the item."""
        rng = self.rng(item_id)
        instances = ((name, inputs, outcome) for name, fixture in fixtures
                     for inputs, outcome in check(rng, fixture))
        checked = 0
        found = None
        for name, inputs, outcome in instances:
            checked += 1
            found = witness(name, inputs, outcome)
            if found is not None:
                break
        item = {"id": item_id, "label": label,
                "status": "fail" if found else "pass", "checked": checked}
        if found:
            item["witness"] = found
        self.items.append(item)

    def result(self):
        status = "pass" if all(i["status"] == "pass" for i in self.items) else "fail"
        return {"suite": self.suite, "title": self.title, "seed": self.seed,
                "trials": self.trials, "status": status,
                "notes": self.notes, "items": self.items}


def _upto2(owner):
    """The degree entry ``min(2, rank)`` of the draw owner."""
    return min(2, owner.rank)


def _upto3(owner):
    """The degrees 1 to ``min(3, rank)`` of the draw owner."""
    return range(1, min(3, owner.rank) + 1)


#: The degree entry ``rank`` of the draw owner.
_rank = attrgetter("rank")
#: A Poisson structure's owner, the canonical algebroid of its chart: its
#: forms and functions draw there.
_poisson_owner = attrgetter("owner")


def _sign(n):
    """(−1)^n."""
    return -1 if n % 2 else 1


def _graded_jacobi(bracket, x, y, z, shift=0, right=False):
    """The cyclic graded-Jacobi sum of ``x, y, z``: Σ (−1)^{|p||r|}
    [[p, q], r] over (p, q, r) = (x, y, z), (y, z, x), (z, x, y), nesting
    as [p, [q, r]] when ``right``; |t| is the degree of t minus ``shift``."""
    def term(p, q, r):
        nested = bracket(p, bracket(q, r)) if right else bracket(bracket(p, q), r)
        return nested * _sign((p.degree - shift) * (r.degree - shift))
    return term(x, y, z) + term(y, z, x) + term(z, x, y)


def _vt_table(op, base, x, y, V, T):
    """The V/T table of a bilinear ``op`` as its four residuals:
    op(Vx, Vy) = 0, op(Vx, Ty) = op(Tx, Vy) = V(base), op(Tx, Ty) = T(base),
    where ``op`` acts on the lift and ``base`` is the same op on x and y."""
    vx, tx, vy, ty = V(x), T(x), V(y), T(y)
    v_base = V(base)
    return (op(vx, vy), op(vx, ty) - v_base, op(tx, vy) - v_base,
            op(tx, ty) - T(base))


def _lift_table(A, op, x, y, owned=True):
    """The V/T table of ``op`` over ``A`` and its tangent lift; ``op``
    takes the owner first when ``owned``."""
    def on(owner):
        return partial(op, owner) if owned else op
    return _vt_table(on(_tangent_lift(A)), on(A)(x, y), x, y,
                     partial(_vertical_lift_V, A), partial(_complete_lift_T, A))


def _dual_owner(A):
    """The canonical algebroid of the dual chart of ``A``."""
    return _vector_fields(_dual_chart(A.base.coords, A.dual_names))


def _velocity(coeff, source, target):
    # the velocity of coordinate a is coordinate n + a of the velocity chart
    n = source.dim
    if target.dim != 2 * n or target.coords[:n] != source.coords:
        raise DimensionMismatch(f"{target!r} is not the velocity chart of {source!r}")
    return poly_sum(target, (
        d.transport(target) * target.coordinate(target.coords[n + a])
        for a, d in enumerate(map(coeff.partial, source.coords)) if not d.is_zero()))


# -- exterior calculus -------------------------------------------------------

def _suite_theorem_1(run):
    """d² = 0 and the Leibniz / commutator laws of i_X and L_X."""
    fixtures = run.algebroids()

    @run.declare("d-squared", "d∘d = 0", fixtures,
                 mu=(Kind.FORM, (0, 1, _upto2)))
    def d_squared(A, mu):
        return _differential(A, _differential(A, mu))

    @run.declare("d-leibniz", "d(mu∧nu) = d(mu)∧nu + (−1)^k mu∧d(nu)",
                 fixtures, mu=(Kind.FORM, (0, 1)), nu=(Kind.FORM, (0, 1)))
    def d_leibniz(A, mu, nu):
        return (_differential(A, _wedge(mu, nu))
                - _wedge(_differential(A, mu), nu)
                - _wedge(mu, _differential(A, nu)) * _sign(mu.degree))

    @run.declare("i-leibniz", "i_X(mu∧nu) = i_X(mu)∧nu + (−1)^k mu∧i_X(nu)",
                 fixtures, mu=(Kind.FORM, (1, _upto2)),
                 nu=(Kind.FORM, (1, _upto2)), x=(Kind.MV, 1))
    def i_leibniz(A, mu, nu, x):
        return (_contract(x, _wedge(mu, nu))
                - _wedge(_contract(x, mu), nu)
                - _wedge(mu, _contract(x, nu)) * _sign(mu.degree))

    @run.declare("lie-leibniz", "L_X(mu∧nu) = L_X(mu)∧nu + mu∧L_X(nu)",
                 fixtures, mu=(Kind.FORM, (0, 1)),
                 nu=(Kind.FORM, (0, 1, _upto2)), x=(Kind.MV, 1))
    def lie_leibniz(A, mu, nu, x):
        return (_lie_derivative(A, x, _wedge(mu, nu))
                - _wedge(_lie_derivative(A, x, mu), nu)
                - _wedge(mu, _lie_derivative(A, x, nu)))

    @run.declare("lie-commutator", "L_X∘L_Y − L_Y∘L_X = L_[X,Y]", fixtures,
                 mu=(Kind.FORM, (1, _upto2)), x=(Kind.MV, 1), y=(Kind.MV, 1))
    def lie_commutator(A, mu, x, y):
        return (_lie_derivative(A, x, _lie_derivative(A, y, mu))
                - _lie_derivative(A, y, _lie_derivative(A, x, mu))
                - _lie_derivative(A, _bracket_tensors(A, x, y), mu))

    @run.declare("lie-insertion", "L_X∘i_Y − i_Y∘L_X = i_[X,Y]", fixtures,
                 mu=(Kind.FORM, (1, _upto2)), x=(Kind.MV, 1), y=(Kind.MV, 1))
    def lie_insertion(A, mu, x, y):
        return (_lie_derivative(A, x, _contract(y, mu))
                - _contract(y, _lie_derivative(A, x, mu))
                - _contract(_bracket_tensors(A, x, y), mu))


def _suite_theorem_2(run):
    """The operator identity that pins the generalized Schouten bracket, on a
    full basis of forms; the bracket on functions; the adjoint derivation."""
    run.note("active contraction order: "
             + _tensor_conventions.CONTRACTION_ORDER)
    fixtures = run.algebroids()

    @run.declare("operator-identity",
                 "L_Y∘i_X − (−1)^{a(b−1)} i_X∘L_Y = −i_[X,Y] on basis forms",
                 fixtures, a=_upto3, b=_upto3, x=(Kind.MV, "a"),
                 y=(Kind.MV, "b"), mu=(Kind.FORM, _upto3, BASIS))
    def operator(A, a, b, x, y, mu):
        return (_lie_derivative(A, y, _contract(x, mu))
                - _contract(x, _lie_derivative(A, y, mu)) * _sign(a * (b - 1))
                + _contract(_schouten(A, x, y), mu))

    @run.declare("bracket-on-functions", "[X, f] = anchor(X)(f)", fixtures,
                 x=(Kind.MV, 1), f=FUNCTION)
    def on_functions(A, x, f):
        value = f.as_function()
        applied = poly_sum(A.base, (c * A.anchor[i][a] * value.partial(coord)
                                    for (i,), c in x.terms.items()
                                    for a, coord in enumerate(A.base.coords)))
        return _schouten(A, x, f) - A.fn(applied)

    @run.declare("adjoint-derivation",
                 "[X, Y∧Z] = [X,Y]∧Z + (−1)^{(a−1)b} Y∧[X,Z]", fixtures,
                 x=(Kind.MV, (1, 2)), y=(Kind.MV, (1, _upto2)), z=(Kind.MV, 1))
    def derivation(A, x, y, z):
        return (_schouten(A, x, _wedge(y, z))
                - _wedge(_schouten(A, x, y), z)
                - _wedge(y, _schouten(A, x, z)) * _sign((x.degree - 1) * y.degree))


def _suite_theorem_3(run):
    """The Nijenhuis–Richardson bracket is a graded Lie bracket."""
    fixtures = run.algebroids()

    @run.declare("antisymmetry", "[K,L] = −(−1)^{(a−1)(b−1)} [L,K]", fixtures,
                 K=(Kind.MIXED, (0, 1, _upto2)), L=(Kind.MIXED, (0, 1)))
    def antisymmetry(A, K, L):
        return (_nr_bracket(K, L)
                + _nr_bracket(L, K) * _sign((K.degree - 1) * (L.degree - 1)))

    mixed = (Kind.MIXED, (0, 1, _upto2))

    @run.declare("graded-jacobi", "graded Jacobi identity", fixtures,
                 K=mixed, L=mixed, M=mixed)
    def jacobi(A, K, L, M):
        return _graded_jacobi(_nr_bracket, K, L, M, shift=1)


def _suite_theorem_4(run):
    """The Frölicher–Nijenhuis bracket: the Lie-differential operator
    identity and the graded Lie laws."""
    fixtures = run.algebroids()
    mixed = (Kind.MIXED, (0, 1, _upto2))

    @run.declare("operator-identity", "L_[K,L] = L_K∘L_L − (−1)^{ab} L_L∘L_K",
                 fixtures, K=mixed, L=(Kind.MIXED, (0, 1)),
                 omega=(Kind.FORM, (1, _upto2)))
    def operator(A, K, L, omega):
        return (_lie_derivative(A, _fn_bracket(A, K, L), omega)
                - _lie_derivative(A, K, _lie_derivative(A, L, omega))
                + _lie_derivative(A, L, _lie_derivative(A, K, omega))
                * _sign(K.degree * L.degree))

    @run.declare("antisymmetry", "[K,L] = −(−1)^{ab} [L,K]", fixtures,
                 K=mixed, L=(Kind.MIXED, (0, 1)))
    def antisymmetry(A, K, L):
        return (_fn_bracket(A, K, L)
                + _fn_bracket(A, L, K) * _sign(K.degree * L.degree))

    @run.declare("graded-jacobi", "graded Jacobi identity", fixtures,
                 K=mixed, L=mixed, M=mixed)
    def jacobi(A, K, L, M):
        return _graded_jacobi(partial(_fn_bracket, A), K, L, M)


def _suite_eq_1_12(run):
    """Insertion operators compose to the Nijenhuis–Richardson bracket."""
    mixed = (Kind.MIXED, (0, 1, _upto2))

    @run.declare("insertion-identity",
                 "i_[K,L] = i_K∘i_L − (−1)^{(a−1)(b−1)} i_L∘i_K",
                 run.algebroids(), K=mixed, L=mixed,
                 omega=(Kind.FORM, (1, _upto2, _rank)))
    def operator(A, K, L, omega):
        return (_contract_mixed(_nr_bracket(K, L), omega)
                - _contract_mixed(K, _contract_mixed(L, omega))
                + _contract_mixed(L, _contract_mixed(K, omega))
                * _sign((K.degree - 1) * (L.degree - 1)))


# -- Poisson structures ------------------------------------------------------

def _suite_theorem_5(run):
    """Λ maps the Koszul–Schouten bracket to the Schouten bracket; it inverts
    exactly over an invertible bundle map."""
    fixtures = run.poisson()
    form = (Kind.FORM, (0, 1, 2))

    @run.declare("lambda-homomorphism", "Λ[mu,nu]_P = [Λmu, Λnu]", fixtures,
                 owner=_poisson_owner, mu=form, nu=form)
    def homomorphism(ps, mu, nu):
        return (_lambda_p(ps, _koszul_schouten(ps, mu, nu))
                - _schouten(ps.owner, _lambda_p(ps, mu), _lambda_p(ps, nu)))

    per = run.share(len(fixtures))

    @run.predicate("lambda-inverse",
                   "Λ⁻¹∘Λ = id wherever the bundle map inverts", fixtures)
    def inverse(rng, ps):
        O = ps.owner
        try:
            _lambda_p(ps, O.e(0), "inverse")
        except NotInvertible:
            yield {}, True
            return
        for _ in range(per):
            mu = run.draw(rng, O, Kind.FORM, rng.choice([1, 2]))
            back = _lambda_p(ps, _lambda_p(ps, mu), "inverse")
            yield {"mu": mu}, back == mu


def _suite_theorem_6(run):
    """The extended bracket is a graded Lie bracket restricting to the
    Poisson bracket on functions and compatible with d."""
    fixtures = run.poisson()

    @run.declare("poisson-on-functions", "{f, g}_P is the Poisson bracket",
                 fixtures, owner=_poisson_owner, f=FUNCTION, g=FUNCTION)
    def on_functions(ps, f, g):
        bracket = _poisson_bracket(ps, f.as_function(), g.as_function())
        return (_extended_bracket(ps, f, g)
                - GradedTensor(ps.owner, Kind.FORM, 0, {(): bracket}))

    @run.declare("antisymmetry", "graded antisymmetry of {,}_P", fixtures,
                 owner=_poisson_owner, ka=(0, 1, 2), kb=(0, 1),
                 mu=(Kind.FORM, "ka"), nu=(Kind.FORM, "kb"))
    def antisymmetry(ps, ka, kb, mu, nu):
        return (_extended_bracket(ps, mu, nu)
                + _extended_bracket(ps, nu, mu) * _sign(ka * kb))

    form = (Kind.FORM, (0, 1, 2), 1)

    @run.declare("graded-jacobi", "graded Jacobi identity of {,}_P", fixtures,
                 owner=_poisson_owner, mu=form, nu=form, rho=form)
    def jacobi(ps, mu, nu, rho):
        return _graded_jacobi(partial(_extended_bracket, ps), mu, nu, rho,
                              right=True)

    @run.declare("d-compatibility", "{d mu, nu}_P = d{mu, nu}_P", fixtures,
                 owner=_poisson_owner, mu=(Kind.FORM, (0, 1)),
                 nu=(Kind.FORM, (0, 1, 2)))
    def d_compat(ps, mu, nu):
        return (_extended_bracket(ps, _differential(ps.owner, mu), nu)
                - _differential(ps.owner, _extended_bracket(ps, mu, nu)))

    @run.declare("term-expansion-0-1",
                 "{g0, f0 df1}_P = {g0,f0} df1 + f0 d{g0,f1}", fixtures,
                 owner=_poisson_owner, g0=FUNCTION, f0=FUNCTION, f1=FUNCTION)
    def term_expansion_01(ps, g0, f0, f1):
        O = ps.owner
        g0, f0, f1 = (f.as_function() for f in (g0, f0, f1))

        def d0(f):
            return _differential(O, O.fn(f))

        lhs = _extended_bracket(ps, O.fn(g0), d0(f1) * f0)
        rhs = (d0(f1) * _poisson_bracket(ps, g0, f0)
               + d0(_poisson_bracket(ps, g0, f1)) * f0)
        return lhs - rhs

    @run.declare("term-expansion-1-1", "six-term expansion of {g0 dg1, f0 df1}_P",
                 fixtures, owner=_poisson_owner, g0=FUNCTION, g1=FUNCTION,
                 f0=FUNCTION, f1=FUNCTION)
    def term_expansion_11(ps, g0, g1, f0, f1):
        O = ps.owner
        g0, g1, f0, f1 = (f.as_function() for f in (g0, g1, f0, f1))

        def d0(f):
            return _differential(O, O.fn(f))

        def pb(a, b):
            return _poisson_bracket(ps, a, b)

        lhs = _extended_bracket(ps, d0(g1) * g0, d0(f1) * f0)
        rhs = (_wedge(d0(g1), d0(f1)) * pb(g0, f0)
               + _wedge(d0(pb(g1, f0)), d0(f1)) * g0
               - _wedge(d0(pb(g1, f1)), d0(f0)) * g0
               - _wedge(d0(pb(g0, f1)), d0(g1)) * f0
               + _wedge(d0(pb(g1, f1)), d0(g0)) * f0
               - _wedge(d0(g0), d0(f0)) * pb(g1, f1))
        return lhs - rhs


def _suite_theorem_7(run):
    """d, H and G intertwine the extended bracket with the Koszul–Schouten,
    Frölicher–Nijenhuis and Schouten brackets."""
    fixtures = run.poisson()
    low = (Kind.FORM, (0, 1))

    @run.declare("d-homomorphism", "[d mu, d nu]_P = d{mu, nu}_P", fixtures,
                 owner=_poisson_owner, mu=low, nu=low)
    def d_homomorphism(ps, mu, nu):
        O = ps.owner
        return (_koszul_schouten(ps, _differential(O, mu), _differential(O, nu))
                - _differential(O, _extended_bracket(ps, mu, nu)))

    @run.declare("h-homomorphism", "H{mu,nu}_P = [H mu, H nu]^{F-N}", fixtures,
                 owner=_poisson_owner, mu=low, nu=low)
    def h_homomorphism(ps, mu, nu):
        return (_h_p(ps, _extended_bracket(ps, mu, nu))
                - _fn_bracket(ps.owner, _h_p(ps, mu), _h_p(ps, nu)))

    @run.declare("g-homomorphism", "G{mu,nu}_P = [G mu, G nu]", fixtures,
                 owner=_poisson_owner, mu=(Kind.FORM, (0, 1, 2)), nu=low)
    def g_homomorphism(ps, mu, nu):
        return (_g_p(ps, _extended_bracket(ps, mu, nu))
                - _schouten(ps.owner, _g_p(ps, mu), _g_p(ps, nu)))


def _suite_eq_2_6(run):
    """The Koszul–Schouten bracket agrees with its insertion/Lie expansion."""
    form = (Kind.FORM, (0, 1, 2))

    @run.declare("h-r-expansion", "[mu,nu]_P = i_{H mu} nu − (−1)^k L_{R mu} nu",
                 run.poisson(), owner=_poisson_owner, mu=form, nu=form)
    def expansion(ps, mu, nu):
        return (_koszul_schouten(ps, mu, nu)
                - _contract_mixed(_h_p(ps, mu), nu)
                + _lie_derivative(ps.owner, _r_p(ps, mu), nu) * _sign(mu.degree))


# -- lifts to the tangent algebroid ------------------------------------------

def _suite_theorem_8(run):
    """Vertical and complete lifts: function laws and module structure."""
    fixtures = run.algebroids()

    @run.declare("function-lifts",
                 "V(f) is the pullback; T(f) is the velocity derivative",
                 fixtures, f=FUNCTION)
    def function_laws(A, f):
        TL = _tangent_lift(A)
        value = f.as_function()
        return (_vertical_lift_V(A, f) - TL.fn(value.transport(TL.base)),
                _complete_lift_T(A, f) - TL.fn(_velocity(value, A.base, TL.base)))

    @run.declare("module-laws",
                 "V(fX) = V(f)V(X) and T(fX) = T(f)V(X) + V(f)T(X)",
                 fixtures, f=FUNCTION, x=(Kind.MV, 1))
    def module_laws(A, f, x):
        fx = x * f.as_function()
        vf = _vertical_lift_V(A, f).as_function()
        tf = _complete_lift_T(A, f).as_function()
        return (_vertical_lift_V(A, fx) - _vertical_lift_V(A, x) * vf,
                _complete_lift_T(A, fx) - _vertical_lift_V(A, x) * tf
                - _complete_lift_T(A, x) * vf)


def _suite_theorem_9(run):
    """V and T form a Leibniz pair for wedge and symmetric products."""
    for item_id, kind, product, what in (
            ("wedge-leibniz", Kind.MV, _wedge, "multivector wedges"),
            ("sym-leibniz", Kind.SYM, _sym_product, "symmetric products"),
            ("form-leibniz", Kind.FORM, _wedge, "form wedges")):
        low = (kind, (1, _upto2))

        @run.declare(item_id, f"V/T Leibniz pair on {what}", run.algebroids(),
                     s=low, t=low)
        def leibniz_pair(A, s, t, product=product):
            V, T = partial(_vertical_lift_V, A), partial(_complete_lift_T, A)
            return (V(product(s, t)) - product(V(s), V(t)),
                    T(product(s, t)) - product(T(s), V(t)) - product(V(s), T(t)))


def _suite_theorem_10(run):
    """The tangent-lift anchor intertwines V/T with the classical lifts."""
    fixtures = [(n, A) for n, A in run.algebroids() if A.base.dim]
    skipped = [n for n, A in run.algebroids() if not A.base.dim]
    if skipped:
        run.note("skipped over a point (no vector fields to lift): "
                 + ", ".join(skipped))

    @run.declare("anchor-intertwines",
                 "anchor∘V = v_T∘anchor and anchor∘T = d_T∘anchor",
                 fixtures, x=(Kind.MV, 1))
    def anchor(A, x):
        TL = _tangent_lift(A)
        return (_anchor_apply(TL, _vertical_lift_V(A, x))
                - _classical_vertical_lift(_anchor_apply(A, x)),
                _anchor_apply(TL, _complete_lift_T(A, x))
                - _classical_complete_lift(_anchor_apply(A, x)))


def _suite_theorem_11(run):
    """The V/T multiplication table for the Schouten brackets."""
    fixtures = run.algebroids()
    mv, sym = (Kind.MV, (1, _upto2)), (Kind.SYM, (1, 2))

    @run.declare("schouten-table", "[VV]=0, [VT]=[TV]=V[,], [TT]=T[,]",
                 fixtures, x=mv, y=mv)
    def table(A, x, y):
        return _lift_table(A, _schouten, x, y)

    @run.declare("sym-schouten-table", "the same table for the symmetric bracket",
                 fixtures, x=sym, y=sym)
    def sym_table(A, x, y):
        return _lift_table(A, _sym_schouten, x, y)


def _suite_theorem_12(run):
    """Contraction, differential and Lie derivative against V/T lifts."""
    fixtures = run.algebroids()
    form = (Kind.FORM, (1, _upto2))

    @run.declare("contraction-table", "i_{V/T} on V/T-lifted forms", fixtures,
                 x=(Kind.MV, 1), mu=form)
    def contraction(A, x, mu):
        return _lift_table(A, _contract, x, mu, owned=False)

    @run.declare("differential-table", "d∘V = V∘d and d∘T = T∘d", fixtures,
                 mu=(Kind.FORM, (0, 1, _upto2)))
    def differential_table(A, mu):
        TL = _tangent_lift(A)
        dmu = _differential(A, mu)
        return (_differential(TL, _vertical_lift_V(A, mu)) - _vertical_lift_V(A, dmu),
                _differential(TL, _complete_lift_T(A, mu)) - _complete_lift_T(A, dmu))

    @run.declare("lie-table", "L_{V/T} on V/T-lifted forms", fixtures,
                 x=(Kind.MV, 1), mu=form)
    def lie_table(A, x, mu):
        return _lift_table(A, _lie_derivative, x, mu)


def _suite_theorem_13(run):
    """The V/T table for the Nijenhuis–Richardson bracket."""
    low = (Kind.MIXED, (0, 1))

    @run.declare("nr-table", "the V/T table for the N-R bracket",
                 run.algebroids(), K=low, L=low)
    def table(A, K, L):
        return _lift_table(A, _nr_bracket, K, L, owned=False)


def _suite_theorem_14(run):
    """The V/T table for the Frölicher–Nijenhuis bracket."""
    low = (Kind.MIXED, (0, 1))

    @run.declare("fn-table", "the V/T table for the F-N bracket",
                 run.algebroids(), K=low, L=low)
    def table(A, K, L):
        return _lift_table(A, _fn_bracket, K, L)


# -- lifts to the dual bundle ------------------------------------------------

def _suite_theorem_15(run):
    """The dual-chart Schouten identities tying iota, V_pi and G together."""
    fixtures = run.algebroids()
    # every item draws x, y, mu and nu, whichever of them it uses
    instance = {"x": (Kind.MV, 1), "y": (Kind.MV, 1),
                "mu": (Kind.FORM, (1, _upto2)), "nu": (Kind.FORM, 1)}

    @run.declare("a-multiplicative", "V_pi(mu∧nu) = V_pi(mu)∧V_pi(nu)",
                 fixtures, **instance)
    def wedge_mult(A, x, y, mu, nu):
        return (_vertical_pi(A, _wedge(mu, nu))
                - _wedge(_vertical_pi(A, mu), _vertical_pi(A, nu)))

    @run.declare("b-commuting", "[V_pi mu, V_pi nu] = 0", fixtures, **instance)
    def commute(A, x, y, mu, nu):
        D = _linear_poisson(A).owner
        return _schouten(D, _vertical_pi(A, mu), _vertical_pi(A, nu))

    @run.declare("c-iota", "[iota(X), V_pi mu] = −V_pi(i_X mu)", fixtures,
                 **instance)
    def iota_bracket(A, x, y, mu, nu):
        D = _linear_poisson(A).owner
        return (_schouten(D, D.fn(_iota(A, x)), _vertical_pi(A, mu))
                + _vertical_pi(A, _contract(x, mu)))

    @run.declare("d-differential", "[P, V_pi mu] = V_pi(d mu)", fixtures,
                 **instance)
    def p_bracket(A, x, y, mu, nu):
        ps = _linear_poisson(A)
        return (_schouten(ps.owner, ps.bivector, _vertical_pi(A, mu))
                - _vertical_pi(A, _differential(A, mu)))

    @run.declare("e-lie", "[G(X), V_pi mu] = V_pi(L_X mu)", fixtures, **instance)
    def g_lie(A, x, y, mu, nu):
        D = _linear_poisson(A).owner
        return (_schouten(D, _cot_complete_G_vec(A, x), _vertical_pi(A, mu))
                - _vertical_pi(A, _lie_derivative(A, x, mu)))

    @run.declare("f-bracket", "[G(X), G(Y)] = G([X, Y])", fixtures, **instance)
    def g_g(A, x, y, mu, nu):
        D = _linear_poisson(A).owner
        return (_schouten(D, _cot_complete_G_vec(A, x), _cot_complete_G_vec(A, y))
                - _cot_complete_G_vec(A, _bracket_tensors(A, x, y)))

    @run.declare("g-iota", "[G(X), iota(Y)] = iota([X, Y])", fixtures,
                 **instance)
    def g_iota(A, x, y, mu, nu):
        D = _linear_poisson(A).owner
        return (_schouten(D, _cot_complete_G_vec(A, x), D.fn(_iota(A, y)))
                - D.fn(_iota(A, _bracket_tensors(A, x, y))))


def _g_expanded(A, k):
    """The product-rule branch of the dual complete lift of a mixed tensor."""
    pieces = []
    for (form_key, j), coeff in k.terms.items():
        mu = GradedTensor(A, Kind.FORM, k.degree, {form_key: coeff})
        pieces += (_wedge(_cot_complete_G_vec(A, A.e(j)), _vertical_pi(A, mu)),
                   _vertical_pi(A, _differential(A, mu)) * -_iota(A, A.e(j)))
    return _tensor_sum(_linear_poisson(A).owner, Kind.MV, k.degree + 1, pieces)


def _suite_theorem_16(run):
    """The mixed-tensor maps J and G extend −iota and the vector lift, and
    the two routes to G agree."""
    fixtures = run.algebroids()

    @run.declare("degree-zero", "J(X) = −iota(X) and G(X) = G_vec(X)",
                 fixtures, x=(Kind.MV, 1))
    def degree_zero(A, x):
        k = _as_kind(x, Kind.MIXED)
        return (_J_map(A, k) + _dual_owner(A).fn(_iota(A, x)),
                _G_map(A, k) - _cot_complete_G_vec(A, x))

    @run.declare("dual-routes",
                 "[P, J(K)] equals the product-rule expansion of G(K)",
                 fixtures, K=(Kind.MIXED, (0, 1, _upto2)))
    def dual_routes(A, K):
        ps = _linear_poisson(A)
        return _schouten(ps.owner, ps.bivector, _J_map(A, K)) - _g_expanded(A, K)


def _suite_theorem_17(run):
    """J is an injective homomorphism of the N-R bracket."""
    fixtures = run.algebroids()
    low = (Kind.MIXED, (0, 1))

    @run.declare("nr-homomorphism", "[J(K), J(L)] = J([K,L]^{N-R})",
                 fixtures, K=low, L=low)
    def homomorphism(A, K, L):
        return (_schouten(_dual_owner(A),
                         _J_map(A, K), _J_map(A, L))
                - _J_map(A, _nr_bracket(K, L)))

    @run.predicate("injectivity",
                   "J(K) = 0 only for K = 0 on a spanning set of mixed "
                   "tensors of form degree ≤ 2",
                   [(name, A) for name, A in run.canonical() if A.rank == 2][:1])
    def injectivity(rng, A):
        slots = [(key, j) for degree in (0, 1, 2)
                 for key in _basis_table(A.rank, Kind.FORM, degree)
                 for j in range(A.rank)]
        for _ in range(run.trials):
            terms = {}
            degree = rng.choice([0, 1, 2])
            for key, j in slots:
                if len(key) == degree and rng.random() < 0.5:
                    c = rng.randint(-2, 2)
                    if c:
                        terms[(key, j)] = c
            k = GradedTensor(A, Kind.MIXED, degree, terms)
            yield {"K": k}, _J_map(A, k).is_zero() == k.is_zero()


def _suite_theorem_18(run):
    """The dual complete lift G is a homomorphism of the F-N bracket."""
    low = (Kind.MIXED, (0, 1))

    @run.declare("fn-homomorphism", "[G(K), G(L)] = G([K,L]^{F-N})",
                 run.algebroids(), K=low, L=low)
    def homomorphism(A, K, L):
        return (_schouten(_dual_owner(A),
                         _G_map(A, K), _G_map(A, L))
                - _G_map(A, _fn_bracket(A, K, L)))


# -- the canonical case ------------------------------------------------------

def _direct_vertical(chart, t):
    """The classical vertical lift of ``t``, a tensor over the canonical
    algebroid of ``chart``, on that of its velocity chart: each vector
    factor moves to the velocity block (index ``n + a`` for ``a``), each
    form factor stays, and every coefficient is pulled back."""
    target = _vector_fields(_dotted_chart(chart))
    up = _slot_offsets(t.kind, t.degree, 0, chart.dim)
    return GradedTensor(target, t.kind, t.degree,
                        {_key(t.kind, tuple(map(add, _slots(t.kind, key), up))):
                         c.transport(target.base) for key, c in t.terms.items()})


def _direct_complete(chart, t):
    """The classical complete lift of ``t``, as in :func:`_direct_vertical`:
    the velocity of each coefficient on its vertical key, and the pulled-back
    coefficient on each key that has one factor moved across the two blocks
    (a vector factor back to the base block, a form factor to the velocity
    block)."""
    target = _vector_fields(_dotted_chart(chart))
    n = chart.dim
    up = _slot_offsets(t.kind, t.degree, 0, n)
    terms = []
    for key, c in t.terms.items():
        indices = _slots(t.kind, key)
        vertical = tuple(map(add, indices, up))
        pulled = c.transport(target.base)
        terms.append((_key(t.kind, vertical), _velocity(c, chart, target.base)))
        terms += ((_key(t.kind, vertical[:r] + (i + n - up[r],) + vertical[r + 1:]), pulled)
                  for r, i in enumerate(indices))
    return GradedTensor(target, t.kind, t.degree, terms)


def _pullback(owner, mu):
    """The form ``mu`` with its coefficients transported onto the base of
    ``owner``, a dual chart's canonical algebroid, keys unchanged: the
    pullback of a form to the dual chart."""
    return GradedTensor(owner, Kind.FORM, mu.degree,
                        {key: c.transport(owner.base)
                         for key, c in mu.terms.items()})


def _suite_theorem_19(run):
    """The flip transports carry V/T to the classical vertical/complete
    lifts, written out independently."""
    fixtures = run.canonical()
    if not fixtures:
        run.note("no canonical algebroids in the model")

    def lifted(A, t):
        """The transported V and T of ``t`` against the written-out lifts."""
        return (_canonical_transport(_vertical_lift_V(A, t)) - _direct_vertical(A.base, t),
                _canonical_transport(_complete_lift_T(A, t)) - _direct_complete(A.base, t))

    @run.declare("vectors", "kappa∘V = v_T and kappa∘T = d_T on vector fields",
                 fixtures, x=(Kind.MV, 1))
    def vectors(A, x):
        return lifted(A, x)

    @run.declare("bivectors", "the same on bivectors", fixtures,
                 p=(Kind.MV, 2))
    def bivectors(A, p):
        return lifted(A, p)

    @run.declare("forms", "alpha∘V = v_T and alpha∘T = d_T on forms",
                 fixtures, mu=(Kind.FORM, (1, _upto2)))
    def forms(A, mu):
        return lifted(A, mu)

    @run.declare("involution", "kappa∘kappa = id and alpha∘alpha = id",
                 fixtures, owner=_tangent_lift, s=(Kind.MV, (1, 2)),
                 mu=(Kind.FORM, (1, 2)))
    def involution(A, s, mu):
        return (_canonical_transport(_canonical_transport(s)) - s,
                _canonical_transport(_canonical_transport(mu)) - mu)


def _suite_theorem_20(run):
    """The flip is the tangent-lift anchor and an algebroid isomorphism; the
    two routes to the tangent Poisson structure agree."""
    fixtures = run.canonical()

    @run.declare("anchor-is-kappa", "the tangent-lift anchor is the flip",
                 fixtures, owner=_tangent_lift, s=(Kind.MV, 1))
    def anchor(A, s):
        return _anchor_apply(_tangent_lift(A), s) - _canonical_transport(s)

    @run.declare("bracket-isomorphism", "kappa intertwines the section brackets",
                 fixtures, owner=_tangent_lift, s=(Kind.MV, 1), t=(Kind.MV, 1))
    def bracket_iso(A, s, t):
        return (_canonical_transport(_bracket_tensors(_tangent_lift(A), s, t))
                - _bracket_tensors(_vector_fields(_dotted_chart(A.base)),
                                  _canonical_transport(s),
                                  _canonical_transport(t)))

    @run.declare("poisson-routes",
                 "lifting the fiberwise-linear bivector matches linearizing "
                 "the tangent lift", run.algebroids())
    def poisson_routes(A):
        lifted = _tangent_poisson(_linear_poisson(A))
        relinearized = _linear_poisson(_tangent_lift(A))
        position = {c: i for i, c in enumerate(relinearized.chart.coords)}
        fiber_map = {i: position[c] for i, c in enumerate(lifted.chart.coords)}
        return (_remap(lifted.bivector, relinearized.owner, fiber_map)
                - relinearized.bivector)


def _suite_theorem_21(run):
    """The classical-lift tables on the canonical case."""
    fixtures = run.canonical()
    V, T = _classical_vertical_lift, _classical_complete_lift

    @run.declare("schouten-table", "the v_T/d_T Schouten table", fixtures,
                 x=(Kind.MV, (1, _upto2)), y=(Kind.MV, 1))
    def schouten_table(A, x, y):
        target = _vector_fields(_dotted_chart(A.base))
        return _vt_table(partial(_schouten, target), _schouten(A, x, y),
                         x, y, V, T)

    low = (Kind.MIXED, (0, 1))

    @run.declare("mixed-tables", "the v_T/d_T tables for N-R and F-N",
                 fixtures, K=low, L=low)
    def mixed_tables(A, K, L):
        target = _vector_fields(_dotted_chart(A.base))
        return (_vt_table(_nr_bracket, _nr_bracket(K, L), K, L, V, T)
                + _vt_table(partial(_fn_bracket, target), _fn_bracket(A, K, L),
                            K, L, V, T))

    @run.declare("cartan-tables", "the v_T/d_T tables for i, d and L",
                 fixtures, x=(Kind.MV, 1), mu=(Kind.FORM, (1, _upto2)))
    def cartan_tables(A, x, mu):
        target = _vector_fields(_dotted_chart(A.base))
        dmu = _differential(A, mu)
        return (_vt_table(_contract, _contract(x, mu), x, mu, V, T)
                + (_differential(target, V(mu)) - V(dmu),
                   _differential(target, T(mu)) - T(dmu))
                + _vt_table(partial(_lie_derivative, target),
                            _lie_derivative(A, x, mu), x, mu, V, T))


def _suite_theorem_22(run):
    """The degreewise-signed bundle map of the fiberwise-linear bivector
    recovers the dual lifts of forms and mixed tensors."""
    fixtures = run.canonical()

    @run.declare("pullbacks", "Λ*(pullback mu) = V_pi(mu)", fixtures,
                 mu=(Kind.FORM, (0, 1, _upto2)))
    def pullbacks(A, mu):
        ps = _linear_poisson(A)
        return _lambda_p(ps, _pullback(ps.owner, mu), "star") - _vertical_pi(A, mu)

    @run.declare("contracted-pullbacks", "Λ*(J*(K)) = −J(K)", fixtures,
                 K=(Kind.MIXED, (0, 1, _upto2)))
    def contracted(A, K):
        return _lambda_p(_linear_poisson(A), _Jstar(K), "star") + _J_map(A, K)

    @run.declare("differentials", "Λ*(d J*(K)) = −G(K)", fixtures,
                 K=(Kind.MIXED, (0, 1)))
    def differentials(A, K):
        ps = _linear_poisson(A)
        return (_lambda_p(ps, _differential(ps.owner, _Jstar(K)), "star")
                + _G_map(A, K))

    @run.declare("d-intertwine", "Λ*(d nu) = [P, Λ*(nu)]", fixtures,
                 owner=lambda A: _linear_poisson(A).owner,
                 nu=(Kind.FORM, (1, 2)))
    def d_intertwine(A, nu):
        ps = _linear_poisson(A)
        return (_lambda_p(ps, _differential(ps.owner, nu), "star")
                - _schouten(ps.owner, ps.bivector, _lambda_p(ps, nu, "star")))


def _suite_theorem_23(run):
    """J* maps the F-N bracket to the extended bracket."""
    @run.declare("extended-homomorphism", "{J*K, J*L}_P = J*([K,L]^{F-N})",
                 run.canonical(), K=(Kind.MIXED, (0, 1)),
                 L=(Kind.MIXED, (0, 1, _upto2)))
    def homomorphism(A, K, L):
        return (_extended_bracket(_linear_poisson(A), _Jstar(K), _Jstar(L))
                - _Jstar(_fn_bracket(A, K, L)))


def _literal_h(A, k):
    """The slot-by-slot momentum expansion of H on a canonical algebroid,
    written out independently of the Hamiltonian-map route."""
    D = _dual_owner(A)
    chart = D.base
    n = A.base.dim
    terms = []
    for (form_key, a), coeff in k.terms.items():
        f = coeff.transport(chart)
        terms.append(((form_key, a), f))
        for i, slot in enumerate(form_key, start=1):
            rest = form_key[:i - 1] + form_key[i:]
            terms.append((((n + a,) + rest, n + slot), -f * _sign(i)))
        momentum = chart.coordinate(chart.coords[n + a])
        for b, name in enumerate(A.base.coords):
            df = coeff.partial(name)
            if df.is_zero():
                continue
            weight = df.transport(chart) * momentum
            terms.append(((form_key, n + b), -weight))
            for i, slot in enumerate(form_key, start=1):
                rest = form_key[:i - 1] + form_key[i:]
                terms.append((((b,) + rest, n + slot), -weight * _sign(i)))
    return GradedTensor(D, Kind.MIXED, k.degree, terms)


def _literal_g(A, k):
    """The momentum expansion of G on a canonical algebroid (the orientation
    opposite to the shipped calibration)."""
    D = _dual_owner(A)
    chart = D.base
    n = A.base.dim
    terms = []
    for (form_key, a), coeff in k.terms.items():
        lifted = tuple(n + s for s in form_key)
        terms.append(((a,) + lifted, -coeff.transport(chart)))
        momentum = chart.coordinate(chart.coords[n + a])
        partials = map(coeff.partial, A.base.coords)
        terms += (((n + b,) + lifted, df.transport(chart) * momentum)
                  for b, df in enumerate(partials) if not df.is_zero())
    return GradedTensor(D, Kind.MV, k.degree + 1, terms)


def _suite_theorem_24(run):
    """H is an injective F-N homomorphism; the local momentum expansions of
    H and G; the Nijenhuis criterion instance."""
    run.note("orientation convention: G(dx⊗e_x) = +e_x∧e_p_x; the opposite "
             "global sign of G is a consistent alternative and is recorded "
             "by the literal-expansion item")
    fixtures = run.canonical()
    low, mixed = (Kind.MIXED, (0, 1)), (Kind.MIXED, (0, 1, _upto2))

    @run.declare("fn-homomorphism", "[H(K), H(L)]^{F-N} = H([K,L]^{F-N})",
                 fixtures, K=low, L=low)
    def homomorphism(A, K, L):
        return (_fn_bracket(_dual_owner(A), _H_map(K), _H_map(L))
                - _H_map(_fn_bracket(A, K, L)))

    @run.declare("h-expansion", "H agrees with its momentum expansion",
                 fixtures, K=mixed)
    def h_expansion(A, K):
        return _H_map(K) - _literal_h(A, K)

    @run.declare("g-expansion", "G agrees with its momentum expansion up to "
                 "the recorded global sign", fixtures, K=mixed)
    def g_expansion(A, K):
        return _G_map(A, K) + _literal_g(A, K)

    @run.predicate("injectivity", "H(K) = 0 only for K = 0 on basis sums",
                   [(name, A) for name, A in fixtures if A.rank == 2])
    def injectivity(rng, A):
        slots = [(key, j) for key in _basis_table(A.rank, Kind.FORM, 1)
                 for j in range(A.rank)]
        for _ in range(run.trials):
            terms = {}
            for key, j in slots:
                c = rng.randint(-2, 2)
                if c:
                    terms[(key, j)] = c
            k = GradedTensor(A, Kind.MIXED, 1, terms)
            yield {"K": k}, _H_map(k).is_zero() == k.is_zero()

    @run.predicate("nijenhuis-instance",
                   "[N,N]^{F-N} = 0 and [G(N), G(N)] = 0 for N = dx⊗e_x",
                   [(name, A) for name, A in fixtures if A.rank == 1])
    def nijenhuis(rng, A):
        N = GradedTensor(A, Kind.MIXED, 1, {((0,), 0): 1})
        D = _dual_owner(A)
        fn_zero = _fn_bracket(A, N, N).is_zero()
        g_zero = _schouten(D, _G_map(A, N), _G_map(A, N)).is_zero()
        yield {"N": N}, fn_zero and g_zero


def _suite_eq_7_12(run):
    """The dual flip intertwines the two exterior derivatives."""
    @run.declare("alpha-d", "alpha∘d = d∘alpha", run.canonical(),
                 owner=_tangent_lift, mu=(Kind.FORM, (0, 1, 2)))
    def intertwine(A, mu):
        target = _vector_fields(_dotted_chart(A.base))
        return (_canonical_transport(_differential(_tangent_lift(A), mu))
                - _differential(target, _canonical_transport(mu)))


def _tangent_anchor_map(A, s):
    """The tangent map of the anchor applied to a section of the tangent
    lift: barred components carry the anchor entries on the barred block,
    dotted components carry them on the dotted block and pick up the
    velocity derivative of the entries on the barred block."""
    n, m = A.base.dim, A.rank
    target = _tangent_lift(_vector_fields(A.base))
    tb = target.base
    terms = []
    for (idx,), c in s.terms.items():
        for a, rho in enumerate(A.anchor[idx % m]):
            pulled = c * rho.transport(tb)
            if idx < m:
                terms.append(((a,), pulled))
            elif not pulled.is_zero():
                terms += (((n + a,), pulled), ((a,), c * _velocity(rho, A.base, tb)))
    return GradedTensor(target, Kind.MV, 1, terms)


def _suite_eq_7_13(run):
    """Flipping the tangent-lift anchor gives the tangent map of the
    anchor."""
    fixtures = [(n, A) for n, A in run.algebroids() if A.base.dim]
    skipped = [n for n, A in run.algebroids() if not A.base.dim]
    if skipped:
        run.note("skipped over a point (the tangent of the base is trivial): "
                 + ", ".join(skipped))

    @run.declare("kappa-anchor", "kappa∘(tangent-lift anchor) = T(anchor)",
                 fixtures, owner=_tangent_lift, s=(Kind.MV, 1))
    def intertwine(A, s):
        return (_canonical_transport(_anchor_apply(_tangent_lift(A), s))
                - _tangent_anchor_map(A, s))


# -- registry ----------------------------------------------------------------

SUITES = {
    "theorem-1": ("exterior calculus: d, insertion and Lie derivative",
                  _suite_theorem_1),
    "theorem-2": ("the generalized Schouten bracket's operator identity",
                  _suite_theorem_2),
    "theorem-3": ("Nijenhuis–Richardson graded Lie laws", _suite_theorem_3),
    "theorem-4": ("Frölicher–Nijenhuis graded Lie laws", _suite_theorem_4),
    "theorem-5": ("Λ as a bracket homomorphism", _suite_theorem_5),
    "theorem-6": ("the extended bracket on forms", _suite_theorem_6),
    "theorem-7": ("d, H and G as bracket homomorphisms", _suite_theorem_7),
    "theorem-8": ("vertical and complete lifts of functions and sections",
                  _suite_theorem_8),
    "theorem-9": ("the V/T Leibniz pair", _suite_theorem_9),
    "theorem-10": ("the tangent-lift anchor on lifted sections",
                   _suite_theorem_10),
    "theorem-11": ("the V/T Schouten tables", _suite_theorem_11),
    "theorem-12": ("i, d and L against V/T lifts", _suite_theorem_12),
    "theorem-13": ("the V/T Nijenhuis–Richardson table", _suite_theorem_13),
    "theorem-14": ("the V/T Frölicher–Nijenhuis table", _suite_theorem_14),
    "theorem-15": ("dual-chart Schouten identities for iota, V_pi and G",
                   _suite_theorem_15),
    "theorem-16": ("the mixed-tensor maps J and G", _suite_theorem_16),
    "theorem-17": ("J as an injective N-R homomorphism", _suite_theorem_17),
    "theorem-18": ("G as an F-N homomorphism", _suite_theorem_18),
    "theorem-19": ("flip transports against direct classical lifts",
                   _suite_theorem_19),
    "theorem-20": ("the flip as anchor and isomorphism", _suite_theorem_20),
    "theorem-21": ("classical-lift bracket tables", _suite_theorem_21),
    "theorem-22": ("the signed bundle map recovers the dual lifts",
                   _suite_theorem_22),
    "theorem-23": ("J* maps F-N to the extended bracket", _suite_theorem_23),
    "theorem-24": ("H as an injective F-N homomorphism; expansions; the "
                   "Nijenhuis criterion", _suite_theorem_24),
    "eq-1-12": ("insertion operators compose to the N-R bracket",
                _suite_eq_1_12),
    "eq-2-6": ("the Koszul–Schouten insertion/Lie expansion", _suite_eq_2_6),
    "eq-7-12": ("the dual flip intertwines the differentials", _suite_eq_7_12),
    "eq-7-13": ("the flip carries the lifted anchor to the tangent anchor",
                _suite_eq_7_13),
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name, model=None, seed=None, trials=None) -> dict:
    """Run one named suite and return its structured result."""
    if name.__class__ is not str or name not in SUITES:
        raise UnknownName(f"no suite named {name!r}; choose from "
                          f"{', '.join(SUITE_NAMES)}")
    model = builtin_model() if model is None else _check_model(model, "run_suite")
    seed = model.suite.get("seed", DEFAULT_SEED) if seed is None else seed
    if seed.__class__ is not int:
        raise ValidationError(f"seed must be an int, got {seed!r}")
    trials = model.suite.get("trials", DEFAULT_TRIALS) if trials is None else trials
    coeff_degree = model.suite.get("max_degree", 2)
    # checked before any draw: a draw of a negative degree never returns
    for setting, value, minimum in (("trials", trials, 1), ("max_degree", coeff_degree, 0)):
        if value.__class__ is not int or value < minimum:
            raise ValidationError(f"{setting} must be an int of at least {minimum}, "
                                  f"got {value!r}")
    title, runner = SUITES[name]
    run = _Run(name, title, model, seed, trials, coeff_degree)
    runner(run)
    return run.result()


def run_all(model=None, seed=None, trials=None) -> list:
    """Run every suite, in registry order."""
    model = builtin_model() if model is None else _check_model(model, "run_all")
    return [run_suite(name, model, seed, trials) for name in SUITE_NAMES]
