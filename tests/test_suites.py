"""The identity suites: registry shape, determinism, vacuous-model behavior,
the failure path — a broken convention must surface as a witness that
replays to the same nonzero values through a single ``eval`` command — and
the enumerator that draws the arguments of declared items.
"""

import itertools
import json
import random

import pytest

from algebroids import suites
from algebroids import tensor as tensor_conventions
from algebroids.algebroid import canonical_algebroid, dual_chart
from algebroids.cli import main as cli_main
from algebroids.errors import NotInvertible, UnknownName, ValidationError
from algebroids.fixtures import canonical_line, canonical_space, so3
from algebroids.lifts import classical_complete_lift, classical_vertical_lift
from algebroids.model import Model, builtin_model, load_model, loads_model
from algebroids.ring import MAX_EXPONENT, Chart
from algebroids.suites import (
    SUITE_NAMES, SUITES, _basis_table, _canonical_transport, _complete_lift_T,
    _contract, _direct_complete, _direct_vertical, _dual_owner,
    _extended_bracket, _fn_bracket, _G_map, _H_map, _J_map, _lambda_p,
    _lie_derivative, _linear_poisson, _remap, _schouten, _sign, _tangent_lift,
    _tangent_poisson, _vertical_lift_V, run_all, run_suite)
from algebroids.tensor import GradedTensor, Kind, random_coefficient, random_tensor

EXPECTED_NAMES = tuple(f"theorem-{n}" for n in range(1, 25)) + (
    "eq-1-12", "eq-2-6", "eq-7-12", "eq-7-13")


def test_registry_names_and_order():
    assert SUITE_NAMES == EXPECTED_NAMES
    assert all(SUITES[name][0] for name in SUITE_NAMES)  # every suite titled


def test_unknown_suite():
    with pytest.raises(UnknownName):
        run_suite("theorem-99")


@pytest.mark.parametrize("suite, trials", [
    ({"max_degree": -1}, None), ({"max_degree": "2"}, None), ({"max_degree": True}, None),
    ({}, 0), ({}, "3"), ({}, 2.5),
    ({"seed": 1.5}, None), ({"seed": [1]}, None), ({"seed": True}, None), ({"seed": "0"}, None),
    ({"max_degree": MAX_EXPONENT + 1}, None)])
def test_suite_settings_fail_closed_before_any_draw(suite, trials):
    # a library-built model is not checked by the document parser; a draw
    # of a negative coefficient degree would never return, and one past
    # MAX_EXPONENT could not be read back by its witness replay
    model = Model(algebroids={"so3": so3()}, suite=suite)
    with pytest.raises(ValidationError):
        run_suite("theorem-1", model, trials=trials)
    if "seed" in suite:  # the same seed passed as the argument
        with pytest.raises(ValidationError):
            run_suite("theorem-1", Model(algebroids={"so3": so3()}), seed=suite["seed"])


def test_result_shape_and_determinism():
    first = run_suite("theorem-11", trials=5)
    again = run_suite("theorem-11", trials=5)
    assert first == again
    assert first["suite"] == "theorem-11"
    assert first["status"] == "pass"
    assert first["seed"] == 0 and first["trials"] == 5
    for item in first["items"]:
        assert item["status"] == "pass"
        assert item["checked"] >= 5
        assert "witness" not in item
    # a different seed still passes but draws different instances
    assert run_suite("theorem-11", seed=3, trials=5)["status"] == "pass"


def test_contraction_order_is_recorded():
    result = run_suite("theorem-2", trials=2)
    assert any("first-factor-innermost" in note for note in result["notes"])


def test_rank_zero_bases_are_skipped_with_a_note():
    for name in ("theorem-10", "eq-7-13"):
        result = run_suite(name, trials=2)
        assert result["status"] == "pass"
        assert any("so3" in note for note in result["notes"])


def test_suites_tolerate_sparse_models():
    # a model with no Poisson structures and no canonical algebroids
    model = Model(charts={"point": Chart(())}, algebroids={"so3": so3()},
                  suite={"seed": 0, "trials": 3})
    for name in ("theorem-5", "theorem-6", "theorem-19", "theorem-24"):
        result = run_suite(name, model)
        assert result["status"] == "pass"


def test_run_all_passes():
    results = run_all(trials=3)
    assert [r["suite"] for r in results] == list(EXPECTED_NAMES)
    assert all(r["status"] == "pass" for r in results)


def test_run_all_builds_the_builtin_model_once(monkeypatch):
    built = []

    def counted():
        built.append(builtin_model())
        return built[-1]
    monkeypatch.setattr(suites, "builtin_model", counted)
    assert len(run_all(trials=1)) == len(EXPECTED_NAMES)
    assert len(built) == 1


def test_broken_convention_yields_replayable_witness(tmp_path, capsys):
    """Flip the contraction order: the extended-bracket suite must fail, and
    its witness must replay to the same nonzero values via ``eval``."""
    assert tensor_conventions.CONTRACTION_ORDER == "first-factor-innermost"
    tensor_conventions.CONTRACTION_ORDER = "last-factor-innermost"
    try:
        result = run_suite("theorem-6", trials=8)
    finally:
        tensor_conventions.CONTRACTION_ORDER = "first-factor-innermost"

    assert result["status"] == "fail"
    failing = [i for i in result["items"] if i["status"] == "fail"]
    assert failing, result
    witness = failing[0]["witness"]
    assert witness["identity"]
    assert witness["point"], "a nonzero residual must evaluate somewhere"
    assert any(v != "0" for v in witness["residual_at_point"].values())
    assert "eval" in witness["replay"]
    _assert_replays(witness, tmp_path, capsys)


def _assert_replays(witness, tmp_path, capsys):
    """The witness model is a loadable document containing the residual, and
    the ``eval`` command of its replay line reproduces the recorded values."""
    text = json.dumps(witness["model"])
    assert "residual" in loads_model(text).tensors
    path = tmp_path / "witness.json"
    path.write_text(text)
    command = witness["replay"].split("then: ")[1].split()
    assert command[:2] == ["algebroids", "eval"]
    code = cli_main([str(path) if arg == "witness.json" else arg
                     for arg in command[1:]])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    values = report["items"][0]["result"]["values"]
    assert values == witness["residual_at_point"]
    assert report["items"][0]["result"]["nonzero"] is True


def test_trials_spread_over_fixtures_meets_the_floor():
    # every identity item must check at least the requested trial count
    result = run_suite("theorem-12", trials=13)
    for item in result["items"]:
        assert item["checked"] >= 13


def test_model_suite_block_supplies_defaults():
    model = builtin_model()
    model.suite = {"seed": 9, "trials": 4}
    result = run_suite("theorem-3", model)
    assert result["seed"] == 9 and result["trials"] == 4


def test_witness_names_the_nonzero_component(monkeypatch):
    """theorem-8 function-lifts checks (V(f) - pullback, T(f) - velocity
    derivative); a T that is really V breaks the second component only."""
    monkeypatch.setattr(suites, "_complete_lift_T", suites._vertical_lift_V)
    result = run_suite("theorem-8", trials=4)
    item = next(i for i in result["items"] if i["id"] == "function-lifts")
    assert item["status"] == "fail"
    assert item["witness"]["component"] == 2


def test_a_degree_argument_stays_out_of_the_witness(tmp_path, capsys):
    """theorem-2 ``operator-identity`` declares its degrees ``a`` and ``b``
    as arguments, ints that the witness model leaves out.  Under the flipped
    contraction order it fails on so3 at its 63rd instance, with the
    witness the hand-written stream gave: x, y, the basis form mu and the
    residual, replaying through ``eval``."""
    tensor_conventions.CONTRACTION_ORDER = "last-factor-innermost"
    try:
        result = run_suite("theorem-2", trials=20)
    finally:
        tensor_conventions.CONTRACTION_ORDER = "first-factor-innermost"
    item = next(i for i in result["items"] if i["id"] == "operator-identity")
    assert (item["status"], item["checked"]) == ("fail", 63)
    witness = item["witness"]
    assert witness["fixture"] == "so3" and witness["component"] == 1
    assert set(witness["model"]["tensors"]) == {"mu", "residual", "x", "y"}
    _assert_replays(witness, tmp_path, capsys)


def test_an_item_without_arguments_witnesses_the_residual_alone(
        monkeypatch, tmp_path, capsys):
    """theorem-20 ``poisson-routes`` declares no arguments: one instance per
    fixture, and a failing witness holds the residual only (the two routes'
    bivectors are derived from the fixture).  With the remap doubled it
    fails on the first fixture, canonical-line."""
    def doubled(*args, **kwargs):
        return tensor_conventions._remap(*args, **kwargs) * 2

    monkeypatch.setattr(suites, "_remap", doubled)
    result = run_suite("theorem-20", trials=4)
    item = next(i for i in result["items"] if i["id"] == "poisson-routes")
    assert (item["status"], item["checked"]) == ("fail", 1)
    witness = item["witness"]
    assert witness["fixture"] == "canonical-line" and witness["component"] == 1
    assert set(witness["model"]["tensors"]) == {"residual"}
    _assert_replays(witness, tmp_path, capsys)


def test_single_residual_witness_is_component_one():
    tensor_conventions.CONTRACTION_ORDER = "last-factor-innermost"
    try:
        result = run_suite("theorem-6", trials=8)
    finally:
        tensor_conventions.CONTRACTION_ORDER = "first-factor-innermost"
    failing = [i for i in result["items"] if i["status"] == "fail"]
    assert failing and all(i["witness"]["component"] == 1 for i in failing)


def _first_nonzero_injectivity_draw(seed):
    """The 1-based position of the first nonzero K among the draws of
    theorem-24's injectivity item on canonical-plane, the built-in model's
    one canonical algebroid of rank 2: each K has 2 x 2 coefficients, one
    per (form key, fiber) slot, drawn from [-2, 2]."""
    rng = random.Random(f"{seed}:theorem-24:injectivity")
    for position in itertools.count(1):
        if any([rng.randint(-2, 2) for _ in range(4)]):
            return position


def test_a_failing_predicate_stops_at_its_first_witness(monkeypatch):
    """With H sending every K to zero, theorem-24 injectivity fails on the
    first nonzero K.  Seed 787 draws K = 0 first, which passes, so the item
    checks two instances."""
    def zero_h(k):
        owner = canonical_algebroid(dual_chart(k.owner))
        return GradedTensor.zero(owner, k.kind, k.degree)

    monkeypatch.setattr(suites, "_H_map", zero_h)
    result = run_suite("theorem-24", seed=787, trials=5)
    item = next(i for i in result["items"] if i["id"] == "injectivity")
    assert item["status"] == "fail"
    assert _first_nonzero_injectivity_draw(787) == 2
    assert item["checked"] == 2
    witness = item["witness"]
    assert set(witness) == {"fixture", "identity", "model"}
    assert witness["fixture"] == "canonical-plane"
    replay = loads_model(json.dumps(witness["model"]))
    assert not replay.tensors["K"].is_zero()


def _declarations(suite):
    """{item id: (owner map, arguments)} of the declared items of a suite,
    read by running it with a runner that records each declaration."""
    found = {}

    class Recording(suites._Run):
        def declare(self, item_id, label, fixtures, owner=None, **args):
            found[item_id] = (owner, args)
            return lambda residual: residual

    SUITES[suite][1](Recording(suite, "", builtin_model(), 0, 1, 2))
    return found


# Verbatim copies of the hand-written draws that declarations replaced, each
# a function of (run, owner, rng) returning {name: tensor}.  Where the old
# draw named a Poisson structure's chart, ``ps.chart``, the copy names the
# same chart as ``O.base``.

def _arguments(run, rng, owner, args):
    """``run``'s draw of the declared arguments ``args`` on ``owner``, their
    specs read and bound as ``declare`` does."""
    return run.arguments(rng, owner, suites._bound_specs(suites._read_specs(args), owner))


def _lie_insertion_draws(run, A, rng):
    mu = run.draw(rng, A, Kind.FORM, rng.choice([1, min(2, A.rank)]))
    x = run.draw(rng, A, Kind.MV, 1)
    y = run.draw(rng, A, Kind.MV, 1)
    return {"x": x, "y": y, "mu": mu}


def _adjoint_derivation_draws(run, A, rng):
    a = rng.choice([1, 2])
    x = run.draw(rng, A, Kind.MV, a)
    y = run.draw(rng, A, Kind.MV, rng.choice([1, min(2, A.rank)]))
    z = run.draw(rng, A, Kind.MV, 1)
    return {"x": x, "y": y, "z": z}


def _insertion_identity_draws(run, A, rng):
    k = run.draw(rng, A, Kind.MIXED, rng.choice([0, 1, min(2, A.rank)]))
    l = run.draw(rng, A, Kind.MIXED, rng.choice([0, 1, min(2, A.rank)]))
    omega = run.draw(rng, A, Kind.FORM,
                     rng.choice([1, min(2, A.rank), A.rank]))
    return {"K": k, "L": l, "omega": omega}


def _extended_antisymmetry_draws(run, O, rng):
    ka, kb = rng.choice([0, 1, 2]), rng.choice([0, 1])
    mu = run.draw(rng, O, Kind.FORM, ka)
    nu = run.draw(rng, O, Kind.FORM, kb)
    return {"ka": ka, "kb": kb, "mu": mu, "nu": nu}


def _extended_jacobi_draws(run, O, rng):
    ms = [run.draw(rng, O, Kind.FORM, rng.choice([0, 1, 2]), keys=1)
          for _ in range(3)]
    return {"mu": ms[0], "nu": ms[1], "rho": ms[2]}


def _bracket_on_functions_draws(run, A, rng):
    x = run.draw(rng, A, Kind.MV, 1)
    f = random_coefficient(rng, A.base, run.coeff_degree)
    fx = GradedTensor(A, Kind.MV, 0, {(): f})
    return {"x": x, "f": fx}


def _term_expansion_11_draws(run, O, rng):
    g0, g1, f0, f1 = (random_coefficient(rng, O.base, run.coeff_degree)
                      for _ in range(4))
    return {"g0": O.fn(g0), "g1": O.fn(g1),
            "f0": O.fn(f0), "f1": O.fn(f1)}


def _module_laws_draws(run, A, rng):
    f = random_coefficient(rng, A.base, run.coeff_degree)
    x = run.draw(rng, A, Kind.MV, 1)
    return {"f": A.fn(f), "x": x}


def _theorem_15_draws(run, A, rng):
    # the shared instance, its (x, y, mu, nu) spec spelled out as draws
    x = run.draw(rng, A, Kind.MV, 1)
    y = run.draw(rng, A, Kind.MV, 1)
    mu = run.draw(rng, A, Kind.FORM, rng.choice([1, min(2, A.rank)]))
    nu = run.draw(rng, A, Kind.FORM, 1)
    return {"x": x, "y": y, "mu": mu, "nu": nu}


@pytest.mark.parametrize("suite, item, fixtures, verbatim", [
    # an owner-dependent list, then two fixed degrees
    ("theorem-1", "lie-insertion", ("canonical-line", "so3"),
     _lie_insertion_draws),
    # [1, 2] keeps both entries on rank 1
    ("theorem-2", "adjoint-derivation", ("canonical-line", "canonical-space"),
     _adjoint_derivation_draws),
    # the entry ``rank``, and a list whose entries repeat on rank 1
    ("eq-1-12", "insertion-identity", ("canonical-line", "so3"),
     _insertion_identity_draws),
    # two degree arguments, each named by the tensor drawn after both
    ("theorem-6", "antisymmetry", ("poisson-plane", "poisson-so3"),
     _extended_antisymmetry_draws),
    # keys=1, on the cotangent algebroid of a Poisson structure
    ("theorem-6", "graded-jacobi", ("poisson-plane", "poisson-so3"),
     _extended_jacobi_draws),
    # a tensor, then a function
    ("theorem-2", "bracket-on-functions", ("canonical-line", "so3"),
     _bracket_on_functions_draws),
    # four functions on the owner of a Poisson structure
    ("theorem-6", "term-expansion-1-1", ("poisson-plane", "poisson-nonconstant"),
     _term_expansion_11_draws),
    # a function before a tensor
    ("theorem-8", "module-laws", ("nonconstant-rank2", "so3"),
     _module_laws_draws),
    # the first and the last of the seven items sharing one instance
    ("theorem-15", "a-multiplicative", ("canonical-line", "so3"),
     _theorem_15_draws),
    ("theorem-15", "g-iota", ("canonical-space", "nonconstant-rank2"),
     _theorem_15_draws),
])
def test_declared_arguments_draw_as_the_hand_written_instances(
        suite, item, fixtures, verbatim):
    owner_map, args = _declarations(suite)[item]
    model = builtin_model()
    run = suites._Run(suite, "", model, 0, 1, model.suite.get("max_degree", 2))
    for name in fixtures:
        fixture = model.algebroids.get(name) or model.poisson[name]
        owner = fixture if owner_map is None else owner_map(fixture)
        for seed in range(40):
            declared, by_hand = random.Random(seed), random.Random(seed)
            drawn = _arguments(run, declared, owner, args)
            expected = verbatim(run, owner, by_hand)
            assert declared.getstate() == by_hand.getstate(), (name, seed)
            assert set(drawn) == set(expected)
            for arg, tensor in drawn.items():
                if isinstance(tensor, int):  # a degree argument
                    assert tensor == expected[arg], (name, seed, arg)
                    continue
                assert tensor.owner is expected[arg].owner
                assert tensor.degree == expected[arg].degree, (name, seed, arg)
                assert list(tensor.terms.items()) == \
                    list(expected[arg].terms.items()), (name, seed, arg)


# Verbatim copies of the eight streams that each wrote its own instances
# before every item named its fixtures: four residual items, then the four
# predicates.  Each factory sets up what the stream closed over and returns
# the stream, a function of ``rng`` yielding (fixture, inputs, outcome).

def _operator_identity_stream(run):
    fixtures = run.algebroids()
    draws = run.share(len(fixtures))

    def operator(rng):
        for name, A in fixtures:
            degrees = range(1, min(3, A.rank) + 1)
            for _ in range(draws):
                a = rng.choice(list(degrees))
                b = rng.choice(list(degrees))
                x = run.draw(rng, A, Kind.MV, a)
                y = run.draw(rng, A, Kind.MV, b)
                sign = _sign(a * (b - 1))
                for degree in range(1, min(3, A.rank) + 1):
                    for key in _basis_table(A.rank, Kind.FORM, degree):
                        mu = GradedTensor.basis(A, Kind.FORM, key)
                        residual = (_lie_derivative(A, y, _contract(x, mu))
                                    - _contract(x, _lie_derivative(A, y, mu)) * sign
                                    + _contract(_schouten(A, x, y), mu))
                        yield name, {"x": x, "y": y, "mu": mu}, residual
    return operator


def _antisymmetry_stream(run):
    fixtures = run.poisson()
    per = run.share(len(fixtures))

    def antisymmetry(rng):
        for name, ps in fixtures:
            O = ps.owner
            for _ in range(per):
                ka, kb = rng.choice([0, 1, 2]), rng.choice([0, 1])
                mu = run.draw(rng, O, Kind.FORM, ka)
                nu = run.draw(rng, O, Kind.FORM, kb)
                yield name, {"mu": mu, "nu": nu}, (
                    _extended_bracket(ps, mu, nu)
                    + _extended_bracket(ps, nu, mu) * _sign(ka * kb))
    return antisymmetry


def _bivectors_stream(run):
    fixtures = run.canonical()
    per = run.share(len(fixtures))

    def lifted(A, t):
        """The transported V and T of ``t`` against the written-out lifts."""
        return (_canonical_transport(_vertical_lift_V(A, t)) - _direct_vertical(A.base, t),
                _canonical_transport(_complete_lift_T(A, t)) - _direct_complete(A.base, t))

    def bivectors(rng):
        for name, A in fixtures:
            if A.rank < 2:
                continue
            for _ in range(per):
                p = run.draw(rng, A, Kind.MV, 2)
                yield name, {"p": p}, lifted(A, p)
    return bivectors


def _poisson_routes_stream(run):
    def poisson_routes(_rng):
        for name, A in run.algebroids():
            lifted = _tangent_poisson(_linear_poisson(A))
            relinearized = _linear_poisson(_tangent_lift(A))
            position = {c: i for i, c in enumerate(relinearized.chart.coords)}
            fiber_map = {i: position[c]
                         for i, c in enumerate(lifted.chart.coords)}
            residual = (_remap(lifted.bivector, relinearized.owner, fiber_map)
                        - relinearized.bivector)
            yield name, {"lifted": lifted.bivector,
                         "relinearized": relinearized.bivector}, residual
    return poisson_routes


def _lambda_inverse_stream(run):
    fixtures = run.poisson()
    per = run.share(len(fixtures))

    def inverse(rng):
        for name, ps in fixtures:
            O = ps.owner
            try:
                _lambda_p(ps, O.e(0), "inverse")
            except NotInvertible:
                yield name, {}, True
                continue
            for _ in range(per):
                mu = run.draw(rng, O, Kind.FORM, rng.choice([1, 2]))
                back = _lambda_p(ps, _lambda_p(ps, mu), "inverse")
                yield name, {"mu": mu}, back == mu
    return inverse


def _j_injectivity_stream(run):
    fixtures = run.algebroids()

    def injectivity(rng):
        plane = next(((name, A) for name, A in fixtures
                      if A.is_canonical and A.rank == 2), None)
        if plane is None:
            return
        name, A = plane
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
            yield name, {"K": k}, _J_map(A, k).is_zero() == k.is_zero()
    return injectivity


def _h_injectivity_stream(run):
    fixtures = run.canonical()

    def injectivity(rng):
        for name, A in fixtures:
            if A.rank != 2:
                continue
            slots = [(key, j) for key in _basis_table(A.rank, Kind.FORM, 1)
                     for j in range(A.rank)]
            for _ in range(run.trials):
                terms = {}
                for key, j in slots:
                    c = rng.randint(-2, 2)
                    if c:
                        terms[(key, j)] = c
                k = GradedTensor(A, Kind.MIXED, 1, terms)
                yield name, {"K": k}, _H_map(k).is_zero() == k.is_zero()
    return injectivity


def _nijenhuis_stream(run):
    fixtures = run.canonical()

    def nijenhuis(_rng):
        for name, A in fixtures:
            if A.rank != 1:
                continue
            N = GradedTensor(A, Kind.MIXED, 1, {((0,), 0): 1})
            D = _dual_owner(A)
            fn_zero = _fn_bracket(A, N, N).is_zero()
            g_zero = _schouten(D, _G_map(A, N), _G_map(A, N)).is_zero()
            yield name, {"N": N}, fn_zero and g_zero
    return nijenhuis


def _view(value):
    """A comparable view of an outcome, a tensor or a tuple of them."""
    if isinstance(value, tuple):
        return tuple(map(_view, value))
    if isinstance(value, GradedTensor):
        return (value.owner, value.kind, value.degree, list(value.terms.items()))
    return value


def _tensor_inputs(inputs, narrowed=()):
    """The inputs a witness model holds: the tensors, by name, in order."""
    return [(name, _view(t)) for name, t in inputs.items()
            if isinstance(t, GradedTensor) and name not in narrowed]


class _Capturing(suites._Run):
    """A runner that keeps each item's fixtures and check instead of
    recording the item."""

    def __init__(self, *args):
        super().__init__(*args)
        self.captured = {}

    def _record(self, item_id, label, fixtures, check, witness):
        self.captured[item_id] = (fixtures, check)


#: (suite, item, the verbatim stream, the inputs its witness no longer holds)
_STREAMS = [
    ("theorem-2", "operator-identity", _operator_identity_stream, ()),
    ("theorem-6", "antisymmetry", _antisymmetry_stream, ()),
    ("theorem-19", "bivectors", _bivectors_stream, ()),
    # the witness holds the residual alone: both bivectors are derived from
    # the fixture
    ("theorem-20", "poisson-routes", _poisson_routes_stream,
     ("lifted", "relinearized")),
    ("theorem-5", "lambda-inverse", _lambda_inverse_stream, ()),
    ("theorem-17", "injectivity", _j_injectivity_stream, ()),
    ("theorem-24", "injectivity", _h_injectivity_stream, ()),
    ("theorem-24", "nijenhuis-instance", _nijenhuis_stream, ()),
]


@pytest.mark.parametrize("model_path", [None, "fixtures/so3.json"],
                         ids=["builtin", "so3"])
@pytest.mark.parametrize("suite, item, stream, narrowed", _STREAMS,
                         ids=[f"{suite}-{item}" for suite, item, *_ in _STREAMS])
def test_declared_fixtures_yield_the_hand_written_streams(
        model_path, suite, item, stream, narrowed):
    """Each item that once wrote its own stream checks the same fixtures,
    inputs and outcomes in the same order, and leaves its generator in the
    same state, for seeds 0-9 at 1, 7 and 50 trials."""
    model = builtin_model() if model_path is None else load_model(model_path)
    coeff_degree = model.suite.get("max_degree", 2)
    for trials in (1, 7, 50):
        for seed in range(10):
            run = _Capturing(suite, "", model, seed, trials, coeff_degree)
            SUITES[suite][1](run)
            fixtures, check = run.captured[item]
            declared, by_hand = run.rng(item), run.rng(item)
            got = [(name, _tensor_inputs(inputs), _view(outcome))
                   for name, fixture in fixtures
                   for inputs, outcome in check(declared, fixture)]
            expected = [(name, _tensor_inputs(inputs, narrowed), _view(outcome))
                        for name, inputs, outcome in stream(run)(by_hand)]
            assert got == expected, (trials, seed)
            assert declared.getstate() == by_hand.getstate(), (trials, seed)


def test_a_fixed_degree_draws_without_a_choice():
    """With the tensor draws stubbed out, an int degree leaves the generator
    untouched; a one-entry list is still a ``rng.choice`` and moves it."""
    model = builtin_model()
    run = suites._Run("t", "", model, 0, 1, 2)
    run.draw = lambda rng, owner, kind, degree, keys=2: degree
    A = model.algebroids["so3"]
    rng = random.Random(0)
    before = rng.getstate()
    assert _arguments(run, rng, A, {"x": (Kind.MV, 1),
                                    "mu": (Kind.FORM, 2, 1)}) == {"x": 1, "mu": 2}
    assert rng.getstate() == before
    assert _arguments(run, rng, A, {"x": (Kind.MV, (1,))}) == {"x": 1}
    assert rng.getstate() != before


def test_a_function_argument_draws_one_coefficient():
    """``FUNCTION`` moves the generator exactly as one ``random_coefficient``
    on the owner's base does, and hands over that coefficient as a
    function on the owner."""
    model = builtin_model()
    run = suites._Run("t", "", model, 0, 1, 2)
    owners = [A for _, A in sorted(model.algebroids.items())]
    owners += [ps.owner for _, ps in sorted(model.poisson.items())]
    for A in owners:
        for seed in range(20):
            declared, by_hand = random.Random(seed), random.Random(seed)
            drawn = _arguments(run, declared, A, {"f": suites.FUNCTION})
            value = random_coefficient(by_hand, A.base, 2)
            assert declared.getstate() == by_hand.getstate(), (A, seed)
            assert list(drawn) == ["f"]
            assert drawn["f"].owner is A
            assert (drawn["f"].kind, drawn["f"].degree) == (Kind.MV, 0)
            assert drawn["f"].as_function() == value


@pytest.mark.parametrize("fixture", [canonical_line, canonical_space],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("kind", [Kind.MV, Kind.SYM, Kind.FORM, Kind.MIXED],
                         ids=lambda k: k.value)
def test_the_written_out_classical_lifts_match_the_library(fixture, kind):
    """theorem-19's two references, one per lift for every kind, agree with
    the library's classical lifts at every degree 0–3, past the degrees the
    suites draw."""
    A = fixture()
    rng = random.Random(19)
    for degree in range(4):
        for _ in range(4):
            t = random_tensor(rng, A, kind, degree, max_keys=20)
            assert suites._direct_vertical(A.base, t) == classical_vertical_lift(t)
            assert suites._direct_complete(A.base, t) == classical_complete_lift(t)
