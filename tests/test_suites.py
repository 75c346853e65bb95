"""The identity suites: registry shape, determinism, vacuous-model behavior,
the failure path — a broken convention must surface as a witness that
replays to the same nonzero values through a single ``eval`` command — the
enumerator that draws the arguments of declared items, and recorded digests
of the draws, one per (model, suite) over every item and one per item whose
draws were once written by hand, so a report or a witness replays only while
they stay fixed.
"""

import hashlib
import itertools
import json
import random

import pytest

from algebroids import suites
from algebroids import tensor as tensor_conventions
from algebroids.algebroid import canonical_algebroid, dual_chart
from algebroids.cli import main as cli_main
from algebroids.errors import UnknownName, ValidationError
from algebroids.fixtures import canonical_line, canonical_space, so3
from algebroids.lifts import classical_complete_lift, classical_vertical_lift
from algebroids.model import Model, builtin_model, load_model, loads_model
from algebroids.ring import MAX_EXPONENT, Chart
from algebroids.suites import SUITE_NAMES, SUITES, run_all, run_suite
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
    contraction order it fails on so3 at its 63rd instance, with a witness
    of x, y, the basis form mu and the residual, replaying through
    ``eval``."""
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


def _arguments(run, rng, owner, args):
    """``run``'s draw of the declared arguments ``args`` on ``owner``, their
    specs read and bound as ``declare`` does."""
    return run.arguments(rng, owner, suites._bound_specs(suites._read_specs(args), owner))


#: The first 16 hex digits of each suite's draw digest on the built-in model
#: and on ``fixtures/so3.json``, as :class:`_Hashing` computes it.
STREAM_DIGESTS = {
    "theorem-1": ("3c0790257a3ce0aa", "e79b7a8fa0de105d"),
    "theorem-2": ("4b9dff1b33f459a4", "c2f952ddc19d6985"),
    "theorem-3": ("b44f6b18d14b397b", "5b2dbfdedf39da50"),
    "theorem-4": ("0c80b342bc8f3ee1", "940c5a8e06388bf4"),
    "theorem-5": ("93b8e9ce269ffd2d", "972aa2578c2b7de8"),
    "theorem-6": ("ecf6c16f1620b41f", "30b1f5d7e81a646e"),
    "theorem-7": ("50fdcf4f3592d43c", "1ec12fc67fd6389b"),
    "theorem-8": ("1269c81e1cf46f00", "c9ad447601170790"),
    "theorem-9": ("000adc794aaa549f", "895afedb3d8aa612"),
    "theorem-10": ("0e860e5ac5f2410f", "1e933c20830a6e6b"),
    "theorem-11": ("58deff5a4f90923c", "6be5270d67c5d638"),
    "theorem-12": ("f24a76bad60cac02", "df1e134ca68d91c8"),
    "theorem-13": ("be5246cdd73e2173", "b313044d2192d9c9"),
    "theorem-14": ("e9d3b896bac4d221", "302eef4a6516c76d"),
    "theorem-15": ("034dffbc577f1135", "6a2ffb3906155d1b"),
    "theorem-16": ("1b4af47a1cbe036b", "6f0cde8ff13f6122"),
    "theorem-17": ("f9532c67fe723d39", "2ab03f9e94099838"),
    "theorem-18": ("b793d87c67517d40", "1b97296864904cc7"),
    "theorem-19": ("5dedb0fadd0b30c5", "62a23440ff3395e3"),
    "theorem-20": ("79aabaad7dd5b201", "c0935cbd8a948339"),
    "theorem-21": ("b55930225a97009d", "258cfcaf5ea1d761"),
    "theorem-22": ("a680160dc7081d77", "07020de5cb845e0d"),
    "theorem-23": ("67a34bc8f68ff8ca", "9d46f2f83bce36d4"),
    "theorem-24": ("2caa06393ec28900", "fb38bf8934c8f100"),
    "eq-1-12": ("bc156f7f320262a7", "0e93c13f60b5aa8e"),
    "eq-2-6": ("4f4987decb2c947e", "3e25f1a84924519d"),
    "eq-7-12": ("fe7ec2883326bbc1", "c62b41293dbfa1f5"),
    "eq-7-13": ("96826c96585c5491", "2fa44a1d34e75192"),
}


def _input(value):
    """A drawn input as the digest reads it: a degree argument as its int, a
    tensor as its owner, kind, degree and terms in stored order."""
    if isinstance(value, int):
        return value
    return (repr(value.owner), value.kind.value, value.degree,
            [(key, list(c.terms.items())) for key, c in value.terms.items()])


#: Each declared residual under :class:`_Hashing`: a zero, so no witness.
_ZERO = GradedTensor.zero(so3(), Kind.MV, 0)


class _Hashing(suites._Run):
    """A runner that draws every item as ``run_suite`` does but decides no
    identity: each declared residual is the zero and predicates run as they
    are.  ``digest``, and ``by_item[item_id]`` for the item alone, take each
    instance's fixture name and named inputs in draw order, then the item
    generator's end state."""

    def __init__(self, digest, by_item, *args):
        super().__init__(*args)
        self.digest, self.by_item = digest, by_item

    def rng(self, item_id):
        self.generator = super().rng(item_id)
        return self.generator

    def declare(self, *args, **kwargs):
        declared = super().declare(*args, **kwargs)

        def zeroed(residual):
            declared(lambda *_, **__: _ZERO)
            return residual
        return zeroed

    def _record(self, item_id, label, fixtures, check, witness):
        item = self.by_item.setdefault(item_id, hashlib.sha256())

        def add(data):
            self.digest.update(data)
            item.update(data)

        def teed(rng, named):
            for inputs, outcome in check(rng, named[1]):
                add(repr((named[0], [
                    (arg, _input(value)) for arg, value in inputs.items()])).encode())
                yield inputs, outcome

        super()._record(item_id, label, [(name, (name, f)) for name, f in fixtures],
                        teed, witness)
        add(repr(self.generator.getstate()).encode())


_MODELS = {"builtin": builtin_model, "so3": lambda: load_model("fixtures/so3.json")}


def _hash_suite(suite, model, by_item=None):
    """``suite``'s draw digest on ``model`` for seeds 0-9 at 1, 7 and 50
    trials; ``by_item`` collects each item's own digest over the same grid."""
    digest, by_item = hashlib.sha256(), {} if by_item is None else by_item
    for trials, seed in itertools.product((1, 7, 50), range(10)):
        SUITES[suite][1](_Hashing(digest, by_item, suite, "", model, seed, trials,
                                  model.suite.get("max_degree", 2)))
    return digest.hexdigest()[:16]


def test_every_item_draws_its_pinned_stream():
    """Every item of every suite draws what it drew when
    :data:`STREAM_DIGESTS` was recorded, for seeds 0-9 at 1, 7 and 50 trials
    on both shipped models.  Record new digests only for a deliberate change
    of draws."""
    models = [make() for make in _MODELS.values()]
    moved = [(suite, name, got) for suite, pinned in STREAM_DIGESTS.items()
             for name, model, expected in zip(_MODELS, models, pinned)
             if (got := _hash_suite(suite, model)) != expected]
    assert list(STREAM_DIGESTS) == list(SUITE_NAMES) and not moved, moved


#: (suite, item, the first 16 hex digits of its own draw digest on the
#: built-in model and on ``fixtures/so3.json``), for the items that once
#: wrote their own streams by hand; recorded where those hand-written
#: streams still passed, so each pins the fixtures, inputs and generator
#: state that its copy did.
_ITEM_STREAMS = [
    ("theorem-2", "operator-identity", ("e604e26d4e54c7b7", "17ae3d05c1a56113")),
    ("theorem-6", "antisymmetry", ("7bf4972557f54f1d", "dec450bbbb21da7e")),
    ("theorem-19", "bivectors", ("2d04138e29a79875", "e060c684d42022fb")),
    ("theorem-20", "poisson-routes", ("3c9f457aa770c65f", "adb2274e443934f9")),
    ("theorem-5", "lambda-inverse", ("812188922584be96", "55aadb3e65a192ea")),
    ("theorem-17", "injectivity", ("9bf7985c2dd6a45d", "8581d50953e0de2f")),
    ("theorem-24", "injectivity", ("1a29a4b5b099d70d", "71dd838b683e459a")),
    ("theorem-24", "nijenhuis-instance", ("e3524b308286c7a4", "7c5ee21e77df676f")),
]


@pytest.mark.parametrize("model_name", list(_MODELS))
@pytest.mark.parametrize("suite, item, pinned", _ITEM_STREAMS,
                         ids=[f"{suite}-{item}" for suite, item, _ in _ITEM_STREAMS])
def test_declared_fixtures_yield_the_hand_written_streams(model_name, suite, item, pinned):
    """The item checks the fixtures and draws the inputs, in order, and
    leaves its generator in the state, that its hand-written stream did, for
    seeds 0-9 at 1, 7 and 50 trials.  A failure names the item whose draws
    moved, where :data:`STREAM_DIGESTS` names only its suite."""
    by_item = {}
    _hash_suite(suite, _MODELS[model_name](), by_item)
    got = by_item[item].hexdigest()[:16]
    assert got == pinned[list(_MODELS).index(model_name)], got


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


#: (suite, item, fixtures of the built-in model, the first 16 hex digits of
#: the digest of its declared arguments' draws on them at seeds 0-39), for
#: items whose instances were once drawn by hand; recorded where those
#: hand-written draws still passed, so each pins what its copy drew.
_ARGUMENT_DRAWS = [
    # an owner-dependent list, then two fixed degrees
    ("theorem-1", "lie-insertion", ("canonical-line", "so3"), "50ee8fa21649c2c0"),
    # [1, 2] keeps both entries on rank 1
    ("theorem-2", "adjoint-derivation", ("canonical-line", "canonical-space"),
     "c5b0fcdf33ba4128"),
    # the entry ``rank``, and a list whose entries repeat on rank 1
    ("eq-1-12", "insertion-identity", ("canonical-line", "so3"), "887e2af6cc36dead"),
    # two degree arguments, each named by the tensor drawn after both
    ("theorem-6", "antisymmetry", ("poisson-plane", "poisson-so3"), "4f03dbfec262fd4b"),
    # keys=1, on the cotangent algebroid of a Poisson structure
    ("theorem-6", "graded-jacobi", ("poisson-plane", "poisson-so3"), "4e4fe068f0c14208"),
    # a tensor, then a function
    ("theorem-2", "bracket-on-functions", ("canonical-line", "so3"), "7c2990822227f35c"),
    # four functions on the owner of a Poisson structure
    ("theorem-6", "term-expansion-1-1", ("poisson-plane", "poisson-nonconstant"),
     "03079d13af7cbf5d"),
    # a function before a tensor
    ("theorem-8", "module-laws", ("nonconstant-rank2", "so3"), "9ab610fda1d7e032"),
    # the first and the last of the seven items sharing one instance
    ("theorem-15", "a-multiplicative", ("canonical-line", "so3"), "fb411b8d7e011e7b"),
    ("theorem-15", "g-iota", ("canonical-space", "nonconstant-rank2"), "eb64072cdaf59dab"),
]


# the ids these cases were first collected under, when each compared its
# draws with a hand-written copy named in the last part
@pytest.mark.parametrize("suite, item, fixtures, pinned", _ARGUMENT_DRAWS, ids=[
    f"{suite}-{item}-fixtures{n}-{copy}" for n, ((suite, item, *_), copy) in enumerate(zip(
        _ARGUMENT_DRAWS, ["_lie_insertion_draws", "_adjoint_derivation_draws",
                          "_insertion_identity_draws", "_extended_antisymmetry_draws",
                          "_extended_jacobi_draws", "_bracket_on_functions_draws",
                          "_term_expansion_11_draws", "_module_laws_draws",
                          "_theorem_15_draws", "_theorem_15_draws"]))])
def test_declared_arguments_draw_as_the_hand_written_instances(
        suite, item, fixtures, pinned):
    """The item's declared arguments draw, on each listed fixture at seeds
    0-39, the inputs in order and the generator state that its hand-written
    instance did."""
    owner_map, args = _declarations(suite)[item]
    model = builtin_model()
    run = suites._Run(suite, "", model, 0, 1, model.suite.get("max_degree", 2))
    digest = hashlib.sha256()
    for name in fixtures:
        fixture = model.algebroids.get(name) or model.poisson[name]
        owner = fixture if owner_map is None else owner_map(fixture)
        for seed in range(40):
            rng = random.Random(seed)
            drawn = _arguments(run, rng, owner, args)
            digest.update(repr((name, seed, [(arg, _input(v)) for arg, v in drawn.items()],
                                rng.getstate())).encode())
    assert digest.hexdigest()[:16] == pinned, digest.hexdigest()[:16]


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
