"""The acceptance gate: twelve criteria, one test each, every identity held
to exact symbolic zero.

Fixture set: the fixture registry (so(3) over a point; canonical algebroids
on one-, two- and three-coordinate charts; a rank-2 algebroid over (x) with
non-constant anchor and structure functions) and its Poisson structures (the
canonical ones on (x,p) and (x,y,p_x,p_y), the so(3) fiberwise-linear one,
and a non-constant symplectic one).  Random instances use fixed seeds,
coefficients of total degree ≤ 2, and at least 50 trials per identity.

Each test asserts its wall-clock budget, so a pathological slowdown fails
the gate rather than just dragging it out.
"""

import hashlib
import json
import random
import subprocess
import sys
import time

import pytest

from algebroids.algebroid import (
    cotangent_lift,
    linear_poisson,
    tangent_lift,
    validate,
)
from algebroids.calculus import differential, schouten
from algebroids.errors import (
    AnchorNotMorphism,
    JacobiViolation,
    ValidationError,
)
from algebroids.fixtures import (
    ALGEBROIDS,
    POISSON,
    broken_anchor,
    broken_jacobi,
    poisson_four,
    poisson_so3,
)
from algebroids.model import Model, builtin_model, load_model
from algebroids.poisson import cotangent_algebroid, tangent_poisson
from algebroids.ring import Chart
from algebroids.suites import run_suite
from algebroids.tensor import GradedTensor, Kind, random_tensor, remap

BUDGETS = {}


def _finish(number, label, started, budget):
    elapsed = time.perf_counter() - started
    BUDGETS[number] = elapsed
    print(f"criterion {number:02d} PASS — {label} ({elapsed:.2f}s < {budget}s)")
    assert elapsed < budget, f"criterion {number} blew its {budget}s budget"


def _assert_suite_passes(result):
    assert result["status"] == "pass", json.dumps(result, indent=2)[:4000]
    for item in result["items"]:
        assert item["status"] == "pass", item
    return result


def test_criterion_01_algebroid_axioms():
    started = time.perf_counter()
    for make in ALGEBROIDS.values():
        validate(make())
    for make in POISSON.values():
        assert make().validated
    with pytest.raises(AnchorNotMorphism) as err:
        validate(broken_anchor())
    assert err.value.witness["pair"] == ["e1", "e2"]
    with pytest.raises(JacobiViolation) as err:
        validate(broken_jacobi())
    assert err.value.witness["triple"] == ["1", "2", "3"]
    # the same two, shipped as model files, fail to load with the witness
    for path in ("fixtures/broken_anchor.json", "fixtures/broken_jacobi.json"):
        with pytest.raises(ValidationError) as err:
            load_model(path)
        assert err.value.witness
    _finish(1, "algebroid axioms and designed-invalid witnesses", started, 1)


def test_criterion_02_exterior_calculus():
    started = time.perf_counter()
    result = _assert_suite_passes(run_suite("theorem-1"))
    assert len(result["items"]) == 6
    for item in result["items"]:
        assert item["checked"] >= 50
    _finish(2, "the six exterior-calculus identities", started, 30)


def test_criterion_03_bracket_calibration():
    started = time.perf_counter()
    result = _assert_suite_passes(run_suite("theorem-2"))
    assert any("contraction order" in note for note in result["notes"])
    operator = next(i for i in result["items"] if i["id"] == "operator-identity")
    assert "basis" in operator["label"]
    assert operator["checked"] >= 50
    _finish(3, "operator identity on full form bases; convention recorded",
            started, 30)


def test_criterion_04_graded_lie_laws():
    started = time.perf_counter()
    # generalized Schouten: antisymmetry and Jacobi on degree ≤ 3 multivectors
    for fixture_name, make in ALGEBROIDS.items():
        A = make()
        rng = random.Random(f"criterion-4:{fixture_name}")
        top = min(3, A.rank)
        for _ in range(50):
            a, b, c = (rng.randint(1, top) for _ in range(3))
            x = random_tensor(rng, A, Kind.MV, a, max_keys=2)
            y = random_tensor(rng, A, Kind.MV, b, max_keys=2)
            z = random_tensor(rng, A, Kind.MV, c, max_keys=2)
            sign = -1 if ((a - 1) * (b - 1)) % 2 else 1
            assert (schouten(A, x, y) + schouten(A, y, x) * sign).is_zero()
            k, l, m = a - 1, b - 1, c - 1
            jac = (schouten(A, schouten(A, x, y), z)
                   * (-1 if (k * m) % 2 else 1)
                   + schouten(A, schouten(A, y, z), x)
                   * (-1 if (l * k) % 2 else 1)
                   + schouten(A, schouten(A, z, x), y)
                   * (-1 if (m * l) % 2 else 1))
            assert jac.is_zero(), (fixture_name, a, b, c)
    # N-R and F-N graded laws, and both insertion/Lie operator identities
    _assert_suite_passes(run_suite("theorem-3"))
    _assert_suite_passes(run_suite("theorem-4"))
    _assert_suite_passes(run_suite("eq-1-12"))
    _finish(4, "graded Lie laws for Schouten, N-R and F-N", started, 180)


def test_criterion_05_poisson_calculus():
    started = time.perf_counter()
    named = {"poisson-four": poisson_four(), "poisson-so3": poisson_so3()}
    model = Model(poisson=named, suite={"seed": 0, "trials": 50})
    # the cotangent differential of a multivector is the bracket with P
    for name, ps in named.items():
        O = ps.owner
        ct = cotangent_algebroid(ps)
        rng = random.Random(f"criterion-5:{name}")
        for _ in range(50):
            x = random_tensor(rng, O, Kind.MV, rng.choice([0, 1, 2]),
                              max_keys=2)
            lhs = differential(ct, GradedTensor(ct, Kind.FORM, x.degree,
                                                dict(x.terms)))
            rhs = schouten(O, ps.bivector, x)
            assert lhs == GradedTensor(ct, Kind.FORM, rhs.degree,
                                       dict(rhs.terms)), name
    _assert_suite_passes(run_suite("eq-2-6", model))
    _assert_suite_passes(run_suite("theorem-5", model))
    result = _assert_suite_passes(run_suite("theorem-6", model))
    ids = {item["id"] for item in result["items"]}
    assert {"term-expansion-0-1", "term-expansion-1-1",
            "d-compatibility", "graded-jacobi", "antisymmetry"} <= ids
    _assert_suite_passes(run_suite("theorem-7", model))
    _finish(5, "Poisson-calculus block on the canonical and so(3) structures",
            started, 180)


def test_criterion_06_lift_constructors():
    started = time.perf_counter()
    for make in ALGEBROIDS.values():
        A = make()
        validate(tangent_lift(A))
        validate(cotangent_lift(A))
        assert cotangent_lift(A) == cotangent_algebroid(linear_poisson(A))
    _finish(6, "tangent/cotangent lifts validate; the two cotangent routes "
               "coincide symbol-for-symbol", started, 30)


def test_criterion_07_lift_tables():
    started = time.perf_counter()
    for name in ("theorem-10", "theorem-11", "theorem-12", "theorem-13",
                 "theorem-14"):
        _assert_suite_passes(run_suite(name))
    _finish(7, "the V/T tables: anchor, Schouten, i/d/L, N-R, F-N",
            started, 300)


def test_criterion_08_dual_chart_identities():
    started = time.perf_counter()
    result = _assert_suite_passes(run_suite("theorem-15"))
    assert len(result["items"]) == 7  # (a) through (g)
    _assert_suite_passes(run_suite("theorem-17"))
    injectivity = next(i for i in run_suite("theorem-17")["items"]
                       if i["id"] == "injectivity")
    assert injectivity["status"] == "pass" and injectivity["checked"] >= 50
    _assert_suite_passes(run_suite("theorem-18"))
    _finish(8, "dual-chart identities; J and G homomorphisms; J injectivity",
            started, 180)


def test_criterion_09_tangent_poisson():
    """The velocity lift of a bivector: every lifted structure closes
    ([lift, lift] = 0), and for fiberwise-linear structures the lift agrees
    with linearizing the tangent-lift algebroid — the velocity-block
    structure functions follow the complete-lift computation, verified here
    against that independent route."""
    started = time.perf_counter()
    for make in POISSON.values():
        lifted = tangent_poisson(make())
        assert lifted.validated
        residual = schouten(lifted.owner, lifted.bivector, lifted.bivector)
        assert residual.is_zero()
    for make in ALGEBROIDS.values():
        A = make()
        lifted = tangent_poisson(linear_poisson(A))
        relinearized = linear_poisson(tangent_lift(A))
        position = {c: i for i, c in enumerate(relinearized.chart.coords)}
        fiber_map = {i: position[c]
                     for i, c in enumerate(lifted.chart.coords)}
        assert remap(lifted.bivector, relinearized.owner, fiber_map) == \
            relinearized.bivector
    print("note: velocity-block coefficients of a lifted linear structure "
          "are the velocity derivatives of the base coefficients "
          "(complete-lift rule), cross-checked against relinearization")
    _finish(9, "tangent Poisson closes and matches relinearization",
            started, 60)


def test_criterion_10_canonical_case():
    started = time.perf_counter()
    for name in ("theorem-19", "theorem-20", "theorem-21", "theorem-22",
                 "theorem-23", "eq-7-12", "eq-7-13"):
        _assert_suite_passes(run_suite(name))
    result = _assert_suite_passes(run_suite("theorem-24"))
    ids = {item["id"]: item for item in result["items"]}
    assert ids["nijenhuis-instance"]["status"] == "pass"
    assert ids["injectivity"]["status"] == "pass"
    assert ids["h-expansion"]["status"] == "pass"
    assert ids["g-expansion"]["status"] == "pass"
    assert any("sign" in note for note in result["notes"])
    _finish(10, "the tangent-of-dual block: transports, tables, H/G "
                "expansions, Nijenhuis instance", started, 300)


def test_criterion_11_dual_route_lift():
    started = time.perf_counter()
    result = _assert_suite_passes(run_suite("theorem-16", trials=400))
    routes = next(i for i in result["items"] if i["id"] == "dual-routes")
    assert routes["checked"] >= 400  # one hundred per fixture
    _finish(11, "both routes to the dual complete lift agree", started, 60)


#: SHA-256 of each shipped model's `suite --name all` report with its
#: `timing` field removed, re-serialized the way the CLI prints it.  A change
#: that alters any suite's items, labels, counts or draws changes a digest;
#: record new digests only for a deliberate change to the reports.
REPORT_DIGESTS = {
    "fixtures/standard.json":
        "f1c23520804e38521bb6a68cffcf575682c02193897a82099797cec963bde758",
    "fixtures/so3.json":
        "1e044e551f4c0e9b120755e0360ef503df708622d6b80be422e4823fc6132d12",
}


def test_criterion_12_cli_full_run():
    started = time.perf_counter()
    for path, digest in REPORT_DIGESTS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "algebroids", "suite", "--name", "all",
             "--model", path],
            capture_output=True, text=True, timeout=870)
        assert proc.returncode == 0, proc.stderr[-2000:]
        report = json.loads(proc.stdout)
        assert report["status"] == "pass"
        assert len(report["items"]) == 28
        del report["timing"]
        text = json.dumps(report, indent=2, ensure_ascii=False)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, path
    _finish(12, "`suite --name all` over the shipped models exits 0 with "
            "the recorded reports", started, 900)
