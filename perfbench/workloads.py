"""The three workloads.  Each one is a closed loop with one client: it
issues an op, waits for the answer, checks it, then issues the next.

A run repeats whole rounds of ops until ``seconds`` have passed (and at
least a workload's minimum number of rounds).  Every op's latency is its CPU
time, which leaves out the time other tenants of a shared host hold the
core, normalized by host probes taken right before and after it (see
``hostprobe``); raw CPU and wall times are kept alongside.  Only the program's work sits inside an
op's timer; making inputs and checking answers against values derived here
happens outside it.

Every workload returns a ``Run``; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from hostprobe import normalize, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "fixtures"


#: Host probes within this many seconds of an op normalize its CPU time.
PROBE_WINDOW_S = 0.5


class Run:
    """What one workload run measured and found.

    ``repeated``: every round issues the same ops.  ``in_process``: the ops
    run in this process, so host probes taken here see the core they ran
    on; a command process may run on another core, so its CPU time is not
    normalized.
    """

    def __init__(self, repeated, in_process):
        self.repeated = repeated
        self.in_process = in_process
        self.cpu = []              # CPU seconds, one per op
        self.walls = []            # wall-clock seconds, one per op
        self.ends = []             # perf_counter() at the end of each op
        self.probes = []           # (perf_counter(), CPU seconds) of host probes
        self.probe()
        self.round_instances = []  # identity instances decided per round
        self.attempted = 0
        self.failed = 0
        self.errors = []           # wrong answers: any entry makes the run incorrect
        self.peak_rss_kb = 0
        self.layer_counts = []     # tracer counts, one per traced child
        self.cli_import_ms = []
        self.cli_main_ms = []

    def total_s(self, values):
        """Op time of one round: where rounds repeat the same ops, the sum
        of each op's median over the rounds, so a few slow ops cannot
        shift it; otherwise the median round."""
        size = len(values) // len(self.round_instances)
        if not self.repeated:
            return statistics.median(sum(values[i:i + size])
                                     for i in range(0, len(values), size))
        return sum(statistics.median(values[i::size]) for i in range(size))

    def probe(self):
        if self.in_process:
            self.probes.append((time.perf_counter(), probe()))

    def op(self, wall, cpu):
        """Record one op, then probe the host once more."""
        self.ends.append(time.perf_counter())
        self.cpu.append(cpu)
        self.walls.append(wall)
        self.attempted += 1
        self.probe()

    def normalized(self):
        """Each op's CPU time at the reference host speed, from the probes
        taken within PROBE_WINDOW_S of it; these always include the probes
        right before and right after it."""
        if not self.in_process:
            return list(self.cpu)
        times = [t for t, _ in self.probes]
        out = []
        for i, (cpu, wall, end) in enumerate(zip(self.cpu, self.walls,
                                                 self.ends)):
            lo = bisect.bisect_left(times, end - wall - PROBE_WINDOW_S)
            hi = bisect.bisect_right(times, end + PROBE_WINDOW_S)
            near = self.probes[min(lo, i):max(hi, i + 2)]
            out.append(normalize(cpu, [s for _, s in near]))
        return out

    def error(self, message):
        if len(self.errors) < 20:
            self.errors.append(message)


def rounds(seconds, min_rounds, do_round, run):
    """Call ``do_round(run)`` until ``seconds`` have elapsed; each call
    appends its round's instance count."""
    start = time.perf_counter()
    while (len(run.round_instances) < min_rounds
           or time.perf_counter() - start < seconds):
        do_round(run)


def _maxrss_kb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- suite-all -----------------------------------------------------------------

SUITE_MODELS = ("standard.json", "so3.json")


def suite_all(seed, seconds, tracer=None):
    from algebroids import suites
    from algebroids.model import load_model

    models = [(name, load_model(FIXTURES / name)) for name in SUITE_MODELS]
    run = Run(repeated=True, in_process=True)
    if tracer is not None:
        tracer.install()

    def do_round(run):
        instances = 0
        for model_name, model in models:
            for name in suites.SUITE_NAMES:
                start, cpu = time.perf_counter(), time.process_time()
                result = suites.run_suite(name, model, seed=seed)
                run.op(time.perf_counter() - start, time.process_time() - cpu)
                instances += sum(item["checked"] for item in result["items"])
                failing = [item["id"] for item in result["items"]
                           if item["status"] != "pass"]
                if result["status"] != "pass" or failing:
                    run.error(f"{name} on {model_name}: failing items {failing}")
        run.round_instances.append(instances)

    try:
        rounds(seconds, 1, do_round, run)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run.peak_rss_kb = _maxrss_kb()
    return run


# -- cli-oneshot -----------------------------------------------------------------

#: Tensors added to the standard fixture model for the lift maps that need
#: a vector-valued form, a section with a polynomial coefficient, or a
#: tensor over a velocity chart.
EXTRA_CHARTS = {"vel": ["x", "x_dot"]}
EXTRA_TENSORS = {
    "K": {"owner": "plane", "kind": "mixed", "degree": 1, "terms": {"1|2": "x"}},
    "L": {"owner": "plane", "kind": "mixed", "degree": 1, "terms": {"2|1": "1"}},
    "s": {"owner": "line", "kind": "mv", "degree": 1, "terms": {"1": "x^2"}},
    "w": {"owner": "vel", "kind": "mv", "degree": 1, "terms": {"1": "x_dot"}},
    "omega": {"owner": "vel", "kind": "form", "degree": 1, "terms": {"2": "x"}},
    "f": {"owner": "so3-dual", "kind": "form", "degree": 0, "terms": {"": "xi_1"}},
    "g": {"owner": "so3-dual", "kind": "form", "degree": 0, "terms": {"": "xi_2"}},
}

#: Nesting depth of the hostile model: deep enough to overflow a recursive
#: parser's stack.
DEEP_NESTING = 3000

BUILTIN_NAMES = ["algebroid/canonical-line", "algebroid/canonical-plane",
                 "algebroid/canonical-space", "algebroid/nonconstant-rank2",
                 "algebroid/so3", "poisson/poisson-four",
                 "poisson/poisson-nonconstant", "poisson/poisson-plane",
                 "poisson/poisson-so3"]

# so(3): [e1,e2] = e3, [e1,e3] = -e2, [e2,e3] = e1 (0-based keys).
SO3 = {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}


def _so3_tangent_structure():
    """The tangent lift's table from its definition: with m = 3,
    [i bar, j dot] = c_ij^k k bar and [i dot, j dot] = c_ij^k k dot."""
    m, table = 3, {}
    for (i, j), column in SO3.items():
        for k, c in column.items():
            table.setdefault((i, m + j), {})[k] = c
            table.setdefault((j, m + i), {})[k] = -c
            table.setdefault((m + i, m + j), {})[m + k] = c
    return {f"{i + 1},{j + 1}": {str(k + 1): str(c) for k, c in column.items()}
            for (i, j), column in sorted(table.items())}


def _result(report):
    """The payload of a one-item report."""
    (item,) = report["items"]
    return item["result"]


def _expect_terms(kind, degree, chart, terms):
    def check(report):
        result = _result(report)
        got = (result["kind"], result["degree"], result["chart"], result["terms"])
        want = (kind, degree, chart, terms)
        return None if got == want else f"got {got}, want {want}"
    return check


def cli_commands(seed, extra, deep):
    """One round: (argv, check) pairs.  ``check(report)`` returns None or
    what was wrong; a check of None marks the deep-nesting op, whose
    correct outcome is a rejection."""
    rng = random.Random(f"cli-oneshot:{seed}")
    point = [_rational(rng) for _ in range(3)]
    at = ",".join(f"xi_{a + 1}={v}" for a, v in enumerate(point))
    suite_seed = str(seed)
    plane4 = ["x", "y", "p_x", "p_y"]
    so3_dual = ["xi_1", "xi_2", "xi_3"]

    def validate(report):
        passed = [i["id"] for i in report["items"] if i["status"] == "pass"]
        return None if passed == BUILTIN_NAMES else f"validated {passed}"

    def tangent_algebroid(report):
        result = _result(report)
        want_fibers = ["1_bar", "2_bar", "3_bar", "1_dot", "2_dot", "3_dot"]
        if result["fibers"] != want_fibers or len(result["anchor"]) != 6:
            return f"rank/fibers {result['fibers']}"
        if result["c"] != _so3_tangent_structure():
            return f"structure {result['c']}"
        return None

    def cotangent_algebroid(report):
        result = _result(report)
        # anchor of d xi_i: sum_j c_ij^k xi_k d/d xi_j
        want = [["0", "xi_3", "-1*xi_2"], ["-1*xi_3", "0", "xi_1"],
                ["xi_2", "-1*xi_1", "0"]]
        if result["chart"] != so3_dual or result["anchor"] != want:
            return f"anchor {result['anchor']}"
        return None

    def bivector(chart, want):
        def check(report):
            result = _result(report)
            got = (result["chart"], result["bivector"])
            return None if got == (chart, want) else f"got {got}"
        return check

    def evaluated(report):
        result = _result(report)
        a, b, c = point
        want = {"1,2": str(c), "1,3": str(-b), "2,3": str(a)}
        ok = result["values"] == want and result["nonzero"] is True
        return None if ok else f"values {result['values']}, want {want}"

    def suite(checked):
        def check(report):
            result = _result(report)
            items = result["items"]
            if result["status"] != "pass" or any(i["status"] != "pass" for i in items):
                return f"suite status {result['status']}"
            total = sum(i["checked"] for i in items)
            return None if total == checked else f"checked {total}, want {checked}"
        return check

    ext = ["--model", str(extra)]
    return [
        (["validate"], validate),
        (["bracket", "--kind", "schouten", "--algebroid", "so3", "--a", "e1",
          "--b", "e2"], _expect_terms("mv", 1, [], {"3": "1"})),
        (["bracket", "--kind", "sym", "--algebroid", "nonconstant-rank2",
          "--a", "e1", "--b", "e2"], _expect_terms("sym", 1, ["x"], {"1": "2*x"})),
        (["bracket", "--kind", "nr", *ext, "--a", "K", "--b", "L"],
         _expect_terms("mixed", 1, ["x", "y"], {"1|1": "x", "2|2": "-1*x"})),
        (["bracket", "--kind", "fn", "--algebroid", "nonconstant-rank2",
          "--a", "e1", "--b", "e2"],
         _expect_terms("mixed", 0, ["x"], {"|1": "2*x"})),
        (["bracket", "--kind", "koszul", "--poisson", "poisson-so3",
          "--algebroid", "so3-dual", "--a", "estar1", "--b", "estar2"],
         _expect_terms("form", 1, so3_dual, {"3": "1"})),
        (["bracket", "--kind", "extended", *ext, "--poisson", "poisson-so3",
          "--a", "f", "--b", "g"], _expect_terms("form", 0, so3_dual, {"": "xi_3"})),
        (["d", "--algebroid", "so3", "--form", "estar3"],
         _expect_terms("form", 2, [], {"1,2": "-1"})),
        (["lie", "--algebroid", "nonconstant-rank2", "--x", "e2", "--t", "estar1"],
         _expect_terms("form", 1, ["x"], {"1": "2*x"})),
        (["contract", "--algebroid", "canonical-plane", "--x", "e1", "--t", "estar1"],
         _expect_terms("form", 0, ["x", "y"], {"": "1"})),
        (["lift", "--kind", "V", *ext, "--t", "s"],
         _expect_terms("mv", 1, ["x", "x_dot"], {"1": "x^2"})),
        (["lift", "--kind", "T", *ext, "--t", "s"],
         _expect_terms("mv", 1, ["x", "x_dot"], {"1": "2*x*x_dot", "2": "x^2"})),
        (["lift", "--kind", "Vpi", "--algebroid", "canonical-plane", "--t", "estar1"],
         _expect_terms("mv", 1, plane4, {"3": "1"})),
        (["lift", "--kind", "Vtau", "--algebroid", "canonical-plane", "--t", "e1"],
         _expect_terms("mv", 1, ["x", "y", "y_x", "y_y"], {"3": "1"})),
        (["lift", "--kind", "G", "--algebroid", "so3", "--t", "e1"],
         _expect_terms("mv", 1, so3_dual, {"2": "xi_3", "3": "-1*xi_2"})),
        (["lift", "--kind", "J", *ext, "--t", "K"],
         _expect_terms("mv", 1, plane4, {"3": "-1*x*p_y"})),
        (["lift", "--kind", "Gmix", *ext, "--t", "K"],
         _expect_terms("mv", 2, plane4, {"2,3": "x"})),
        (["lift", "--kind", "kappa", *ext, "--t", "w"],
         _expect_terms("mv", 1, ["x", "x_dot"], {"2": "x_dot"})),
        (["lift", "--kind", "alpha", *ext, "--t", "omega"],
         _expect_terms("form", 1, ["x", "x_dot"], {"1": "x"})),
        (["lift", "--kind", "jstar", *ext, "--t", "K"],
         _expect_terms("form", 1, plane4, {"1": "x*p_y"})),
        (["lift", "--kind", "hmap", *ext, "--t", "K"],
         _expect_terms("mixed", 1, plane4, {"1|2": "x", "4|3": "x"})),
        (["lift", "--kind", "tangent-algebroid", "--algebroid", "so3"],
         tangent_algebroid),
        (["lift", "--kind", "cotangent-algebroid", "--algebroid", "so3"],
         cotangent_algebroid),
        (["lift", "--kind", "linear-poisson", "--algebroid", "so3"],
         bivector(so3_dual, {"1,2": "xi_3", "1,3": "-1*xi_2", "2,3": "xi_1"})),
        (["lift", "--kind", "tangent-poisson", "--poisson", "poisson-plane"],
         bivector(["x", "p", "x_dot", "p_dot"], {"1,4": "-1", "2,3": "1"})),
        (["eval", "--tensor", "poisson-so3", "--at", at], evaluated),
        (["suite", "--name", "theorem-3", "--seed", suite_seed], suite(100)),
        (["suite", "--name", "eq-1-12", "--seed", suite_seed], suite(50)),
        (["validate", "--model", str(deep)], None),
    ]


def write_cli_inputs(workdir):
    """The extra model (standard fixtures plus tensors) and the hostile
    deep-nesting model."""
    workdir.mkdir(parents=True, exist_ok=True)
    doc = json.loads((FIXTURES / "standard.json").read_text(encoding="utf-8"))
    doc["charts"].update(EXTRA_CHARTS)
    doc["tensors"].update(EXTRA_TENSORS)
    extra = workdir / "extra.json"
    extra.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    nested = "(" * DEEP_NESTING + "x" + ")" * DEEP_NESTING
    deep = workdir / "deep.json"
    deep.write_text(json.dumps({
        "charts": {"line": ["x"]},
        "algebroids": {"deep": {"chart": "line", "fibers": ["e1"],
                                "anchor": [[nested]]}},
    }), encoding="utf-8")
    return extra, deep


def spawn(argv, env, workdir, tag):
    """Run one child to completion; returns (wall seconds, CPU seconds, exit
    code, stdout, max RSS in KiB).  Output goes to files so a large
    traceback cannot block the child on a full pipe."""
    out_path = workdir / f"{tag}.out"
    err_path = workdir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (elapsed, usage.ru_utime + usage.ru_stime, proc.returncode,
            out_path.read_text(encoding="utf-8"), usage.ru_maxrss)


def _check_cli_report(stdout, code, check):
    """None when the op answered correctly, else what went wrong."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"exit {code} with no JSON report"
    if check is None:  # a hostile input: must be rejected with a report
        if code == 2 and report.get("status") == "error":
            return None
        return f"exit {code}, status {report.get('status')}"
    if code != 0 or report.get("status") != "pass":
        return f"exit {code}, status {report.get('status')}: {report.get('error')}"
    try:
        return check(report)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"


def cli_oneshot(seed, seconds, env, workdir, trace=False):
    extra, deep = write_cli_inputs(workdir)
    commands = cli_commands(seed, extra, deep)
    run = Run(repeated=True, in_process=False)
    child = [sys.executable, str(HERE / "child.py")]

    def do_round(run):
        instances = 0
        for index, (args, check) in enumerate(commands):
            tag = f"op{index}"
            if trace:
                argv = child + ["trace", str(workdir / f"{tag}.trace"), *args]
            else:
                argv = [sys.executable, "-m", "algebroids", *args]
            wall, cpu, code, stdout, rss = spawn(argv, env, workdir, tag)
            run.op(wall, cpu)
            run.peak_rss_kb = max(run.peak_rss_kb, rss)
            problem = _check_cli_report(stdout, code, check)
            if check is None:
                if problem is not None:
                    run.failed += 1
            elif problem is not None:
                run.error(f"{' '.join(args)}: {problem}")
            elif args[0] == "suite":
                instances += sum(i["checked"] for i in
                                 _result(json.loads(stdout))["items"])
            if trace:
                record = json.loads((workdir / f"{tag}.trace").read_text())
                run.layer_counts.append(record["counts"])
                run.cli_import_ms.append(record["import_ms"])
                run.cli_main_ms.append(record["main_ms"])
        run.round_instances.append(instances)

    rounds(seconds, 2, do_round, run)
    return run


# -- model-stream ------------------------------------------------------------------

#: One round, shuffled: (family, chart dimension, perturbed).  The mix is
#: fixed so every round costs about the same, and each family has one
#: perturbed document.  By cost the valid documents run canonical-2 <
#: rank2 < canonical-3 < rotation; with three of each perturbed or cheap
#: ahead of them, the three rank2 documents hold the middle of a round, so
#: the median op does not jump between two kinds.
STREAM_ROUND = (
    (("rotation", 3, False),) * 3 + (("rotation", 3, True),)
    + (("rank2", 1, False),) * 3 + (("rank2", 1, True),)
    + (("canonical", 2, False), ("canonical", 3, False),
       ("canonical", 3, False), ("canonical", 2, True)))
COORDS = ("x", "y", "z")


def _rational(rng, top=9):
    """A nonzero rational whose denominator is not 1."""
    while True:
        value = Fraction(rng.choice((-1, 1)) * rng.randint(1, top),
                         rng.randint(2, 9))
        if value.denominator != 1:
            return value


class Entry:
    """A sum of terms c * (x_a + t)^p: text for the document, exact values
    for checking what the program loaded."""

    def __init__(self, terms=()):
        self.terms = list(terms)  # (c, a, t, p); a is None for a constant

    def plus(self, c, a=None, t=Fraction(0), p=0):
        return Entry(self.terms + [(Fraction(c), a, Fraction(t), p)])

    def text(self):
        if not self.terms:
            return "0"
        pieces = []
        for c, a, t, p in self.terms:
            if a is None or p == 0:
                pieces.append(str(c))
                continue
            shift = f"{COORDS[a]} + {t}" if t >= 0 else f"{COORDS[a]} - {-t}"
            power = "" if p == 1 else f"^{p}"
            pieces.append(f"{c}*({shift}){power}")
        return " + ".join(pieces)

    def value(self, point):
        return sum((c * (point[a] + t) ** p if a is not None else c
                    for c, a, t, p in self.terms), Fraction(0))


def _rotation(rng, dim):
    """so(3) acting on R^3: rho(e_i) = lambda_i R_i with R_i the rotation
    field about axis i, in coordinates translated by t; c_ij^k =
    lambda_i lambda_j / lambda_k times the so(3) constants."""
    lam = [_rational(rng) for _ in range(3)]
    t = [_rational(rng) for _ in range(3)]
    # R_1 = (0, z, -y), R_2 = (-z, 0, x), R_3 = (y, -x, 0): [R_1, R_2] = R_3
    # {(i, a): (b, sign)}: component a of R_i is sign * x_b
    shape = {(0, 1): (2, 1), (0, 2): (1, -1), (1, 0): (2, -1), (1, 2): (0, 1),
             (2, 0): (1, 1), (2, 1): (0, -1)}
    anchor = [[Entry() for _ in range(3)] for _ in range(3)]
    for (i, a), (b, sign) in shape.items():
        anchor[i][a] = Entry().plus(sign * lam[i], b, t[b], 1)
    structure = {}
    for (i, j), column in SO3.items():
        structure[(i, j)] = {k: Entry().plus(c * lam[i] * lam[j] / lam[k])
                             for k, c in column.items()}
    return 3, ("r1", "r2", "r3"), anchor, structure


def _rank2(rng, dim):
    """The polynomial-anchor fixture rho(e1) = d/dx, rho(e2) = x^2 d/dx,
    [e1, e2] = 2x e1, rescaled and translated: rho(e1) = l1,
    rho(e2) = l2 (x+t)^2, [e1, e2] = 2 l2 (x+t) e1."""
    l1, l2, t = _rational(rng), _rational(rng), _rational(rng)
    anchor = [[Entry().plus(l1)], [Entry().plus(l2, 0, t, 2)]]
    structure = {(0, 1): {0: Entry().plus(2 * l2, 0, t, 1)}}
    return 1, ("e1", "e2"), anchor, structure


def _canonical(rng, dim):
    """The canonical algebroid of a chart with rescaled basis:
    rho(e_i) = lambda_i d/dx_i, all brackets zero."""
    anchor = [[Entry().plus(_rational(rng)) if a == i else Entry()
               for a in range(dim)] for i in range(dim)]
    return dim, tuple(f"u{i + 1}" for i in range(dim)), anchor, {}


FAMILIES = {"rotation": _rotation, "rank2": _rank2, "canonical": _canonical}


def _perturb(rng, family, dim, anchor):
    """Add one term to one anchor entry so that the anchor is no longer a
    bracket morphism, whatever the rescaling and translation:

    * rotation: a constant eps at (i, a) leaves [rho_i, rho_j] off by
      eps lambda_j d_a R_j, nonzero for the j outside {i, a};
    * rank2: eps*x on either entry leaves a residual -eps l2 (x+t)^2 or
      eps l1;
    * canonical: eps*x_b at (i, a) with b != i leaves [rho_i, rho_b] =
      -eps lambda_b d/dx_a.
    """
    eps = _rational(rng)
    if family == "rotation":
        i, a = rng.randrange(3), rng.randrange(3)
        anchor[i][a] = anchor[i][a].plus(eps)
    elif family == "rank2":
        i = rng.randrange(2)
        anchor[i][0] = anchor[i][0].plus(eps, 0, 0, 1)
    else:
        i, a = rng.randrange(dim), rng.randrange(dim)
        b = rng.choice([b for b in range(dim) if b != i])
        anchor[i][a] = anchor[i][a].plus(eps, b, 0, 1)


def _document(family, dim, fibers, anchor, structure):
    body = {"chart": "base", "fibers": list(fibers),
            "anchor": [[entry.text() for entry in row] for row in anchor]}
    if structure:
        body["c"] = {f"{i + 1},{j + 1}": {str(k + 1): e.text()
                                          for k, e in column.items()}
                     for (i, j), column in sorted(structure.items())}
    return json.dumps({"charts": {"base": list(COORDS[:dim])},
                       "algebroids": {family: body}}, indent=2)


def _random_poly(rng, chart):
    from algebroids.ring import Poly

    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = [0] * chart.dim
        for _ in range(rng.randint(0, 2)):
            if chart.dim:
                exp[rng.randrange(chart.dim)] += 1
        terms[tuple(exp)] = _rational(rng, 5)
    return Poly(chart, terms)


def _random_section(rng, algebroid, kind, degree=1):
    from algebroids.tensor import GradedTensor

    terms = {(i,): _random_poly(rng, algebroid.base)
             for i in range(algebroid.rank) if rng.random() < 0.8}
    if degree == 0:
        terms = {(): _random_poly(rng, algebroid.base)}
    return GradedTensor(algebroid, kind, degree, terms)


class StreamDoc:
    """One generated document and the data it was written from."""

    def __init__(self, family, perturbed, text, anchor, structure, seed):
        self.family = family
        self.perturbed = perturbed
        self.text = text
        self.anchor = anchor
        self.structure = structure
        self.section_seed = seed


def stream_round(rng, seen):
    """One round's documents, each new in this run."""
    plan = list(STREAM_ROUND)
    rng.shuffle(plan)
    docs = []
    for family, dim, perturbed in plan:
        while True:
            dim, fibers, anchor, structure = FAMILIES[family](rng, dim)
            if perturbed:
                _perturb(rng, family, dim, anchor)
            text = _document(family, dim, fibers, anchor, structure)
            if text not in seen:
                seen.add(text)
                break
        docs.append(StreamDoc(family, perturbed, text, anchor, structure,
                              rng.getrandbits(32)))
    return docs


def _process(doc):
    """The op: everything the program does for one document.  Returns what
    the checks below need."""
    from algebroids.algebroid import (cotangent_lift, linear_poisson,
                                      section_bracket, tangent_lift)
    from algebroids.calculus import differential
    from algebroids.errors import ValidationError
    from algebroids.model import Model, dumps_model, loads_model
    from algebroids.tensor import Kind

    try:
        model = loads_model(doc.text)
    except ValidationError as exc:
        return {"rejected": exc}
    A = model.algebroids[doc.family]
    tangent, cotangent, poisson = tangent_lift(A), cotangent_lift(A), \
        linear_poisson(A)
    text = dumps_model(model)
    again = dumps_model(loads_model(text))
    lifted = Model(charts={"base": A.base, "tangent": tangent.base,
                           "dual": cotangent.base},
                   algebroids={"tangent": tangent, "cotangent": cotangent},
                   poisson={"linear": poisson})
    lifted_text = dumps_model(lifted)
    lifted_again = dumps_model(loads_model(lifted_text))
    rng = random.Random(doc.section_seed)
    x, y, z = (_random_section(rng, A, Kind.MV) for _ in range(3))
    jacobi = (section_bracket(A, section_bracket(A, x, y), z)
              + section_bracket(A, section_bracket(A, y, z), x)
              + section_bracket(A, section_bracket(A, z, x), y))
    form = _random_section(rng, A, Kind.FORM)
    function = _random_section(rng, A, Kind.FORM, degree=0)
    dd_form = differential(A, differential(A, form))
    dd_function = differential(A, differential(A, function))
    return {"algebroid": A, "tangent": tangent,
            "cotangent": cotangent, "poisson": poisson,
            "round_trip": (text, again), "lifted_round_trip": (lifted_text, lifted_again),
            "zeros": {"section Jacobi": jacobi, "d(d form)": dd_form,
                      "d(d function)": dd_function}}


def _value(poly, values):
    """A polynomial's value from its terms, without the program's eval."""
    total = Fraction(0)
    for exp, coeff in poly.terms.items():
        term = Fraction(coeff)
        for v, e in zip(values, exp):
            term *= v ** e
        total += term
    return total


def _check_stream(doc, out, rng):
    """Returns (problem or None, identity instances decided)."""
    from algebroids.errors import AnchorNotMorphism, JacobiViolation

    if doc.perturbed:
        exc = out.get("rejected")
        if exc is None:
            return "perturbed document was accepted", 0
        if not isinstance(exc.__cause__, (AnchorNotMorphism, JacobiViolation)):
            return f"rejected for {exc.__cause__!r}, not an axiom", 0
        return None, 0
    if "rejected" in out:
        return f"valid document rejected: {out['rejected']}", 0
    A = out["algebroid"]
    m, n = A.rank, A.base.dim
    values = [_rational(rng) for _ in range(n)]
    for i in range(m):
        for a in range(n):
            got = _value(A.anchor[i][a], values)
            if got != doc.anchor[i][a].value(values):
                return f"anchor[{i}][{a}] = {got} at {values}", 0
    for (i, j), column in doc.structure.items():
        for k, entry in column.items():
            if _value(A.c(i, j, k), values) != entry.value(values):
                return f"c_{i}{j}^{k} differs at {values}", 0
    if out["tangent"].rank != 2 * m or out["tangent"].base.dim != 2 * n:
        return "tangent lift has the wrong shape", 0
    if out["cotangent"].rank != n + m or out["cotangent"].base.dim != n + m:
        return "cotangent lift has the wrong shape", 0
    # the linear Poisson bivector: pi(d xi_i, d xi_j) = c_ij^k xi_k and
    # pi(dx_a, d xi_i) = -rho_i^a
    xi = [_rational(rng) for _ in range(m)]
    terms = out["poisson"].bivector.terms
    zero = Fraction(0)

    def pi(key):
        coeff = terms.get(key)
        return _value(coeff, values + xi) if coeff is not None else zero

    for i in range(m):
        for j in range(i + 1, m):
            want = sum((e.value(values) * xi[k]
                        for k, e in doc.structure.get((i, j), {}).items()), zero)
            if pi((n + i, n + j)) != want:
                return f"linear Poisson entry ({i}, {j}) differs", 0
        for a in range(n):
            if pi((a, n + i)) != -doc.anchor[i][a].value(values):
                return f"linear Poisson anchor entry ({a}, {i}) differs", 0
    for label in ("round_trip", "lifted_round_trip"):
        first, second = out[label]
        if first != second:
            return f"{label} is not byte-stable", 0
    for label, residual in out["zeros"].items():
        if residual.terms:
            return f"{label} is not zero", 0
    return None, len(out["zeros"])


def model_stream(seed, seconds, tracer=None):
    import algebroids.model  # noqa: F401 - the set-up the ops rely on

    rng = random.Random(f"model-stream:{seed}")
    check_rng = random.Random(f"model-stream-check:{seed}")
    seen = set()
    run = Run(repeated=False, in_process=True)
    if tracer is not None:
        tracer.install()

    def do_round(run):
        instances = 0
        for doc in stream_round(rng, seen):
            start, cpu = time.perf_counter(), time.process_time()
            out = _process(doc)
            run.op(time.perf_counter() - start, time.process_time() - cpu)
            problem, decided = _check_stream(doc, out, check_rng)
            instances += decided
            if problem is not None:
                run.error(f"{doc.family} document: {problem}")
        run.round_instances.append(instances)

    try:
        rounds(seconds, 2, do_round, run)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run.peak_rss_kb = _maxrss_kb()
    return run
