"""Command-line front end.

One verb per construct: ``validate`` checks every named structure, ``bracket``
/ ``d`` / ``lie`` / ``contract`` compute with named tensors, ``lift`` applies
the lift maps or builds lifted structures, ``suite`` runs the named identity
suites, and ``eval`` evaluates a tensor's coefficients at a rational point.

Every run prints a JSON report on stdout and a short human summary on stderr,
and exits 0 when everything passed, 1 when some checked identity failed, and
2 on input errors (unreadable models, unknown names, kind mismatches, input
nested too deeply for the interpreter stack) and when the reader closes
stdout before the report is written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction

from .algebroid import Algebroid, cotangent_lift, linear_poisson, tangent_lift
from .calculus import (differential, fn_bracket, lie_derivative, nr_bracket,
                       schouten, sym_schouten)
from .errors import AlgebroidError, BadPoint, UnknownName, ValidationError
from .lifts import (G_map, H_map, J_map, Jstar, canonical_transport,
                    complete_lift_T, cot_complete_G_vec, vertical_lift_V,
                    vertical_pi, vertical_tau)
from .model import (Model, builtin_model, load_model, model_document,
                    tensor_key_string)
from .poisson import extended_bracket, koszul_schouten, tangent_poisson
from .ring import poly_to_string
from .suites import SUITE_NAMES, run_suite
from .tensor import GradedTensor, Kind, contract, contract_mixed, pretty

_BASIS_NAME = re.compile(r"^(e|estar)([1-9][0-9]*)$")

#: Most digits the numerator or the denominator of an ``--at`` value may have.
_POINT_DIGITS = 100
_POINT_VALUE = re.compile(
    rf"(?P<num>-?[0-9]{{1,{_POINT_DIGITS}}})(?:/(?P<den>[0-9]{{1,{_POINT_DIGITS}}}))?")


def _load(path):
    return load_model(path) if path else builtin_model()


def _resolve_tensor(model: Model, name: str, algebroid: str | None) -> GradedTensor:
    """A named tensor: model tensors and Poisson bivectors first, then basis
    sections ``e<i>`` / ``estar<i>`` of ``--algebroid`` (1-based)."""
    try:
        return model.tensor(name)
    except UnknownName:
        pass
    match = _BASIS_NAME.match(name)
    if match and algebroid is not None:
        owner = model.owner_named(algebroid)
        index = int(match.group(2)) - 1
        if index >= owner.rank:
            raise UnknownName(
                f"{name!r}: index out of range for {algebroid!r} "
                f"(rank {owner.rank})")
        return owner.e(index) if match.group(1) == "e" else owner.estar(index)
    if match:
        raise UnknownName(
            f"{name!r} is a basis name; pass --algebroid to pick its owner")
    raise UnknownName(f"no tensor named {name!r} in the model")


def _encode_tensor(t: GradedTensor) -> dict:
    return {
        "kind": t.kind.value,
        "degree": t.degree,
        "chart": list(t.owner.base.coords),
        "terms": {tensor_key_string(t.kind, key): poly_to_string(coeff)
                  for key, coeff in sorted(t.terms.items(), key=repr)},
        "pretty": pretty(t),
    }


def _encode_structure(value) -> dict:
    """Serialize an algebroid or Poisson structure through the model format
    so the CLI's output matches what a model file would say."""
    algebroid = isinstance(value, Algebroid)
    if algebroid:
        shell = Model(charts={"chart": value.base}, algebroids={"out": value})
    else:
        shell = Model(charts={"chart": value.chart}, poisson={"out": value})
    encoded = model_document(shell)
    body = encoded["algebroids" if algebroid else "poisson"]["out"]
    body["chart"] = list(value.base.coords if algebroid else value.chart.coords)
    if algebroid:
        # the report names a lift by its chart and provenance, as it always has
        body.pop("duals", None)
        body["provenance"] = value.provenance
    return body


def _result_item(item_id: str, result) -> dict:
    if isinstance(result, GradedTensor):
        payload = _encode_tensor(result)
    else:
        payload = result
    return {"id": item_id, "status": "pass", "result": payload}


# -- subcommand handlers -----------------------------------------------------

def _cmd_validate(model, args):
    items = []
    for name in sorted(model.algebroids):
        items.append({"id": f"algebroid/{name}", "status": "pass"})
    for name in sorted(model.poisson):
        items.append({"id": f"poisson/{name}", "status": "pass"})
    if not items:
        items.append({"id": "model", "status": "pass"})
    return items


def _cmd_bracket(model, args):
    a = _resolve_tensor(model, args.a, args.algebroid)
    b = _resolve_tensor(model, args.b, args.algebroid)
    if args.kind in ("koszul", "extended"):
        if not args.poisson:
            raise UnknownName(
                f"bracket --kind {args.kind} needs --poisson NAME")
        ps = model.poisson_structure(args.poisson)
        op = koszul_schouten if args.kind == "koszul" else extended_bracket
        result = op(ps, a, b)
    elif args.kind == "nr":
        result = nr_bracket(a, b)
    else:
        op = {"schouten": schouten, "sym": sym_schouten,
              "fn": fn_bracket}[args.kind]
        result = op(a.owner, a, b)
    return [_result_item(f"bracket/{args.kind}", result)]


def _cmd_d(model, args):
    mu = _resolve_tensor(model, args.form, args.algebroid)
    return [_result_item("d", differential(mu.owner, mu))]


def _cmd_lie(model, args):
    x = _resolve_tensor(model, args.x, args.algebroid)
    t = _resolve_tensor(model, args.t, args.algebroid)
    return [_result_item("lie", lie_derivative(x.owner, x, t))]


def _cmd_contract(model, args):
    x = _resolve_tensor(model, args.x, args.algebroid)
    t = _resolve_tensor(model, args.t, args.algebroid)
    op = contract_mixed if x.kind is Kind.MIXED else contract
    return [_result_item("contract", op(x, t))]


#: The tensor lifts of ``lift --kind``, each a function of the ``--t`` tensor.
#: Every entry looks its map up by name when called, so a wrapper bound to
#: the module's name (perfbench's tracer) sees the call.
_TENSOR_LIFTS = {
    "V": lambda t: vertical_lift_V(t.owner, t),
    "T": lambda t: complete_lift_T(t.owner, t),
    "Vpi": lambda t: vertical_pi(t.owner, t),
    "Vtau": lambda t: vertical_tau(t.owner, t),
    "G": lambda t: cot_complete_G_vec(t.owner, t),
    "J": lambda t: J_map(t.owner, t),
    "Gmix": lambda t: G_map(t.owner, t),
    "kappa": lambda t: canonical_transport("kappa", t),
    "alpha": lambda t: canonical_transport("alpha", t),
    "jstar": lambda t: Jstar(t),
    "hmap": lambda t: H_map(t),
}
#: The lifted structures of ``lift --kind``: the option that names the
#: source (an algebroid or a Poisson structure), and the builder, looked up
#: when called as above.
_STRUCTURE_LIFTS = {
    "tangent-algebroid": ("algebroid", lambda A: tangent_lift(A)),
    "cotangent-algebroid": ("algebroid", lambda A: cotangent_lift(A)),
    "linear-poisson": ("algebroid", lambda A: linear_poisson(A)),
    "tangent-poisson": ("poisson", lambda ps: tangent_poisson(ps)),
}


def _cmd_lift(model, args):
    kind = args.kind
    if kind in _STRUCTURE_LIFTS:
        option, build = _STRUCTURE_LIFTS[kind]
        name = getattr(args, option)
        if not name:
            raise UnknownName(f"lift --kind {kind} needs --{option} NAME")
        source = (model.owner_named(name) if option == "algebroid"
                  else model.poisson_structure(name))
        return [_result_item(f"lift/{kind}", _encode_structure(build(source)))]
    if not args.t:
        raise UnknownName(f"lift --kind {kind} needs --t TENSOR")
    t = _resolve_tensor(model, args.t, args.algebroid)
    return [_result_item(f"lift/{kind}", _TENSOR_LIFTS[kind](t))]


def _cmd_suite(model, args):
    if args.name == "all":
        names = SUITE_NAMES
    elif args.name in SUITE_NAMES:
        names = (args.name,)
    else:
        raise UnknownName(f"no suite named {args.name!r}; choose from "
                          f"all, {', '.join(SUITE_NAMES)}")
    items = []
    for name in names:
        result = run_suite(name, model, seed=args.seed, trials=args.trials)
        result["items"] = sorted(result["items"], key=lambda i: i["id"])
        items.append({"id": f"suite/{name}", "status": result["status"],
                      "result": result})
    return items


def _parse_point(text, chart):
    """``coord=rational,...`` with the model grammar's rationals: ASCII
    ``-?[0-9]+(/[0-9]+)?``, at most :data:`_POINT_DIGITS` digits a part."""
    point = {name: Fraction(0) for name in chart.coords}
    if not text:
        return point
    for piece in text.split(","):
        name, sep, value = piece.partition("=")
        name = name.strip()
        if not sep:
            raise BadPoint(f"--at expects coord=rational, got {piece!r}")
        if name not in point:
            raise UnknownName(f"--at: {name!r} is not a coordinate of the "
                              f"tensor's chart {tuple(chart.coords)}")
        match = _POINT_VALUE.fullmatch(value.strip())
        if match is None or (match["den"] and int(match["den"]) == 0):
            raise BadPoint(
                f"--at: bad rational for {name!r}: expected -?n or -?n/d with "
                f"ASCII digits, at most {_POINT_DIGITS} each, and d > 0")
        point[name] = Fraction(int(match["num"]), int(match["den"] or 1))
    return point


def _cmd_eval(model, args):
    t = _resolve_tensor(model, args.tensor, args.algebroid)
    point = _parse_point(args.at, t.owner.base)
    try:
        values = {tensor_key_string(t.kind, key): str(coeff.eval_at(point))
                  for key, coeff in sorted(t.terms.items(), key=repr)}
    except ValueError as exc:  # past the interpreter's int-to-str digit limit
        raise ValidationError(f"eval: a value at this point is too long to "
                              f"print: {exc}") from exc
    payload = {
        "kind": t.kind.value,
        "degree": t.degree,
        "point": {name: str(value) for name, value in point.items()},
        "values": values,
        "nonzero": any(v != "0" for v in values.values()),
    }
    return [_result_item("eval", payload)]


_HANDLERS = {
    "validate": _cmd_validate,
    "bracket": _cmd_bracket,
    "d": _cmd_d,
    "lie": _cmd_lie,
    "contract": _cmd_contract,
    "lift": _cmd_lift,
    "suite": _cmd_suite,
    "eval": _cmd_eval,
}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--model", metavar="PATH", default=None,
                        help="model JSON file (default: the built-in model)")
    shared.add_argument("--algebroid", metavar="NAME", default=None,
                        help="owner for basis names like e1 / estar3")

    parser = argparse.ArgumentParser(
        prog="algebroids",
        description="exact symbolic calculus on Lie algebroids")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[shared],
                   help="validate every structure in the model")

    bracket = sub.add_parser("bracket", parents=[shared],
                             help="a graded bracket of two named tensors")
    bracket.add_argument("--kind", required=True,
                         choices=["schouten", "sym", "nr", "fn",
                                  "koszul", "extended"])
    bracket.add_argument("--a", required=True, metavar="TENSOR")
    bracket.add_argument("--b", required=True, metavar="TENSOR")
    bracket.add_argument("--poisson", metavar="NAME", default=None,
                         help="Poisson structure for koszul/extended")

    d = sub.add_parser("d", parents=[shared], help="the exterior derivative")
    d.add_argument("--form", required=True, metavar="TENSOR")

    lie = sub.add_parser("lie", parents=[shared], help="a Lie derivative")
    lie.add_argument("--x", required=True, metavar="TENSOR",
                     help="the deriving section")
    lie.add_argument("--t", required=True, metavar="TENSOR")

    contract_p = sub.add_parser("contract", parents=[shared],
                                help="insert a multivector or mixed tensor")
    contract_p.add_argument("--x", required=True, metavar="TENSOR")
    contract_p.add_argument("--t", required=True, metavar="TENSOR")

    lift = sub.add_parser("lift", parents=[shared],
                          help="a lift map or lifted structure")
    lift.add_argument("--kind", required=True,
                      choices=[*_TENSOR_LIFTS, *_STRUCTURE_LIFTS])
    lift.add_argument("--t", metavar="TENSOR", default=None)
    lift.add_argument("--poisson", metavar="NAME", default=None)

    suite = sub.add_parser("suite", parents=[shared],
                           help="run a named identity suite")
    suite.add_argument("--name", required=True,
                       metavar="|".join(("all", "theorem-N", "eq-N-M")))
    suite.add_argument("--seed", type=int, default=None)
    suite.add_argument("--trials", type=int, default=None)

    eval_p = sub.add_parser("eval", parents=[shared],
                            help="evaluate a tensor at a rational point")
    eval_p.add_argument("--tensor", required=True, metavar="TENSOR")
    eval_p.add_argument("--at", metavar="coord=rational,...", default="",
                        help="unlisted coordinates default to 0")

    return parser


def _summarize(report, stream):
    for item in report["items"]:
        line = f"{item['status']:5s} {item['id']}"
        result = item.get("result")
        if isinstance(result, dict):
            if "pretty" in result:
                line += f": {result['pretty']}"
            elif "items" in result:
                checked = sum(i.get("checked", 0) for i in result["items"])
                line += (f": {len(result['items'])} identities, "
                         f"{checked} instances")
                failing = [i["id"] for i in result["items"]
                           if i["status"] != "pass"]
                if failing:
                    line += f", FAILING: {', '.join(failing)}"
            elif "values" in result:
                line += f": {result['values']}"
        print(line, file=stream)
    counts = [i["status"] for i in report["items"]]
    print(f"{report['status']}: {len(counts)} item(s), "
          f"{counts.count('pass')} pass, {counts.count('fail')} fail "
          f"({report['timing']['seconds']}s)", file=stream)


#: A surrogate code point: what the interpreter decodes each byte of an
#: argument that is not UTF-8 to, and what no UTF-8 text can hold.
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _write_report(report) -> bool:
    """Print ``report`` on stdout as JSON text that UTF-8 can hold:
    non-ASCII characters as they are and each surrogate as its ``\\uXXXX``
    escape, which ``json.loads`` reads back.  False when the reader has
    closed stdout."""
    try:
        print(_SURROGATE.sub(lambda m: f"\\u{ord(m.group()):04x}",
                             json.dumps(report, indent=2, ensure_ascii=False)))
        sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        model = _load(args.model)
        items = _HANDLERS[args.command](model, args)
    except (AlgebroidError, RecursionError, MemoryError) as exc:
        elapsed = round(time.perf_counter() - started, 3)
        report = {
            "command": argv,
            "status": "error",
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "items": [],
            "timing": {"seconds": elapsed},
        }
        witness = getattr(exc, "witness", None)
        if witness:
            report["error"]["witness"] = {k: str(v) for k, v in witness.items()}
        if _write_report(report):
            print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    elapsed = round(time.perf_counter() - started, 3)
    status = "pass" if all(i["status"] == "pass" for i in items) else "fail"
    report = {
        "command": argv,
        "status": status,
        "items": items,
        "timing": {"seconds": elapsed},
    }
    if not _write_report(report):
        return 2
    _summarize(report, sys.stderr)
    return 0 if status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
