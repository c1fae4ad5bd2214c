"""Command-line front door.

Exit codes, project-wide: 0 success / affirmative, 1 negative answer or
failed certificate, 2 usage error or malformed input.  Data goes to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis import analyze, is_connected
from .classify import (
    ClassificationError,
    classify_flat_connected,
    odd_prime_power_multisets,
    predicted_count,
)
from .core import (
    FormatError,
    _parse_json,
    dihedral_quandle,
    direct_product,
    dumps_quandle,
    load_quandle,
    load_quandle_table,
    trivial_quandle,
    validate_quandle,
)
from .enumeration import (
    BudgetExceededError,
    enumerate_flat_connected_classes,
    enumerate_quandles,
)
from .isomorphism import find_isomorphism
from .perms import ClosureLimitError
from .triplets import (
    fix_set,
    is_abelian_group,
    parse_triplet,
    quandle_from_triplet,
    triplet_from_quandle,
    triplet_to_obj,
)


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _load_triplet(path):
    with open(path, encoding="utf-8") as fh:
        return parse_triplet(_parse_json(fh.read()))


def _cmd_validate(args) -> int:
    table = load_quandle_table(args.file)
    violations = validate_quandle(table)
    _emit(
        {
            "n": len(table),
            "valid": not violations,
            "violations": [
                {"axiom": v.axiom, "witness": list(v.witness)} for v in violations
            ],
        }
    )
    return 0 if not violations else 1


def _cmd_make(args) -> int:
    kind = args.kind
    params = args.params
    if kind in ("trivial", "dihedral"):
        if len(params) != 1:
            raise FormatError(f"make {kind} expects one argument: the order")
        try:
            n = int(params[0])
        except ValueError:
            raise FormatError(f"{params[0]!r} is not an integer") from None
        X = trivial_quandle(n) if kind == "trivial" else dihedral_quandle(n)
    elif kind == "product":
        if len(params) != 2:
            raise FormatError("make product expects two quandle files")
        X = direct_product(load_quandle(params[0]), load_quandle(params[1]))
    else:  # "from-triplet": argparse `choices` rejects any other kind
        if len(params) != 1:
            raise FormatError("make from-triplet expects one triplet file")
        X = quandle_from_triplet(_load_triplet(params[0])).quandle
    print(dumps_quandle(X))
    return 0


def _cmd_analyze(args) -> int:
    X = load_quandle(args.file)
    _emit(analyze(X))
    return 0


def _cmd_iso(args) -> int:
    X = load_quandle(args.left)
    Y = load_quandle(args.right)
    witness = find_isomorphism(X, Y)
    if witness is None:
        print("none")
        return 1
    _emit(list(witness))
    return 0


def _cmd_triplet(args) -> int:
    X = load_quandle(args.file)
    connected = is_connected(X)
    derived = triplet_from_quandle(
        X, args.basepoint, with_witness=connected
    )
    triplet = derived.triplet
    G = triplet.group
    sigma = triplet.sigma
    sigma_involutive = all(sigma[sigma[g]] == g for g in range(G.order))
    obj = triplet_to_obj(triplet)
    obj["certificates"] = {
        "group_abelian": is_abelian_group(G),
        "stabilizer_trivial": triplet.subgroup == (G.identity,),
        "sigma_involutive": sigma_involutive,
        "fix_set_trivial": fix_set(sigma, G) == (G.identity,),
        "sigma_is_inversion": sigma == G.inv,
    }
    obj["witness"] = list(derived.witness) if derived.witness is not None else None
    _emit(obj)
    return 0


def _cmd_classify(args) -> int:
    X = load_quandle(args.file)
    try:
        decomposition = classify_flat_connected(X)
    except ClassificationError as e:
        _fail(str(e))
        _emit({"certificate": e.certificate})
        return 1
    _emit(
        {
            "n": X.n,
            "factors": list(decomposition.factors),
            "witness": list(decomposition.witness),
        }
    )
    return 0


def _cmd_predict(args) -> int:
    n = args.order
    _emit(
        {
            "n": n,
            "count": predicted_count(n),
            "multisets": [list(ms) for ms in odd_prime_power_multisets(n)],
        }
    )
    return 0


def _enumeration_cap() -> int | None:
    raw = os.environ.get("QUANDLE_MAX_ORDER")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"QUANDLE_MAX_ORDER={raw!r} is not an integer") from None


def _cmd_enumerate(args) -> int:
    cap = _enumeration_cap()
    if args.flat_connected:
        reps = enumerate_flat_connected_classes(args.order, args.budget, cap)
        for X in reps:
            print(dumps_quandle(X))
        _emit({"summary": True, "order": args.order, "classes": len(reps)})
    else:
        count = 0
        for X in enumerate_quandles(args.order, args.budget, cap):
            count += 1
            print(dumps_quandle(X))
        _emit({"summary": True, "order": args.order, "count": count})
    return 0


def _cmd_catalog(args) -> int:
    if args.max < 1:
        raise FormatError("--max must be positive")
    for n in range(1, args.max + 1, 2):
        multisets = odd_prime_power_multisets(n)
        _emit(
            {
                "n": n,
                "count": len(multisets),
                "factors": [list(ms) for ms in multisets],
            }
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandles",
        description="Finite quandle toolkit: construction, analysis, "
        "triplets, classification, and exhaustive enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the quandle axioms on a table file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("make", help="construct a quandle and print its JSON")
    p.add_argument(
        "kind", choices=["trivial", "dihedral", "product", "from-triplet"]
    )
    p.add_argument("params", nargs="*")
    p.set_defaults(func=_cmd_make)

    p = sub.add_parser("analyze", help="predicate report for a quandle file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("iso", help="search for an isomorphism between two quandles")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser(
        "triplet", help="derive the displacement-group triplet of a quandle"
    )
    p.add_argument("file")
    p.add_argument("--basepoint", type=int, default=0)
    p.set_defaults(func=_cmd_triplet)

    p = sub.add_parser(
        "classify", help="decompose a flat connected quandle into dihedral factors"
    )
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "predict", help="count flat connected quandles of a given order"
    )
    p.add_argument("order", type=int)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("enumerate", help="stream all quandles of a small order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--flat-connected", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "catalog", help="classification table for all odd orders up to a bound"
    )
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    # Malformed input, invalid tables and triplets, and the order cap all
    # raise ValueError subclasses; the group cap of `triplet` raises
    # ClosureLimitError.
    try:
        return args.func(args)
    except (BudgetExceededError, ClosureLimitError, OSError, ValueError) as e:
        _fail(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
