"""Command-line entry point with deterministic JSON reports.

Subcommands
-----------
``chartable <group>``
    Exact character table; cyclotomic values rendered as strings.
``h2 <group> [--modulus m]``
    Cohomology class representatives realizable with Z/m coefficients.
``center <group>``
    The simple objects of the center with quantum dimensions and twists.
``autoeq {v,bv,ev,rprime,generate,verify,bimodule} ...``
    Construct braided symmetries, close them under composition, re-verify a
    serialized mapping, or report the bimodule invariant.  The mapping files
    read by ``autoeq generate`` carry no construction data: each element is
    re-verified from its mapping alone.
``fpn <p> <n> {orders,generate,bruhat}``
    The prime-field matrix model: generated-versus-oracle orders, generator
    or closure listings, and the triangular cell factorization.
``examples <name> [--regen]``
    Replay a named scenario with fresh library calls and diff the payload
    against the committed fixture (``--regen`` rewrites the fixture).

Output contract
---------------
The report on standard output is pretty-printed JSON with sorted keys and no
timestamps, so identical inputs produce byte-identical output; timing goes
to standard error.  A matrix stack is written in slices of ``_STACK_CHUNK``
matrices, with the same bytes as one ``json.dumps``.  Exit codes: 0 success
(and fixture PASS), 1 domain error with a structured error JSON on standard
output (and fixture FAIL), 2 usage error with argparse text on standard
error.

Each ``dispatch`` builds a fresh argument parser, and of the subcommand
parsers only those on its own command's path.  ``dispatch`` may be called any
number of times in one process, and the output of each call depends only on
its own argv.

Serialized mappings use the same JSON shape everywhere:
``{"group": name, "mapping": [...], "provenance": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import lcm
from pathlib import Path
from typing import Optional

import numpy as np

from .autoeq import (
    PartialBrEq,
    autoeq_from_json,
    autoeq_to_json,
    bimodule_data,
    complete_extensions,
    from_bv,
    from_ev_lazy,
    from_hopf_auto,
    generate_group,
    identity_autoeq,
    partial_dualization_rprime,
    preserves_modular_data,
)
from .center import modular_data, simple_objects
from .chars import character_table
from .cohom import h2_classes
from .errors import (
    BadArguments,
    BrpicError,
    NotASubgroup,
    UnknownName,
)
from .fpn import (
    FpMatrix,
    bruhat_cells,
    bruhat_factorize,
    group_order_oracle,
    standard_generators,
    subgroup_generators,
    _matrix_closure,
)
from .groups import (
    CLOSURE_CAP,
    ORDER_CAP,
    FiniteGroup,
    GroupMorphism,
    Subgroup,
    abelian_normal_subgroups,
    conjugacy_classes,
    identity_morphism,
    named_group,
    semidirect_decompositions,
    _cycles,
)

_FPN_CONFIGS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]
_STACK_CHUNK = 1024     # matrices per stdout write of a stack


# -- small helpers ---------------------------------------------------------


def _emit(report: dict) -> None:
    """Write the report as JSON with indent 2 and sorted keys, plus a newline.

    Values are plain JSON, except that an int stack ``[N, k, k]`` (a numpy
    array) is written exactly as its nested lists would be: ``json.dumps``
    holds its place with a marker string, and ``_write_stack`` writes the
    stack there, re-indented to the marker's depth.
    """
    stacks = []

    def hold(obj):
        if not (isinstance(obj, np.ndarray) and obj.ndim == 3):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        stacks.append(obj)
        return f"\0stack {len(stacks) - 1}"

    text = json.dumps(report, indent=2, sort_keys=True, default=hold)
    for i, E in enumerate(stacks):
        head, text = text.split(json.dumps(f"\0stack {i}"), 1)
        line = head[head.rfind("\n") + 1:]
        sys.stdout.write(head)
        _write_stack(E, line[:len(line) - len(line.lstrip())])
    sys.stdout.write(text + "\n")


def _write_stack(E: np.ndarray, indent: str) -> None:
    """Write ``json.dumps(E.tolist(), indent=2)`` for a stack whose opening
    line is indented by ``indent``, ``_STACK_CHUNK`` matrices per write,
    each chunk from one ``%d`` template per matrix."""
    inner = "\n" + indent + "  "
    one = json.dumps(np.zeros(E.shape[1:], dtype=int).tolist(), indent=2)
    one = one.replace("0", "%d").replace("\n", inner)
    sys.stdout.write("[")
    for s in range(0, len(E), _STACK_CHUNK):
        part = E[s:s + _STACK_CHUNK]
        body = ("," + inner).join([one] * len(part))
        sys.stdout.write(("," if s else "") + inner
                         + body % tuple(part.ravel().tolist()))
    sys.stdout.write("\n" + indent + "]" if len(E) else "]")


def _matrix_arg(text: str, p: int) -> FpMatrix:
    """``--matrix`` as an FpMatrix; a usage error names a non-int64 entry."""
    try:
        rows = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise BadArguments(f"--matrix must be a JSON matrix: {e}")
    for i, row in enumerate(rows if isinstance(rows, list) else [rows]):
        for j, x in enumerate(row if isinstance(row, list) else [row]):
            if type(x) is not int or not -2**63 <= x < 2**63:
                raise BadArguments(f"--matrix: entry [{i}][{j}] is"
                                   f" {json.dumps(x)}, not an int64 integer")
    try:
        return FpMatrix(p, rows)
    except ValueError as e:
        raise BadArguments(f"--matrix: {e}") from None


def _parse_ids(text: str, what: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise BadArguments(f"{what} must be comma-separated integers, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        m = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if m < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {m}")
    return m


def _resolve_group(name: str, cap: Optional[int]) -> FiniteGroup:
    return named_group(name, cap=ORDER_CAP if cap is None else cap)


def _subgroup_of(G: FiniteGroup, text: str, what: str) -> Subgroup:
    ids = _parse_ids(text, what)
    try:
        return Subgroup(G, ids)
    except ValueError as e:
        raise NotASubgroup(str(e)) from None


def _morphism(G: FiniteGroup, images: Optional[str]) -> GroupMorphism:
    if images is None:
        return identity_morphism(G)
    imgs = _parse_ids(images, "--images")
    if len(imgs) != G.n:
        raise BadArguments(
            f"--images needs {G.n} entries for {G.name}, got {len(imgs)}"
        )
    try:
        return GroupMorphism(G, G, imgs)
    except ValueError as e:
        raise BadArguments(str(e)) from None


def _cocycle_class(G: FiniteGroup, modulus: Optional[int], index: int):
    m = modulus if modulus else G.exponent()
    reps = h2_classes(G, m)
    if not 0 <= index < len(reps):
        raise BadArguments(
            f"--class-index {index} out of range: {G.name} has"
            f" {len(reps)} classes at modulus {m}"
        )
    return reps[index]


def _load_mapping_json(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise BadArguments(f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise BadArguments(f"invalid JSON in {path}: {e}")
    if not isinstance(data, dict) or "group" not in data or "mapping" not in data:
        raise BadArguments(
            f"{path} must hold an object with 'group' and 'mapping' fields"
        )
    return data


def _partial_report(partial: PartialBrEq, completions) -> dict:
    return {
        "determined": {
            str(k): int(v) for k, v in sorted(partial.mapping.items())
        },
        "open": {
            str(k): [int(x) for x in v]
            for k, v in sorted(partial.candidates.items())
        },
        "completions": [autoeq_to_json(F) for F in completions],
        "count": len(completions),
    }


# -- command implementations -----------------------------------------------


def _cmd_chartable(ns) -> tuple:
    G = _resolve_group(ns.group, ns.cap)
    classes = conjugacy_classes(G)
    table = character_table(G)
    payload = {
        "group": ns.group,
        "order": G.n,
        "classes": [
            {"index": c.index, "rep": G.names[c.rep], "size": c.size}
            for c in classes
        ],
        "characters": [
            {
                "index": k,
                "degree": chi.degree,
                "values": [str(chi.value_at_element(c.rep)) for c in classes],
            }
            for k, chi in enumerate(table)
        ],
    }
    return payload, ["exact cyclotomic values; characters sorted by degree then value key"], 0


def _cmd_h2(ns) -> tuple:
    G = _resolve_group(ns.group, ns.cap)
    m = ns.modulus if ns.modulus else G.exponent()
    reps = h2_classes(G, m)
    payload = {
        "group": ns.group,
        "modulus": m,
        "count": len(reps),
        "representatives": [
            [[int(x) for x in row] for row in rep.values] for rep in reps
        ],
    }
    return payload, ["classes of the coefficient-m image in full cohomology; trivial class first"], 0


def _cmd_center(ns) -> tuple:
    G = _resolve_group(ns.group, ns.cap)
    md = modular_data(G)
    classes = conjugacy_classes(G)
    objects = []
    for i, s in enumerate(simple_objects(G)):
        c = classes[s.class_index]
        objects.append(
            {
                "index": i,
                "class_rep": G.names[c.rep],
                "class_size": c.size,
                "char_index": s.char_index,
                "qdim": s.qdim,
                "theta": str(md.T[i]),
            }
        )
    payload = {"group": ns.group, "size": md.size, "objects": objects}
    return payload, ["objects ordered class-major; theta is the exact twist"], 0


def _build_element(kind: str, G: FiniteGroup, ns):
    """The V, BV, EV or R' element that ``autoeq <kind>`` and ``autoeq
    bimodule <kind>`` construct from the parsed arguments."""
    if kind == "v":
        return from_hopf_auto(_morphism(G, ns.images))
    if kind == "bv":
        mu = _cocycle_class(G, ns.modulus, ns.class_index)
        return from_bv(_morphism(G, ns.images), mu)
    if kind == "ev":
        S = _subgroup_of(G, ns.subgroup, "--subgroup")
        Sg, _ = S.as_group()
        eta = _cocycle_class(Sg, ns.modulus, ns.class_index)
        v = _morphism(G, ns.images) if ns.images else None
        return from_ev_lazy(S, eta, v)
    N = _subgroup_of(G, ns.normal, "--normal")
    Q = _subgroup_of(G, ns.complement, "--complement") if ns.complement else None
    return partial_dualization_rprime(N, Q)


def _cmd_autoeq(ns) -> tuple:
    sub = ns.autoeq_command
    if sub in ("v", "bv", "ev", "rprime"):
        element = _build_element(sub, _resolve_group(ns.group, ns.cap), ns)
        prov = element.provenance
        if sub == "v":
            return autoeq_to_json(element), ["construction re-verified S/T equivariance"], 0
        if sub == "bv":
            note = f"cocycle class {ns.class_index} at modulus {prov.data[1].m}"
            return autoeq_to_json(element), [note], 0
        completions = complete_extensions(element)
        if sub == "ev":
            S, eta, _ = prov.data
            note = f"lazy dualization along {len(S.elements)} elements, eta class {ns.class_index} at modulus {eta.m}"
        else:
            note = "self-dual pairing found by search; completions sorted by mapping"
        return _partial_report(element, completions), [note], 0
    if sub == "generate":
        elements = []
        for path in ns.files:
            data = _load_mapping_json(path)
            G = _resolve_group(data["group"], ns.cap)
            elements.append(autoeq_from_json(data, G))
        gg = generate_group(
            elements, cap=CLOSURE_CAP if ns.cap is None else ns.cap
        )
        payload = {
            "order": gg.order,
            "elements": [list(F.mapping) for F in gg.elements],
            "words": [list(w) for w in gg.words],
        }
        return payload, ["word (i1,...,ik) means generator i1 applied last"], 0
    if sub == "verify":
        data = _load_mapping_json(ns.file)
        G = _resolve_group(data["group"], ns.cap)
        report = preserves_modular_data(data["mapping"], modular_data(G))
        payload = {
            "group": data["group"],
            "ok": bool(report),
            "witness": report.witness,
        }
        return payload, ["exact S/T equivariance with first-failure witness"], 0
    if sub == "bimodule":
        G = _resolve_group(ns.group, ns.cap)
        if ns.kind == "bv" and ns.class_index is None:
            raise BadArguments("bimodule bv needs --class-index")
        if ns.kind == "ev" and (ns.subgroup is None or ns.class_index is None):
            raise BadArguments("bimodule ev needs --subgroup and --class-index")
        if ns.kind == "rprime" and ns.normal is None:
            raise BadArguments("bimodule rprime needs --normal")
        bd = bimodule_data(_build_element(ns.kind, G, ns))
        pairs = sorted(
            (int(e) // G.n, int(e) % G.n) for e in bd.U.elements
        )
        payload = {
            "group": ns.group,
            "U_order": bd.U.order,
            "U_pairs": [[a, b] for a, b in pairs],
            "U1": [int(x) for x in bd.U1.elements],
            "U2": [int(x) for x in bd.U2.elements],
            "eta_class": bd.eta_class,
            "conditions": list(bd.conditions),
        }
        return payload, ["U lives in G x G-opposite; conditions are (surjectivity, abelian intersections, pairing)"], 0
    raise BadArguments(f"unknown autoeq subcommand {sub!r}")


def _cmd_fpn(ns) -> tuple:
    p, n = ns.p, ns.n
    cap = CLOSURE_CAP if ns.cap is None else ns.cap
    sub = ns.fpn_command
    if sub == "orders":
        payload = {"p": p, "n": n, **_orders_report(p, n, cap)}
        return payload, ["oracle counts form-preserving matrices by column extension"], 0
    if sub == "generate":
        which = ns.which
        if which == "all":
            mats = _standard_closure(p, n, cap)
            note = "closure of the V, BV, EV, R families"
        else:
            mats = np.array([M.entries for M in subgroup_generators(
                p, n, which)], dtype=np.int64).reshape(-1, 2 * n, 2 * n)
            note = f"generator list for family {which}"
        payload = {
            "p": p,
            "n": n,
            "which": which,
            "count": len(mats),
            "matrices": mats,
        }
        return payload, [note], 0
    if sub == "bruhat":
        if ns.matrix is not None:
            M = _matrix_arg(ns.matrix, p)
            if M.size != 2 * n:
                raise BadArguments(
                    f"--matrix is {M.size} x {M.size}, but n = {n} needs"
                    f" 2n x 2n = {2 * n} x {2 * n}"
                )
            cell = bruhat_factorize(M)
            b, e, r = cell.factors
            payload = {
                "p": p,
                "n": n,
                "reflection_rank": cell.reflection_rank,
                "b": b.tolist(),
                "e": e.tolist(),
                "r": r.tolist(),
            }
            return payload, ["b lower triangular, e upper unipotent, b@e@r = input"], 0
        if ns.all:
            E = _standard_closure(p, n, cap)
            d = bruhat_cells(p, E).tolist()
            payload = {
                "p": p,
                "n": n,
                "total": len(d),
                "cells": {str(c): d.count(c) for c in set(d)},
            }
            return payload, ["every element factored; cells keyed by reflection rank"], 0
        raise BadArguments("fpn bruhat needs --all or --matrix")
    raise BadArguments(f"unknown fpn subcommand {sub!r}")


def _standard_closure(p: int, n: int, cap: int):
    """The stack [N, 2n, 2n] of the group the four families generate."""
    return _matrix_closure(standard_generators(p, n), cap)[1]


def _orders_report(p: int, n: int, cap: int = CLOSURE_CAP) -> dict:
    generated = len(_standard_closure(p, n, cap))
    oracle = group_order_oracle(p, n)
    return {"generated": generated, "oracle": oracle,
            "match": generated == oracle}


# -- example scenarios -----------------------------------------------------


def _example_s3_reflection() -> dict:
    G = named_group("S3")
    rotations = tuple(
        g for g in range(G.n) if G.order_of(g) in (1, 3)
    )
    partial = partial_dualization_rprime(Subgroup(G, rotations))
    completions = complete_extensions(partial)
    generated = generate_group([identity_autoeq(G)] + completions)
    return {
        "group": "S3",
        "normal_subgroup": [int(x) for x in rotations],
        "determined": {str(k): int(v) for k, v in sorted(partial.mapping.items())},
        "completions": [list(F.mapping) for F in completions],
        "completion_orders": [
            lcm(*(len(c) for c in _cycles(F.mapping))) for F in completions
        ],
        "generated_order": generated.order,
    }


def _example_s4_bv_swap() -> dict:
    G = named_group("S4")
    mu = h2_classes(G, 2)[1]
    F = from_bv(identity_morphism(G), mu)
    swapped = sorted(
        [i, F(i)] for i in range(len(F.mapping)) if i < F(i)
    )
    return {
        "group": "S4",
        "modulus": 2,
        "class_index": 1,
        "mapping": list(F.mapping),
        "swapped_pairs": swapped,
    }


def _example_fpn_orders() -> dict:
    return {"orders": {f"{p},{n}": _orders_report(p, n)
                       for p, n in _FPN_CONFIGS}}


def _example_a5_rigidity() -> dict:
    G = named_group("A5")
    normals = abelian_normal_subgroups(G)
    decomps = semidirect_decompositions(G)
    return {
        "group": "A5",
        "abelian_normal_subgroup_orders": [s.order for s in normals],
        "semidirect_decompositions": [
            {"n_order": d.n.order, "q_order": d.q.order} for d in decomps
        ],
    }


_EXAMPLES = {
    "s3-reflection": _example_s3_reflection,
    "s4-bv-swap": _example_s4_bv_swap,
    "fpn-orders": _example_fpn_orders,
    "a5-rigidity": _example_a5_rigidity,
}


def _fixture_path(name: str) -> Path:
    return Path(__file__).resolve().parent / "fixtures" / f"{name}.json"


def _cmd_examples(ns) -> tuple:
    name = ns.name
    if name not in _EXAMPLES:
        known = ", ".join(sorted(_EXAMPLES))
        raise UnknownName(f"unknown example {name!r}; known: {known}")
    payload = _EXAMPLES[name]()
    path = _fixture_path(name)
    notes = ["fixture regenerated by library calls, never hand-edited"]
    if ns.regen:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return {"example": name, "status": "REGENERATED"}, notes, 0
    if not path.exists():
        return (
            {"example": name, "status": "FAIL", "reason": "missing fixture"},
            notes,
            1,
        )
    expected = json.loads(path.read_text())
    if expected == payload:
        return {"example": name, "status": "PASS"}, notes, 0
    return (
        {
            "example": name,
            "status": "FAIL",
            "expected": expected,
            "actual": payload,
        },
        notes,
        1,
    )


# -- argument parsing and dispatch -----------------------------------------


class _LazySubparsers(argparse._SubParsersAction):
    """Subcommands whose parsers are built when argparse selects them, so a
    command line builds the parsers on its own path and no others."""

    def add_lazy(self, name: str, build) -> None:
        """Reserve ``name``; on selection its parser is made as ``add_parser``
        would make it and handed to ``build``."""
        self._name_parser_map[name] = build

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        build = self._name_parser_map.get(name)
        if build is not None and not isinstance(build, argparse.ArgumentParser):
            sub = self._parser_class(prog=f"{self._prog_prefix} {name}")
            build(sub)
            self._name_parser_map[name] = sub
        super().__call__(parser, namespace, values, option_string)


def _build_parser() -> argparse.ArgumentParser:
    """The ``brpic`` parser; a subcommand's arguments are added when argparse
    selects it, so one command line builds two or three parsers, not 18."""
    parser = argparse.ArgumentParser(
        prog="brpic",
        description="Exact center symmetries: tables, cohomology, matrix model.",
    )
    parser.add_argument(
        "--cap",
        type=_positive_int,
        default=None,
        help="order cap for named groups and generated closures",
    )
    parser.add_argument(
        "--modulus",
        type=_positive_int,
        default=None,
        help="cohomology coefficient modulus (default: group exponent)",
    )
    commands = parser.add_subparsers(
        dest="command", required=True, action=_LazySubparsers
    )
    for name in ("chartable", "h2", "center"):
        commands.add_lazy(name, _group_args)
    commands.add_lazy("autoeq", _autoeq_args)
    commands.add_lazy("fpn", _fpn_args)
    commands.add_lazy("examples", _examples_args)
    return parser


def _group_args(sp) -> None:
    sp.add_argument("group")


def _autoeq_args(autoeq) -> None:
    asub = autoeq.add_subparsers(
        dest="autoeq_command", required=True, action=_LazySubparsers
    )

    def v(sp):
        sp.add_argument("group")
        sp.add_argument("--images", required=True)

    def bv(sp):
        sp.add_argument("group")
        sp.add_argument("--class-index", type=int, required=True)
        sp.add_argument("--images", default=None)

    def ev(sp):
        sp.add_argument("group")
        sp.add_argument("--subgroup", required=True)
        sp.add_argument("--class-index", type=int, required=True)
        sp.add_argument("--images", default=None)

    def rprime(sp):
        sp.add_argument("group")
        sp.add_argument("--normal", required=True)
        sp.add_argument("--complement", default=None)

    def generate(sp):
        sp.add_argument("files", nargs="+")

    def verify(sp):
        sp.add_argument("file")

    def bimodule(sp):
        sp.add_argument("kind", choices=["v", "bv", "ev", "rprime"])
        sp.add_argument("group")
        sp.add_argument("--images", default=None)
        sp.add_argument("--class-index", type=int, default=None)
        sp.add_argument("--subgroup", default=None)
        sp.add_argument("--normal", default=None)
        sp.add_argument("--complement", default=None)

    for build in (v, bv, ev, rprime, generate, verify, bimodule):
        asub.add_lazy(build.__name__, build)


def _fpn_args(fpn) -> None:
    fpn.add_argument("p", type=int)
    fpn.add_argument("n", type=_positive_int)
    fsub = fpn.add_subparsers(
        dest="fpn_command", required=True, action=_LazySubparsers
    )

    def orders(sp):
        pass

    def generate(sp):
        sp.add_argument(
            "--which", choices=["V", "BV", "EV", "R", "all"], default="all"
        )

    def bruhat(sp):
        one = sp.add_mutually_exclusive_group()
        one.add_argument("--all", action="store_true")
        one.add_argument("--matrix", default=None)

    for build in (orders, generate, bruhat):
        fsub.add_lazy(build.__name__, build)


def _examples_args(sp) -> None:
    sp.add_argument("name")
    sp.add_argument("--regen", action="store_true")


_HANDLERS = {
    "chartable": _cmd_chartable,
    "h2": _cmd_h2,
    "center": _cmd_center,
    "autoeq": _cmd_autoeq,
    "fpn": _cmd_fpn,
    "examples": _cmd_examples,
}


def dispatch(argv) -> int:
    """Run one command; returns the process exit code.

    Every call builds its own parser and namespace, so its output depends
    only on ``argv``.
    """
    argv = list(argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    start = time.perf_counter()
    try:
        payload, notes, code = _HANDLERS[ns.command](ns)
    except BadArguments as e:
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"error: {e}\n")
        return 2
    except BrpicError as e:
        _emit(
            {
                "command": argv,
                "error": type(e).__name__,
                "message": str(e),
            }
        )
        sys.stderr.write(f"time: {time.perf_counter() - start:.3f}s\n")
        return 1
    report = {
        "command": argv,
        "notes": notes,
        "result": payload,
    }
    _emit(report)
    sys.stderr.write(f"time: {time.perf_counter() - start:.3f}s\n")
    return code


def main() -> int:
    return dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
