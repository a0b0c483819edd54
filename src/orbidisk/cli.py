"""Command line interface.

Commands: validate, box, suborbifold, invariants, potential, verify-p2z3.
Exit codes: 0 success, 1 validation/verification failure, 2 parse error,
3 computation error, 141 stdout closed by its reader (the status a shell
reports for a death by SIGPIPE).  An option value that names nothing in
the fan (a cone number, a box point, a facet) or a negative verify-p2z3
window is a parse error, whether or not the fan passes its checks.
All numbers are printed as exact integers or "p/q" strings, never as
decimals.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .fanfile import FanFile, FanFileError, parse_fan_file
from .mirror import (
    ComputationError,
    DiskGeneratingFunction,
    assemble_potential,
    disk_generating_function,
    extract_invariant,
)
from .oracle import NonRationalCoefficientError, oracle_generating_functions
from .stacky import (
    DiskClassSymbol,
    FanError,
    NotCompleteError,
    PolytopeFacet,
    StackyFan,
    box_elements,
    fan_polytope_facets,
    fan_sequence,
    gorenstein_check,
    is_complete,
    semifano_check,
    validate,
)
from .suborbifold import build_suborbifold

# for build_parser's annotation only: build_parser imports argparse itself,
# so that importing this module (verify_quotient_plane, the formatters) does
# not pay for it
TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_COMPUTE = 3
EXIT_PIPE = 141

# invariant table of the quotient projective plane, n_(a,b) for a, b = 0..6;
# values are exact and serve as golden data for verify-p2z3
GOLDEN_TABLE: dict[tuple[int, int], Fraction] = {}
_GOLDEN_ROWS = {
    0: ["0", "1", "0", "0", "1/648", "0", "0"],
    1: ["0", "0", "-1/18", "0", "0", "-1/29160", "0"],
    2: ["1/6", "0", "0", "1/972", "0", "0", "1/3149280"],
    3: ["0", "-1/162", "0", "0", "-1/104976", "0", "0"],
    4: ["0", "0", "1/11664", "0", "0", "1/18895680", "0"],
    5: ["-1/9720", "0", "0", "-1/1574640", "0", "0", "-1/5101833600"],
    6: ["0", "1/524880", "0", "0", "1/340122240", "0", "0"],
}
for _b, _row in _GOLDEN_ROWS.items():
    for _a, _v in enumerate(_row):
        GOLDEN_TABLE[(_a, _b)] = Fraction(_v)

P2Z3_FILE = FanFile(
    dim=2,
    rays=((-1, -1), (2, -1), (-1, 2)),
    max_cones=((0, 1), (0, 2), (1, 2)),
    extra_vectors="auto-age1",
    basis_p=None,
    normalization_cone=0,
)


def point_key(pt) -> str:
    return ",".join(str(c) for c in pt)


def _parse_class(spec: str, fan: StackyFan) -> DiskClassSymbol:
    kind, _, rest = spec.partition(":")
    if kind == "ray":
        try:
            i = int(rest)
        except ValueError:
            raise FanFileError(f"bad ray index {rest!r}") from None
        if not 0 <= i < fan.n_rays:
            raise FanFileError(f"ray index {i} out of range")
        return DiskClassSymbol.smooth(i)
    if kind == "box":
        try:
            pt = tuple(int(x) for x in rest.split(","))
        except ValueError:
            raise FanFileError(f"bad box point {rest!r}") from None
        if pt not in fan.extra_vectors:
            raise FanFileError(f"box point {pt} is not an extra vector of the fan")
        return DiskClassSymbol.orbi(pt)
    raise FanFileError(f"class must be ray:IDX or box:X,Y (got {spec!r})")


def _parse_order(spec: str) -> Fraction:
    """The --order value: a nonnegative rational, as "n" or "p/q"."""
    try:
        order = Fraction(spec)
    except (ValueError, ZeroDivisionError):
        order = None
    if order is None or order < 0:
        raise FanFileError(f"order must be a nonnegative rational (got {spec!r})")
    return order


def _parse_facet(spec: str | None, fan: StackyFan) -> PolytopeFacet | None:
    """The facet of the fan polytope with the given vertices, or None when
    none is asked for.  An incomplete fan has no fan polytope; its facet is
    left to the commands, which reject the fan."""
    if spec is None:
        return None
    try:
        verts = tuple(sorted(int(x) for x in spec.split(",")))
    except ValueError:
        raise FanFileError(f"bad facet spec {spec!r}") from None
    if not is_complete(fan):
        return None
    for f in fan_polytope_facets(fan):
        if f.vertices == verts:
            return f
    raise FanFileError(f"no facet with vertices {verts}")


def _emit(payload, fmt: str, table_rows=None, header=None):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        # imported here: `import orbidisk.cli` is on every command's set-up
        import csv

        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(header)
        out.writerows(table_rows)
    else:  # markdown
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join(["---"] * len(header)) + "|")
        for row in table_rows:
            print("| " + " | ".join(str(c) for c in row) + " |")


def _fan_checks(fan: StackyFan) -> list[tuple[bool, str]]:
    """The lines `validate` prints, in order, each with whether it passed:
    the axiom failures alone, or the axioms, the box census, the Gorenstein
    test and the semi-Fano test (skipped on an incomplete fan)."""
    rep = validate(fan)
    if not rep.ok:
        return [(False, f"FAIL validation: {issue}") for issue in rep.issues]
    boxes = box_elements(fan)
    ages = ", ".join(str(a) for a in sorted({b.age for b in boxes}))
    age1 = sum(b.age == 1 for b in boxes)
    gor = gorenstein_check(fan)
    lines = [
        (True, "PASS validation"),
        (True, f"PASS box census: {len(boxes) - 1} nontrivial elements, "
               f"{age1} of age 1, ages {{{ages}}}"),
        (True, "PASS gorenstein: all maximal cones carry integral support vectors")
        if gor.ok
        else (False, f"FAIL gorenstein: cone {gor.witness_cone} has no integral support"),
    ]
    if not is_complete(fan):
        return lines + [(True, "SKIP semi-fano: fan is not complete")]
    sf = semifano_check(fan)
    if not sf.ok:
        w = sf.witness_wall
        return lines + [(False, f"FAIL semi-fano: wall {w.wall} has anticanonical "
                                f"degree {w.c1}")]
    flat = [w.wall for w in sf.walls if w.c1 == 0]
    note = f" (walls with zero anticanonical degree: {flat})" if flat else ""
    low = min((w.c1 for w in sf.walls), default=0)
    return lines + [(True, f"PASS semi-fano: minimal wall degree {low}{note}")]


def cmd_validate(args) -> int:
    checks = _fan_checks(parse_fan_file(args.file).resolve_fan())
    for _, line in checks:
        print(line)
    return EXIT_OK if all(passed for passed, _ in checks) else EXIT_VALIDATION


def _fit_for_disk_counting(fan: StackyFan) -> bool:
    """Whether the fan meets the hypothesis of disk counting: every
    `_fan_checks` line passes and the fan is complete.  Otherwise the
    failing lines are printed on stderr."""
    checks = _fan_checks(fan)
    failed = [line for passed, line in checks if not passed]
    # the first line passes exactly when the axioms hold
    if checks[0][0] and not is_complete(fan):
        failed.append(
            "FAIL validation: fan is not complete; disk counting needs a compact orbifold"
        )
    for line in failed:
        print(line, file=sys.stderr)
    return not failed


def cmd_box(args) -> int:
    ff = parse_fan_file(args.file)
    fan = ff.resolve_fan()
    rows = []
    payload = []
    for b in box_elements(fan):
        rows.append(
            (
                point_key(b.point),
                " ".join(str(i) for i in b.carrier),
                " ".join(str(c) for c in b.coords),
                str(b.age),
            )
        )
        payload.append(
            {
                "point": list(b.point),
                "carrier": list(b.carrier),
                "coords": [str(c) for c in b.coords],
                "age": str(b.age),
            }
        )
    _emit(payload, args.format, rows, ("point", "carrier", "coords", "age"))
    return EXIT_OK


def cmd_suborbifold(args) -> int:
    fan = parse_fan_file(args.file).resolve_fan()
    symbol = _parse_class(args.klass, fan)
    sub = build_suborbifold(fan, symbol, _parse_facet(args.facet, fan))
    payload = {
        "facet_vertices": list(sub.facet.vertices),
        "dim": sub.fan.dim,
        "rays": [list(v) for v in sub.fan.stacky_vectors],
        "max_cones": [list(c) for c in sub.fan.max_cones],
        "extra_vectors": [list(v) for v in sub.fan.extra_vectors],
        "support_vector": list(sub.facet.normal),
        "parent_indices": list(sub.parent_index),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _invariant_payload(dgf: DiskGeneratingFunction):
    payload = {
        "class": (
            {"ray": dgf.symbol.ray}
            if dgf.symbol.kind == "ray"
            else {"box": list(dgf.symbol.point)}
        ),
        "facet": list(dgf.facet_vertices),
        "order": str(dgf.order),
        "entries": [],
    }
    rows = []
    for alpha, insertions, value in dgf.invariants():
        payload["entries"].append(
            {
                "alpha": [str(x) for x in alpha],
                "insertions": {point_key(p): m for p, m in sorted(insertions.items())},
                "value": str(value),
            }
        )
        rows.append(
            (
                " ".join(str(x) for x in alpha),
                ";".join(f"{point_key(p)}^{m}" for p, m in sorted(insertions.items()))
                or "-",
                str(value),
            )
        )
    return payload, rows


def cmd_invariants(args) -> int:
    order = _parse_order(args.order)
    fan = parse_fan_file(args.file).resolve_fan()
    # options are parsed against the fan before its checks, so that a bad
    # option is a parse error whatever the fan
    symbol = _parse_class(args.klass, fan)
    facet = _parse_facet(args.facet, fan)
    if not _fit_for_disk_counting(fan):
        return EXIT_VALIDATION
    dgf = disk_generating_function(fan, symbol, order, facet)
    payload, rows = _invariant_payload(dgf)
    _emit(payload, args.format, rows, ("alpha", "insertions", "value"))
    return EXIT_OK


def cmd_potential(args) -> int:
    order = _parse_order(args.order)
    ff = parse_fan_file(args.file)
    fan = ff.resolve_fan()
    cone_number = args.cone if args.cone is not None else ff.normalization_cone or 0
    if not 0 <= cone_number < len(fan.max_cones):
        raise FanFileError(f"no maximal cone number {cone_number}")
    if not _fit_for_disk_counting(fan):
        return EXIT_VALIDATION
    seq = fan_sequence(fan, ff.basis_p)
    data = assemble_potential(fan, cone_number, order, parent_seq=seq)
    entries, sigma0 = data.entries, data.normalization_cone
    payload = {
        "normalization_cone": list(sigma0),
        "order": str(order),
        "entries": [],
    }
    rows = []
    for e in entries:
        terms = []
        for exps, coeff in e.series.terms():
            nq = len(e.area)
            terms.append(
                {
                    "q": [str(x) for x in exps[:nq]],
                    "insertions": {
                        point_key(p): str(x)
                        for p, x in zip(e.tau_points, exps[nq:])
                        if x
                    },
                    "value": str(coeff),
                }
            )
        payload["entries"].append(
            {
                "z": list(e.z_monomial),
                "area": [str(x) for x in e.area],
                "facet": list(e.facet_vertices),
                "series": terms,
            }
        )
        lead = " + ".join(
            f"{t['value']}*q^({','.join(t['q']) or '-'})"
            + (
                "*" + "*".join(f"t[{k}]^{v}" for k, v in t["insertions"].items())
                if t["insertions"]
                else ""
            )
            for t in terms[:4]
        )
        rows.append((point_key(e.z_monomial), " ".join(str(x) for x in e.area), lead))
    _emit(payload, args.format, rows, ("z", "area", "series"))
    return EXIT_OK


def verify_quotient_plane(amax: int, bmax: int, out=print):
    """Three-way table comparison plus the structural observations.

    Returns True when every check passes; prints one line per check.
    """
    checks: list[tuple[str, bool]] = []
    degree = amax + bmax
    fan = P2Z3_FILE.resolve_fan()
    cache: dict = {}
    g112 = disk_generating_function(
        fan, DiskClassSymbol.orbi((0, -1)), degree, pipeline_cache=cache
    )
    g122 = disk_generating_function(
        fan, DiskClassSymbol.orbi((1, -1)), degree, pipeline_cache=cache
    )
    try:
        oracle112, oracle122 = oracle_generating_functions(degree)
        checks.append(("oracle coefficients rational, root product is -1", True))
    except NonRationalCoefficientError as exc:  # pragma: no cover
        checks.append((f"oracle rationality: {exc}", False))
        oracle112, oracle122 = {}, {}

    zero_alpha = (Fraction(0),) * fan.n_vectors

    def pipeline_value(dgf, a, b):
        ins = {}
        if a:
            ins[(0, -1)] = a
        if b:
            ins[(1, -1)] = b
        return extract_invariant(dgf, zero_alpha, ins)

    window = [(a, b) for a in range(amax + 1) for b in range(bmax + 1)]
    pipe_table = {(a, b): pipeline_value(g112, a, b) for a, b in window}
    pipe_transposed = {(a, b): pipeline_value(g122, b, a) for a, b in window}
    ora_table = {
        (a, b): oracle112.get((a, b), Fraction(0)) for a, b in window
    }
    checks.append(
        (
            f"pipeline matches oracle on the {amax + 1}x{bmax + 1} window",
            pipe_table == ora_table,
        )
    )
    golden_window = [k for k in window if k in GOLDEN_TABLE]
    checks.append(
        (
            f"pipeline matches the embedded constants on {len(golden_window)} entries",
            all(pipe_table[k] == GOLDEN_TABLE[k] for k in golden_window),
        )
    )
    checks.append(
        (
            "oracle matches the embedded constants",
            all(ora_table[k] == GOLDEN_TABLE[k] for k in golden_window),
        )
    )
    checks.append(
        (
            "sector exchange symmetry (112 table equals transposed 122 table)",
            pipe_table == pipe_transposed,
        )
    )
    checks.append(
        (
            "oracle generating functions match term by term",
            _series_matches(g112, oracle112, degree)
            and _series_matches(g122, oracle122, degree),
        )
    )
    diag = all(
        pipe_table[(k, k)] == 0 for k in range(min(amax, bmax) + 1)
    )
    checks.append(("diagonal entries vanish", diag))
    # the basic entry (1,0) is the normalization value 1; its reciprocal is
    # an integer but the divisible-by-6 observation concerns the others
    recip = True
    for (a, b), v in pipe_table.items():
        if v == 0:
            continue
        if abs(v.numerator) != 1:
            recip = False
        elif (a, b) != (1, 0) and v.denominator % 6:
            recip = False
    checks.append(("nonzero reciprocals are integers divisible by 6", recip))
    signs = all(
        v == 0 or (v > 0) == (b % 2 == 0) for (a, b), v in pipe_table.items()
    )
    checks.append(("sign alternates with the second insertion count", signs))
    ok = True
    for label, passed in checks:
        out(("PASS " if passed else "FAIL ") + label)
        ok = ok and passed
    return ok


def _series_matches(dgf: DiskGeneratingFunction, table, degree) -> bool:
    got = {}
    for exps, coeff in dgf.series.terms():
        key = tuple(int(e) for e in exps)
        got[key] = coeff
    want = {k: v for k, v in table.items() if sum(k) <= degree and v != 0}
    return got == want


def cmd_verify(args) -> int:
    for option, value in (("--amax", args.amax), ("--bmax", args.bmax)):
        if value < 0:
            raise FanFileError(f"{option} must be nonnegative (got {value})")
    ok = verify_quotient_plane(args.amax, args.bmax)
    return EXIT_OK if ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    import argparse

    ap = argparse.ArgumentParser(
        prog="orbidisk",
        description=(
            "Exact disk invariants and disk potentials of Gorenstein "
            "semi-Fano toric orbifolds"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a fan file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("box", help="list box elements and ages")
    p.add_argument("file")
    p.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
    p.set_defaults(func=cmd_box)

    p = sub.add_parser("suborbifold", help="print the chart of a basic class")
    p.add_argument("file")
    p.add_argument("--class", dest="klass", required=True, metavar="SPEC")
    p.add_argument("--facet", default=None, metavar="I,J,...")
    p.set_defaults(func=cmd_suborbifold)

    p = sub.add_parser("invariants", help="disk invariants of a basic class")
    p.add_argument("file")
    p.add_argument("--class", dest="klass", required=True, metavar="SPEC")
    p.add_argument("--facet", default=None, metavar="I,J,...")
    p.add_argument("--order", default="8", metavar="Q")
    p.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("potential", help="assemble the disk potential")
    p.add_argument("file")
    p.add_argument("--cone", type=int, default=None, metavar="K")
    p.add_argument("--order", default="6", metavar="Q")
    p.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser(
        "verify-p2z3", help="re-derive the quotient-plane invariant table"
    )
    p.add_argument("--amax", type=int, default=6)
    p.add_argument("--bmax", type=int, default=6)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at the null device, so that
        # the interpreter's final flush of what is left cannot raise again
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_PIPE
    except FanFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        code = EXIT_PARSE
    except (FanError, NotCompleteError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except (ComputationError, NonRationalCoefficientError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        code = EXIT_COMPUTE
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
