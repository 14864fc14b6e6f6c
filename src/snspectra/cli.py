"""Command line driver.

Subcommands:

- ``verify``: run theorem verification cases and emit a report.
- ``spectrum``: spectrum of one Cayley graph.
- ``quotient``: closed-form quotient matrix and its exact eigenvalues.
- ``character``: exact character values / table export.
- ``enumerate``: list a connecting set in cycle notation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import characters, equitable, permutations, verify
from .diagrams import parse_diagram
from .permutations import parse_spec


def _parse_range(text: str) -> list[int]:
    """'7' -> [7]; '5-8' -> [5, 6, 7, 8]."""
    try:
        if "-" in text:
            lo, hi = text.split("-", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(text)]
    except ValueError:
        raise ValueError(f"bad range {text!r}: expected N or LO-HI") from None


def _cmd_verify(args: argparse.Namespace) -> int:
    n_values = _parse_range(args.n)
    r_values = _parse_range(args.r) if args.r else None
    outcomes = verify.run_cases(args.theorem, n_values, r_values, args.method)
    if args.format == "json":
        print(verify.to_json(outcomes))
    elif args.format == "csv":
        print(verify.to_csv(outcomes), end="")
    else:
        print(verify.to_text(outcomes))
    return verify.exit_code(outcomes)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    spec = parse_spec(args.set)
    if args.n != spec.n:
        raise ValueError(f"--n {args.n} disagrees with {spec}, a set of degree {spec.n}")
    kind = "symmetric" if args.group == "S" else "alternating"
    report = verify.spectrum(spec, kind, args.method)
    payload = {
        "group": args.group,
        "n": spec.n,
        "set": str(spec),
        "method": report.method,
        "lambda1": report.lambda1,
        "lambda2": report.lambda2,
        "eigenvalues": report.eigenvalues,
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_quotient(args: argparse.Namespace) -> int:
    # The set cap on |H| bounds the work: the roots cost grows with the bits of
    # |H|, and the matrix holds (k-1)!, so it is checked before the build.
    equitable.check_quotient_parameters(args.n, args.k, args.r)
    permutations.check_set_cap(permutations.prefix_moving_cycles(args.n, args.k, args.r))
    fn = equitable.quotient_B1 if args.which == "B1" else equitable.quotient_B2
    matrix = fn(args.n, args.k, args.r)
    values = equitable.quotient_eigenvalues(matrix)
    payload = {"which": args.which, "matrix": matrix, "eigenvalues": values}
    if args.csv:
        equitable.export_quotient_csv(matrix, ["V1", "V2", "V3"], args.csv)
        payload["csv"] = args.csv
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_character(args: argparse.Namespace) -> int:
    if args.csv is not None and (args.diagram, args.klass) != (None, None):
        raise ValueError("--csv writes the whole table, so it takes no --diagram or --class")
    if (args.diagram is None) != (args.klass is None):
        raise ValueError("--diagram and --class go together: one value needs both")
    if args.diagram is not None:
        shape = parse_diagram(args.diagram)
        ctype = parse_diagram(args.klass)
        for text, size in ((args.diagram, sum(shape)), (args.klass, sum(ctype))):
            if size != args.n:
                raise ValueError(f"--n {args.n} disagrees with {text}, which sums to {size}")
        value = characters.mn_character(shape, ctype)
        print(json.dumps({"diagram": args.diagram, "class": args.klass, "value": value}))
    elif args.csv:
        characters.export_character_table_csv(args.n, args.csv)
        print(json.dumps({"n": args.n, "csv": args.csv}))
    else:
        sys.stdout.write(characters.character_table_csv(args.n))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    """Print each element of H one line, as its cycle "(a,b,c)", in the
    order of the elements' image tuples."""
    spec = parse_spec(args.set)
    lines = []
    for cycle in permutations.connecting_cycles(spec):
        images = list(range(1, spec.n + 1))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b
        lines.append((images, "(" + ",".join(map(str, cycle)) + ")"))
    assert len(lines) == spec.cardinality()
    for _, text in sorted(lines):
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="snspectra")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run theorem verification cases")
    p.add_argument("--theorem", required=True, choices=verify.THEOREMS)
    p.add_argument("--n", required=True, help="degree or range, e.g. 6 or 5-8")
    p.add_argument("--r", help="prefix length or range where applicable")
    p.add_argument("--method", default="auto", choices=verify.METHODS)
    p.add_argument("--format", default="text", choices=("json", "csv", "text"))
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("spectrum", help="spectrum of one Cayley graph")
    p.add_argument("--group", required=True, choices=("S", "A"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, help='connecting set, e.g. "C(6,3;2)"')
    p.add_argument("--method", default="dense", choices=("auto", "dense", "irrep", "char"))
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("quotient", help="closed-form quotient matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--which", required=True, choices=("B1", "B2"))
    p.add_argument("--csv", help="also write the matrix as CSV to this path")
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("character", help="exact character values")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--diagram", help='e.g. "[4,2,1]"')
    p.add_argument("--class", dest="klass", help='cycle type, e.g. "[3,3,1]"')
    p.add_argument("--csv", help="write the full table as CSV to this path")
    p.set_defaults(fn=_cmd_character)

    p = sub.add_parser("enumerate", help="list a connecting set")
    p.add_argument("--set", required=True, help='e.g. "C(5,3;2)"')
    p.set_defaults(fn=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; exit code 1 for a failed verification, 2 for bad
    input, a refused size or an output file that cannot be written."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, permutations.CapExceededError, OSError) as exc:
        print(f"snspectra {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
