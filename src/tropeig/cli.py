"""Command-line interface.

Subcommands: analyze, catalog, verify, example, jordan.  Exit codes:

    0  success
    1  malformed input / usage error
    2  analysis undetermined (a valuation exceeded its truncation order)
    3  braid loop failed (too coarse or crossing a degeneracy)
    4  numerical rank ambiguity in Jordan detection
    5  a catalog family disagreed with its stored expectation, or the seed
       drew no direction that realizes one
    6  numeric check failed (scaled-root check or braid cycles disagree with
       the prediction, or a root iteration did not converge)

Output is deterministic byte-for-byte for fixed input, seed, and version.
Each command imports the layers it runs, so `tropeig --version` loads none.
The shape of every JSON document read or written here is `serialize`'s.
"""

from __future__ import annotations

import argparse
import sys

from . import (BRAID_EPS0, BRAID_HALVINGS, BRAID_STEPS, CHECK_DECADES, DEFAULT_SEED,
               GRID_PHASE, GRID_T0, MATCH_TOL, WEYR_TOL, __version__)

OK, USAGE, UNDETERMINED, LOOP_FAILED, RANK_AMBIGUOUS, MISMATCH, CHECK_FAILED = range(7)


class _Failed(Exception):
    """Fails a command: main writes `error: <args[0]>` and returns args[1]."""


def _emit(text: str, output, files=()):
    """Write text to the path output, or to stdout if it is None, and each
    (text, path) pair of files.  Every file is opened before anything is
    written, so a path that cannot be written fails the command with nothing
    on stdout."""
    targets = [(text, output)] if output else []
    opened = []
    try:
        for body, path in [*targets, *files]:
            try:
                opened.append((body, open(path, "w")))
            except OSError as exc:  # no such directory, a directory, no permission, ...
                raise ValueError(f"{path}: {exc.strerror}") from None
        if not output:
            sys.stdout.write(text)
        for body, f in opened:
            f.write(body)
    finally:
        for _, f in opened:
            f.close()


def _load_json(path: str):
    import json
    from .serialize import ParseError
    try:
        with open(path, "rb") as f:  # json.loads detects UTF-8, -16 or -32
            return json.loads(f.read())
    except FileNotFoundError:
        raise ParseError(path, "file not found")
    except OSError as exc:  # a directory, no permission, ...
        raise ParseError(path, exc.strerror)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg)
    except ValueError as exc:  # not UTF-8, or an integer longer than int(str) reads
        raise ParseError(path, str(exc))


def _provenance(seed=None, **tolerances):
    out = {"tool": "tropeig", "version": __version__}
    if seed is not None:
        out["seed"] = seed
    if tolerances:
        out["tolerances"] = tolerances
    return out


def _parse_param(item: str):
    from fractions import Fraction
    from .serialize import ParseError, check_exponent
    if "=" not in item:
        raise ParseError("--param", f"expected key=value, got {item!r}")
    key, raw = item.split("=", 1)
    check_exponent(raw, "--param")
    for conv in (int, Fraction):
        try:
            return key, conv(raw)
        except ValueError:
            continue
        except ZeroDivisionError:
            raise ParseError("--param", f"zero denominator in {item!r}") from None
    return key, raw


def _example(name: str, args, flag: str):
    """The built-in family `name` with the --param values of `args`."""
    from .models import build_example, example_names
    from .serialize import ParseError
    if name not in example_names():
        raise ParseError(flag, f"unknown example {name!r}; choose from "
                               f"{', '.join(example_names())}")
    return build_example(name, **dict(_parse_param(p) for p in args.param or []))


# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    from .serialize import (charpoly_from_json, dumps, polygon_to_json, polymatrix_from_json,
                            report_to_json, tropical_to_json)
    from .tropical import newton_polygon, tropical_roots, tropicalize
    if args.matrix is not None:
        from .charpoly import charpoly_direct
        cp = charpoly_direct(polymatrix_from_json(_load_json(args.matrix)))
    else:
        cp = charpoly_from_json(_load_json(args.charpoly))
    poly = tropicalize(cp)
    polygon = newton_polygon(cp)
    report = tropical_roots(polygon)
    body = {"splitting": report_to_json(report),
            "tropical": tropical_to_json(poly),
            "polygon": polygon_to_json(polygon),
            "provenance": _provenance()}
    plots = []  # rendered before anything is written
    if args.emit_tropical_plot or args.emit_svg or args.emit_polygon_svg:
        from .plots import polygon_svg, tropical_csv, tropical_svg
        for path, render, data in ((args.emit_tropical_plot, tropical_csv, poly),
                                   (args.emit_svg, tropical_svg, poly),
                                   (args.emit_polygon_svg, polygon_svg, polygon)):
            if path:
                plots.append((render(data), path))
    _emit(dumps(body), args.output, plots)
    return UNDETERMINED if report.undetermined else OK


def _catalog(n: int, seed: int):
    """The catalog's families of size n, drawn as they are iterated; a family
    that no direction the seed draws realizes fails the command with exit 5."""
    from .jordan import RealizationError, _draw_catalog
    try:
        yield from _draw_catalog(n, seed)
    except RealizationError as exc:
        raise _Failed(exc, MISMATCH) from None


def cmd_catalog(args) -> int:
    from .serialize import dumps, family_to_json, report_to_json
    from .tropical import tropical_roots
    families = [fam for n in ([args.n] if args.n else (2, 3, 4))
                for fam in _catalog(n, args.seed)]
    rows = []
    mismatch = False
    for fam in families:
        computed = tropical_roots(fam.charpoly)
        agree = computed == fam.expected
        mismatch |= not agree
        rows.append((fam, computed, agree))
    if args.format == "json":
        body = [dict(family_to_json(f), computed=report_to_json(c), agrees=a)
                for f, c, a in rows]
        _emit(dumps({"catalog": body, "provenance": _provenance(seed=args.seed)}),
              args.output)
    else:
        lines = [f"{'partition':<12}{'constraint':<18}{'roots (omega x mult)':<34}"
                 f"{'zero':<6}{'check':<6}"]
        for fam, computed, agree in rows:
            p = fam.parameters
            label = ("* " if p["generic"] else "  ") + ",".join(map(str, p["partition"]))
            roots = " ".join(f"[{r.omega},{r.multiplicity}]" for r in computed.roots) or "-"
            lines.append(f"{label:<12}{p['constraint']:<18}{roots:<34}"
                         f"{computed.zero_root_count:<6}{'ok' if agree else 'MISMATCH':<6}")
        lines.append("(* marks the generic direction of each structure)")
        _emit("\n".join(lines) + "\n", args.output)
    return MISMATCH if mismatch else OK


def _resolve_family(args):
    from .serialize import ParseError, family_document_from_json
    if args.example is not None:
        return _example(args.example, args, "--example")
    if args.param:
        raise ParseError("--param", "only --example reads --param")
    if args.jordan is not None:
        from .jordan import _CATALOG_SPECS, validate_partition
        try:
            partition = validate_partition([int(x) for x in args.jordan.split(",")])
        except ValueError as exc:
            raise ParseError("--jordan", f"expected a partition such as 2,1 ({exc})") from None
        n = sum(partition)
        if n not in _CATALOG_SPECS:
            raise ParseError("--jordan",
                             f"the catalog covers partitions of 2, 3 and 4, not of {n}")
        for fam in _catalog(n, args.seed):
            if (fam.parameters["partition"] == partition
                    and fam.parameters["constraint"] == args.constraint):
                return fam
        raise ParseError("--constraint",
                         f"no family '{args.constraint}' for partition {partition}")
    name, realization, expected = family_document_from_json(_load_json(args.file))
    from .charpoly import PolyMatrix, charpoly_direct
    from .tropical import Family, tropical_roots
    cp = charpoly_direct(realization) if isinstance(realization, PolyMatrix) else realization
    # file families may omit the expectation; derive it from the input
    return Family(args.file if name is None else name, realization,
                  tropical_roots(cp) if expected is None else expected, known_charpoly=cp)


def cmd_verify(args) -> int:
    from .numeric import (LoopDegeneracyError, NonConvergenceError, UndeterminedError,
                          _check_braid_arguments, _check_fit_arguments, braid_loop,
                          fit_exponents)
    from .serialize import braid_to_json, dumps, report_to_json, verification_to_json
    # usage errors win over an unrealized family and an undetermined prediction
    _check_fit_arguments(args.t0, args.phase, args.tol)
    if args.braid:
        _check_braid_arguments(args.eps0, args.steps)
    family = _resolve_family(args)
    tolerances = {"match_tol": args.tol, "t0": args.t0, "phase": args.phase}
    if args.braid:
        tolerances.update(eps0=args.eps0, steps=args.steps)
    body = {"family": family.name,
            "expected": report_to_json(family.expected),
            "provenance": _provenance(seed=args.seed, **tolerances)}
    try:
        result = fit_exponents(family, args.t0, args.phase, args.tol)
        body["verification"] = verification_to_json(result)
        status = OK if result.passed else CHECK_FAILED
        if args.braid:
            braid = braid_loop(family, eps0=args.eps0, steps=args.steps)
            body["braid"] = braid_to_json(braid)
            predicted = family.expected.predicted_cycle_lengths()
            if predicted is not None:
                body["braid"]["predicted_cycle_lengths"] = list(predicted)
                if tuple(predicted) != braid.cycle_lengths:
                    status = CHECK_FAILED
    except UndeterminedError:  # an undetermined charpoly or prediction: nothing is checked
        status = UNDETERMINED
    except NonConvergenceError as exc:
        raise _Failed(exc, CHECK_FAILED) from None
    except LoopDegeneracyError as exc:
        body["braid"] = {"error": str(exc)}
        status = LOOP_FAILED
    _emit(dumps(body), args.output)
    return status


def cmd_example(args) -> int:
    from .serialize import dumps, family_document_to_json
    family = _example(args.name, args, "name")
    _emit(dumps(dict(family_document_to_json(family), provenance=_provenance())),
          args.output)
    return OK


def _parse_complex(s: str) -> complex:
    from .serialize import ParseError
    try:
        return complex(*map(float, s.split(","))) if "," in s else complex(s)
    except (TypeError, ValueError):  # not a number, or more than two parts
        raise ParseError("--eigenvalue", f"expected RE[,IM], got {s!r}") from None


def cmd_jordan(args) -> int:
    from .serialize import dumps, jordan_structure_to_json, numeric_matrix_from_json
    from .weyr import WeyrAmbiguityError, weyr_structure
    matrix = numeric_matrix_from_json(_load_json(args.matrix))
    lam = _parse_complex(args.eigenvalue)
    try:
        structure = weyr_structure(matrix, lam, tol=args.tol)
    except WeyrAmbiguityError as exc:
        _emit(dumps({"error": str(exc), "singular_value_gaps": list(exc.gaps)}),
              args.output)
        return RANK_AMBIGUOUS
    _emit(dumps({**jordan_structure_to_json(structure),
                 "provenance": _provenance(tol=args.tol)}), args.output)
    return OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit USAGE: argparse's own 2 means "undetermined" here
        self.print_usage(sys.stderr)
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tropeig",
        description="Exact Newton-polygon / tropical classification of "
                    "eigenvalue splitting at non-Hermitian degeneracies")
    parser.add_argument("--version", action="version", version=f"tropeig {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="splitting report for a matrix or charpoly")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help="PolyMatrix JSON file")
    src.add_argument("--charpoly", help="CharPoly JSON file")
    p.add_argument("--output", "-o")
    p.add_argument("--emit-tropical-plot", metavar="CSV")
    p.add_argument("--emit-svg", metavar="SVG")
    p.add_argument("--emit-polygon-svg", metavar="SVG")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("catalog", help="perturbation families of Jordan structures")
    p.add_argument("n", nargs="?", type=int, choices=(2, 3, 4))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify", help="numerically verify predicted exponents")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--example")
    src.add_argument("--jordan", metavar="PARTITION", help="e.g. '4' or '2,1'")
    src.add_argument("--file", help="family JSON with matrix/charpoly and expected")
    p.add_argument("--constraint", default="generic")
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--t0", type=float, default=GRID_T0,
                   help="first |t| of the check; the second lies "
                        f"{CHECK_DECADES} decades below")
    p.add_argument("--phase", type=float, default=GRID_PHASE)
    p.add_argument("--tol", type=float, default=MATCH_TOL, help="exponent match tolerance")
    p.add_argument("--braid", action="store_true")
    p.add_argument("--eps0", type=float, default=BRAID_EPS0, help="braid loop radius")
    p.add_argument("--steps", type=int, default=BRAID_STEPS,
                   help="braid steps are sized from root velocity; the shortest "
                        f"allowed is 2*pi/(STEPS*2^{BRAID_HALVINGS})")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("example", help="dump a built-in model family as JSON")
    p.add_argument("name")
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("jordan", help="numerical Jordan structure via rank decay")
    p.add_argument("--matrix", required=True, help="numeric matrix JSON")
    p.add_argument("--eigenvalue", required=True, metavar="RE[,IM]")
    p.add_argument("--tol", type=float, default=WEYR_TOL)
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_jordan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Failed as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return exc.args[1]
    except (ValueError, TypeError) as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
