"""Command-line front end.

Subcommands: validate, genus, harmonic, spectrum, verify, theta.  Every
command reads a curve-spec JSON document and emits a JSON report to
stdout or --out FILE; spectra can additionally be dumped as CSV.  Exit
codes: 0 on success, 1 when a verification check fails, 2 on input
errors, on a mesh or quadrature level over its size budget, or when the
eigensolver cannot certify a result, 3 on any other exception (an
InternalError); with codes 2 and 3, stderr holds one JSON error object
and nothing else, with the messages of any warnings under "warnings".

Reports are byte-deterministic for fixed inputs and seeds; per-check
timings are zeroed unless --timings is given.
"""

from __future__ import annotations

import json
import sys
import traceback
import warnings

import numpy as np

from . import checks as checks_module
from .curve import CurveError, genus, parse_document, validate
from .discrete import AmbiguousKernelError, assemble, build_mesh, kernel, spectrum
from .expressions import ExpressionError
from .harmonic import harmonic_basis
from .metric import KahlerError, KahlerForm
from .quadrature import DivergenceError

__all__ = ["main", "run"]


def _emit_error(kind: str, message: str, caught: list, **extra) -> None:
    if caught:
        extra["warnings"] = [str(w.message) for w in caught]
    payload = {"error": {"kind": kind, "message": message, **extra}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _write_report(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str, strict: bool = True):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    curve, kahler_spec = parse_document(text, strict=strict)
    return curve, kahler_spec


def _bidegree(text: str) -> tuple[int, int]:
    if len(text) != 2 or any(c not in "01" for c in text):
        raise CurveError(f"--bidegree expects two bits like 10, got {text!r}")
    return int(text[0]), int(text[1])


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(prog="trophodge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("curve", help="curve-spec JSON file")
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
        return p

    add("validate", "check the defining conditions of a tropical curve")
    add("genus", "first Betti number of the curve")

    p = add("harmonic", "exact harmonic basis of one bidegree")
    p.add_argument("--bidegree", default="10", help="two bits pq, e.g. 10")

    p = add("spectrum", "smallest eigenvalues of the discretized Laplacian")
    p.add_argument("--bidegree", default="00", help="two bits pq, only 00 or 10")
    p.add_argument("--h", type=float, default=1 / 32, help="mesh step")
    p.add_argument("--k", type=int, default=6, help="number of eigenvalues")
    p.add_argument("--trunc-eps", type=float, default=checks_module.TRUNC_EPS, help="tail truncation threshold")
    p.add_argument("--csv", default=None, help="also write index,eigenvalue,h rows here")

    p = add("verify", "run every verification suite")
    p.add_argument("--h-list", nargs="+", type=float, default=checks_module.H_LIST)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--forms", type=int, default=checks_module.FORM_COUNT,
                   help=f"test forms per family, 1 to {checks_module.MAX_FORM_COUNT}")
    p.add_argument("--timings", action="store_true", help="include wall-clock seconds per check")

    add("theta", "tropical vs annulus integral comparisons")
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # warnings wait for the exit code: with 2 or 3 they go into the error object, the only thing on stderr
    with warnings.catch_warnings(record=True) as caught:
        try:
            with np.errstate(all="ignore"):  # a non-finite value is judged by the checks, not warned about
                code = _dispatch(args)
        except (CurveError, KahlerError, ExpressionError, json.JSONDecodeError, OSError, ValueError) as exc:
            kind = type(exc).__name__
            extra = {}
            if isinstance(exc, json.JSONDecodeError):
                extra = {"line": exc.lineno, "column": exc.colno, "position": exc.pos}
            _emit_error(kind, str(exc), caught, **extra)
            return 2
        except (DivergenceError, AmbiguousKernelError) as exc:
            _emit_error(type(exc).__name__, str(exc), caught)
            return 2
        except Exception as exc:  # a fault of the program, not of the input
            _emit_error("InternalError", f"{type(exc).__name__}: {exc}", caught, traceback=traceback.format_exc())
            return 3
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


def _dispatch(args) -> int:
    if args.command == "validate":
        curve, _ = _load(args.curve, strict=False)
        report = validate(curve)
        _write_report(report.as_dict(), args.out)
        return 0 if report.passed else 2

    curve, kahler_spec = _load(args.curve)

    if args.command == "genus":
        _write_report({"genus": genus(curve)}, args.out)
        return 0

    if args.command == "harmonic":
        g = KahlerForm.validated(curve, kahler_spec)
        basis = harmonic_basis(curve, g, _bidegree(args.bidegree))
        _write_report(basis.as_dict(), args.out)
        return 0

    if args.command == "spectrum":
        g = KahlerForm.validated(curve, kahler_spec)
        mesh = build_mesh(curve, g, args.h, args.trunc_eps)
        system = assemble(mesh, curve, g, _bidegree(args.bidegree))
        result = spectrum(system, args.k)
        doc = result.as_dict()
        doc["h"] = args.h
        doc["bidegree"] = list(_bidegree(args.bidegree))
        _write_report(doc, args.out)
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("index,eigenvalue,h\n")
                for i, lam in enumerate(result.eigenvalues):
                    fh.write(f"{i},{float(lam)!r},{args.h!r}\n")
        return 0

    if args.command == "verify":
        g = KahlerForm.validated(curve, kahler_spec)
        report = checks_module.run_verification(curve, g, args.seed, tuple(args.h_list), args.forms)
        _write_report(report.as_dict(include_timings=args.timings), args.out)
        return 0 if report.passed else 1

    if args.command == "theta":
        report = checks_module.check_theta_correspondence()
        _write_report(report.as_dict(), args.out)
        return 0 if report.passed else 1

    raise CurveError(f"unknown command {args.command!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
