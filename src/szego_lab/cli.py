"""Command-line front end.

Subcommands: moments, verify, coulomb, cd-check, bs-check, fh-check.
Each one parses its flags, picks its input and prints.  What a check command
prints comes, with every rule and tolerance behind it, as `(body, [(name, ok,
detail), …])` from one library call: :func:`szego_lab.cdkernel.identity_checks`
for ``cd-check``, :mod:`szego_lab.verify` for ``verify``, ``bs-check``, ``fh-check``.
Exit codes: 0 success, 1 invariant failure, 2 input parse or an unusable
path, 3 quadrature, 4 out-of-range or out of memory.  Identical
configurations produce byte-identical output: every random stream is seeded
and floats are printed with 17 significant digits.  ``SZEGO_LAB_GRID_MAX``
caps quadrature grid doubling.
"""

from __future__ import annotations

import argparse
import cmath
import sys

# a subcommand imports the modules that it alone runs inside its cmd_*, so
# each command loads only what it needs
from .errors import (
    InvariantViolation,
    PositivityError,
    QuadratureError,
    SymbolParseError,
)
from .symbol import (
    LaurentSymbol,
    MomentSequence,
    load_symbol,
    moments,
    stored_symbol,
)
from .textio import CSV_SCHEMA, fmt, json_text, records

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PARSE = 2
EXIT_QUADRATURE = 3
EXIT_RANGE = 4


def _coeff_flag_entries(pairs: list[str]):
    """(k, l_k, flag) for each `k=re[,im]` flag, in command-line order."""
    for raw in pairs:
        try:
            key, _, value = raw.partition("=")
            k = int(key)
            parts = value.split(",")
            re = float(parts[0])
            im = float(parts[1]) if len(parts) > 1 else 0.0
            if len(parts) > 2:
                raise ValueError("too many fields")
        except (ValueError, IndexError):
            raise SymbolParseError(f"bad --coeff {raw!r}; expected k=re[,im]") from None
        yield k, complex(re, im), f"--coeff {raw!r}"


def _symbol_from_args(args) -> LaurentSymbol:
    if getattr(args, "symbol", None):
        return load_symbol(args.symbol)
    return stored_symbol(_coeff_flag_entries(getattr(args, "coeff", None) or []))


def _write_output(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_checks(args, body: str, checks: list[tuple[str, bool, str]]) -> int:
    """Write ``body``, then one `# check NAME PASS|FAIL (detail)` line per check
    (no parenthesis for an empty detail); exit 0 only if every check passed."""
    lines = [
        f"# check {name} {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else "")
        for name, ok, detail in checks
    ]
    _write_output(args, body + "\n".join(lines) + "\n")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_INVARIANT


def load_moments_csv(path) -> MomentSequence:
    """Read a moments CSV as written by the moments subcommand."""
    with open(path, "rb") as handle:
        data = handle.read()
    values: dict[int, complex] = {}
    for n, value, lineno in records(data, ",", "expected `n,re,im`", skip=("#", "n,")):
        if not cmath.isfinite(value):
            raise SymbolParseError(f"moment {n} is not finite", lineno=lineno)
        if n < 0 or n in values:
            raise SymbolParseError(f"bad moment index {n}", lineno=lineno)
        values[n] = value
    if 0 not in values or sorted(values) != list(range(len(values))):
        raise SymbolParseError("moment indices must be contiguous from 0")
    return MomentSequence([values[i] for i in range(len(values))])


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_moments(args) -> int:
    s = _symbol_from_args(args)
    m = moments(s, args.nmax)
    values = m.values.tolist()
    if args.format == "json":
        payload = {
            "schema": 1,
            "grid_m": m.quadrature_points,
            "moments": [{"n": k, "re": v.real, "im": v.imag} for k, v in enumerate(values)],
        }
        _write_output(args, json_text(payload))
    else:
        lines = [CSV_SCHEMA, f"# grid_m={m.quadrature_points}", "n,re,im"]
        lines += [f"{k},{fmt(v.real)},{fmt(v.imag)}" for k, v in enumerate(values)]
        _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    if getattr(args, "moments", None):
        report, checks = None, verify.moment_checks(load_moments_csv(args.moments), args.nmax)
    else:
        report, checks = verify.symbol_checks(_symbol_from_args(args), args.nmax)
    if args.format == "csv":
        return _write_checks(args, "" if report is None else report.to_csv(), checks)
    payload = {
        "report": None if report is None else report.to_json_dict(),
        "checks": [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in checks],
    }
    _write_output(args, json_text(payload))
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_INVARIANT


def cmd_coulomb(args) -> int:
    from dataclasses import asdict

    from . import coulomb

    s = _symbol_from_args(args)
    if args.exact:
        estimate = coulomb.exact_Dn(s, args.n)
    else:
        estimate = coulomb.mc_Dn(
            s, args.n, samples=args.samples, seed=args.seed, workers=args.workers
        )
    _write_output(args, json_text(asdict(estimate)))
    return EXIT_OK


def cmd_cd_check(args) -> int:
    from . import cdkernel, opuc

    s = _symbol_from_args(args)
    traj = opuc.trajectory(moments(s, args.nmax + 2), args.nmax + 1)
    return _write_checks(args, *cdkernel.identity_checks(traj, s, args.nmax, args.seed))


def cmd_bs_check(args) -> int:
    from . import verify

    return _write_checks(args, *verify.bs_checks(_symbol_from_args(args), args.nmax))


def cmd_fh_check(args) -> int:
    from . import verify

    s = _symbol_from_args(args)
    return _write_checks(args, *verify.fh_checks(s, args.nmax, args.t, args.h))


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_symbol_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--symbol", help="symbol file (`k re im` lines, k >= 0)")
    parser.add_argument(
        "--coeff",
        action="append",
        metavar="k=re[,im]",
        help="inline coefficient, repeatable; negative k implied by symmetry",
    )
    parser.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szego-lab",
        description="Toeplitz determinant laboratory for analytic log-weights",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="Fourier moments of the weight e^L")
    _add_symbol_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--nmax", type=int, default=10)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("verify", help="determinant limit report and invariant suite")
    _add_symbol_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--moments", help="verify a moments CSV instead of a symbol")
    p.add_argument("--nmax", type=int, default=40)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("coulomb", help="gas-integral estimate of D_n")
    _add_symbol_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="tensor quadrature (n <= 2)")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_coulomb)

    p = sub.add_parser("cd-check", help="reproducing-kernel identity suite")
    _add_symbol_flags(p)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cd_check)

    p = sub.add_parser("bs-check", help="Bernstein–Szegő approximant identities")
    _add_symbol_flags(p)
    p.add_argument("--nmax", type=int, default=5, help="approximation level N")
    p.set_defaults(func=cmd_bs_check)

    p = sub.add_parser("fh-check", help="derivative identity for the family w_t")
    _add_symbol_flags(p)
    p.add_argument("--nmax", type=int, default=3, help="polynomial degree n")
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--h", type=float, default=1e-3)
    p.set_defaults(func=cmd_fh_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SymbolParseError as exc:
        print(f"szego-lab: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, MemoryError) as exc:
        print(f"szego-lab: out of range: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except OSError as exc:
        if exc.filename is None:  # not a --symbol, --moments or --out path
            raise
        print(f"szego-lab: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except QuadratureError as exc:
        print(f"szego-lab: quadrature error: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except (PositivityError, InvariantViolation) as exc:
        print(f"szego-lab: invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
