"""z2mem: deterministic CSV front end for the chain-coherence numerics.

Every command writes '#'-prefixed header comments (version, canonical
flags, unit conventions) followed by one CSV table.  Output is
byte-identical across runs with the same flags: floats are printed with 17
significant digits.  Each command makes one library call, fits the header
line where it has one, and formats the rows; the library checks every
size.

Exit codes: 0 success / 1 usage, domain, failed check, or unwritable
output / 2 no convergence: a solver out of budget, a field past the
rounding floor, a LAPACK failure (block solve, Gaussian det, Ritz step) or
a block eigh residual within that eigh's own rounding / 3 request exceeds a
hard capability limit.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from . import __version__
from .eigensolve import adiabatic_time_estimate, gap_scan
from .errors import (
    CapabilityError,
    ContractError,
    ConvergenceError,
    DomainError,
)
from .macroscopicity import (
    fit_exponential_gap,
    fit_index_p,
    largest_eigenvalue_scan,
    second_eigenvalue_scan,
    state_mz_distribution,
    superposed_e1_scan,
)
from .model import stabilizer_scan
from .rvb import identity_report
from .thermal import (
    DEFAULT_KT_MAX,
    DEFAULT_KT_MIN,
    DEFAULT_KT_POINTS,
    default_kt_grid,
    thermal_scan,
)

# not called here: z2bench/test_selftest.py reads cli.build_vcm to check that
# its tracer restores every binding it patched
from .macroscopicity import build_vcm  # noqa: F401


def _f(x: float) -> str:
    """17 significant digits: enough to round-trip any float64."""
    return format(float(x), ".17g")


def _flag(x: float) -> str:
    """Shortest round-trip form, for echoing flag values in headers."""
    return repr(float(x))


def _emit(path: str, comments: list[str], header: list[str], rows) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _echo(value) -> str:
    """A parsed flag value as the header prints it."""
    if isinstance(value, list):
        return ",".join(_flag(v) for v in value)
    return _flag(value) if isinstance(value, float) else str(value)


def _comments(
    args: argparse.Namespace, extra: list[str] | None = None
) -> list[str]:
    """Header comments; the command line echoes every flag of the command
    but --out, parsed, in declaration order."""
    words = [args.command]
    for action in args.echoed:
        words += [action.option_strings[0], _echo(getattr(args, action.dest))]
    out = [
        f"z2mem {__version__}",
        f"command: {' '.join(words)}",
        "conventions: J=1; e1 raw (unrescaled); floats .17g",
    ]
    if extra:
        out.extend(extra)
    return out


def _parse_lambdas(text: str) -> list[float]:
    """The --lambdas type: floats, comma separated; the library checks the
    list."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from exc


def _cmd_scan_e1(args) -> int:
    lams = args.lambdas
    results = largest_eigenvalue_scan(lams, range(args.n_min, args.n_max + 1))
    extra = []
    for lam in lams:
        points = [(n, e1) for lam2, n, e1 in results if lam2 == lam]
        if len(points) >= 3:
            fit = fit_index_p(points)
            extra.append(
                f"fit lambda={_f(lam)} p={_f(1.0 + fit.slope)}"
                f" r_squared={_f(fit.r_squared)}"
            )
    rows = [(_f(lam), str(n), _f(e1)) for lam, n, e1 in results]
    _emit(args.out, _comments(args, extra), ["lambda", "n", "e1"], rows)
    return 0


def _cmd_pz(args) -> int:
    dist = state_mz_distribution(args.lam, args.n, args.state)
    rows = [
        (str(int(mz)), _f(p))
        for mz, p in zip(dist.support, dist.probabilities)
    ]
    _emit(args.out, _comments(args), ["mz", "probability"], rows)
    return 0


def _emit_size_scan(args, results, column: str) -> int:
    """(N, value) rows of a one-field scan as lambda,n,column, with the
    power-law fit in the header from 3 points on."""
    extra = []
    if len(results) >= 3:
        fit = fit_index_p(results)
        extra.append(f"fit slope={_f(fit.slope)} r_squared={_f(fit.r_squared)}")
    rows = [(_f(args.lam), str(n), _f(value)) for n, value in results]
    _emit(args.out, _comments(args, extra), ["lambda", "n", column], rows)
    return 0


def _cmd_e2(args) -> int:
    results = second_eigenvalue_scan(args.lam, range(args.n_min, args.n_max + 1))
    return _emit_size_scan(args, results, "e2")


def _cmd_gap(args) -> int:
    gaps = gap_scan(args.lam, args.n_min, args.n_max)
    times = dict(adiabatic_time_estimate(gaps))
    extra = []
    if len(gaps) >= 3:
        fit = fit_exponential_gap(gaps)
        extra.append(
            f"fit slope={_f(fit.slope)} intercept={_f(fit.intercept)}"
            f" r_squared={_f(fit.r_squared)}"
        )
    rows = [(str(n), _f(g), _f(times[n])) for n, g in gaps]
    _emit(args.out, _comments(args, extra), ["n", "gap", "adiabatic_time"], rows)
    return 0


def _cmd_superpose(args) -> int:
    results = superposed_e1_scan(args.lam, range(args.n_min, args.n_max + 1))
    return _emit_size_scan(args, results, "e1")


def _cmd_thermal(args) -> int:
    grid = default_kt_grid(args.kt_min, args.kt_max, args.kt_points)
    results = thermal_scan(args.lam, args.n, grid)
    rows = [(_f(kt), _f(e1)) for kt, e1 in results]
    _emit(args.out, _comments(args), ["kt", "e1"], rows)
    return 0


def _cmd_rvb(args) -> int:
    checks = identity_report(args.n)
    rows = [
        (name, _f(value), threshold, "pass" if ok else "fail")
        for name, value, threshold, ok in checks
    ]
    _emit(args.out, _comments(args), ["check", "observed", "threshold", "status"], rows)
    return 0 if all(ok for _, _, _, ok in checks) else 1


def _cmd_stabilizer(args) -> int:
    reports = stabilizer_scan(range(args.n_min, args.n_max + 1))
    rows = [
        (
            str(report.n_sites),
            str(report.code_dimension),
            _f(report.product_identity_residual),
            *(_f(r) for r in report.logical_commutation_residuals),
            "pass" if report.passed else "fail",
        )
        for report in reports
    ]
    header = [
        "n",
        "code_dimension",
        "product_identity_residual",
        "flip_commutation_residual",
        "phase_commutation_residual",
        "logical_anticommutator_residual",
        "status",
    ]
    _emit(args.out, _comments(args), header, rows)
    return 0 if all(report.passed for report in reports) else 1


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The z2mem parser, built once per process: parse_args leaves it
    unchanged, and each handler looks its library call up when it runs."""
    parser = _Parser(prog="z2mem", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_command(name: str, help_text: str, handler, *flags) -> None:
        """A subcommand with --out and ``flags``, (flag, add_argument
        keywords) pairs: the header echoes these, in this order."""
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument("--out", default="-", help="output path, '-' for stdout")
        echoed = [sp.add_argument(flag, **kw) for flag, kw in flags]
        sp.set_defaults(handler=handler, echoed=echoed)

    def n(default: int):
        return ("--n", dict(type=int, default=default))

    def n_range(n_min: int, n_max: int):
        return (
            ("--n-min", dict(type=int, default=n_min)),
            ("--n-max", dict(type=int, default=n_max)),
        )

    lam = ("--lambda", dict(dest="lam", type=float, default=0.5))

    add_command(
        "scan-e1", "largest correlation eigenvalue across chain sizes",
        _cmd_scan_e1, *n_range(6, 13),
        ("--lambdas", dict(
            type=_parse_lambdas, default="0.5,1.0,1.5", help="comma list of fields"
        )),
    )
    add_command(
        "pz", "total z magnetization distribution of one state", _cmd_pz,
        n(13), lam,
        ("--state", dict(
            choices=("ground", "excited", "superposed"), default="ground"
        )),
    )
    add_command(
        "e2", "second correlation eigenvalue across chain sizes", _cmd_e2,
        *n_range(6, 13), lam,
    )
    add_command(
        "gap", "doublet splitting, exponential fit, adiabatic times", _cmd_gap,
        *n_range(4, 13), lam,
    )
    add_command(
        "superpose", "e1 of the one-branch doublet combination", _cmd_superpose,
        *n_range(6, 13), lam,
    )
    add_command(
        "thermal", "largest commutator-Gram eigenvalue vs temperature", _cmd_thermal,
        n(8), lam,
        ("--kt-min", dict(type=float, default=DEFAULT_KT_MIN)),
        ("--kt-max", dict(type=float, default=DEFAULT_KT_MAX)),
        ("--kt-points", dict(type=int, default=DEFAULT_KT_POINTS)),
    )
    add_command(
        "rvb", "valence-bond identity checks, exit 0 iff all pass", _cmd_rvb, n(8)
    )
    add_command(
        "stabilizer", "bond-stabilizer algebra report", _cmd_stabilizer,
        *n_range(3, 10),
    )

    return parser


_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_fields(argv: list[str]) -> list[str]:
    """argparse reads a token that starts with '-' as a flag unless it is a
    plain decimal number, so a field such as ``--lambda -1e-08`` or a list
    such as ``--lambdas -0.7,0.5`` is joined to its flag as
    ``--lambdas=-0.7,0.5``."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--lambda", "--lambdas") and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_negative_fields(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    try:
        return args.handler(args)
    except (DomainError, ContractError, OSError) as exc:
        print(f"z2mem: error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"z2mem: convergence failure: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"z2mem: capability limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
