"""z2mem: deterministic CSV front end for the chain-coherence numerics.

Every command writes '#'-prefixed header comments (version, canonical
flags, unit conventions) followed by one CSV table.  Output is
byte-identical across runs with the same flags: floats are printed with 17
significant digits.

Exit codes: 0 success / 1 usage, domain, failed check, or unwritable
output / 2 iteration did not converge / 3 request exceeds a hard capability
limit.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import __version__
from .eigensolve import (
    SCAN_MAX_SITES,
    adiabatic_time_estimate,
    gap_scan,
    lowest_eigenpairs,
    superposed_state,
)
from .errors import (
    CapabilityError,
    ContractError,
    ConvergenceError,
    DomainError,
)
from .macroscopicity import (
    build_vcm,
    fit_exponential_gap,
    fit_index_p,
    mz_distribution,
    second_eigenvalue_scan,
)
from .model import MIN_SITES, STABILIZER_MAX_SITES, build_tfim, stabilizer_check
from .pauli import AdditiveOperator, PauliAxis
from .rvb import (
    CORRELATION_MAX_SITES,
    PairCovering,
    build_rvb,
    build_vb,
    connected_correlation_scan,
    iterated_swap_residual,
    singlet_projector_apply,
    t_operator_apply,
    t_operator_moments,
)
from .thermal import default_kt_grid, thermal_scan

import numpy as np


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


def _check_n_range(
    n_min: int, n_max: int | None = None, hi: int = SCAN_MAX_SITES
) -> None:
    """Bounds of --n-min/--n-max, or of --n alone when n_max is None."""
    if n_max is None:
        if not MIN_SITES <= n_min <= hi:
            raise DomainError(f"need {MIN_SITES} <= n <= {hi}, got {n_min}")
    elif not MIN_SITES <= n_min <= n_max <= hi:
        raise DomainError(
            f"need {MIN_SITES} <= n-min <= n-max <= {hi},"
            f" got {n_min}..{n_max}"
        )


def _parse_lambdas(text: str) -> list[float]:
    """The --lambdas type: distinct floats, comma separated."""
    try:
        lams = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from exc
    if not lams:
        raise argparse.ArgumentTypeError("must name at least one field value")
    for i, lam in enumerate(lams):
        if lam in lams[:i]:
            raise argparse.ArgumentTypeError(
                f"names the field value {_flag(lam)} twice"
            )
    return lams


def _ground(n: int, lam: float):
    return lowest_eigenpairs(build_tfim(n, lam), 1).eigenvectors[0]


def _cmd_scan_e1(args) -> int:
    lams = args.lambdas
    _check_n_range(args.n_min, args.n_max)
    results = sorted(
        (lam, n, build_vcm(_ground(n, lam)).e1)
        for lam in lams
        for n in range(args.n_min, args.n_max + 1)
    )
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
    _check_n_range(args.n)
    h = build_tfim(args.n, args.lam)
    if args.state == "ground":
        vec = lowest_eigenpairs(h, 1).eigenvectors[0]
    else:
        pairs = lowest_eigenpairs(h, 2)
        if args.state == "excited":
            vec = pairs.eigenvectors[1]
        else:
            vec = superposed_state(pairs.eigenvectors[0], pairs.eigenvectors[1])
    dist = mz_distribution(vec)
    rows = [
        (str(int(mz)), _f(p))
        for mz, p in zip(dist.support, dist.probabilities)
    ]
    _emit(args.out, _comments(args), ["mz", "probability"], rows)
    return 0


def _cmd_e2(args) -> int:
    _check_n_range(args.n_min, args.n_max)
    results = second_eigenvalue_scan(args.lam, range(args.n_min, args.n_max + 1))
    extra = []
    if len(results) >= 3:
        fit = fit_index_p(results)
        extra.append(f"fit slope={_f(fit.slope)} r_squared={_f(fit.r_squared)}")
    rows = [(_f(args.lam), str(n), _f(e2)) for n, e2 in results]
    _emit(args.out, _comments(args, extra), ["lambda", "n", "e2"], rows)
    return 0


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
    _check_n_range(args.n_min, args.n_max)
    results = []
    for n in range(args.n_min, args.n_max + 1):
        pairs = lowest_eigenpairs(build_tfim(n, args.lam), 2)
        combo = superposed_state(pairs.eigenvectors[0], pairs.eigenvectors[1])
        results.append((n, build_vcm(combo).e1))
    extra = []
    if len(results) >= 3:
        fit = fit_index_p(results)
        extra.append(f"fit slope={_f(fit.slope)} r_squared={_f(fit.r_squared)}")
    rows = [(_f(args.lam), str(n), _f(e1)) for n, e1 in results]
    _emit(args.out, _comments(args, extra), ["lambda", "n", "e1"], rows)
    return 0


def _cmd_thermal(args) -> int:
    grid = default_kt_grid(args.kt_min, args.kt_max, args.kt_points)
    results = thermal_scan(args.lam, args.n, grid)
    rows = [(_f(kt), _f(e1)) for kt, e1 in results]
    _emit(args.out, _comments(args), ["kt", "e1"], rows)
    return 0


def _cmd_rvb(args) -> int:
    n = args.n
    psi = build_rvb(n)
    v1 = build_vb(PairCovering.odd_bonds(n))
    v2 = build_vb(PairCovering.even_bonds(n))
    checks: list[tuple[str, float, str, bool]] = []

    def add(name: str, observed: float, threshold: str, ok: bool) -> None:
        checks.append((name, float(observed), threshold, bool(ok)))

    norm_dev = abs(psi.norm() - 1.0)
    add("norm_deviation", norm_dev, "<=1e-12", norm_dev <= 1e-12)

    overlap_err = abs(complex(v2.inner(v1)).real - (-0.5) ** (n // 2 - 1))
    add("covering_overlap_error", overlap_err, "<=1e-12", overlap_err <= 1e-12)

    swapped = singlet_projector_apply(v1, 2)
    swap_pairs = ((2, 3), (1, 4)) + tuple((l, l + 1) for l in range(5, n, 2))
    swap_target = build_vb(PairCovering(n, swap_pairs))
    swap_err = float(
        np.abs(swapped.amplitudes - (-0.5) * swap_target.amplitudes).max()
    )
    add("swap_coefficient_error", swap_err, "<=1e-12", swap_err <= 1e-12)

    proj = float(np.vdot(v1.amplitudes, swapped.amplitudes).real)
    proj_err = abs(proj - 0.25)
    add("bond_projector_expectation_error", proj_err, "<=1e-12", proj_err <= 1e-12)

    t_v1 = float(np.vdot(v1.amplitudes, t_operator_apply(v1).amplitudes).real)
    t_v1_err = abs(t_v1 - (-3.0 * n / 8.0))
    add("staggered_mean_error", t_v1_err, "<=1e-10", t_v1_err <= 1e-10)

    mean, variance = t_operator_moments(n)
    if n >= 8:
        add("superposed_staggered_mean", abs(mean), "<0.5", abs(mean) < 0.5)
        ratio = variance / float(n * n)
        add(
            "staggered_variance_over_n_squared",
            ratio,
            "[0.10;0.18]",
            0.10 <= ratio <= 0.18,
        )

    if n <= CORRELATION_MAX_SITES:
        cc = connected_correlation_scan(n)
        add("connected_correlation_max", cc, "<1e-12", cc < 1e-12)

    spin_residual = max(
        AdditiveOperator.total(n, axis).apply(psi).norm() for axis in PauliAxis
    )
    add("total_spin_residual", spin_residual, "<=1e-12", spin_residual <= 1e-12)

    iterated = iterated_swap_residual(n)
    add("iterated_swap_residual", iterated, "<=1e-10", iterated <= 1e-10)

    rows = [
        (name, _f(value), threshold, "pass" if ok else "fail")
        for name, value, threshold, ok in checks
    ]
    _emit(
        args.out,
        _comments(args),
        ["check", "observed", "threshold", "status"],
        rows,
    )
    return 0 if all(ok for _, _, _, ok in checks) else 1


def _cmd_stabilizer(args) -> int:
    _check_n_range(args.n_min, args.n_max, hi=STABILIZER_MAX_SITES)
    all_ok = True
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        report = stabilizer_check(n)
        flip_res, phase_res, anti_res = report.logical_commutation_residuals
        worst = max(report.product_identity_residual, flip_res, phase_res, anti_res)
        ok = report.code_dimension == 2 and worst < 1e-12
        all_ok = all_ok and ok
        rows.append(
            (
                str(n),
                str(report.code_dimension),
                _f(report.product_identity_residual),
                _f(flip_res),
                _f(phase_res),
                _f(anti_res),
                "pass" if ok else "fail",
            )
        )
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
    return 0 if all_ok else 1


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
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
        ("--kt-min", dict(type=float, default=0.05)),
        ("--kt-max", dict(type=float, default=2.0)),
        ("--kt-points", dict(type=int, default=40)),
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
