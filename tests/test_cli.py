import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import z2memory
import z2memory.cli as cli
import z2memory.eigensolve as es
import z2memory.macroscopicity as mac
from z2memory import (
    build_vcm,
    gap_scan,
    identity_report,
    largest_eigenvalue_scan,
    stabilizer_scan,
    state_mz_distribution,
    superposed_e1_scan,
)
from z2memory.cli import main
from z2memory.thermal import THERMAL_MAX_KT_POINTS, THERMAL_MAX_SITES


def run(tmp_path, name, *argv):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out


def parse_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def test_version_and_usage_exit_codes():
    assert main(["--version"]) == 0
    assert main(["no-such-command"]) == 1
    assert main(["scan-e1", "--bogus"]) == 1
    assert main(["scan-e1", "--threads", "2"]) == 1
    assert main([]) == 1


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process; a usage error, --version and
    # the commands before leave nothing behind in it
    assert cli._build_parser() is cli._build_parser()
    assert main(["scan-e1", "--bogus"]) == 1
    assert main(["--version"]) == 0
    capsys.readouterr()
    runs = [
        (["e2", "--n-min", "6", "--n-max", "6", "--lambda", "0.7"],
         "e2 --n-min 6 --n-max 6 --lambda 0.7"),
        (["pz", "--n", "6"], "pz --n 6 --lambda 0.5 --state ground"),
        (["scan-e1", "--n-min", "6", "--n-max", "7", "--lambdas", "0.5"],
         "scan-e1 --n-min 6 --n-max 7 --lambdas 0.5"),
        (["stabilizer", "--n-max", "4"], "stabilizer --n-min 3 --n-max 4"),
    ]
    for i, (argv, line) in enumerate(runs):
        code, out = run(tmp_path, f"{i}.csv", *argv)
        assert code == 0, argv
        assert f"# command: {line}" in parse_csv(out)[0]


def test_scan_e1_output(tmp_path, solve_cache):
    code, out = run(
        tmp_path, "scan.csv", "scan-e1", "--n-min", "6", "--n-max", "8",
        "--lambdas", "0.5",
    )
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == ["lambda", "n", "e1"]
    assert any("z2mem" in c for c in comments)
    assert any("J=1" in c for c in comments)
    assert any("fit lambda=" in c and "p=" in c for c in comments)
    assert len(rows) == 3
    # the printed floats round-trip to the library sweep's values exactly,
    # and those meet the correlation matrix of the 2^N ground state
    want = largest_eigenvalue_scan([0.5], range(6, 9))
    assert [(float(r[0]), int(r[1]), float(r[2])) for r in rows] == want
    for _, n, e1 in want:
        ed = build_vcm(solve_cache(n, 0.5, k=1).eigenvectors[0]).e1
        assert abs(e1 - ed) <= 1e-13 * ed
    assert [r[1] for r in rows] == ["6", "7", "8"]


def test_scan_e1_builds_no_state_vector(tmp_path, monkeypatch):
    def failing(*args):
        raise AssertionError("scan-e1 must not build a 2^N vector")

    for module in (cli, mac, es, z2memory):
        for name in ("lowest_eigenpairs", "build_vcm"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, failing)
    code, out = run(
        tmp_path, "scan.csv", "scan-e1", "--n-min", "3", "--n-max", "40",
        "--lambdas", "0.5,-0.7",
    )
    assert code == 0
    assert len(parse_csv(out)[2]) == 2 * 38


@pytest.mark.parametrize(
    "args",
    [
        ["scan-e1", "--n-min", "6", "--n-max", "7", "--lambdas", "0.5,1.5"],
        ["thermal", "--n", "6", "--kt-points", "8"],
        ["gap", "--n-min", "4", "--n-max", "6"],
        ["rvb", "--n", "14"],
    ],
    ids=["scan-e1", "thermal", "gap", "rvb"],
)
def test_output_is_deterministic(tmp_path, args):
    code1, a = run(tmp_path, "a.csv", *args)
    code2, b = run(tmp_path, "b.csv", *args)
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["scan-e1", "--lambdas", "-0.7,5e-1", "--n-max", "7", "--n-min", "6"],
        ["pz", "--state", "superposed", "--lambda", "1.5", "--n", "6"],
        ["pz", "--n", "6", "--lambda=-1e-8"],
        ["e2", "--n-min", "6", "--n-max", "8"],
        ["gap", "--lambda", "0.4", "--n-max", "7", "--n-min", "5"],
        ["superpose", "--n-min", "6", "--n-max", "7", "--lambda", "-0.6"],
        ["thermal", "--n", "4", "--kt-points", "3", "--kt-min", ".1"],
        ["rvb", "--n", "8"],
        ["stabilizer", "--n-max", "4"],
    ],
    ids=[
        "scan-e1", "pz", "pz-exponent-field", "e2", "gap", "superpose",
        "thermal", "rvb", "stabilizer",
    ],
)
def test_header_command_line_reproduces_the_file(tmp_path, args):
    code, first = run(tmp_path, "first.csv", *args)
    prefix = "# command: "
    echoed = next(c for c in parse_csv(first)[0] if c.startswith(prefix))
    again, second = run(tmp_path, "second.csv", *echoed[len(prefix):].split())
    assert again == code
    assert second.read_bytes() == first.read_bytes()


def test_unwritable_out_is_one_error_line(tmp_path, capsys):
    for out in (tmp_path, tmp_path / "missing" / "x.csv"):
        code = main(["stabilizer", "--n-min", "3", "--n-max", "3", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("z2mem: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("lam", ["1e308", "-1e308"])
@pytest.mark.parametrize(
    "args",
    [
        ["scan-e1", "--lambdas={}"],
        ["e2", "--lambda={}"],
        ["gap", "--lambda={}"],
        ["pz", "--n", "14", "--lambda={}"],
        ["superpose", "--lambda={}"],
        ["thermal", "--lambda={}"],
    ],
    ids=lambda args: args[0],
)
def test_overflowing_field_is_a_domain_error(tmp_path, capsys, args, lam):
    code, out = run(tmp_path, "huge.csv", *(a.format(lam) for a in args))
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("z2mem: error: ") and err.count("\n") == 1
    assert "energy scale N (1 + |lam|) non-finite" in err


def test_scan_e1_range_validation(tmp_path):
    too_long = str(mac.GAUSSIAN_SCAN_MAX_SITES + 1)
    code, _ = run(tmp_path, "x.csv", "scan-e1", "--n-min", "6", "--n-max", too_long)
    assert code == 1
    code, _ = run(tmp_path, "y.csv", "scan-e1", "--n-min", "8", "--n-max", "6")
    assert code == 1
    code, _ = run(tmp_path, "z.csv", "scan-e1", "--lambdas", "0.5,oops")
    assert code == 1


def test_scan_e1_takes_a_list_that_starts_negative(tmp_path):
    scan = ("scan-e1", "--n-min", "6", "--n-max", "7")
    code, spaced = run(tmp_path, "spaced.csv", *scan, "--lambdas", "-0.7,0.5")
    assert code == 0
    code, joined = run(tmp_path, "joined.csv", *scan, "--lambdas=-0.7,0.5")
    assert code == 0
    assert spaced.read_bytes() == joined.read_bytes()
    _, _, rows = parse_csv(spaced)
    assert [r[0] for r in rows] == ["-0.69999999999999996"] * 2 + ["0.5"] * 2


def test_scan_e1_rejects_a_repeated_field(tmp_path, capsys):
    scan = ("scan-e1", "--n-min", "6", "--n-max", "7")
    for lambdas in ("0.5,0.5", "0.5,1.5,5e-1"):
        code, out = run(tmp_path, "dup.csv", *scan, "--lambdas", lambdas)
        assert code == 1
        assert not out.exists()
        assert "field value 0.5 twice" in capsys.readouterr().err


def test_pz_ground_distribution(tmp_path):
    code, out = run(tmp_path, "pz.csv", "pz", "--n", "6", "--state", "ground")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["mz", "probability"]
    assert [int(r[0]) for r in rows] == list(range(-6, 7, 2))
    probs = np.array([float(r[1]) for r in rows])
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(probs - probs[::-1]).max() < 1e-10  # parity symmetry


def test_pz_superposed_is_one_sided(tmp_path):
    code, out = run(
        tmp_path, "pzs.csv", "pz", "--n", "6", "--state", "superposed"
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    up = sum(float(p) for mz, p in rows if int(mz) > 0)
    assert up > 0.99


def test_pz_rejects_unknown_state(tmp_path):
    code, _ = run(tmp_path, "bad.csv", "pz", "--n", "6", "--state", "warm")
    assert code == 1


def test_pz_range_message_names_its_flag(tmp_path, capsys):
    code, _ = run(tmp_path, "big.csv", "pz", "--n", "15")
    assert code == 1
    err = capsys.readouterr().err
    assert "chain lengths must be integers in 3..14, got 15" in err
    assert "n-min" not in err and "n-max" not in err


@pytest.mark.parametrize("state", ["ground", "excited", "superposed"])
def test_pz_only_formats_its_library_call(tmp_path, state):
    code, out = run(
        tmp_path, "pz.csv", "pz", "--n", "7", "--lambda", "0.6", "--state", state
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    dist = state_mz_distribution(0.6, 7, state)
    assert [int(r[0]) for r in rows] == dist.support.tolist()
    assert [float(r[1]) for r in rows] == dist.probabilities.tolist()


def test_e2_report(tmp_path):
    code, out = run(tmp_path, "e2.csv", "e2", "--n-min", "6", "--n-max", "7")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["lambda", "n", "e2"]
    for r in rows:
        assert 1.0 < float(r[2]) < 1.3


def test_gap_report_and_adiabatic_column(tmp_path):
    code, out = run(tmp_path, "gap.csv", "gap", "--n-min", "4", "--n-max", "6")
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == ["n", "gap", "adiabatic_time"]
    assert any("slope=" in c for c in comments)
    for r in rows:
        gap, t = float(r[1]), float(r[2])
        assert t == 1.0 / (gap * gap)
    gaps = [float(r[1]) for r in rows]
    assert gaps == sorted(gaps, reverse=True)
    # the command only formats the library scan
    assert [(int(r[0]), float(r[1])) for r in rows] == gap_scan(0.5, 4, 6)


def test_gap_rejects_zero_field(tmp_path):
    code, _ = run(tmp_path, "g0.csv", "gap", "--lambda", "0")
    assert code == 1


def test_superpose_report(tmp_path):
    code, out = run(
        tmp_path, "sup.csv", "superpose", "--n-min", "6", "--n-max", "7"
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["lambda", "n", "e1"]
    for r in rows:
        assert float(r[2]) < 3.0  # classical branch, no extensive eigenvalue
    # the command only formats the library scan
    want = superposed_e1_scan(0.5, range(6, 8))
    assert [(int(r[1]), float(r[2])) for r in rows] == want


def test_thermal_report(tmp_path):
    code, out = run(
        tmp_path, "th.csv", "thermal", "--n", "4", "--kt-points", "5"
    )
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == ["kt", "e1"]
    assert len(rows) == 5
    e1s = [float(r[1]) for r in rows]
    for lo, hi in zip(e1s[1:], e1s):
        assert lo <= hi + 1e-6
    assert any("kt-min 0.05" in c for c in comments)  # flags echoed readably


def test_thermal_size_cap_exit_code(tmp_path, capsys):
    for n in (THERMAL_MAX_SITES + 1, 40):
        code, _ = run(tmp_path, "big.csv", "thermal", "--n", str(n))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("z2mem: capability limit: ") and err.count("\n") == 1


def test_thermal_point_cap_exit_code(tmp_path, capsys):
    points = str(THERMAL_MAX_KT_POINTS + 1)
    code, _ = run(tmp_path, "dense.csv", "thermal", "--n", "3", "--kt-points", points)
    assert code == 3
    err = capsys.readouterr().err
    want = f"thermal grids stop at {THERMAL_MAX_KT_POINTS} points, got {points}"
    assert err == f"z2mem: capability limit: {want}\n"


def test_thermal_exits_1_when_the_spectrum_breaks_its_contract(tmp_path, monkeypatch):
    def rotated_eigh(mat):
        # a small rotation of the lowest and highest eigenvectors
        vals, vecs = np.linalg.eigh(mat)
        c, s = np.cos(1e-6), np.sin(1e-6)
        first, last = vecs[:, 0].copy(), vecs[:, -1].copy()
        vecs[:, 0], vecs[:, -1] = c * first - s * last, s * first + c * last
        return vals, vecs

    monkeypatch.setattr(es, "eigh", rotated_eigh)
    code, _ = run(tmp_path, "rot.csv", "thermal", "--n", "4", "--kt-points", "3")
    assert code == 1


def test_thermal_exits_2_where_eigh_rounding_breaks_the_bound(tmp_path):
    # the rounding floor 4 eps N (1 + |lam|) is 8.9e-10 here, so the scan
    # starts, but a block eigh's residual reaches 2.0e-9: past the bound,
    # yet within EIGH_C eps N (1 + |lam|) = 2.8e-8, a dense eigh's own
    # rounding and not a broken contract
    code, _ = run(
        tmp_path, "eigh.csv", "thermal", "--n", "10", "--lambda", "1e5",
        "--kt-points", "3",
    )
    assert code == 2


def test_convergence_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(es, "MATVEC_BUDGET", 3)
    code, _ = run(
        tmp_path, "conv.csv", "gap", "--n-min", "8", "--n-max", "8",
        "--lambda", "0.5",
    )
    assert code == 2


def test_block_solve_failure_exit_code(tmp_path, monkeypatch):
    def failing(mat):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(es, "lu_solver", failing)
    code, _ = run(tmp_path, "conv.csv", "pz", "--n", "8", "--state", "ground")
    assert code == 2


def test_rvb_report_fails_only_on_connected_correlations(tmp_path):
    code, out = run(tmp_path, "rvb.csv", "rvb", "--n", "8")
    assert code == 1  # one genuine identity failure, reported honestly
    _, header, rows = parse_csv(out)
    assert header == ["check", "observed", "threshold", "status"]
    failed = [r[0] for r in rows if r[3] == "fail"]
    assert failed == ["connected_correlation_max"]
    by_name = {r[0]: r for r in rows}
    assert float(by_name["connected_correlation_max"][1]) == pytest.approx(
        1.0 / 7.0, rel=1e-12
    )
    assert by_name["norm_deviation"][3] == "pass"
    assert by_name["iterated_swap_residual"][3] == "pass"
    # the command only formats the library report
    want = [(name, value, threshold, "pass" if ok else "fail")
            for name, value, threshold, ok in identity_report(8)]
    assert [(r[0], float(r[1]), r[2], r[3]) for r in rows] == want


def test_gap_converges_at_a_large_field(tmp_path):
    # the Lanczos target rises to the rounding floor 4 eps N (1 + |lam|)
    code, out = run(
        tmp_path, "big.csv", "gap", "--n-min", "8", "--n-max", "9",
        "--lambda", "30000",
    )
    assert code == 0
    assert len(parse_csv(out)[2]) == 2


@pytest.mark.parametrize(
    "args, want",
    [
        (["gap", "--n-min", "8", "--n-max", "8"], 2),
        (["superpose", "--n-min", "8", "--n-max", "8"], 2),
        (["pz", "--n", "8", "--state", "superposed"], 2),
        (["pz", "--n", "8", "--state", "excited"], 2),
        (["pz", "--n", "8", "--state", "ground"], 2),
        (["e2", "--n-min", "8", "--n-max", "8"], 2),
        (["thermal", "--n", "8"], 2),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
)
def test_field_beyond_the_rounding_floor_exit_code(tmp_path, monkeypatch, args, want):
    # at lam=1e7 the rounding floor 4 eps N (1 + |lam|) exceeds the 1e-9
    # residual bound: the ground-state and doublet routes give up before
    # their first solve, the gap before its first Lanczos matvec and the
    # thermal scan before its first block eigh
    def forbidden(*args):
        raise AssertionError("Lanczos ran past the rounding floor")

    monkeypatch.setattr(es._SectorOperator, "matvec", forbidden)
    code, _ = run(tmp_path, "big.csv", *args, "--lambda", "1e7")
    assert code == want


@pytest.mark.parametrize("lam", ["8e4", "-8e4"])
@pytest.mark.parametrize(
    "args",
    [
        ["superpose", "--n-min", "13", "--n-max", "13"],
        ["pz", "--n", "13", "--state", "ground"],
        ["pz", "--n", "13", "--state", "excited"],
        ["pz", "--n", "13", "--state", "superposed"],
        ["e2", "--n-min", "13", "--n-max", "13"],
        ["gap", "--n-min", "13", "--n-max", "13"],
    ],
    ids=lambda args: " ".join(args),
)
def test_field_just_below_the_rounding_floor_exit_code(tmp_path, args, lam):
    # the floor 4 eps N (1 + |lam|) is 9.2e-10 here; a BLAS-dot quotient
    # left the ground vector's residual at 1.25e-9, the pairwise sum at 6.7e-10
    code, _ = run(tmp_path, "near.csv", *args, "--lambda", lam)
    assert code == 0


def test_rvb_rejects_odd_ring(tmp_path):
    code, _ = run(tmp_path, "rvb_odd.csv", "rvb", "--n", "7")
    assert code == 1


def test_stabilizer_report(tmp_path):
    code, out = run(
        tmp_path, "stab.csv", "stabilizer", "--n-min", "3", "--n-max", "5"
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header[0] == "n"
    assert "code_dimension" in header
    assert all(r[-1] == "pass" for r in rows)
    assert [int(r[1]) for r in rows] == [2, 2, 2]
    # the command only formats the library scan
    want = [
        (rep.n_sites, rep.code_dimension, rep.product_identity_residual,
         *rep.logical_commutation_residuals)
        for rep in stabilizer_scan(range(3, 6))
    ]
    assert [(int(r[0]), int(r[1]), *map(float, r[2:6])) for r in rows] == want


def test_stabilizer_exits_1_when_a_report_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(
        type(stabilizer_scan([3])[0]), "passed", property(lambda rep: rep.n_sites != 4)
    )
    code, out = run(
        tmp_path, "stab.csv", "stabilizer", "--n-min", "3", "--n-max", "5"
    )
    assert code == 1
    assert [r[-1] for r in parse_csv(out)[2]] == ["pass", "fail", "pass"]


def test_cli_holds_no_size_cap():
    # every size check lives in the library call behind each command
    names = [name for name in vars(cli) if name.endswith("MAX_SITES")]
    assert names == [] and "MIN_SITES" not in vars(cli)


@pytest.mark.parametrize(
    "args",
    [
        ["superpose", "--n-min", "6", "--n-max", "15"],
        ["superpose", "--n-min", "8", "--n-max", "6"],
        ["stabilizer", "--n-min", "3", "--n-max", "13"],
        ["stabilizer", "--n-min", "2", "--n-max", "4"],
        ["pz", "--n", "2"],
        ["gap", "--n-min", "6", "--n-max", "15"],
        ["e2", "--n-min", "6", "--n-max", "15"],
    ],
    ids=lambda args: " ".join(args),
)
def test_size_range_errors_are_one_line(tmp_path, capsys, args):
    code, out = run(tmp_path, "range.csv", *args)
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("z2mem: error: ") and err.count("\n") == 1


def test_scipy_stays_off_the_import_path():
    # importing scipy costs a process ~0.2 s; only the gap's Krylov solver
    # needs it, so ground-state and doublet runs never load it
    script = (
        "import sys\n"
        "import z2memory.cli\n"
        "from z2memory.eigensolve import lowest_eigenpairs\n"
        "from z2memory.macroscopicity import (\n"
        "    largest_eigenvalue_scan, second_eigenvalue_scan,\n"
        "    state_mz_distribution, superposed_e1_scan)\n"
        "from z2memory.model import build_tfim, stabilizer_check\n"
        "from z2memory.rvb import rvb_vcm_check\n"
        "from z2memory.thermal import thermal_scan\n"
        "thermal_scan(0.5, 4, [0.5, 1.0])\n"
        "stabilizer_check(6)\n"
        "rvb_vcm_check(8)\n"
        "second_eigenvalue_scan(0.5, [8, 9, 10])\n"
        "largest_eigenvalue_scan([0.5], [64])\n"
        "lowest_eigenpairs(build_tfim(10, 0.5), 1)\n"
        "superposed_e1_scan(0.5, [8, 9])\n"
        "state_mz_distribution(0.5, 10, 'superposed')\n"
        "state_mz_distribution(0.5, 9, 'excited')\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(z2memory.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"
