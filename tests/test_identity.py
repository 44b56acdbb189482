import importlib.util
import math
import re
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"
_spec = importlib.util.spec_from_file_location("identity", TOOL)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


@pytest.fixture(scope="module")
def repository():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    head = subprocess.run(["git", "-C", str(identity.ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("not a git repository")


def test_smoke_outputs_keep_the_bits_of_head(repository, capsys):
    assert identity.main(["HEAD", "--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert re.match(r"identity: \d+ outputs at each of 2 thread settings, 0 differ \(", lines[0])


# Moves the first row of every valence-bond report, the norm deviation, up
# by one ulp; nothing else reads identity_report.
PATCH = '''

import math

_unpatched_report = identity_report


def identity_report(n):
    rows = _unpatched_report(n)
    name, value, threshold, ok = rows[0]
    rows[0] = (name, math.nextafter(value, math.inf), threshold, ok)
    return rows
'''


def test_a_patched_output_is_named(repository, tmp_path, capsys):
    tree = tmp_path / "tree"
    identity.extract("HEAD", tree)
    rvb = tree / "src" / "z2memory" / "rvb.py"
    rvb.write_text(rvb.read_text() + PATCH)
    assert identity.main(["HEAD", "--smoke", "--tree", str(tree)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"at each of 2 thread settings, {len(lines) - 1} differ (" in lines[-1]
    named = {}
    for line in lines[:-1]:
        threads, rest = line[1:].split("] ", 1)
        key, value = rest.split(": value ")
        named.setdefault(threads, set()).add(key)
        if key == "z2mem rvb --n 6":
            old, new = (float.fromhex(x) for x in value.split(": ")[1].split(" -> "))
            assert new == math.nextafter(old, math.inf)
    rvb_outputs = {f"z2mem rvb --n {n}" for n in range(4, 9, 2)} | {
        f"identity_reports smoke variant {v}: rvb" for v in (0, 1)}
    assert named == {"default threads": rvb_outputs, "OPENBLAS_NUM_THREADS=1": rvb_outputs}
