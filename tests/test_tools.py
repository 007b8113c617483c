"""The command-line tools under tools/ run and report as their docstrings say."""

import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"^(\w+) +(\d+) arrays  ([0-9a-f]{64})(?:  max rel \|delta\| (.*))?$")


def sample_digest(*args):
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "sample_digest.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return [LINE.match(line) for line in out.stdout.splitlines()]


def test_sample_digest_saves_and_compares(tmp_path):
    """Two digest lines; ``--against`` its own ``--save`` of the same checkout reads zero
    change on every array; and the run takes seconds."""
    saved = tmp_path / "digest.npz"
    start = time.perf_counter()
    first = sample_digest("--save", str(saved))
    elapsed = time.perf_counter() - start
    assert [m and m[1] for m in first] == ["orbit_sample_cfg", "posterior_and_guided"]
    assert all(m[4] is None for m in first)
    assert elapsed < 10.0, elapsed
    second = sample_digest("--against", str(saved))
    assert [m and m[3] for m in second] == [m[3] for m in first]
    changes = dict(pair.split(" ") for m in second for pair in m[4].split(", "))
    assert set(changes) == {"sample", "log_marginal", "posterior_cond", "posterior_null", "guided"}
    assert set(changes.values()) == {"0.0e+00"}, changes


def render_ab(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "render_ab.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)


def test_render_ab_reports_one_line_per_case():
    """Two pairs of the sampler op against this same checkout, in two worker processes."""
    out = render_ab(str(ROOT), "--case", "orbit_sample_cfg", "--pairs", "2")
    assert out.returncode == 0, out.stderr
    number = r"\d+\.\d+"
    report = re.compile(
        rf"^orbit_sample_cfg +this +{number} ms  other +{number} ms  ratio {number}  "
        rf"pair IQR {number}-{number}  faster in [012] of 2  faults/op \d+ vs \d+$")
    lines = out.stdout.splitlines()
    assert len(lines) == 1 and report.match(lines[0]), out.stdout


def test_render_ab_rejects_bad_arguments(tmp_path):
    for args, fault in [((str(ROOT), "--pairs", "0"), "--pairs must be positive"),
                        ((str(tmp_path),), f"{tmp_path} has no src/orbitforge")]:
        out = render_ab(*args)
        assert out.returncode == 2 and fault in out.stderr, out.stderr
