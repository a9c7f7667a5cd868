"""The scan script end to end: exit codes for bad requests and batched,
checkpointed runs that report what one unbatched run reports."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCAN = ROOT / "scripts" / "scan_conjectures.py"
SMALL = ("--n-max", "6", "--m-max", "7", "--p-max", "3", "--mixed-max", "3")


def run_scan(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # a scan that never ends fails here instead of hanging the suite
    return subprocess.run([sys.executable, str(SCAN), *SMALL, *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_batch_below_one_exits_2():
    for batch in ("0", "-1"):
        result = run_scan("--batch", batch)
        assert result.returncode == 2
        assert "--batch" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""


def test_garbage_checkpoint_exits_2(tmp_path):
    (tmp_path / "divisibility-a-p1.json").write_text("not json {")
    result = run_scan("--checkpoint-dir", str(tmp_path))
    assert result.returncode == 2
    assert result.stderr.startswith("error: unreadable checkpoint")
    assert "Traceback" not in result.stderr


def _without_times(stdout):
    return re.sub(r"\d+\.\d ms|done in \d+\.\d s", "", stdout)


def test_batched_checkpointed_run_reports_the_unbatched_totals(tmp_path):
    whole = run_scan()
    batched = run_scan("--batch", "2", "--checkpoint-dir", str(tmp_path))
    assert whole.returncode == batched.returncode == 0
    assert "mixed-cube                  9 cells   0 counterexamples" in whole.stdout
    assert _without_times(batched.stdout) == _without_times(whole.stdout)
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["divisibility-%s-p%d.json" % (v, p) for v in "abc" for p in (1, 3)] + ["mixed-cube.json"]
    )
