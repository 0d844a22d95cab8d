"""Input files that are not regular files: a FIFO, which blocks whoever opens
it for reading until a writer comes, and a device such as /dev/null. A model
file that is one is a MODEL-PARSE-ERROR; a manifest, template or `--after`
file that is one is `fatal [IO]` naming its path.

Each command runs in a child interpreter with a timeout, so a reader that
blocks on a FIFO fails the test instead of hanging the run."""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PARKPILOT_MANIFEST

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="the forked load runs on Linux only")

SRC = Path(__file__).resolve().parents[1] / "src"

# `cli.run` on the arguments after the CPU count, with `load_bundle` seeing
# that many CPUs and no size floor, so that two CPUs fork a worker for the
# second half of the entries; the last stderr line counts the forks.
CHILD = """
import os, sys
from procpyramid import bundle, cli
fork, forks = os.fork, []
def counted_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counted_fork
cpus = set(range(int(sys.argv[1])))
os.sched_getaffinity = lambda pid: cpus
bundle.FORK_MIN_BYTES = 0
code = cli.run(sys.argv[2:])
print("forks:", len(forks), file=sys.stderr)
sys.exit(code)
"""


def run(cpus: int, *argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the command; a child still running
    after 20 s is killed with its worker, and the test fails."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with subprocess.Popen(
        [sys.executable, "-c", CHILD, str(cpus), *map(str, argv)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        encoding="utf-8",
        env=env,
        start_new_session=True,
    ) as child:
        try:
            out, err = child.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail(f"{' '.join(map(str, argv))} still running after 20 s")
    return child.returncode, out, err


@pytest.fixture
def parkpilot(tmp_path) -> Path:
    """A copy of the parkpilot bundle; its last model file is the second
    half's, which a forked load gives to its worker."""
    shutil.copytree(PARKPILOT_MANIFEST.parent, tmp_path / "bundle")
    return tmp_path / "bundle" / "manifest.json"


def replace_with(path: Path, kind: str) -> None:
    path.unlink(missing_ok=True)
    if kind == "fifo":
        os.mkfifo(path)
    else:
        path.symlink_to("/dev/null")


@pytest.mark.parametrize("kind", ["fifo", "devnull"])
@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "forked"])
def test_a_model_file_that_is_not_regular_is_a_parse_error(parkpilot, cpus, kind):
    model = parkpilot.parent / "park-pilot-test.bpmn"
    replace_with(model, kind)
    code, out, err = run(cpus, "report", parkpilot, "--json")
    assert code == 1
    assert f"cannot read 'park-pilot-test.bpmn': not a regular file: '{model}'" in out
    assert err.splitlines() == [f"forks: {cpus - 1}"]


@pytest.mark.parametrize("kind", ["fifo", "devnull"])
@pytest.mark.parametrize("role", ["manifest", "template", "after"])
def test_a_json_input_that_is_not_regular_is_fatal(parkpilot, role, kind):
    argv = {
        "manifest": ["validate", parkpilot],
        "template": ["conform", parkpilot],
        "after": ["retention", parkpilot, "--after", parkpilot.parent / "after.json"],
    }[role]
    path = {
        "manifest": parkpilot,
        "template": parkpilot.parent / "refs" / "vmodel.json",
        "after": parkpilot.parent / "after.json",
    }[role]
    replace_with(path, kind)
    code, out, err = run(1, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"fatal [IO]: not a regular file: '{path}'", "forks: 0"]
