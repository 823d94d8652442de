"""The ``python -m qpke.cli`` entry point: output bytes and exit codes of a real process.

Each case runs with a buffered stdout and with ``PYTHONUNBUFFERED=1``, since
a buffered stream meets a failing device only when it is flushed.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import qpke
from qpke import cli
from qpke.cli import CHUNK_ROWS, main

SRC = os.path.dirname(os.path.dirname(qpke.__file__))
#: more than CHUNK_ROWS rows, so the writer flushes chunk after chunk
FIGURE1 = ["figure", "--id", "1", "--n", "6"]
SECURITY = ["security", "--epsilon", "0.03125", "--T", "1-4"]
TABLES = [FIGURE1, SECURITY + ["--format", "json"]]
BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


def entry_point(argv, unbuffered, stdout=subprocess.PIPE, cwd=None):
    """Exit code and stderr text of ``python -m qpke.cli argv``, with its stdout bytes if piped here."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run([sys.executable, "-m", "qpke.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
                          env=env, cwd=cwd)
    err = proc.stderr.decode()
    assert "Traceback" not in err and "Exception ignored" not in err, err
    return proc.returncode, proc.stdout, err


def in_process(argv):
    """Exit code, stdout bytes and stderr text of ``main(argv)`` in this interpreter."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue()


@BUFFERING
@pytest.mark.parametrize("argv", TABLES, ids=lambda argv: " ".join(argv[:3]))
def test_stdout_holds_the_bytes_of_main(argv, unbuffered, tmp_path):
    expected = in_process(argv)
    assert expected[0] == 0
    if argv == FIGURE1:
        assert expected[1].count(b"\n") > CHUNK_ROWS + 1
    assert entry_point(argv, unbuffered) == expected
    with open(tmp_path / "stdout", "wb") as out:
        code, _, err = entry_point(argv, unbuffered, stdout=out)
    assert (code, (tmp_path / "stdout").read_bytes(), err) == expected


@BUFFERING
def test_out_file_holds_the_bytes_of_main(unbuffered, tmp_path):
    (tmp_path / "ours").mkdir()
    assert main([*FIGURE1, "--out", str(tmp_path / "table.csv")]) == 0
    assert entry_point([*FIGURE1, "--out", "table.csv"], unbuffered, cwd=tmp_path / "ours") == (0, b"", "")
    assert (tmp_path / "ours" / "table.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()


@BUFFERING
def test_violated_check_exits_1_with_the_violations_last(unbuffered):
    argv = ["figure", "--id", "4", "--n", "6", "--T", "11-12"]
    code, out, err = entry_point(argv, unbuffered)
    assert code == 1
    assert out == in_process(argv)[1]
    assert [v["T"] for v in json.loads(err.splitlines()[-1])["violations"]] == [11, 12]


@contextlib.contextmanager
def full_device():
    with open("/dev/full", "wb") as device:
        yield device


@contextlib.contextmanager
def closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        yield write_end
    finally:
        os.close(write_end)


@BUFFERING
@pytest.mark.parametrize("target", [
    pytest.param(full_device, marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")),
    closed_pipe,
], ids=["full device", "closed pipe"])
@pytest.mark.parametrize("argv", [SECURITY, FIGURE1], ids=["one buffer", "many chunks"])
def test_unwritable_stdout_exits_2(argv, target, unbuffered):
    # a table that fits one buffer fails only at the writer's last flush
    with target() as stdout:
        code, _, err = entry_point(argv, unbuffered, stdout=stdout)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


class FailingStdout(io.StringIO):
    def flush(self):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("code, reported", [(0, False), (1, False), (2, True), (3, True)])
def test_entry_point_reports_a_failing_last_flush_once(code, reported, monkeypatch, capsys):
    # the writer flushes stdout and reports its failure (exit 2); a failure
    # that only the last flush sees is reported there, and turns 0 or 1 to 2
    exits = []
    monkeypatch.setattr(cli, "main", lambda argv: code)
    monkeypatch.setattr(sys, "stdout", FailingStdout())
    monkeypatch.setattr(cli.os, "_exit", exits.append)
    cli.entry_point()
    err = capsys.readouterr().err
    assert exits == [max(code, 2)]
    assert err == ("" if reported else "error: [Errno 28] No space left on device\n")
