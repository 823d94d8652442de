"""Compare the output of this tree's qpke with that of another source tree, argv by argv.

    python tools/same_output.py OTHER_SRC

OTHER_SRC is the ``src`` directory of another checkout.  Every argv of a
fixed corpus runs in a fresh interpreter, once with this tree's ``src`` and
once with OTHER_SRC first on ``PYTHONPATH``; every argv that writes a table
runs once more with ``--out FILE``.  An argv that the corpus lists twice
runs once, at its first place.  The tool prints each argv whose stdout,
stderr, ``--out`` bytes or exit code differ between the two trees, then a
count, and exits 1 if any differ, else 0.  The corpus:

* every op of the first pass of each benchmark workload, and the first round
  of probe campaigns, as ``perfbench/workloads.py`` generates them for seed 1;
* ``check-all --seed 0..127``;
* Monte Carlo campaigns at the edges of the key dtypes and of the key
  shifts: symmetry tests at n = 1, 2, 8, 9, 16, 17, 31, 32, 33 and 63 and
  bayes campaigns at n = 8, 9 and 14, each over several flat blocks and key
  chunks; symmetry tests of 40,001 trials at s = 5 and n = 32, 33 and 63,
  odd key counts at the n = 32 edge (one 32-bit draw a key, the last
  leaving a half buffered) and above it (one 64-bit draw a key); symmetry
  tests at s = 2 and 5 of 40,001, 40,002 and 40,003 trials, whose message
  bits end mid-word (four bits a 32-bit draw) and leave a half buffered for
  the free bits, or take the keys' buffered half; both attacks at the paper's
  s = 432 and s = 1195 (bayes at T = 64 there) with small trial counts; both
  at one trial either side of a 65,536-trial batch; bayes campaigns at
  s = 3, 5 and 7 whose last batch's count * s lies one element either side
  of a multiple of 2^14, the flat block size, so a block ends mid-row; and
  bayes campaigns at T = 64, s = 2 with 65,535, 65,536 and 65,537 trials,
  whose counts numpy's own binomial draws block by block; and bayes
  campaigns at the edges of the count paths: count * s one below and at
  2^n for n = 10 and 13 (below it numpy draws the counts, at it they are
  searched block by block), T = 60 and 61 at n = 12 over two batches (the
  last T whose counts are searched, the first that reaches BTPE),
  T = 16, s = 432 with 4,096 trials, and T = 61, 64 and 200 at n = 1,
  s = 3 with 70,000 trials (two batches), where the z basis is tabulated
  and the x basis is not, so numpy draws both bases' counts;
* ``prior --tau 1-64 --n 1-20``, the whole prior domain in one table, also
  with ``--format json``, which prints ``entropy_bits`` to its last digit;
* ``security`` at epsilon = 2^-40 over T = 1..20,000, codeword lengths in
  the range where the float ratio (3T-1)/(3T) and ``log1p`` give the same;
* ``figure --id 1`` and ``figure --id 3 --T 0-16`` at n = 1..14, whose key
  grids of 2^n rows reach the writer one at a time, shorter than, as long as
  and longer than its 4,096-row chunks;
* the same figures with ``--format json``, figure 1 at n = 1..12 and figure 3
  at n = 1..6, since their array columns reach the JSON writer through
  ``tolist()``;
* figures 3-5 at T past ``LOG_SPACE_T`` = 30, where the likelihood tables
  are built in log space: ``figure --id 3 --n 12 --T 30,31,32,61,64``,
  ``figure --id 3 --n 14 --T 31,33``, ``figure --id 4 --n 12 --T 29-33,64``
  and ``figure --id 5 --n 12 --T 31,64 --s 3``;
* ``figure --id 5 --T 4,8 --s 5000``, whose rows reach the writer in blocks
  of 4,096 codeword lengths, the last of each T a short one;
* every argv that ``tests/test_cli.py`` writes out as one list of string
  literals (most of its usage errors among them), and every ``--help``.

Both trees run with the benchmark's one-thread BLAS setting
(``perfbench/run.py``'s ``THREAD_ENV``), two commands at a time.
"""

from __future__ import annotations

import ast
import itertools
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench is a directory of scripts)
from run import THREAD_ENV  # noqa: E402

COMMANDS = ("prior", "figure", "security", "montecarlo", "check-all")
ATTACKS = ("bayes-projective", "symmetry-test")


def cli_test_argvs() -> list[list[str]]:
    """Every argv written out in ``tests/test_cli.py``: a list of string literals that starts with a command."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    lists = (node.elts for node in ast.walk(tree) if isinstance(node, ast.List) and node.elts)
    return [[item.value for item in items] for items in lists
            if all(isinstance(item, ast.Constant) and isinstance(item.value, str) for item in items)
            and items[0].value in COMMANDS]


def campaign(attack: str, n: int, T: int, s: int, trials: int) -> list[str]:
    """A ``montecarlo`` argv, seeded from its own parameters."""
    return ["montecarlo", "--attack", attack, "--n", str(n), "--T", str(T), "--s", str(s),
            "--trials", str(trials), "--seed", str(n * 1000 + s)]


def block_edge_trials(s: int, d: int) -> int:
    """The smallest trial count whose count * s is d (+1 or -1) off a multiple of 2^14."""
    return next((m * (1 << 14) + d) // s for m in itertools.count(1) if (m * (1 << 14) + d) % s == 0)


def first_passes() -> dict[str, list[list[str]]]:
    """The first pass of each benchmark workload, as ``perfbench/workloads.py`` generates it for seed 1."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    return {workload: next(workloads.passes(workload, 1, reference["check_all_seeds"]))
            for workload in workloads.WORKLOADS}


def corpus() -> list[list[str]]:
    """The argv the two trees are compared on, in a fixed order."""
    argvs = [op for ops in first_passes().values() for op in ops]
    argvs += next(workloads.probe_rounds(1))
    argvs += [["check-all", "--seed", str(seed)] for seed in range(128)]
    argvs += [campaign("symmetry-test", n, 1, 5, 40_000) for n in (1, 2, 8, 9, 16, 17, 31, 32, 33, 63)]
    argvs += [campaign("symmetry-test", n, 1, 5, 40_001) for n in (32, 33, 63)]
    argvs += [campaign("symmetry-test", 10, 1, s, trials) for s in (2, 5) for trials in (40_001, 40_002, 40_003)]
    argvs += [campaign("bayes-projective", n, 4, 5, 40_000) for n in (8, 9, 14)]
    argvs += [campaign(attack, 13, 4, 432, trials) for attack in ATTACKS for trials in (7, 150)]
    argvs += [campaign(attack, 13, 64, 1195, trials) for attack in ATTACKS for trials in (3, 14)]
    argvs += [campaign(attack, 10, 4, 2, trials) for attack in ATTACKS for trials in (65_535, 65_537)]
    argvs += [campaign("bayes-projective", 10, 4, s, trials) for s in (3, 5, 7) for d in (-1, 1)
              for trials in (block_edge_trials(s, d), 65_536 + block_edge_trials(s, d))]
    argvs += [campaign("bayes-projective", 10, 64, 2, trials) for trials in (65_535, 65_536, 65_537)]
    argvs += [campaign("bayes-projective", n, 4, 1, (1 << n) + d) for n in (10, 13) for d in (-1, 0)]
    argvs += [campaign("bayes-projective", 12, T, 2, 70_000) for T in (60, 61)]
    argvs.append(campaign("bayes-projective", 13, 16, 432, 4096))
    argvs += [campaign("bayes-projective", 1, T, 3, 70_000) for T in (61, 64, 200)]
    argvs.append(["prior", "--tau", "1-64", "--n", "1-20"])
    argvs.append(["prior", "--tau", "1-64", "--n", "1-20", "--format", "json"])
    argvs.append(["security", "--epsilon", "9.094947017729282e-13", "--T", "1-20000"])
    argvs += [["figure", "--id", "1", "--n", str(n)] for n in range(1, 15)]
    argvs += [["figure", "--id", "3", "--n", str(n), "--T", "0-16"] for n in range(1, 15)]
    argvs += [["figure", "--id", "1", "--n", str(n), "--format", "json"] for n in range(1, 13)]
    argvs += [["figure", "--id", "3", "--n", str(n), "--T", "0-16", "--format", "json"] for n in range(1, 7)]
    argvs.append(["figure", "--id", "3", "--n", "12", "--T", "30,31,32,61,64"])
    argvs.append(["figure", "--id", "3", "--n", "14", "--T", "31,33"])
    argvs.append(["figure", "--id", "4", "--n", "12", "--T", "29-33,64"])
    argvs.append(["figure", "--id", "5", "--n", "12", "--T", "31,64", "--s", "3"])
    argvs.append(["figure", "--id", "5", "--T", "4,8", "--s", "5000"])
    return argvs


def run(src: str, argv: list[str], workdir: str) -> tuple:
    """Exit code, stdout, stderr and ``--out`` bytes (None without ``--out``) of one fresh ``qpke`` process."""
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONPATH=src, **THREAD_ENV)
    proc = subprocess.run([sys.executable, "-m", "qpke.cli", *argv], cwd=workdir, env=env, capture_output=True)
    out = Path(workdir, "table.out")
    return proc.returncode, proc.stdout, proc.stderr, out.read_bytes() if out.exists() else None


def differences(trees: list[str], argv: list[str], workdir: str) -> list[str]:
    """What differs between the runs of ``argv`` on the two ``trees``."""
    ours, theirs = (run(src, argv, os.path.join(workdir, str(side))) for side, src in enumerate(trees))
    return [name for name, a, b in zip(("exit code", "stdout", "stderr", "--out bytes"), ours, theirs) if a != b]


def main() -> int:
    if len(sys.argv) != 2 or not Path(sys.argv[1], "qpke", "cli.py").is_file():
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        print("error: OTHER_SRC must be a source directory that holds qpke/cli.py", file=sys.stderr)
        return 2
    trees = [str(ROOT / "src"), str(Path(sys.argv[1]).resolve())]
    argvs = corpus()
    argvs += [argv + ["--out", "table.out"] for argv in argvs]
    argvs += cli_test_argvs() + [["--help"]] + [[command, "--help"] for command in COMMANDS]
    argvs = [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]
    differ = 0
    with tempfile.TemporaryDirectory() as scratch, ThreadPoolExecutor(max_workers=2) as pool:
        workdirs = [os.path.join(scratch, str(i)) for i in range(len(argvs))]
        for argv, parts in zip(argvs, pool.map(differences, [trees] * len(argvs), argvs, workdirs)):
            if parts:
                differ += 1
                print(f"{' '.join(argv)}: {', '.join(parts)} differ", flush=True)
    print(f"{len(argvs)} argv compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
