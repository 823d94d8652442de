"""Command-line surface: table schemas, formats, exit codes, inequality checks."""

import argparse
import ast
import contextlib
import csv
import functools
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import check_all_rows, figure1_rows, figure3_rows, prior_rows, write_row_dicts
import qpke
from qpke import bayes, cells, cli, montecarlo, symmetry, symspace
from qpke.cli import CHUNK_ROWS, Table, main, _parse_int_list


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_parse_int_list():
    assert _parse_int_list("3") == [3]
    assert _parse_int_list("2,4,8") == [2, 4, 8]
    assert _parse_int_list("1-4") == [1, 2, 3, 4]
    assert _parse_int_list("1,3-5") == [1, 3, 4, 5]
    assert _parse_int_list("4-4") == [4]
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_int_list("5-1,2")


@pytest.mark.parametrize("argv, message", [
    (["figure", "--id", "3", "--T", ","], "not an integer or a range: '' in ','"),
    (["figure", "--id", "3", "--T", "a"], "not an integer or a range: 'a' in 'a'"),
    (["figure", "--id", "3", "--T", ""], "not an integer or a range: '' in ''"),
    (["security", "--epsilon", "0.25", "--T", "2,x-4"], "not an integer or a range: 'x-4' in '2,x-4'"),
    (["prior", "--n", "3", "--tau", "1-"], "not an integer or a range: '1-' in '1-'"),
], ids=["comma", "letter", "empty", "bad-range", "open-range"])
def test_malformed_int_list_names_the_bad_part(argv, message, capsys):
    # a usage error (exit 2) that names the part int() could not read
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(f"error: argument {argv[-2]}: {message}")


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(["security", "--epsilon", "0.03125", "--out", str(target)], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not target.exists()


def test_bayes_montecarlo_rejects_large_n(capsys):
    code, out, err = run_cli(
        ["montecarlo", "--attack", "bayes-projective", "--n", "40", "--trials", "1000"], capsys
    )
    assert code == 2
    assert "error" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["montecarlo", "--attack", "bayes-projective", "--n", "10", "--T", "100000", "--trials", "10"],
    ["figure", "--id", "4", "--n", "20", "--T", "8192"],
    ["figure", "--id", "3", "--n", "4", "--T", "8192"],
    ["figure", "--id", "4", "--n", "10", "--T", "300,8192,9000"],
    ["figure", "--id", "5", "--n", "10", "--T", "300,8192,9000", "--s", "3"],
])
def test_T_past_the_exact_grid_cap_is_a_usage_error(argv, capsys):
    # rejected before any likelihood grid is asked for, even one of a T in
    # range listed first, with a message naming the first T past the cap
    with mock.patch.object(bayes, "_likelihood_grid", wraps=bayes._likelihood_grid) as grid:
        code, out, err = run_cli(argv, capsys)
    assert grid.call_count == 0
    assert code == 2
    first = next(T for T in _parse_int_list(argv[argv.index("--T") + 1]) if T > 8191)
    assert err == f"error: T must be <= 8191, got {first}\n"
    assert out == ""


@pytest.mark.parametrize("figure, T, expected", [
    ("3", "0", (0, "T,k,success\n" + "".join(f"0,{k},0.5\n" for k in range(4)), "")),
    ("4", "0", (2, "", "error: T must be >= 1, got 0\n")),
    ("5", "0", (2, "", "error: T must be >= 1, got 0\n")),
    ("4", "-3", (2, "", "error: T must be >= 1, got -3\n")),
    ("5", "-3", (2, "", "error: T must be >= 1, got -3\n")),
], ids=["id-3", "id-4", "id-5", "id-4-negative", "id-5-negative"])
def test_figure_T_zero(figure, T, expected, capsys):
    # with no measurement figure 3 prints the fair guess; figures 4 and 5 need T >= 1
    assert run_cli(["figure", "--id", figure, "--n", "2", "--T", T, "--s", "3"], capsys) == expected


def test_montecarlo_rejects_n_above_63(capsys):
    code, out, err = run_cli(
        ["montecarlo", "--attack", "symmetry-test", "--n", "64", "--trials", "1000"], capsys
    )
    assert code == 2
    assert err == "error: n must lie in [1, 63], got 64\n"
    assert out == ""


def test_security_table(capsys):
    code, out, err = run_cli(["security", "--epsilon", "0.03125", "--T", "2,4"], capsys)
    assert code == 0
    rows = read_csv(out)
    assert [r["T"] for r in rows] == ["2", "4"]
    assert rows[0]["s_exact"] == "16"
    assert rows[0]["s_simple"] == "24"
    assert rows[0]["forward_search"] == "8"
    assert rows[0]["simple_to_forward_ratio"] == "3"


def test_security_single_copy_pair_keeps_forward_search(capsys):
    # the 1 - 1/(3T) bound is undefined at T = 1: blank lengths and ratio,
    # the forward-search length still printed, and no check on that row
    code, out, err = run_cli(["security", "--epsilon", "0.03125", "--T", "1-3"], capsys)
    assert (code, err) == (0, "")
    rows = read_csv(out)
    assert [r["T"] for r in rows] == ["1", "2", "3"]
    assert [rows[0][f] for f in ("s_exact", "s_simple", "forward_search", "simple_to_forward_ratio")] == [
        "", "", "4", ""]
    assert [rows[1][f] for f in ("s_exact", "s_simple", "forward_search", "simple_to_forward_ratio")] == [
        "16", "24", "8", "3"]


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_security_undefined_ratio_is_blank(capsys):
    # at epsilon = 1/2 both lengths are 0 and their ratio is undefined
    code, out, err = run_cli(["security", "--epsilon", "0.5", "--T", "2,3", "--format", "json"], capsys)
    assert code == 0, err
    rows = json.loads(out, parse_constant=reject_constant)
    assert [(r["s_simple"], r["forward_search"], r["simple_to_forward_ratio"]) for r in rows] == [(0, 0, "")] * 2
    code, out, err = run_cli(["security", "--epsilon", "0.5"], capsys)
    assert code == 0, err
    assert read_csv(out)[0]["simple_to_forward_ratio"] == ""


def test_security_rejects_bad_epsilon(capsys):
    code, out, err = run_cli(["security", "--epsilon", "0.75"], capsys)
    assert code == 2
    assert "error" in err


def test_figure5_rows_respect_bound(capsys):
    code, out, err = run_cli(["figure", "--id", "5", "--T", "2", "--s", "12"], capsys)
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 12
    for row in rows:
        assert float(row["success"]) <= float(row["upper_bound"]) + 1e-10


def test_figure5_bound_column_blank_for_single_copy_pair(capsys):
    # the codeword bound needs T > 1: T = 1 rows print with a blank bound and are not checked
    code, out, err = run_cli(["figure", "--id", "5", "--T", "1-2", "--s", "3"], capsys)
    assert code == 0, err
    rows = read_csv(out)
    assert [(r["T"], r["s"]) for r in rows] == [(T, s) for T in "12" for s in "123"]
    assert all(r["upper_bound"] == "" for r in rows[:3])
    for row in rows[3:]:
        assert float(row["success"]) <= float(row["upper_bound"]) + 1e-10


def test_figure2_gap_positive(capsys):
    code, out, err = run_cli(["figure", "--id", "2"], capsys)
    assert code == 0
    rows = read_csv(out)
    assert [r["copies"] for r in rows] == [str(2 * t) for t in range(1, 9)]
    assert all(float(r["gap_bits"]) > 0.0 for r in rows)


def test_figure1_grids_sum_to_one(capsys):
    code, out, err = run_cli(["figure", "--id", "1", "--n", "6"], capsys)
    assert code == 0
    rows = read_csv(out)
    sums = {}
    for row in rows:
        key = (row["T"], row["t0z"], row["t0x"])
        sums[key] = sums.get(key, 0.0) + float(row["posterior"])
    assert sums
    for total in sums.values():
        assert total == pytest.approx(1.0, abs=1e-9)
    # the preset covers both copy counts with their event lists
    assert {key[0] for key in sums} == {"8", "9"}


def test_figure3_columns(capsys):
    code, out, err = run_cli(["figure", "--id", "3", "--n", "5", "--T", "2"], capsys)
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 32
    assert list(rows[0]) == ["T", "k", "success"]


def test_figure4_bound_column_blank_for_single_copy_pair(capsys):
    code, out, err = run_cli(["figure", "--id", "4", "--n", "6", "--T", "1-4"], capsys)
    assert code == 0
    rows = read_csv(out)
    assert rows[0]["upper_bound"] == ""
    assert float(rows[1]["upper_bound"]) == pytest.approx(11.0 / 12.0, abs=1e-12)
    for row in rows:
        assert float(row["mean_success"]) <= float(row["optimal_collective"]) + 1e-9


@pytest.mark.parametrize("argv", [
    ["figure", "--id", "4", "--n", "1", "--T", "1-4"],
    ["figure", "--id", "4", "--n", "2", "--T", "1-4"],
    ["figure", "--id", "5", "--n", "2", "--T", "2", "--s", "3"],
])
def test_continuum_bounds_skip_tiny_key_sets(argv, capsys):
    # 2**n <= 2T+1 keys are far apart, so the attack beats the continuum bounds
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    assert len(read_csv(out)) == (4 if argv[2] == "4" else 3)


@pytest.mark.parametrize("argv", [
    ["figure", "--id", "4", "--T", "1-12"],
    ["figure", "--id", "5", "--T", "2,4,8", "--s", "20"],
])
def test_mean_success_figures_same_past_the_exact_grid(argv, capsys):
    # figures 4 and 5 sum only the 2**m keys of the smallest exact grid, so
    # they accept n above the key tables' cap and print the same rows
    at_cap = run_cli(argv + ["--n", "14"], capsys)
    assert at_cap[0] in (0, 1)
    assert run_cli(argv + ["--n", "20"], capsys) == at_cap


def test_mean_success_bound_fails_from_T_11(capsys):
    code, out, err = run_cli(["figure", "--id", "4", "--n", "6", "--T", "11-16"], capsys)
    assert code == 1
    violations = json.loads(err)["violations"]
    assert {v["check"] for v in violations} == {"mean-success-bound"}
    assert [v["T"] for v in violations] == list(range(11, 17))


@pytest.mark.parametrize("argv", [
    ["figure", "--id", "5", "--s", "1100"],
    ["figure", "--id", "4", "--n", "4", "--T", "259,512"],
])
def test_long_codewords_and_many_copies_do_not_crash(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code in (0, 1), err
    assert "nan" not in out and "inf" not in out


def test_montecarlo_has_no_N_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["montecarlo", "--attack", "symmetry-test", "--N", "4"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_figure_rejects_bad_id(capsys):
    code, out, err = run_cli(["figure", "--id", "9"], capsys)
    assert code == 2


@pytest.mark.parametrize("s", ["0", "-3"])
def test_figure5_rejects_nonpositive_s(s, capsys):
    code, out, err = run_cli(["figure", "--id", "5", "--T", "2", "--s", s], capsys)
    assert code == 2
    assert err == f"error: codeword length --s must be >= 1, got {s}\n"
    assert out == ""


@pytest.mark.parametrize("s", ["0", "-3"])
def test_montecarlo_rejects_nonpositive_s(s, capsys):
    code, out, err = run_cli(["montecarlo", "--attack", "symmetry-test", "--s", s], capsys)
    assert code == 2
    assert err == f"error: codeword length must be >= 1, got {s}\n"
    assert out == ""


def test_internal_error_exits_3(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "security", crash)
    code, out, err = run_cli(["security", "--epsilon", "0.25"], capsys)
    assert code == 3
    assert err == "error: internal: RuntimeError: boom\n"
    assert out == ""


def test_prior_json_format(capsys):
    code, out, err = run_cli(
        ["prior", "--tau", "1,2", "--n", "2,3", "--format", "json"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    first = rows[0]
    assert first["tau"] == 1
    assert first["entropy_bits"] == pytest.approx(1.0, abs=1e-9)
    assert first["rank"] == 2
    for row in rows:
        assert row["entropy_bits"] <= math.log2(row["tau"] + 1) + 1e-9
        spectrum = [float(v) for v in row["spectrum"].split(";")]
        assert sum(spectrum) == pytest.approx(1.0, abs=1e-9)


def test_prior_rejects_out_of_range(capsys):
    code, out, err = run_cli(["prior", "--tau", "80", "--n", "2"], capsys)
    assert code == 2
    assert "error" in err


LOADED_MODULES = """
import sys
import qpke.cli
try:
    code = qpke.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
except SystemExit as stop:  # --help and argparse usage errors
    code = stop.code
print(*sorted(sys.modules), file=sys.stderr)
sys.exit(code)
"""


def run_fresh(script, *args, code=0):
    """Run ``script`` with ``args`` in a fresh interpreter that imports this qpke; return its completed process."""
    src = os.path.dirname(os.path.dirname(qpke.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    return proc


def loaded_modules(argv, code=0):
    """Modules a fresh interpreter holds after ``import qpke.cli`` and, for a non-empty argv, ``main(argv)``.

    ``sys.modules`` is printed as the last stderr line; ``-X importtime``
    would miss a submodule imported by ``from . import name``.
    """
    return set(run_fresh(LOADED_MODULES, *argv, code=code).stderr.splitlines()[-1].split())


#: an argparse usage error (a reversed range), which exits 2
USAGE_ERROR = ["prior", "--tau", "5-1"]
FIGURE_MODULES = {"bayes", "protocol", "symmetry"}
PRIOR_MODULES = {"protocol", "symspace", "symmetry"}
# (argv, the qpke submodules besides cli that it loads, whether it loads
# numpy); an empty argv only imports qpke.cli
COMMAND_MODULES = [
    ([], set(), False),
    (["--help"], set(), False),
    (USAGE_ERROR, set(), False),
    # the prior table is math sums, so symspace builds no operator there
    (["prior", "--tau", "4", "--n", "3"], PRIOR_MODULES, False),
    (["prior", "--tau", "1-64", "--n", "1-20"], PRIOR_MODULES, False),
    # an all-array CSV table loads the numpy cell kernel
    (["figure", "--id", "1", "--n", "4"], {"bayes", "protocol", "cells"}, True),
    (["figure", "--id", "2", "--n", "4"], FIGURE_MODULES, True),
    (["figure", "--id", "3", "--n", "4"], {"bayes", "protocol", "cells"}, True),
    (["figure", "--id", "4", "--n", "4"], FIGURE_MODULES, True),
    (["figure", "--id", "5", "--n", "4", "--s", "3"], FIGURE_MODULES, True),
    (["security", "--epsilon", "0.25", "--T", "1-4"], {"symmetry"}, False),
    (["montecarlo", "--attack", "symmetry-test", "--n", "4", "--s", "2", "--trials", "2000"],
     FIGURE_MODULES | {"montecarlo"}, True),
    (["montecarlo", "--attack", "bayes-projective", "--n", "4", "--trials", "2000"],
     FIGURE_MODULES | {"montecarlo"}, True),
    (["check-all"], FIGURE_MODULES | {"montecarlo", "symspace"}, True),
]


@pytest.mark.parametrize("argv, modules, numpy", COMMAND_MODULES,
                         ids=[" ".join(argv[:3]) or "import qpke.cli" for argv, _, _ in COMMAND_MODULES])
def test_each_command_loads_only_its_modules(argv, modules, numpy):
    loaded = loaded_modules(argv, code=2 if argv == USAGE_ERROR else 0)
    assert {m for m in loaded if m.startswith("qpke.")} == {"qpke.cli", *(f"qpke.{m}" for m in modules)}
    # numpy costs every process ~0.1 s of CPU at start-up, and numpy.random
    # ~17 ms more
    assert ("numpy" in loaded) == numpy
    assert ("numpy.random" in loaded) == ("montecarlo" in modules)
    # json is loaded only to write JSON or to report a violated check, and
    # none of these argv does either
    assert "json" not in loaded
    # the records are plain slotted classes: no command generates dataclass
    # code, and without numpy nothing loads inspect
    assert "dataclasses" not in loaded
    assert numpy or "inspect" not in loaded


NUMPY_BLOCKED = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import qpke.cli
runs = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qpke.cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def test_commands_that_need_no_numpy_run_without_it(tmp_path):
    # the writer's list path, --help and argparse's usage errors, run where
    # numpy cannot be imported, print what they print with it
    security = ["security", "--epsilon", "0.25", "--T", "1-12"]
    argv = [security, [*security, "--format", "json"], [*security, "--out", "{out}"], ["--help"], USAGE_ERROR]
    runs, files = {}, {}
    for mode in ("blocked", "open"):
        out = str(tmp_path / f"{mode}.csv")
        batch = [[out if arg == "{out}" else arg for arg in args] for args in argv]
        runs[mode] = json.loads(run_fresh(NUMPY_BLOCKED, mode, json.dumps(batch)).stdout)
        with open(out, "rb") as fh:
            files[mode] = fh.read()
    assert [code for code, _, _ in runs["open"]] == [0, 0, 0, 0, 2]
    assert runs["blocked"] == runs["open"]
    assert files["blocked"] == files["open"] and files["open"].startswith(b"epsilon,T,")


def test_closed_form_modules_load_no_numpy():
    script = "import sys, qpke.protocol, qpke.symmetry; print(*sorted(sys.modules))"
    assert "numpy" not in run_fresh(script).stdout.split()
    # symspace imports numpy only where it builds or diagonalizes an operator
    script = """
import sys
from qpke.symspace import critical_n, prior_spectrum, shannon_entropy
spectrum = prior_spectrum(64, 3)
print(critical_n(64), spectrum.rank, shannon_entropy(spectrum.eigenvalues))
print(*sorted(sys.modules))
"""
    first, modules = run_fresh(script).stdout.splitlines()
    assert first.split()[:2] == ["6", "8"] and "numpy" not in modules.split()


def test_unknown_attack_is_a_usage_error(capsys):
    # TrialConfig is the one check of --attack, so building the parser
    # imports no montecarlo; the usage line still lists the attacks
    code, out, err = run_cli(["montecarlo", "--attack", "nope", "--trials", "10"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: attack must be one of {montecarlo.ATTACKS}, got 'nope'\n"
    with pytest.raises(SystemExit):
        main(["montecarlo", "--help"])
    assert "--attack {" + ",".join(montecarlo.ATTACKS) + "}" in capsys.readouterr().out


def test_package_names_resolve_to_their_submodules():
    # qpke binds a name on first use; it is the object its submodule defines,
    # and a submodule's own name is the submodule
    assert len(qpke.__all__) == 47 and set(qpke.__all__) <= set(dir(qpke))
    for module, names in qpke._EXPORTS.items():
        source = importlib.import_module(f"qpke.{module}")
        assert qpke.__getattr__(module) is source
        for name in names:
            assert getattr(qpke, name) is qpke.__getattr__(name) is getattr(source, name)
    namespace = {}
    exec("from qpke import *", namespace)
    assert set(qpke.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        qpke.no_such_name


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def perfbench_module(name):
    """Load perfbench/<name>.py by path: perfbench is a directory of scripts, not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_targets_exist():
    # perfbench/tracer.py reads every CACHES entry with getattr at start-up,
    # so a lost cache there fails every traced op; it only lists lost HOOKS
    tracer = perfbench_module("tracer")
    for module, attr in tracer.CACHES.values():
        assert hasattr(getattr(importlib.import_module(f"qpke.{module}"), attr), "cache_info"), (module, attr)
    missing = {f"{m}.{a}" for m, a in tracer.HOOKS if not hasattr(importlib.import_module(f"qpke.{m}"), a)}
    assert missing <= {"symspace.jacobi_eigh", "symmetry.enumerate_pair_table"}


RAN_FUNCTIONS = """
import contextlib, inspect, io, json, os, sys
import qpke.cli
package = os.path.dirname(qpke.cli.__file__) + os.sep
ran, passed, codes, defaults = set(), set(), [], {}

def defaults_of(module, qualname):
    # parameter -> default of the function named by its module and qualname,
    # read through lru_cache's __wrapped__; {} where the name does not resolve
    func = sys.modules["qpke" if module == "__init__" else "qpke." + module]
    for part in qualname.split("."):
        func = getattr(func, part, None)
    func = getattr(func, "__wrapped__", func)
    if not inspect.isfunction(func):
        return {}
    return {p.name: p.default for p in inspect.signature(func).parameters.values() if p.default is not p.empty}

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        module = os.path.basename(code.co_filename)[:-3]
        name = module + "." + code.co_qualname
        ran.add(name)
        if code not in defaults:
            defaults[code] = defaults_of(module, code.co_qualname)
        if defaults[code]:
            given = frame.f_locals
            passed.update(f"{name}: {p}" for p, default in defaults[code].items() if given[p] is not default)

# each argv runs as the qpke command runs it, through entry_point, whose
# os._exit here only records the exit code
os._exit = codes.append
for argv in json.loads(sys.argv[1]):
    sys.argv[1:] = argv
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        qpke.cli.entry_point()
        sys.setprofile(None)
print(json.dumps({"codes": codes, "ran": sorted(ran), "passed": sorted(passed)}))
"""

# one small argv per command; the Bayes campaign has trials * s >= 2**n, so
# it reaches the tabulated binomial search
REACH_ARGV = [
    ["prior", "--tau", "2,4", "--n", "2,3"],
    ["security", "--epsilon", "0.25", "--T", "1-3"],
    ["check-all", "--trials", "1000"],
    ["montecarlo", "--attack", "bayes-projective", "--n", "4", "--T", "4", "--s", "2", "--trials", "200"],
    ["figure", "--id", "1", "--n", "3", "--format", "json"],
    *(["figure", "--id", str(i), "--n", "4", "--T", "1-3", "--s", "3"] for i in range(2, 6)),
]


def package_trees():
    """Module name -> parsed source of every module of the package."""
    package = os.path.dirname(qpke.__file__)
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                trees[name[:-3]] = ast.parse(fh.read(), name)
    return trees


def library_functions():
    """Every non-dunder ``def`` in the package: qualified name ``module.qualname`` -> its AST node."""
    functions = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    functions[f"{module}.{prefix}{child.name}"] = child
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for module, tree in package_trees().items():
        walk(tree, module, "")
    return functions


def defaulted_parameters(node):
    """Names of the parameters of the ``def`` ``node`` that have a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    return [a.arg for a in positional[len(positional) - len(args.defaults):]] + [
        a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]


@functools.cache
def command_profile():
    """What the ``REACH_ARGV`` commands run, profiled in a fresh interpreter, so no warmed lru_cache hides a call."""
    return json.loads(run_fresh(RAN_FUNCTIONS, json.dumps(REACH_ARGV)).stdout)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11")
def test_every_library_function_is_reached_by_a_command():
    # a function that no command runs is dead code, save the one reference
    # the test oracles build priors with (tests/oracles.py)
    report = command_profile()
    assert report["codes"] == [0] * len(REACH_ARGV)
    unreached = sorted(set(library_functions()) - set(report["ran"]))
    assert unreached == ["symspace.mixture_density"], f"run by no command: {unreached}"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11")
def test_every_library_parameter_is_set_by_a_command():
    # a parameter that every command leaves at its default is a path only
    # tests take; tests reach such a path through a seam the commands use
    # (a scripted generator, a patched table), not through a parameter
    report = command_profile()
    assert report["codes"] == [0] * len(REACH_ARGV)
    declared = {f"{name}: {p}" for name, node in library_functions().items() for p in defaulted_parameters(node)}
    unset = sorted(declared - set(report["passed"]))
    assert unset == [], f"set by no command: {unset}"


def loaded_names(tree):
    """Names that ``tree`` reads: loaded names and attribute names."""
    nodes = list(ast.walk(tree))
    return {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in nodes if isinstance(node, ast.Attribute)}


def unread_imports(statements, read):
    """Names bound by the imports among ``statements`` that are not in ``read``."""
    return [
        bound for node in statements
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for bound in (alias.asname or alias.name.split(".")[0] for alias in node.names)
        if bound not in read
    ]


def test_library_has_no_unused_imports_or_private_names():
    # no linter is run on the package: an import its module never reads, an
    # import inside a function that the function never reads, or a
    # module-level _private name that no module of the package reads, is a
    # leftover of deleted code
    trees = package_trees()
    # a name imported from another module of the package is read there
    read_anywhere = set().union(*(
        loaded_names(tree) | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                              for alias in node.names}
        for tree in trees.values()))
    unused, unread = [], []
    for name, tree in trees.items():
        unused += [f"{name}: {bound}" for bound in unread_imports(tree.body, loaded_names(tree))]
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unused += [f"{name}: {function.name}: {bound}"
                           for bound in unread_imports(ast.walk(function), loaded_names(function))]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                defined = []
            unread += [
                f"{name}: {private}" for private in defined
                if private.startswith("_") and not private.startswith("__") and private not in read_anywhere
            ]
    assert (unused, unread) == ([], [])


@pytest.mark.parametrize("argv", [
    ["prior", "--tau", "4,8", "--n", "10,12"],
    ["prior", "--tau", "32,64", "--n", "12,14"],
    ["prior", "--tau", "64", "--n", "6,7"],
    ["figure", "--id", "1", "--n", "10"],
    ["figure", "--id", "2", "--n", "10"],
    ["figure", "--id", "3", "--n", "12", "--T", "4,8"],
    ["figure", "--id", "4", "--n", "12", "--T", "1-12"],
    ["figure", "--id", "5", "--n", "12", "--T", "4,8,16", "--s", "20"],
    ["security", "--epsilon", "0.03125", "--T", "4-12"],
    ["montecarlo", "--attack", "symmetry-test", "--n", "10", "--T", "1", "--s", "8", "--trials", "2000",
     "--seed", "1"],
    ["montecarlo", "--attack", "bayes-projective", "--n", "12", "--T", "8", "--s", "4", "--trials", "2000",
     "--seed", "1"],
    ["check-all", "--seed", "0"],
], ids=lambda argv: " ".join(argv[:3]))
def test_benchmark_correctness_gate_passes(argv, capsys):
    # the benchmark gates every op's output against perfbench/reference.json
    gate = perfbench_module("gate")
    with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    code, out, err = run_cli(argv, capsys)
    assert gate.check(argv, code, out, err, reference) is None


def test_montecarlo_command(capsys):
    code, out, err = run_cli(
        [
            "montecarlo", "--attack", "symmetry-test", "--n", "8", "--s", "1",
            "--trials", "20000", "--seed", "3",
        ],
        capsys,
    )
    assert code == 0
    row = read_csv(out)[0]
    assert row["attack"] == "symmetry-test"
    assert float(row["analytic"]) == 0.75
    assert abs(float(row["z_score"])) < 4.0


def test_montecarlo_z_score_survives_a_collapsed_standard_error(capsys):
    # one trial has an empirical standard error of 0; z is taken against the
    # analytic value's own binomial error, so a single 0/1 outcome is |z| ~ 1
    code, out, err = run_cli(
        ["montecarlo", "--attack", "symmetry-test", "--n", "10", "--T", "1", "--s", "8", "--trials", "1"], capsys
    )
    assert code == 0
    row = read_csv(out)[0]
    assert float(row["std_error"]) == 0.0
    analytic = float(row["analytic"])
    assert analytic == pytest.approx(0.5 + 2.0 ** -9, abs=1e-12)
    expected = (float(row["empirical"]) - analytic) / math.sqrt(analytic * (1.0 - analytic))
    assert float(row["z_score"]) == pytest.approx(expected, rel=1e-9)
    assert abs(float(row["z_score"])) == pytest.approx(1.0, abs=0.01)


def test_montecarlo_warns_on_tiny_trial_count(capsys):
    code, out, err = run_cli(
        ["montecarlo", "--attack", "symmetry-test", "--s", "1", "--T", "1", "--trials", "50"],
        capsys,
    )
    assert code == 0
    assert "warning" in err
    # an invalid count is rejected before any warning
    for trials in ("0", "-5"):
        code, out, err = run_cli(
            ["montecarlo", "--attack", "symmetry-test", "--trials", trials], capsys
        )
        assert code == 2
        assert out == ""
        assert err == f"error: trial count must be >= 1, got {trials}\n"
    code, out, err = run_cli(["montecarlo", "--attack", "symmetry-test", "--seed", "-1"], capsys)
    assert code == 2
    assert err == "error: seed must be >= 0, got -1\n"


def test_same_seed_reruns_identical(capsys):
    args = ["montecarlo", "--attack", "bayes-projective", "--n", "6", "--T", "2",
            "--s", "1", "--trials", "5000", "--seed", "11"]
    _, out_a, _ = run_cli(args, capsys)
    _, out_b, _ = run_cli(args, capsys)
    assert out_a == out_b


def test_out_file_and_number_format(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, err = run_cli(
        ["figure", "--id", "4", "--n", "6", "--T", "2", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.splitlines()[0] == "T,mean_success,optimal_collective,upper_bound"
    # locale-independent, 12 significant digits
    row = read_csv(text)[0]
    assert row["upper_bound"] == "0.916666666667"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure"])  # missing required --id
    assert exc.value.code == 2
    capsys.readouterr()


def test_check_all_passes(capsys):
    code, out, err = run_cli(["check-all", "--trials", "20000"], capsys)
    assert code == 0, err
    rows = read_csv(out)
    assert len(rows) == 14
    assert all(row["passed"] == "true" for row in rows)
    names = {row["check"] for row in rows}
    assert {"protocol-roundtrip", "binomial-spectrum", "mc-symmetry", "factor-three"} <= names


def test_forward_equivalence_reads_the_pair_verdict(monkeypatch):
    # the symmetry-test side is the pair verdict averaged over four basis
    # offsets, not the forward-search law itself
    assert cli._check_forward_equivalence()[0]
    pair_success = symmetry.pair_success
    monkeypatch.setattr(symmetry, "pair_success", lambda omega: pair_success(omega) + 1e-9)
    assert cli._check_forward_equivalence() == (False, "single-copy equivalence broken at s=1")


def nan(*args):
    return math.nan


# (module, function, stand-in, check): with the function replaced by its
# stand-in, the check must fail; max() and a ">" test would pass a NaN
NAN_CHECKS = [
    (symmetry, "codeword_success", nan, "_check_parity_identity"),
    (symmetry, "codeword_success", nan, "_check_codeword_bound"),
    (bayes, "information_gain", nan, "_check_information_gain"),
    (bayes, "mean_success", nan, "_check_mean_success"),
    (bayes, "mean_success", nan, "_check_optimal_collective"),
    (bayes, "evidence", nan, "_check_bayes_normalization"),
    (symspace, "von_neumann_entropy", nan, "_check_entropy_bounds"),
    (symspace, "prior_spectrum", lambda tau, n: argparse.Namespace(eigenvalues=np.full(tau + 1, np.nan)),
     "_check_binomial_spectrum"),
    (symspace, "prior_density", lambda tau, n: argparse.Namespace(matrix=np.full((tau + 1, tau + 1), np.nan)),
     "_check_parity_zeros"),
]


@pytest.mark.parametrize("module, function, stand_in, check", NAN_CHECKS,
                         ids=[f"{check} {function}" for _, function, _, check in NAN_CHECKS])
def test_checks_fail_on_nan(module, function, stand_in, check):
    with mock.patch.object(module, function, stand_in):
        passed, detail = getattr(cli, check)()
    assert not passed, detail


NAN_COMMANDS = [
    (symspace, "shannon_entropy", ["prior", "--tau", "4", "--n", "3"], {"entropy-dimension-bound"}),
    (bayes, "information_gain", ["figure", "--id", "2", "--n", "6"], {"information-gain-below-bound"}),
    (bayes, "mean_success", ["figure", "--id", "4", "--n", "6", "--T", "2,3"],
     {"mean-success-bound", "mean-below-optimal"}),
    (symmetry, "codeword_success", ["figure", "--id", "5", "--n", "6", "--T", "2", "--s", "3"], {"codeword-bound"}),
]


@pytest.mark.parametrize("module, function, argv, violated", NAN_COMMANDS,
                         ids=[" ".join(argv[:3]) for _, _, argv, _ in NAN_COMMANDS])
def test_commands_report_nan_as_a_violation(module, function, argv, violated, capsys):
    with mock.patch.object(module, function, nan):
        code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert {v["check"] for v in json.loads(err)["violations"]} == violated


@pytest.mark.parametrize("argv", [
    ["figure", "--id", "5", "--n", "6", "--T", "2", "--s", "3"],
    ["montecarlo", "--attack", "bayes-projective", "--n", "6", "--T", "2", "--trials", "100"],
], ids=["figure 5", "montecarlo"])
def test_nan_success_probability_is_an_internal_error(argv, capsys):
    # a NaN bit success probability is a failed computation, not a usage error
    with mock.patch.object(bayes, "mean_success", nan):
        code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert err == "error: internal: FloatingPointError: bit success probability must lie in [0, 1], got nan\n"


def render(write, *args) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        write(*args)
    return buffer.getvalue()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 1e13, 0.1, 2.0 ** 60]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
int64s = st.one_of(st.sampled_from([0, -1, 10**13]), st.integers(-(2**63), 2**63 - 1))
texts = st.text(alphabet=',"\n\r ab;\'\u00e9', max_size=6)
# cell strategy and column constructor for each kind of column a command can
# build; list cells are Python values (np.float64 is a float subclass)
COLUMN_KINDS = {
    "float array": (floats, lambda cells: np.array(cells, dtype=np.float64)),
    "int array": (int64s, lambda cells: np.array(cells, dtype=np.int64)),
    "bool array": (st.booleans(), lambda cells: np.array(cells, dtype=bool)),
    "float list": (floats, list),
    "numpy float list": (floats.map(np.float64), list),
    "int list": (st.one_of(int64s, st.integers()), list),
    "bool list": (st.booleans(), list),
    "text list": (texts, list),
    "mixed list": (st.one_of(floats, int64s, st.booleans(), texts, floats.map(np.float64)), list),
}


@st.composite
def tables(draw):
    """A chunk size and a table whose row count sits on, or next to, a multiple of it."""
    chunk = draw(st.sampled_from([1, 2, 5, CHUNK_ROWS]))
    rows = draw(st.one_of(st.sampled_from([0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1]), st.integers(0, 12)))
    fields = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    columns = []
    for _ in fields:
        cells, build = COLUMN_KINDS[draw(st.sampled_from(sorted(COLUMN_KINDS)))]
        pool = draw(st.lists(cells, min_size=1, max_size=8))
        columns.append(build((pool * (rows // len(pool) + 1))[:rows]))
    return chunk, fields, columns


@settings(max_examples=80, deadline=None)
@given(tables())
def test_column_writer_matches_row_writer(table):
    # small chunk sizes put the same chunk boundaries in tables that are cheap
    # to shrink when the test fails
    chunk, fields, columns = table
    rows = [dict(zip(fields, cells)) for cells in zip(*columns)]
    for fmt in ("csv", "json"):
        expected = render(write_row_dicts, rows, fields, fmt, None)
        with mock.patch.object(cli, "CHUNK_ROWS", chunk):
            assert render(cli._write_rows, Table(dict(zip(fields, columns))), fmt, None) == expected


@settings(max_examples=80, deadline=None)
@given(tables(), st.lists(st.integers(0, 30), max_size=4))
def test_streamed_blocks_match_row_writer(table, cuts):
    # the same columns cut into blocks, empty ones among them, so that a
    # chunk ends inside a block and a block inside a chunk: the bytes of the
    # whole table, and len() counts the rows once they are written
    chunk, fields, columns = table
    rows = [dict(zip(fields, cells)) for cells in zip(*columns)]
    edges = sorted({0, len(rows), *(cut for cut in cuts if cut <= len(rows))})
    for fmt in ("csv", "json"):
        expected = render(write_row_dicts, rows, fields, fmt, None)
        blocks = ([column[a:b] for column in columns] for a, b in zip(edges, edges[1:]))
        streamed = Table(fields, blocks)
        with mock.patch.object(cli, "CHUNK_ROWS", chunk):
            assert render(cli._write_rows, streamed, fmt, None) == expected
        assert len(streamed) == len(rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("blocks", [[], [[np.arange(0), np.zeros(0)]], [[[], []], [np.arange(0), np.zeros(0)]]],
                         ids=["no-block", "one-empty-block", "two-empty-blocks"])
def test_streamed_table_of_zero_rows(blocks, fmt):
    # the JSON writer closes an empty list with "]", not "\n]"
    expected = render(write_row_dicts, [], ["k", "p"], fmt, None)
    table = Table(["k", "p"], iter(blocks))
    assert render(cli._write_rows, table, fmt, None) == expected
    assert len(table) == 0


INT64 = np.iinfo(np.int64)
# the edges of the kernel's fast range and the values it must hand to '%.12g' % x
EDGE_FLOATS = [1e300, np.nextafter(1e300, 0), 1e-300, np.nextafter(1e-300, 0), np.nextafter(1e-300, 1),
               5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0), 1.7976931348623157e308,
               0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, 1e12 - 0.5, 99999999999.95, 0.0001, 1e16]


def powers_of_ten_and_neighbours(exponents):
    """10**k (correctly rounded) and its 1 and 2 ulp neighbours on both sides, for each k."""
    powers = np.array([float(f"1e{k}") for k in exponents])
    below = np.nextafter(powers, 0)
    above = np.nextafter(powers, np.inf)
    return np.concatenate([np.nextafter(below, 0), below, powers, above, np.nextafter(above, np.inf)])


@st.composite
def kernel_chunks(draw):
    """Float, int64 and uint64 columns of thousands of values: drawn floats and
    integers, 10**k with its ulp neighbours and the values that round up to
    it, 12-digit rounding ties, and the edges of the fast range."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ties = [float(f"{m}5e{e}") for m, e in zip(rng.integers(10 ** 11, 10 ** 12, 300).tolist(),
                                                 rng.integers(-311, 288, 300).tolist())]
    powers = powers_of_ten_and_neighbours(rng.integers(-300, 301, 300))
    floats = np.concatenate([
        np.array(draw(st.lists(st.floats(), max_size=200)), np.float64),
        # the ulp neighbours of 10**k, and values 1e-15 to 5e-13 below it,
        # whose 12 digits round up to the next decade
        powers, powers * (1.0 - 10.0 ** -rng.uniform(12.3, 15.0, len(powers))),
        ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf),
        rng.integers(0, 10 ** 6, 500) / 10.0 ** rng.integers(-12, 12, 500).astype(float),
        rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, 1000).astype(float),
        EDGE_FLOATS,
    ])
    floats *= rng.choice([-1.0, 1.0], len(floats))
    ints = np.concatenate([
        [INT64.min, INT64.max, -1, 0, 1],
        np.array(draw(st.lists(st.integers(INT64.min, INT64.max), max_size=100)), np.int64),
        rng.integers(INT64.min, INT64.max, len(floats), endpoint=True) >> rng.integers(0, 64, len(floats)),
    ])[:len(floats)]
    uints = rng.integers(0, 2 ** 64 - 1, len(floats), np.uint64, endpoint=True) >> rng.integers(
        0, 64, len(floats)).astype(np.uint64)
    uints[:2] = 0, 2 ** 64 - 1
    return floats, ints, uints


@settings(max_examples=40, deadline=None)
@given(kernel_chunks())
def test_cell_kernel_matches_percent_format(chunk):
    # the numpy cells are the bytes of '%.12g' % x and '%d' % v, cell for cell
    floats, ints, uints = chunk
    expected = ["%d,%.12g,%d" % row for row in zip(ints.tolist(), floats.tolist(), uints.tolist())]
    lines = cells.csv_rows([ints, floats, uints]).split("\n")
    assert lines[-1] == "" and len(lines) == len(expected) + 1
    wrong = [(line, want) for line, want in zip(lines, expected) if line != want]
    assert not wrong, f"{len(wrong)} rows differ, first {wrong[:5]}"
    # narrower dtypes print the values their tolist() gives
    with np.errstate(over="ignore"):
        narrow = [ints.astype(np.int16), floats.astype(np.float32), uints.astype(np.uint8)]
    assert cells.csv_rows(narrow) == "".join("%d,%.12g,%d\n" % row for row in zip(*(c.tolist() for c in narrow)))


def test_cell_kernel_scaled_mantissa_within_its_error_bound():
    # the premise of SLACK: y = |x| * SCALE * SCALE_EXACT lies within 3.4e-4
    # of the exact |x| * 10**(11 - e) at every exponent of the fast range,
    # the two-factor scales below 1e-289 included
    rng = np.random.default_rng(5)
    x = np.concatenate([powers_of_ten_and_neighbours(range(-300, 300)),
                        (1.0 + 9.0 * rng.random(6000)) * 10.0 ** np.repeat(np.arange(-300, 300), 10).astype(float)])
    x = x[(x >= 1e-300) & (x < 1e300)]
    exponent = np.floor(np.log10(x)).astype(np.intp)
    y = x * cells.SCALE[exponent + 301] * cells.SCALE_EXACT[exponent + 301]
    worst = max(abs(Fraction(yi) - Fraction(xi) * Fraction(10) ** (11 - e))
                for xi, yi, e in zip(x.tolist(), y.tolist(), exponent.tolist()))
    assert worst <= Fraction(34, 100000) < cells.SLACK


QUOTING_CASES = ["", "a,b", 'a"b', "a\nb", "a\rb", " a", "%s", "%d%%", "x;y"]


@pytest.mark.parametrize("width", [1, 2, 3])
def test_csv_quoting_matches_csv_module(width):
    # every string is a header name and a cell of each column, plus one row of
    # empty cells; "%" in them must come out verbatim
    size = len(QUOTING_CASES)
    for offset in range(size):
        fields = [QUOTING_CASES[(offset + j) % size] for j in range(width)]
        columns = [[QUOTING_CASES[(r + j) % size] for r in range(size)] + [""] for j in range(width)]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows(zip(*columns))
        with mock.patch.object(cli, "CHUNK_ROWS", 4):
            assert render(cli._write_rows, Table(dict(zip(fields, columns))), "csv", None) == buffer.getvalue()


def test_table_rejects_unequal_columns():
    with pytest.raises(ValueError):
        Table({"a": [1, 2], "b": np.arange(3)})
    # a streamed table, at the block that is read
    streamed = Table(["a", "b"], iter([[[1, 2], np.arange(2)], [[1], np.arange(3)]]))
    with pytest.raises(ValueError):
        render(cli._write_rows, streamed, "csv", None)


GOLDEN = {
    "figure-1": (["figure", "--id", "1", "--n", "4"], lambda: figure1_rows(4)),
    "figure-3": (["figure", "--id", "3", "--n", "5", "--T", "1,2,7"], lambda: figure3_rows([1, 2, 7], 5)),
    "prior": (["prior", "--tau", "1,2,64", "--n", "2,7"], lambda: prior_rows([1, 2, 64], [2, 7])),
    "check-all": (["check-all", "--trials", "2000", "--seed", "5"], lambda: check_all_rows(2000, 5)),
}


STREAMED = {
    "figure-1": (["figure", "--id", "1", "--n", "4"], lambda: figure1_rows(4)),
    "figure-3": (["figure", "--id", "3", "--n", "4", "--T", "1,2,7"], lambda: figure3_rows([1, 2, 7], 4)),
}


@pytest.mark.parametrize("chunk", [5, 16, 32])
@pytest.mark.parametrize("command", sorted(STREAMED))
def test_streamed_figures_match_row_writer_at_chunk_edges(command, chunk, capsys, monkeypatch):
    # figures 1 and 3 hand the writer one 16-row grid (n = 4) at a time; a
    # chunk shorter than a grid ends inside it
    argv, build_rows = STREAMED[command]
    rows, fields = build_rows()
    monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
    for fmt in ("csv", "json"):
        assert run_cli(argv + ["--format", fmt], capsys) == (0, render(write_row_dicts, rows, fields, fmt, None), "")


@pytest.mark.parametrize("n", [10, 12, 13])
def test_figure3_grids_about_a_chunk_match_row_writer(n, capsys):
    # one key grid is shorter than, as long as and longer than CHUNK_ROWS
    rows, fields = figure3_rows([1, 2, 7], n)
    for fmt in ("csv", "json"):
        argv = ["figure", "--id", "3", "--n", str(n), "--T", "1,2,7", "--format", fmt]
        assert run_cli(argv, capsys) == (0, render(write_row_dicts, rows, fields, fmt, None), "")


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_matches_row_writer(command, tmp_path, capsys, monkeypatch):
    # the checks are deterministic; share one evaluation between the runs below
    for name in dir(cli):
        if name.startswith("_check_"):
            monkeypatch.setattr(cli, name, functools.cache(getattr(cli, name)))
    argv, build_rows = GOLDEN[command]
    rows, fields = build_rows()
    for fmt in ("csv", "json"):
        expected = render(write_row_dicts, rows, fields, fmt, None)
        code, out, err = run_cli(argv + ["--format", fmt], capsys)
        assert code == 0, err
        assert out == expected
        target = tmp_path / f"table.{fmt}"
        code, out, err = run_cli(argv + ["--format", fmt, "--out", str(target)], capsys)
        assert code == 0, err
        assert out == ""
        assert target.read_bytes() == expected.encode("utf-8")


def traced_peak(argv, tmp_path):
    """The tracemalloc peak of ``argv`` written to a file from cold caches, and the data rows written."""
    target = tmp_path / "table.csv"
    bayes._prob0_tables.cache_clear()
    bayes._likelihood_grid.cache_clear()
    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak, target.read_text().count("\n") - 1


def test_figure1_memory_ceiling(tmp_path):
    # one posterior grid of 4096 keys at 8 B a cell of its five columns (it
    # holds 13 B a row: uint8 T, t0z and t0x, the shared uint16 keys and the
    # float64 posteriors) and its unnormalized row, the likelihood tables of
    # T = 8, cached while those of T = 9 are built, and one chunk of formatted
    # cells at 128 B each; a builder that holds all 75 grids needs more
    # (2.85 MB of the 4.06 MB bound when measured, 6.8 MB for whole columns)
    n = 12
    size = 1 << n
    peak, rows = traced_peak(["figure", "--id", "1", "--n", str(n)], tmp_path)
    assert rows == 75 * size
    grid_bytes = 6 * 8 * size
    likelihood_bytes = 2 * (9 + 10) * size * 8
    chunk_bytes = CHUNK_ROWS * 5 * 128
    assert peak <= grid_bytes + likelihood_bytes + chunk_bytes


def test_figure3_memory_ceiling(tmp_path):
    # one T's rows (uint8 T, uint16 keys, float64 success) and the success
    # sum's per-key temporaries, 10 rows of 8 B; the likelihood tables of
    # T = 16, the only key grid held, since the small outcome grid read
    # before it evicts the grid of T = 15; and one chunk of formatted cells
    # at 128 B each.  16 T's rows, or a second key grid, need more (2.03 MB
    # of the 3.01 MB bound when measured; 3.12 MB with two grids cached and
    # whole-table temporaries in each build)
    n, T = 12, 16
    size = 1 << n
    peak, rows = traced_peak(["figure", "--id", "3", "--n", str(n), "--T", f"1-{T}"], tmp_path)
    assert rows == T * size
    row_bytes = 10 * 8 * size
    likelihood_bytes = 2 * (T + 1) * size * 8
    chunk_bytes = CHUNK_ROWS * 3 * 128
    assert peak <= row_bytes + likelihood_bytes + chunk_bytes


def test_figure5_memory_ceiling(tmp_path):
    # one block of CHUNK_ROWS codeword lengths as Python lists, at 64 B a
    # cell of its four columns, and one chunk of formatted cells at 128 B
    # each, at any --s; all 400,000 rows as lists need some 60 MB (2.1 MB of
    # the 3.1 MB bound when measured)
    peak, rows = traced_peak(["figure", "--id", "5", "--T", "4,8", "--s", "200000"], tmp_path)
    assert rows == 2 * 200_000
    block_bytes = CHUNK_ROWS * 4 * 64
    chunk_bytes = CHUNK_ROWS * 4 * 128
    assert peak <= block_bytes + chunk_bytes


@pytest.mark.parametrize("argv, grids", [(["figure", "--id", "2", "--n", "10"], 8),
                                         (["figure", "--id", "3", "--n", "10", "--T", "1-16"], 32)])
def test_sweeps_build_each_grid_once_and_keep_the_last(argv, grids, tmp_path):
    # figure 2 reads one grid per T; figure 3 reads a T's outcome grid
    # (2**6 keys or fewer) and then its key grid.  A one-grid cache builds
    # none of them twice, and keeps no grid of a T passed
    bayes._likelihood_grid.cache_clear()
    assert main(argv + ["--out", str(tmp_path / "table.csv")]) == 0
    info = bayes._likelihood_grid.cache_info()
    assert (info.misses, info.hits, info.currsize) == (grids, 0, 1)


SCHEMAS = {
    "prior": "tau,n,entropy_bits,rank,n_critical,at_or_above_critical,bound_loose_bits,bound_tight_bits,spectrum",
    "figure 1": "T,t0z,t0x,k,posterior",
    "figure 2": "copies,prior_entropy_bits,holevo_tight_bits,information_gain_bits,gap_bits",
    "figure 3": "T,k,success",
    "figure 4": "T,mean_success,optimal_collective,upper_bound",
    "figure 5": "T,s,success,upper_bound",
    "security": "epsilon,T,s_exact,s_simple,forward_search,simple_to_forward_ratio",
    "montecarlo": "attack,n,T,s,trials,seed,empirical,std_error,analytic,z_score",
    "check-all": "check,passed,detail",
}


def int_lists(numbers, lo, hi):
    """Texts of an integer-list flag: one value, two values, or a range that may be reversed."""
    ends = st.integers(lo, hi)
    return st.one_of(
        numbers.map(str),
        st.tuples(numbers, numbers).map("{0[0]},{0[1]}".format),
        st.tuples(ends, ends).map("{0[0]}-{0[1]}".format),
    )


def flag_values(*options):
    return st.sampled_from([str(v) for v in options])


# per command, its (flag, value texts, always given) in argv order; the
# values mix valid, edge and invalid inputs at sizes that run in milliseconds
T_VALUES = [-1, 0, 1, 2, 5, 12, 259, 1030]
ARGV_FLAGS = {
    "prior": [
        ("--tau", int_lists(st.sampled_from([0, 1, 2, 3, 64, 65]), 0, 6), False),
        ("--n", int_lists(st.sampled_from([0, 1, 2, 6, 21]), -1, 6), False),
    ],
    "figure": [
        ("--id", flag_values(0, 1, 2, 3, 4, 5, 6), True),
        ("--n", flag_values(0, 1, 2, 4, 6, 15), True),
        ("--T", int_lists(st.sampled_from(T_VALUES), -1, 12), False),
        ("--s", flag_values(-1, 0, 1, 2, 12, 1030), False),
    ],
    "security": [
        ("--epsilon", flag_values(0, 0.5, 0.7, 0.25, 0.03125, 1e-300, -1, "nan"), True),
        ("--T", int_lists(st.sampled_from(T_VALUES), -1, 12), False),
    ],
    "montecarlo": [
        ("--attack", st.sampled_from(["symmetry-test", "bayes-projective"]), True),
        ("--n", flag_values(0, 1, 3, 6, 15, 64), True),
        ("--T", flag_values(*T_VALUES), False),
        ("--s", flag_values(-1, 0, 1, 3, 1030), False),
        ("--trials", flag_values(-1, 0, 1, 2, 300), True),
        ("--seed", flag_values(-1, 0, 7), False),
    ],
    "check-all": [
        ("--trials", flag_values(-1, 0, 1, 2, 200), True),
        ("--seed", flag_values(-1, 0, 5), False),
    ],
}
# the deterministic checks give one verdict however often they run
CACHED_CHECKS = {name: functools.cache(getattr(cli, name)) for name in dir(cli) if name.startswith("_check_")}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(ARGV_FLAGS)))
    argv = [command]
    for flag, texts, always in ARGV_FLAGS[command] + [("--format", st.sampled_from(["csv", "json"]), False)]:
        text = draw(texts if always else st.one_of(st.none(), texts))
        if text is not None:
            argv += [flag, text]
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_any_argv_keeps_exit_code_and_output_contract(argv):
    # a numpy overflow or invalid value becomes an exception, so it exits 3
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            with mock.patch.multiple(cli, **CACHED_CHECKS):
                code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    out = out.getvalue()
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert out == ""
        return
    schema = SCHEMAS[f"figure {argv[2]}" if argv[0] == "figure" else argv[0]].split(",")
    if "json" in argv:
        rows = json.loads(out, parse_constant=reject_constant)
        assert rows and all(list(row) == schema for row in rows)
    else:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == schema and len(rows) > 1
        assert all(len(row) == len(schema) for row in rows)
        for cell in (cell for row in rows[1:] for cell in row):
            with contextlib.suppress(ValueError):
                assert math.isfinite(float(cell))
