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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import check_all_rows, figure1_rows, figure3_rows, prior_rows, write_row_dicts
import qpke
from qpke import bayes, cli
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
])
def test_T_past_the_exact_grid_cap_is_a_usage_error(argv, capsys):
    # rejected before any outcome table is built, with a message naming T
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err == f"error: T must be <= 8191, got {argv[argv.index('--T') + 1]}\n"
    assert out == ""


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


def imported_modules(*args):
    """Modules a fresh ``python -X importtime *args`` imports, read from its stderr."""
    src = os.path.dirname(os.path.dirname(qpke.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


def test_only_monte_carlo_loads_numpy_random():
    # numpy.random costs every process ~17 ms of CPU at start-up
    assert "numpy.random" not in imported_modules("-c", "import qpke.cli")
    assert "numpy.random" not in imported_modules("-m", "qpke.cli", "prior", "--tau", "4", "--n", "3")
    montecarlo = ["montecarlo", "--attack", "symmetry-test", "--n", "4", "--s", "2", "--trials", "2000"]
    assert "numpy.random" in imported_modules("-m", "qpke.cli", *montecarlo)


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
    assert missing <= {"symspace.jacobi_eigh"}


def test_library_has_no_unused_imports_or_private_names():
    # no linter is run on the package: an import its module never reads, or
    # a module-level _private name that no module of the package reads, is a
    # leftover of deleted code
    package = os.path.dirname(qpke.__file__)
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read(), name)
    read = {}
    for name, tree in trees.items():
        nodes = list(ast.walk(tree))
        read[name] = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read[name] |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        read[name] |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names}
    read_anywhere = set().union(*read.values())
    unused, unread = [], []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and name != "__init__.py":
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read[name]:
                        unused.append(f"{name}: {bound}")
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


QUOTING_CASES = ["", "a,b", 'a"b', "a\nb", "a\rb", " a", "%s", "%d%%", "x;y"]


@pytest.mark.parametrize("width", [1, 2, 3])
def test_csv_quoting_matches_csv_module(width):
    # every string is a header name and a cell of each column, plus one row of
    # empty cells; "%" in them must come out verbatim, so no cell or field
    # text may enter the row template
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


GOLDEN = {
    "figure-1": (["figure", "--id", "1", "--n", "4"], lambda: figure1_rows(4)),
    "figure-3": (["figure", "--id", "3", "--n", "5", "--T", "1,2,7"], lambda: figure3_rows([1, 2, 7], 5)),
    "prior": (["prior", "--tau", "1,2,64", "--n", "2,7"], lambda: prior_rows([1, 2, 64], [2, 7])),
    "check-all": (["check-all", "--trials", "2000", "--seed", "5"], lambda: check_all_rows(2000, 5)),
}


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


def test_figure1_memory_ceiling(tmp_path):
    # the five int64/float64 columns, the two cached per-basis likelihood
    # tables (T = 8 and 9), and one chunk of formatted cells at 128 B each;
    # a writer that formats or holds all rows at once needs several times this
    n = 9
    target = tmp_path / "figure1.csv"
    bayes._prob0_tables.cache_clear()
    bayes._likelihood_grid.cache_clear()
    tracemalloc.start()
    try:
        code = main(["figure", "--id", "1", "--n", str(n), "--out", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    rows = target.read_text().count("\n") - 1
    assert rows == 75 << n
    column_bytes = 5 * 8 * rows
    likelihood_bytes = 2 * (9 + 10) * (1 << n) * 8
    chunk_bytes = CHUNK_ROWS * 5 * 128
    assert peak <= column_bytes + likelihood_bytes + chunk_bytes


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
