"""Per-op correctness gate: does one ``qpke`` command's output match the reference?

Closed forms from the paper are evaluated here wherever they exist (binomial
spectra at n >= n_c, log2(tau+1), the Gaussian bound, the collective optimum,
the 1 - 1/(6T) and codeword caps, the required codeword lengths, the Bayes
posterior, the symmetry-test success).  Everything else is compared against
``reference.json``, which ``make_reference.py`` records from the printed
tables of the reference commit.  ``check`` returns None for a correct op and
a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

#: Monte Carlo campaigns pass when |z| against the analytic value is below
#: this; the benchmark runs thousands of campaigns, so 3 sigma would flag
#: several correct ones across a series of runs
MC_Z_GATE = 5.0
#: absolute tolerance on values printed with 12 significant digits
ATOL = 1e-9


class Mismatch(Exception):
    pass


def parse_int_list(text: str) -> list[int]:
    values: list[int] = []
    for part in text.split(","):
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            values.extend(range(int(lo), int(hi) + 1))
        else:
            values.append(int(part))
    return sorted(set(values))


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _close(printed: str, expected: float, what: str, atol: float = ATOL) -> None:
    value = float(printed)
    _expect(abs(value - expected) <= atol + 1e-11 * abs(expected), f"{what}: {printed} != {expected!r}")


def _table(stdout: str, header: list[str]) -> list[dict]:
    reader = csv.DictReader(io.StringIO(stdout))
    _expect(reader.fieldnames == header, f"header {reader.fieldnames} != {header}")
    return list(reader)


def _violations(stderr: str) -> set[tuple]:
    for line in reversed(stderr.strip().splitlines()):
        if line.startswith('{"violations"'):
            return {(v["check"], v.get("T"), v.get("s")) for v in json.loads(line)["violations"]}
    return set()


def _codeword(p_bit: float, s: int) -> float:
    return 0.5 + 0.5 * (2.0 * p_bit - 1.0) ** s


def _binomial_desc(tau: int) -> list[float]:
    return sorted((math.comb(tau, i) / 2.0 ** tau for i in range(tau + 1)), reverse=True)


def _tight(tau: int) -> float:
    return 0.5 * math.log2(tau) + 0.5 * math.log2(math.pi * math.e / 2.0)


def _optimal_collective(T: int) -> float:
    m = 2 * T
    return 0.5 + sum(math.sqrt(math.comb(m, i) * math.comb(m, i + 1)) for i in range(m)) / 2.0 ** (m + 1)


def _verdicts(expected: dict[tuple, float], margin: float) -> tuple[set, set]:
    """Split {violation key: excess over its threshold} into (must, may) sets."""
    must = {key for key, excess in expected.items() if excess > margin}
    may = {key for key, excess in expected.items() if abs(excess) <= margin}
    return must, may


def _exit_for(must: set, may: set, code: int, stderr: str) -> None:
    got = _violations(stderr)
    _expect(must <= got <= must | may, f"violations {sorted(got)} != expected {sorted(must)}")
    _expect(code == (1 if got else 0), f"exit {code} with violations {sorted(got)}")


def _prior(o, code, out, err, ref) -> None:
    rows = _table(out, ["tau", "n", "entropy_bits", "rank", "n_critical", "at_or_above_critical",
                        "bound_loose_bits", "bound_tight_bits", "spectrum"])
    keys = [(tau, n) for tau in parse_int_list(o["--tau"]) for n in parse_int_list(o["--n"])]
    _expect(len(rows) == len(keys), f"{len(rows)} rows, expected {len(keys)}")
    for row, (tau, n) in zip(rows, keys):
        _expect((int(row["tau"]), int(row["n"])) == (tau, n), f"row order at tau={tau}, n={n}")
        n_c = ref["critical_n"][str(tau)]
        _expect(n >= n_c, f"no reference below n_critical at tau={tau}, n={n}")
        _expect(row["n_critical"] == str(n_c), f"n_critical {row['n_critical']} != {n_c} at tau={tau}")
        _expect(row["at_or_above_critical"] == "true", f"at_or_above_critical at tau={tau}, n={n}")
        _close(row["bound_loose_bits"], math.log2(tau + 1), "bound_loose_bits")
        _close(row["bound_tight_bits"], _tight(tau), "bound_tight_bits")
        binom = _binomial_desc(tau)
        spectrum = [float(v) for v in row["spectrum"].split(";")]
        _expect(len(spectrum) == tau + 1, f"spectrum length at tau={tau}")
        worst = max(abs(a - b) for a, b in zip(spectrum, binom))
        _expect(worst <= 1e-10, f"spectrum off the binomial by {worst:.3e} at tau={tau}, n={n}")
        entropy = -sum(p * math.log2(p) for p in binom)
        _close(row["entropy_bits"], entropy, f"entropy at tau={tau}, n={n}")
        rank = sum(p > 1e-10 * binom[0] for p in binom)
        _expect(int(row["rank"]) == rank, f"rank {row['rank']} != {rank} at tau={tau}, n={n}")
    _exit_for(set(), set(), code, err)


def _posterior_grid(T: int, t0z: int, t0x: int, n: int) -> np.ndarray:
    half = np.arange(1 << n) * (math.pi / 2 ** (n - 1) / 2.0)
    p0z, p0x = np.cos(half) ** 2, np.cos(math.pi / 4.0 - half) ** 2
    like = p0z ** t0z * (1 - p0z) ** (T - t0z) * p0x ** t0x * (1 - p0x) ** (T - t0x)
    return like / like.sum()


def _figure1(o, code, out, err, ref) -> None:
    n = int(o["--n"])
    groups = ref["figure1_groups"][str(n)]
    header, _, body = out.partition("\n")
    _expect(header == "T,t0z,t0x,k,posterior", f"header {header!r}")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    size = 1 << n
    _expect(data.shape == (len(groups) * size, 5), f"shape {data.shape}, expected {(len(groups) * size, 5)}")
    data = data.reshape(len(groups), size, 5)
    for block, (T, t0z, t0x) in zip(data, groups):
        _expect(bool(np.all(block[:, :3] == (T, t0z, t0x))), f"group order at {(T, t0z, t0x)}")
        _expect(bool(np.all(block[:, 3] == np.arange(size))), f"key column at {(T, t0z, t0x)}")
        worst = float(np.max(np.abs(block[:, 4] - _posterior_grid(T, t0z, t0x, n))))
        _expect(worst <= ATOL, f"posterior off by {worst:.3e} at {(T, t0z, t0x)}")
    _exit_for(set(), set(), code, err)


def _figure2(o, code, out, err, ref) -> None:
    n = int(o["--n"])
    rows = _table(out, ["copies", "prior_entropy_bits", "holevo_tight_bits", "information_gain_bits", "gap_bits"])
    gains = ref["information_gain"][str(n)]
    _expect(len(rows) == len(gains), f"{len(rows)} rows, expected {len(gains)}")
    for T, (row, gain) in enumerate(zip(rows, gains), start=1):
        _expect(int(row["copies"]) == 2 * T, f"copies at T={T}")
        _close(row["prior_entropy_bits"], float(n), "prior_entropy_bits")
        _close(row["holevo_tight_bits"], _tight(2 * T), f"holevo_tight_bits at T={T}")
        _close(row["information_gain_bits"], gain, f"information_gain_bits at T={T}")
        _close(row["gap_bits"], _tight(2 * T) - gain, f"gap_bits at T={T}")
    _exit_for(set(), set(), code, err)


def _figure3(o, code, out, err, ref) -> None:
    n = int(o["--n"])
    Ts = parse_int_list(o["--T"])
    header, _, body = out.partition("\n")
    _expect(header == "T,k,success", f"header {header!r}")
    size = 1 << n
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    _expect(data.shape == (len(Ts) * size, 3), f"shape {data.shape}")
    for T, block in zip(Ts, data.reshape(len(Ts), size, 3)):
        _expect(bool(np.all(block[:, 0] == T)) and bool(np.all(block[:, 1] == np.arange(size))), f"keys at T={T}")
        stats = ref["success_by_key"][str(n)][str(T)]
        total = float(np.sum(block[:, 2]))
        _expect(abs(total - stats["sum"]) <= ATOL * size, f"success sum {total!r} != {stats['sum']!r} at T={T}")
        for k, value in stats["at"]:
            _expect(abs(block[k, 2] - value) <= ATOL, f"success at T={T}, k={k}")
    _exit_for(set(), set(), code, err)


def _figure4(o, code, out, err, ref) -> None:
    n = int(o["--n"])
    Ts = parse_int_list(o["--T"])
    rows = _table(out, ["T", "mean_success", "optimal_collective", "upper_bound"])
    _expect([int(r["T"]) for r in rows] == Ts, "T column")
    expected = {}
    for row, T in zip(rows, Ts):
        mean = ref["mean_success"][str(n)][T - 1]
        optimal = _optimal_collective(T)
        _close(row["mean_success"], mean, f"mean_success at T={T}")
        _close(row["optimal_collective"], optimal, f"optimal_collective at T={T}")
        if T > 1:
            bound = 1.0 - 1.0 / (6.0 * T)
            _close(row["upper_bound"], bound, f"upper_bound at T={T}")
            expected[("mean-success-bound", T, None)] = mean - bound - 1e-9
        else:
            _expect(row["upper_bound"] == "", "upper_bound at T=1")
        expected[("mean-below-optimal", T, None)] = mean - optimal - 1e-9
    _exit_for(*_verdicts(expected, 1e-11), code, err)


def _figure5(o, code, out, err, ref) -> None:
    n = int(o["--n"])
    Ts = parse_int_list(o["--T"])
    s_max = int(o.get("--s", 50))
    rows = _table(out, ["T", "s", "success", "upper_bound"])
    keys = [(T, s) for T in Ts for s in range(1, s_max + 1)]
    _expect(len(rows) == len(keys), f"{len(rows)} rows, expected {len(keys)}")
    expected = {}
    for row, (T, s) in zip(rows, keys):
        _expect((int(row["T"]), int(row["s"])) == (T, s), f"row order at T={T}, s={s}")
        success = _codeword(ref["mean_success"][str(n)][T - 1], s)
        bound = 0.5 + 0.5 * (1.0 - 1.0 / (3.0 * T)) ** s
        _close(row["success"], success, f"success at T={T}, s={s}")
        _close(row["upper_bound"], bound, f"upper_bound at T={T}, s={s}")
        expected[("codeword-bound", T, s)] = success - bound - 1e-10
    _exit_for(*_verdicts(expected, 2e-10), code, err)


def _security(o, code, out, err, ref) -> None:
    epsilon = float(o["--epsilon"])
    Ts = parse_int_list(o.get("--T", "2"))
    rows = _table(out, ["epsilon", "T", "s_exact", "s_simple", "forward_search", "simple_to_forward_ratio"])
    _expect(len(rows) == len(Ts), f"{len(rows)} rows, expected {len(Ts)}")
    numerator = abs(1.0 + math.log2(epsilon))
    for row, T in zip(rows, Ts):
        s_exact = math.ceil(numerator / abs(math.log2((3.0 * T - 1.0) / (3.0 * T))))
        s_simple = math.ceil(3.0 * T * numerator)
        forward = math.ceil(T * numerator)
        _close(row["epsilon"], epsilon, "epsilon")
        got = (int(row["T"]), int(row["s_exact"]), int(row["s_simple"]), int(row["forward_search"]))
        _expect(got == (T, s_exact, s_simple, forward), f"lengths {got} != {(T, s_exact, s_simple, forward)}")
        _close(row["simple_to_forward_ratio"], s_simple / forward, f"ratio at T={T}")
    _exit_for(set(), set(), code, err)


def analytic_mc(attack: str, n: int, T: int, s: int, ref) -> float:
    if attack == "symmetry-test":
        return 0.5 + 2.0 ** -(s + 1)
    return _codeword(ref["mean_success"][str(n)][T - 1], s)


def _montecarlo(o, code, out, err, ref) -> None:
    rows = _table(out, ["attack", "n", "T", "s", "trials", "seed", "empirical", "std_error", "analytic", "z_score"])
    _expect(len(rows) == 1, f"{len(rows)} rows")
    row = rows[0]
    for key in ("attack", "n", "T", "s", "trials", "seed"):
        _expect(row[key] == o[f"--{key}"], f"{key} {row[key]} != {o[f'--{key}']}")
    n, T, s, trials = (int(o[k]) for k in ("--n", "--T", "--s", "--trials"))
    mean = float(row["empirical"])
    _expect(0.0 <= mean <= 1.0, f"empirical {mean} outside [0, 1]")
    _close(row["std_error"], math.sqrt(mean * (1.0 - mean) / trials), "std_error")
    analytic = analytic_mc(o["--attack"], n, T, s, ref)
    _close(row["analytic"], analytic, "analytic")
    # z under the analytic success probability: the printed z_score divides
    # by the empirical standard error, which collapses for small campaigns
    # with success near 1 (975 trials at 0.99 printed |z| = 5.5)
    z = (mean - analytic) / math.sqrt(analytic * (1.0 - analytic) / trials)
    _expect(abs(z) < MC_Z_GATE, f"|z| = {abs(z):.2f} >= {MC_Z_GATE} against analytic {analytic}")
    _exit_for(set(), set(), code, err)


_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _last_digit(token: str) -> float:
    mantissa, _, exponent = token.partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _check_all(o, code, out, err, ref) -> None:
    rows = _table(out, ["check", "passed", "detail"])
    expected = ref["check_all"]
    _expect([r["check"] for r in rows] == [name for name, _ in expected], "check names")
    for row, (name, detail) in zip(rows, expected):
        _expect(row["passed"] == "true", f"{name} failed: {row['detail']}")
        got = _NUMBER.findall(row["detail"])
        if name.startswith("mc-"):
            z, analytic, trials = (float(t) for t in got)
            s = 8 if name == "mc-symmetry" else 1
            attack = "symmetry-test" if name == "mc-symmetry" else "bayes-projective"
            _expect(abs(analytic - analytic_mc(attack, 10, 4, s, ref)) <= 1e-6, f"{name} analytic {analytic}")
            _expect(abs(z) < 3.0 and trials == 100_000, f"{name}: {row['detail']}")
            continue
        want = _NUMBER.findall(detail)
        _expect(re.sub(_NUMBER, "#", row["detail"]) == re.sub(_NUMBER, "#", detail), f"{name}: {row['detail']!r}")
        for g, w in zip(got, want):
            # integers are counts and ranges: exact; decimals may move by
            # two units in their last printed digit
            tol = max(ATOL, 2.0 * _last_digit(g), 2.0 * _last_digit(w)) if "." in g + w else 0.0
            _expect(abs(float(g) - float(w)) <= tol, f"{name}: {row['detail']!r} != {detail!r}")
    _exit_for(set(), set(), code, err)


_FIGURES = {"1": _figure1, "2": _figure2, "3": _figure3, "4": _figure4, "5": _figure5}


def check(argv: list[str], code: int, stdout: str, stderr: str, ref: dict) -> str | None:
    """None if the op's output is correct, else the reason it is not."""
    if "Traceback (most recent call last)" in stderr:
        return f"traceback (exit {code}): {stderr.strip().splitlines()[-1]}"
    if code not in (0, 1):
        return f"exit {code}: {stderr.strip()[-200:]}"
    command, options = argv[0], dict(zip(argv[1::2], argv[2::2]))
    if command == "figure":
        fn = _FIGURES[options["--id"]]
    else:
        fn = {"prior": _prior, "security": _security, "montecarlo": _montecarlo, "check-all": _check_all}[command]
    try:
        fn(options, code, stdout, stderr, ref)
    except (Mismatch, KeyError, IndexError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
