"""Command-line surface: parameter sweeps, preset result tables, and inequality checks.

Subcommands: ``prior``, ``figure``, ``security``, ``montecarlo``, ``check-all``.
Each command returns its table as columns, or, for figures 1 and 3, as a
stream of key grids, one grid of 2^n rows at a time, and for figure 5 as a
stream of ``CHUNK_ROWS`` codeword lengths at a time; ``_write_rows`` writes
it as CSV (default) or JSON, ``CHUNK_ROWS`` rows at a time.  A CSV chunk
takes one of two paths.  Where every column is an int, uint or float array
(figures 1 and 3), ``cells.csv_rows`` computes the ``%d`` / ``%.12g`` bytes in numpy, and
hands each float cell whose digits it cannot prove (non-finite, zero,
beyond 1e±300, or next to a rounding tie) to ``'%.12g' % x`` itself.  Any
other chunk is rendered cell by cell by ``_fmt`` (an int's ``%d``, a
float's ``%.12g``, a bool's ``true``/``false``) and quoted by the
``csv.QUOTE_MINIMAL`` rule (``_csv_field``), so both paths write the same
bytes for the same values.  Any violated inequality check is reported as a
JSON list on stderr and turns the exit code to 1.  Usage errors, an
unwritable ``--out`` and a stdout that cannot take the table (a closed pipe,
a full device) exit with 2, any other failure with 3.  Column schemas and
the output contract are documented in docs/formats.md.

``main(argv)`` returns the exit code, so a caller in the same interpreter
goes on as usual.  The ``qpke`` command and ``python -m qpke.cli`` run
``entry_point``, which flushes stdout and stderr after ``main`` and ends the
process with ``os._exit``: a normal exit would then spend ~40 ms of CPU on
interpreter teardown (garbage collection over numpy's modules and module
finalization) in a command that loads numpy, ~17 ms in one that does not.

Each command imports the ``qpke`` modules it runs, and numpy, inside its
own builders and checks, so ``import qpke.cli``, ``--help`` and usage errors
load none of them, and the writer tells an array from a list by its
``dtype``.  ``security`` loads only ``symmetry`` (closed forms on ``math``,
so no numpy); ``prior`` loads ``symspace`` (and the ``protocol`` it reads)
with ``symmetry``, and no numpy either, since its spectra, ranks and
entropies are ``math`` sums; figures 1 and 3 load ``bayes`` (with
``protocol``), and figures 2, 4 and 5 add ``symmetry``; ``montecarlo`` loads
all but ``symspace``, and ``check-all`` loads all five.  Only an all-array
CSV table loads ``cells``, and only JSON output or a violated check loads
``json``.  No command loads ``dataclasses``; ``prior`` and ``security``
load no ``inspect``.  A local import reads the module's attributes at call
time, so a patched or wrapped function is seen there as well.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import NoReturn

FIGURE1_EVENTS = {8: (0, 2, 4, 6, 8), 9: (2, 4, 6)}


def _parse_int_list(text: str) -> list[int]:
    """Parse "3", "2,4,8", "1-10", or mixtures thereof into a sorted list."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        try:
            if "-" in part[1:]:
                lo, hi = (int(v) for v in part.split("-", 1))
            else:
                lo = hi = int(part)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer or a range: {part!r} in {text!r}") from None
        if lo > hi:
            raise argparse.ArgumentTypeError(f"reversed range {part!r} in {text!r}")
        values.extend(range(lo, hi + 1))
    return sorted(set(values))


#: data rows formatted and written at a time; bounds the text held in memory
CHUNK_ROWS = 4096


class Table:
    """A result table: one column per field, in schema order, in blocks of rows.

    ``Table(columns)`` holds whole columns: ``columns`` maps each field name
    to a 1-D numpy array or a list of Python values, and ``table[field]`` is
    the column of that field.  ``Table(fields, blocks)`` streams: ``blocks``
    yields lists of columns, one per field, and is read once, by the writer.
    A block's columns must have one length.  ``len()`` is the number of data
    rows read so far, so all of them once the table is written.
    """

    def __init__(self, columns, blocks=None):
        self.fields = list(columns)
        self.rows = 0
        self.columns = list(columns.values()) if blocks is None else None
        self.blocks = [self._counted(self.columns)] if blocks is None else map(self._counted, blocks)

    def _counted(self, block: list) -> tuple[int, list]:
        lengths = {len(column) for column in block}
        if len(lengths) > 1:
            raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
        rows = lengths.pop() if lengths else 0
        self.rows += rows
        return rows, block

    def chunks(self):
        """The rows as lists of columns of at most ``CHUNK_ROWS`` rows each."""
        for rows, block in self.blocks:
            for start in range(0, rows, CHUNK_ROWS):
                yield [column[start:start + CHUNK_ROWS] for column in block]

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, field: str):
        return self.columns[self.fields.index(field)]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _csv_field(text: str, alone: bool) -> str:
    """``text`` as one CSV field, quoted as ``csv.QUOTE_MINIMAL`` does.

    A field is quoted, with its ``"`` doubled, only if it holds ``,``, ``"``
    or ``\\n`` (a ``\\r`` alone is not quoted); a row made of one empty field
    (``alone``) is written ``""`` so that it does not read as a blank line.
    """
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return '""' if alone and not text else text


def _py_cells(column) -> list:
    """Native Python values of a column: an array's ``tolist()``, a list's own cells."""
    return column.tolist() if hasattr(column, "tolist") else column


def _write_rows(table: Table, fmt: str, out_path: str | None) -> None:
    """Write ``table`` to ``out_path`` (stdout if None) as CSV or JSON, one chunk of rows at a time."""
    out = open(out_path, "w", encoding="utf-8") if out_path else sys.stdout
    try:
        alone = len(table.fields) == 1
        if fmt == "csv":
            out.write(",".join(_csv_field(field, alone) for field in table.fields) + "\n")
        else:
            import json

            out.write("[")
        for i, chunk in enumerate(table.chunks()):
            if fmt != "csv":
                # each chunk is one json.dumps list with its brackets cut off,
                # so the joined text is that of one json.dumps over all rows
                cells = zip(*map(_py_cells, chunk))
                text = json.dumps([dict(zip(table.fields, row)) for row in cells], indent=2)
                out.write(("," if i else "") + text[1:-2])
            elif all(hasattr(column, "dtype") and column.dtype.kind in "iuf" for column in chunk):
                # int, uint and float arrays only take the numpy cell kernel,
                # which prints the bytes _fmt gives their values
                from .cells import csv_rows

                out.write(csv_rows(chunk))
            else:
                cells = ([_csv_field(_fmt(v), alone) for v in _py_cells(column)] for column in chunk)
                out.write("\n".join(map(",".join, zip(*cells))) + "\n")
        if fmt != "csv":
            out.write("\n]\n" if len(table) else "]\n")
        # a stdout that cannot take the table (a closed pipe, a full device)
        # fails here, where the caller reports it, and not at exit
        out.flush()
    finally:
        if out is not sys.stdout:
            out.close()


def _spectrum_str(values) -> str:
    return ";".join(format(float(v), ".12g") for v in values)


def cmd_prior(args) -> tuple[Table, list[dict]]:
    from . import symmetry, symspace

    critical = {tau: symspace.critical_n(tau) for tau in args.tau}
    pairs = [(tau, n) for tau in args.tau for n in args.n]
    spectra = [symspace.prior_spectrum(tau, n) for tau, n in pairs]
    entropy = [symspace.shannon_entropy(s.eigenvalues) for s in spectra]
    loose = [symmetry.holevo_bound_loose(tau) for tau, _ in pairs]
    violations = [
        {"check": "entropy-dimension-bound", "tau": tau, "n": n, "entropy": e, "bound": b}
        for (tau, n), e, b in zip(pairs, entropy, loose)
        if not e <= b + 1e-9
    ]
    table = Table({
        "tau": [tau for tau, _ in pairs],
        "n": [n for _, n in pairs],
        "entropy_bits": entropy,
        "rank": [s.rank for s in spectra],
        "n_critical": [critical[tau] for tau, _ in pairs],
        "at_or_above_critical": [n >= critical[tau] for tau, n in pairs],
        "bound_loose_bits": loose,
        "bound_tight_bits": [symmetry.holevo_bound_tight(tau) for tau, _ in pairs],
        "spectrum": [_spectrum_str(s.eigenvalues) for s in spectra],
    })
    return table, violations


def _figure1(args):
    import numpy as np

    from . import bayes

    bayes._check_n(args.n)
    keys = np.arange(1 << args.n, dtype=np.min_scalar_type((1 << args.n) - 1))

    def grids():
        # one posterior grid per possible outcome, its labels filled in
        for T, events in sorted(FIGURE1_EVENTS.items()):
            for t0z in events:
                for t0x in range(T + 1):
                    try:
                        post = bayes.posterior(bayes.MeasurementOutcome(t0z, t0x), T, args.n)
                    except bayes.ImpossibleOutcomeError:
                        continue
                    labels = [np.full(keys.size, label, np.uint8) for label in (T, t0z, t0x)]
                    yield [*labels, keys, post.probabilities]

    return Table(["T", "t0z", "t0x", "k", "posterior"], grids()), []


def _figure2(args):
    from . import bayes, symmetry

    copies = [2 * T for T in range(1, 9)]
    gain = [bayes.information_gain(T, args.n) for T in range(1, 9)]
    bound = [symmetry.holevo_bound_tight(c) for c in copies]
    gap = [b - g for b, g in zip(bound, gain)]
    violations = [
        {"check": "information-gain-below-bound", "copies": c, "gap": d} for c, d in zip(copies, gap) if not d > 0.0
    ]
    table = Table({
        "copies": copies,
        "prior_entropy_bits": [float(args.n)] * len(copies),
        "holevo_tight_bits": bound,
        "information_gain_bits": gain,
        "gap_bits": gap,
    })
    return table, violations


def _figure3(args):
    import numpy as np

    from . import bayes

    # a usage error is reported before the first row, in the order the
    # rows would meet it: each T's range, then n
    for T in args.T:
        bayes._check_T(T)
        bayes._check_n(args.n)
    keys = np.arange(1 << args.n, dtype=np.min_scalar_type((1 << args.n) - 1))
    dtype = np.min_scalar_type(max(args.T))
    rows = ([np.full(keys.size, T, dtype), keys, bayes.success_by_key(T, args.n)] for T in args.T)
    return Table(["T", "k", "success"], rows), []


def _figure4(args):
    if min(args.T) < 1:
        raise ValueError(f"T must be >= 1, got {min(args.T)}")
    from . import bayes, symmetry

    mean = [bayes.mean_success(T, args.n) for T in args.T]
    optimal = [symmetry.optimal_collective(T) for T in args.T]
    bound = [symmetry.bound_U(T) if T > 1 else "" for T in args.T]
    violations = []
    for T, m, o, b in zip(args.T, mean, optimal, bound):
        # on 2**n <= 2T+1 keys the states are far apart and the attack beats
        # the continuum bounds, so they are checked only where the mean is exact
        if args.n < bayes._exact_n(T):
            continue
        if T > 1 and not m <= b + 1e-9:
            violations.append({"check": "mean-success-bound", "T": T, "mean": m, "bound": b})
        if not m <= o + 1e-9:
            violations.append({"check": "mean-below-optimal", "T": T, "mean": m, "optimal": o})
    table = Table({"T": args.T, "mean_success": mean, "optimal_collective": optimal, "upper_bound": bound})
    return table, violations


def _figure5(args):
    if args.s < 1:
        raise ValueError(f"codeword length --s must be >= 1, got {args.s}")
    if min(args.T) < 1:
        raise ValueError(f"T must be >= 1, got {min(args.T)}")
    from . import bayes, symmetry

    per_bit = {T: bayes.mean_success(T, args.n) for T in args.T}
    violations = []

    def blocks():
        # CHUNK_ROWS codeword lengths of one T at a time, whose violations
        # are collected as the writer reads them
        for T in args.T:
            checked = T > 1 and args.n >= bayes._exact_n(T)
            for start in range(1, args.s + 1, CHUNK_ROWS):
                lengths = range(start, min(start + CHUNK_ROWS, args.s + 1))
                success = [symmetry.codeword_success(per_bit[T], s) for s in lengths]
                bound = [symmetry.codeword_bound(T, s) if T > 1 else "" for s in lengths]
                for s, p, b in zip(lengths, success, bound):
                    if checked and not p <= b + 1e-10:
                        violations.append({"check": "codeword-bound", "T": T, "s": s, "success": p, "bound": b})
                yield [[T] * len(lengths), list(lengths), success, bound]

    return Table(["T", "s", "success", "upper_bound"], blocks()), violations


def cmd_figure(args) -> tuple[Table, list[dict]]:
    builders = {1: _figure1, 2: _figure2, 3: _figure3, 4: _figure4, 5: _figure5}
    if args.id not in builders:
        raise ValueError(f"figure id must be 1..5, got {args.id}")
    if args.T is None:
        args.T = {3: [2, 4, 8], 4: list(range(1, 11)), 5: [2, 4, 8]}.get(args.id)
    return builders[args.id](args)


def cmd_security(args) -> tuple[Table, list[dict]]:
    from . import symmetry

    forward = [symmetry.forward_search_length(args.epsilon, T) for T in args.T]
    # the 1 - 1/(3T) bound behind both lengths is undefined at T = 1, whose
    # row keeps only the forward search (blank lengths, as in figures 4 and 5)
    lengths = [symmetry.required_codeword_length(args.epsilon, T) if T > 1 else ("", "") for T in args.T]
    violations = [
        {"check": "simple-dominates-exact", "T": T, "s_exact": s_exact, "s_simple": s_simple}
        for T, (s_exact, s_simple) in zip(args.T, lengths)
        if T > 1 and s_simple < s_exact
    ]
    table = Table({
        "epsilon": [args.epsilon] * len(args.T),
        "T": args.T,
        "s_exact": [s_exact for s_exact, _ in lengths],
        "s_simple": [s_simple for _, s_simple in lengths],
        "forward_search": forward,
        "simple_to_forward_ratio": [s / f if T > 1 and f else "" for T, (_, s), f in zip(args.T, lengths, forward)],
    })
    return table, violations


def _campaign(args) -> tuple:
    """Estimate, analytic value and z-score of the seeded Monte Carlo campaign that ``args`` describes.

    z is taken against the binomial error sqrt(a(1-a)/trials) of the analytic
    value a, which, unlike the empirical error, does not vanish when every
    trial agrees; it is 0 where a is 0 or 1.
    """
    from . import montecarlo
    from .protocol import ProtocolParams

    params = ProtocolParams(n=args.n, N=args.s, T=args.T, s=args.s)
    cfg = montecarlo.TrialConfig(params=params, attack=args.attack, trials=args.trials, seed=args.seed)
    result = montecarlo.estimate(cfg)
    analytic = montecarlo.analytic_success(cfg)
    spread = math.sqrt(analytic * (1.0 - analytic) / args.trials)
    return result, analytic, (result.mean - analytic) / spread if spread > 0 else 0.0


def cmd_montecarlo(args) -> tuple[Table, list[dict]]:
    result, analytic, z = _campaign(args)
    if args.trials < 100:
        print(f"warning: {args.trials} trials gives a very coarse estimate", file=sys.stderr)
    table = Table({
        "attack": [args.attack],
        "n": [args.n],
        "T": [args.T],
        "s": [args.s],
        "trials": [args.trials],
        "seed": [args.seed],
        "empirical": [result.mean],
        "std_error": [result.std_error],
        "analytic": [analytic],
        "z_score": [z],
    })
    return table, []


def _check_roundtrip() -> tuple[bool, str]:
    import itertools

    from .protocol import Codeword, PrivateKey, ProtocolParams, decrypt, encrypt

    checked = 0
    for n in (1, 2, 3):
        for s in (1, 2, 3):
            params = ProtocolParams(n=n, N=s, T=1, s=s)
            # every codeword of length s with its expected parity, built once
            codewords = [(codeword, codeword.bits, codeword.parity)
                         for codeword in map(Codeword, itertools.product((0, 1), repeat=s))]
            for key_values in itertools.product(range(1 << n), repeat=s):
                key = PrivateKey(key_values, n)
                for codeword, bits, parity in codewords:
                    recovered, message = decrypt(encrypt(codeword, key), key, params)
                    if recovered != bits or message != parity:
                        return False, f"round-trip failed at n={n}, s={s}, key={key_values}, w={bits}"
                    checked += 1
    return True, f"{checked} round-trips exact"


def _check_parity_zeros() -> tuple[bool, str]:
    import numpy as np

    from . import symspace

    deviations = []
    for tau in (2, 4, 8, 16, 32):
        for n in (2, 6, 10, 14):
            matrix = symspace.prior_density(tau, n).matrix
            l = np.arange(tau + 1)
            odd = (l[:, None] + l[None, :]) % 2 == 1
            deviations.append(np.max(np.abs(matrix[odd])))
    # np.max, unlike max, keeps a NaN, so a NaN deviation fails the check
    worst = float(np.max(deviations))
    return worst < 1e-12, f"max |odd-parity entry| = {worst:.3e}"


def _check_binomial_spectrum() -> tuple[bool, str]:
    import numpy as np

    from . import symspace

    deviations = []
    for tau in (2, 4, 8, 16):
        n_c = symspace.critical_n(tau)
        spectrum = symspace.eigendecompose(symspace.prior_density(tau, n_c))
        law = symspace.prior_spectrum(tau, n_c)
        deviations.append(np.max(np.abs(np.subtract(spectrum.eigenvalues, law.eigenvalues))))
    worst = float(np.max(deviations))
    return worst < 1e-10, f"max eigenvalue deviation = {worst:.3e}"


def _check_entropy_bounds() -> tuple[bool, str]:
    from . import symmetry, symspace

    for tau in range(2, 65):
        entropy = symspace.von_neumann_entropy(symspace.prior_density(tau, symspace.critical_n(tau)))
        if not entropy <= symmetry.holevo_bound_tight(tau) + 1e-9:
            return False, f"entropy above tight bound at tau={tau}"
        if not entropy <= symmetry.holevo_bound_loose(tau) + 1e-9:
            return False, f"entropy above dimension bound at tau={tau}"
    return True, "entropy bounds hold for tau in [2, 64]"


def _check_information_gain() -> tuple[bool, str]:
    import numpy as np

    table, violations = _figure2(argparse.Namespace(n=10))
    return not violations, f"smallest bound-gain gap = {float(np.min(table['gap_bits'])):.6f} bits"


def _check_mean_success() -> tuple[bool, str]:
    import numpy as np

    table, violations = _figure4(argparse.Namespace(n=10, T=list(range(2, 11))))
    worst = float(np.max(np.subtract(table["mean_success"], table["upper_bound"])))
    passed = all(v["check"] != "mean-success-bound" for v in violations)
    return passed, f"max excess over 1 - 1/(6T) = {worst:.3e}"


def _check_optimal_collective() -> tuple[bool, str]:
    _, violations = _figure4(argparse.Namespace(n=10, T=list(range(1, 11))))
    for v in violations:
        if v["check"] == "mean-below-optimal":
            return False, f"mean success above collective optimum at T={v['T']}"
    return True, "individual attack stays below the collective optimum for T in [1, 10]"


def _check_codeword_bound() -> tuple[bool, str]:
    import numpy as np

    table, violations = _figure5(argparse.Namespace(n=10, T=[2, 4, 8], s=50))
    success, bound = (table.fields.index(field) for field in ("success", "upper_bound"))
    worst = float(max(np.max(np.subtract(chunk[success], chunk[bound])) for chunk in table.chunks()))
    return not violations, f"max excess over the codeword bound = {worst:.3e}"


def _check_parity_identity() -> tuple[bool, str]:
    import numpy as np

    from . import symmetry

    worst = float(np.max([
        abs(symmetry.parity_iteration(q1, s) - symmetry.codeword_success(q1, s))
        for q1 in (0.5, 0.6, 0.75, 0.9, 1.0)
        for s in range(1, 13)
    ]))
    return worst <= 1e-12, f"max iteration/closed-form deviation = {worst:.3e}"


def _check_forward_equivalence() -> tuple[bool, str]:
    from . import symmetry

    # the pair verdict 3/4 + cos(2 omega)/4 has degree 2 in the basis offset,
    # so its mean over the four offsets k pi/2 is its mean over the circle
    pair = sum(symmetry.pair_success(k * math.pi / 2.0) for k in range(4)) / 4.0
    for s in range(1, 65):
        if not abs(symmetry.parity_iteration(pair, s) - symmetry.forward_search_success(1, s)) <= 1e-12:
            return False, f"single-copy equivalence broken at s={s}"
    return True, "symmetry test matches single-copy forward search for s in [1, 64]"


def _check_factor_three() -> tuple[bool, str]:
    from . import symmetry

    for exponent in range(3, 11):
        epsilon = 2.0 ** -exponent
        for T in range(2, 9):
            _, s_simple = symmetry.required_codeword_length(epsilon, T)
            forward = symmetry.forward_search_length(epsilon, T)
            if abs(s_simple - 3 * forward) > 1:
                return False, f"length ratio far from 3 at epsilon=2^-{exponent}, T={T}"
    return True, "simple length bound is 3x the forward-search length (up to ceiling)"


def _check_bayes_normalization() -> tuple[bool, str]:
    from . import bayes

    T, n = 8, 10
    total_evidence = 0.0
    for t0z in range(T + 1):
        for t0x in range(T + 1):
            outcome = bayes.MeasurementOutcome(t0z, t0x)
            total_evidence += bayes.evidence(outcome, T, n)
            # PosteriorDistribution raises unless the posterior sums to 1 within 1e-12
            bayes.posterior(outcome, T, n)
    if not abs(total_evidence - 1.0) <= 1e-10:
        return False, f"evidence grid sums to {total_evidence}"
    return True, "posteriors normalized; evidence grid sums to 1"


def _check_montecarlo(attack: str, trials: int, seed: int) -> tuple[bool, str]:
    T, s = (1, 8) if attack == "symmetry-test" else (4, 1)
    _, analytic, z = _campaign(argparse.Namespace(attack=attack, n=10, T=T, s=s, trials=trials, seed=seed))
    return abs(z) < 3.0, f"z = {z:+.2f} against analytic {analytic:.6f} ({trials} trials)"


def cmd_check_all(args) -> tuple[Table, list[dict]]:
    checks = [
        ("protocol-roundtrip", _check_roundtrip),
        ("parity-zero-structure", _check_parity_zeros),
        ("binomial-spectrum", _check_binomial_spectrum),
        ("entropy-bounds", _check_entropy_bounds),
        ("information-gain-gap", _check_information_gain),
        ("mean-success-bound", _check_mean_success),
        ("optimal-collective", _check_optimal_collective),
        ("codeword-bound", _check_codeword_bound),
        ("parity-identity", _check_parity_identity),
        ("forward-equivalence", _check_forward_equivalence),
        ("factor-three", _check_factor_three),
        ("bayes-normalization", _check_bayes_normalization),
        ("mc-symmetry", lambda: _check_montecarlo("symmetry-test", args.trials, args.seed)),
        ("mc-bayes", lambda: _check_montecarlo("bayes-projective", args.trials, args.seed)),
    ]
    results = [fn() for _, fn in checks]
    violations = [{"check": name, "detail": detail} for (name, _), (passed, detail) in zip(checks, results) if not passed]
    table = Table({
        "check": [name for name, _ in checks],
        "passed": [passed for passed, _ in results],
        "detail": [detail for _, detail in results],
    })
    return table, violations


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpke",
        description="Sweeps, preset result tables, and inequality checks for the rotation-based QPKE scheme.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("prior", help="entropy/rank/spectrum table of the repeated-copy density operator")
    p.add_argument("--tau", type=_parse_int_list, default=[1, 2, 4, 8, 16], help="copy counts, e.g. 2,4,8 or 1-16")
    p.add_argument("--n", type=_parse_int_list, default=[1, 2, 4, 8, 10], help="resolution exponents")
    add_output_flags(p)

    p = sub.add_parser("figure", help="data behind the preset analysis figures (ids 1-5)")
    p.add_argument("--id", type=int, required=True, help="1: posterior grids, 2: information gain, "
                   "3: success vs key, 4: success vs T, 5: success vs codeword length")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--T", type=_parse_int_list, default=None)
    p.add_argument("--s", type=int, default=50, help="maximum codeword length (figure 5)")
    add_output_flags(p)

    p = sub.add_parser("security", help="codeword lengths required for a target eavesdropping advantage")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--T", type=_parse_int_list, default=[2])
    add_output_flags(p)

    p = sub.add_parser("montecarlo", help="empirical attack success vs the analytic value")
    # montecarlo.ATTACKS, spelled out so that building the parser does not
    # import montecarlo; TrialConfig rejects any other name
    p.add_argument("--attack", required=True, metavar="{bayes-projective,symmetry-test}")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--T", type=int, default=4)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    add_output_flags(p)

    p = sub.add_parser("check-all", help="run the full inequality battery; exit 1 on any violation")
    p.add_argument("--trials", type=int, default=100_000, help="trials per Monte Carlo check")
    p.add_argument("--seed", type=int, default=0)
    add_output_flags(p)

    return parser


COMMANDS = {
    "prior": cmd_prior,
    "figure": cmd_figure,
    "security": cmd_security,
    "montecarlo": cmd_montecarlo,
    "check-all": cmd_check_all,
}


def _run(args) -> int:
    try:
        table, violations = COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _write_rows(table, args.format, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if violations:
        import json

        print(json.dumps({"violations": violations}), file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # a crash must not read as a violated check (1) or a usage error (2)
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry_point() -> NoReturn:
    """The ``qpke`` command: ``main`` on ``sys.argv``, then an exit that skips interpreter teardown.

    ``os._exit`` runs no ``atexit`` handler and flushes no stream, so stdout
    and stderr are flushed first.  The writer has flushed stdout already and
    reported any failure (exit 2), so a failure here is reported only where
    no error was (exit 0 or 1).  ``--help`` and argparse's usage errors leave
    through ``SystemExit`` as usual.
    """
    code = main(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code < 2:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry_point()
