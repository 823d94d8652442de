"""Record perfbench/reference.json from the printed tables of the current commit.

Usage (from the root of a checkout): python3 perfbench/make_reference.py

Run it only in a change whose purpose is to update the reference: the gate
compares every later commit against what this records.  Values that the
paper gives in closed form are not recorded; gate.py computes them.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import run

# seeds 0..CHECK_ALL_SEED_RANGE-1 are vetted for `check-all --seed`
CHECK_ALL_SEED_RANGE = 128
CHECK_ALL_TRIALS = 100_000
TAUS = (*range(2, 9), 16, 32, 48, 64)
SAMPLES = 32


def table(launcher: run.Launcher, *argv: str, allow_violations: bool = False) -> list[dict]:
    done = launcher.spawn([sys.executable, "-m", "qpke.cli", *argv], "reference")
    if done.code != 0 and not (allow_violations and done.code == 1):
        raise SystemExit(f"qpke {' '.join(argv)} exited {done.code}: {done.stderr}")
    return list(csv.DictReader(io.StringIO(done.stdout.decode())))


def vet_check_all_seeds() -> tuple[list[int], dict]:
    """Seeds whose two check-all Monte Carlo checks pass |z| < 3, and the z-scores of the others."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from qpke import ProtocolParams, TrialConfig, analytic_success, estimate

    configs = {
        "symmetry-test": ProtocolParams(n=10, N=8, T=1, s=8),
        "bayes-projective": ProtocolParams(n=10, N=1, T=4, s=1),
    }
    kept, excluded = [], {}
    for seed in range(CHECK_ALL_SEED_RANGE):
        zs = {}
        for attack, params in configs.items():
            cfg = TrialConfig(params=params, attack=attack, trials=CHECK_ALL_TRIALS, seed=seed)
            result = estimate(cfg)
            zs[attack] = (result.mean - analytic_success(cfg)) / result.std_error
        if all(abs(z) < 3.0 for z in zs.values()):
            kept.append(seed)
        else:
            excluded[str(seed)] = zs
    return kept, excluded


def main(launcher: run.Launcher) -> None:
    ref: dict = {"commit": run.git_commit()}
    rows = table(launcher, "prior", "--tau", ",".join(map(str, TAUS)), "--n", "12")
    ref["critical_n"] = {r["tau"]: int(r["n_critical"]) for r in rows}
    ref["known_deviations"] = {
        "critical_n.64": "the numerical search stops at n = 6 because the aliased term is about 2^-127; "
                         "the exact critical resolution is 7.  The reference records what the program prints.",
    }
    ref["figure1_groups"] = {}
    for n in (10, 12):
        groups = []
        for r in table(launcher, "figure", "--id", "1", "--n", str(n)):
            key = [int(r["T"]), int(r["t0z"]), int(r["t0x"])]
            if not groups or groups[-1] != key:
                groups.append(key)
        ref["figure1_groups"][str(n)] = groups
    ref["information_gain"] = {
        str(n): [float(r["information_gain_bits"]) for r in table(launcher, "figure", "--id", "2", "--n", str(n))]
        for n in range(10, 15)
    }
    ref["mean_success"] = {
        str(n): [float(r["mean_success"]) for r in
                 table(launcher, "figure", "--id", "4", "--n", str(n), "--T", "1-16", allow_violations=True)]
        for n in range(10, 15)
    }
    n = 12
    size = 1 << n
    success = table(launcher, "figure", "--id", "3", "--n", str(n), "--T", "1-16")
    ref["success_by_key"] = {str(n): {}}
    for T in range(1, 17):
        values = [float(r["success"]) for r in success[(T - 1) * size:T * size]]
        picks = sorted({j * size // SAMPLES for j in range(SAMPLES)} | {size - 1})
        ref["success_by_key"][str(n)][str(T)] = {"sum": sum(values), "at": [[k, values[k]] for k in picks]}
    ref["check_all"] = [[r["check"], r["detail"]] for r in table(launcher, "check-all", "--seed", "0")]
    ref["check_all_seeds"], ref["check_all_excluded_seeds"] = vet_check_all_seeds()
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}: {len(ref['check_all_seeds'])} check-all seeds kept, "
          f"excluded {sorted(ref['check_all_excluded_seeds'])}")


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    with run.Launcher() as launcher:
        main(launcher)
