"""Run one ``qpke`` command in-process with its layer functions wrapped in timing spans.

Usage: python perfbench/tracer.py SPANS_JSON -- ARGV...

The parent sets PERFBENCH_SPAWN to its ``time.monotonic()`` just before the
spawn, so process start-up can be measured across the two processes.  Every
hooked function is replaced, by ``setattr``, in every ``qpke`` module
namespace (and module-level dict) that binds it, so calls through
``cli.encrypt`` are caught as well as calls through ``protocol.encrypt``.
Spans stay in memory and are written to SPANS_JSON at exit, together with
counters read from outside the program: call arguments, result sizes and
``lru_cache`` statistics.  Nothing under ``src/`` is modified.
"""

import time

T_START = time.monotonic()

import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

perf_counter = time.perf_counter

# (module, attribute) -> span name; a callable name is given the call's args
HOOKS = {
    **{("symspace", f): f"symspace.{f}" for f in (
        "eigendecompose", "jacobi_eigh", "mixture_density", "critical_n", "prior_density", "von_neumann_entropy")},
    ("bayes", "_likelihood_grid"): "bayes.likelihood_grid",
    **{("bayes", f): f"bayes.{f}" for f in (
        "information_gain", "mean_success", "success_by_key", "posterior", "evidence")},
    ("montecarlo", "estimate"): "montecarlo.estimate",
    ("montecarlo", "analytic_success"): "montecarlo.analytic_success",
    ("protocol", "encrypt"): "protocol.encrypt",
    ("protocol", "decrypt"): "protocol.decrypt",
    **{("symmetry", f): "symmetry" for f in (
        "pair_fidelity", "pair_success", "average_success_symmetry", "forward_search_success",
        "forward_search_length", "parity_iteration", "enumerate_pair_table")},
    **{("cli", f"cmd_{c.replace('-', '_')}"): f"cli.{c}" for c in (
        "prior", "figure", "security", "montecarlo", "check-all")},
    ("cli", "_write_rows"): "cli.write",
    **{("cli", f"_check_{f}"): f"cli.check.{c}" for f, c in (
        ("roundtrip", "protocol-roundtrip"), ("parity_zeros", "parity-zero-structure"),
        ("binomial_spectrum", "binomial-spectrum"), ("entropy_bounds", "entropy-bounds"),
        ("information_gain", "information-gain-gap"), ("mean_success", "mean-success-bound"),
        ("optimal_collective", "optimal-collective"), ("codeword_bound", "codeword-bound"),
        ("parity_identity", "parity-identity"), ("forward_equivalence", "forward-equivalence"),
        ("factor_three", "factor-three"), ("bayes_normalization", "bayes-normalization"))},
    ("cli", "_check_montecarlo"): lambda attack, *_: "cli.check.mc-symmetry" if attack == "symmetry-test"
    else "cli.check.mc-bayes",
}

# lru_caches whose statistics become counters: counter name -> (module, attribute)
CACHES = {
    "symspace.components": ("symspace", "symmetric_state_components"),
    "bayes.likelihood_grid": ("bayes", "_likelihood_grid"),
    "bayes.prob0": ("bayes", "_prob0_tables"),
    "montecarlo.estimate_tables": ("montecarlo", "_estimate_tables"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {}
        self.missing = []

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name(*args, **kwargs) if callable(name) else name, perf_counter(), 0.0,
                    stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                stack.pop()
                span[2] = perf_counter()

        return traced


def install(tracer, modules):
    """Replace every hooked function in every namespace that binds it."""
    montecarlo = modules["montecarlo"]
    grid_cache = modules["bayes"]._likelihood_grid
    grid_misses = [grid_cache.cache_info().misses]

    def grid_bytes(args, result):
        misses = grid_cache.cache_info().misses
        if misses > grid_misses[0]:
            tracer.count("bayes.likelihood_grid.bytes", result.nbytes)
        grid_misses[0] = misses

    def mixture_bytes(args, result):
        weights, tau = args[0], args[1]
        # reads the weights and the (2^n, tau+1) component array
        tracer.count("symspace.mixture_density.bytes", 8 * len(weights) * (tau + 2))

    def campaign(args, result):
        cfg = args[0]
        tracer.count("montecarlo.trials", cfg.trials)
        tracer.count("montecarlo.qubits", cfg.trials * cfg.params.s)
        tracer.count("montecarlo.batches", math.ceil(cfg.trials / montecarlo.BATCH_SIZE))

    def write_rows(args, result):
        tracer.count("cli.write.rows", len(args[0]))

    after = {
        ("bayes", "_likelihood_grid"): grid_bytes,
        ("symspace", "mixture_density"): mixture_bytes,
        ("montecarlo", "estimate"): campaign,
        ("cli", "_write_rows"): write_rows,
    }
    for (module_name, attr), name in HOOKS.items():
        original = getattr(modules[module_name], attr, None)
        if original is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(name, original, after.get((module_name, attr)))
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is original:
                            value[k] = wrapper


def main():
    spans_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- ARGV...")
    startup_s = T_START - float(os.environ["PERFBENCH_SPAWN"])
    t0 = perf_counter()
    import qpke
    from qpke import bayes, cli, montecarlo, protocol, symmetry, symspace
    import_s = perf_counter() - t0

    modules = {"qpke": qpke, "protocol": protocol, "symspace": symspace, "bayes": bayes,
               "symmetry": symmetry, "montecarlo": montecarlo, "cli": cli}
    caches = {name: getattr(modules[m], a) for name, (m, a) in CACHES.items()}
    tracer = Tracer()
    install(tracer, modules)
    code = 2
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        for name, fn in caches.items():
            info = fn.cache_info()
            tracer.count(f"{name}.hits", info.hits)
            tracer.count(f"{name}.misses", info.misses)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"startup_s": startup_s, "import_s": import_s, "spans": tracer.spans,
                       "counters": tracer.counters, "missing_hooks": tracer.missing}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
