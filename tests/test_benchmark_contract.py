"""The benchmark's contract with the package.

bench/ calls package names in its workloads' set-up, warm-ups, ops and
oracles (`cyclotomic_poly`, `scan_range`, `verify_u_relation`,
`LinearForm.coeffs`, `u_basis`) and in its traced runs (`scaled_exponents`
and the modules its tracer wraps).  Each workload the benchmark declares is
built here on the package's modules and runs one op untraced and one
traced, as `bench/run.py` does, so a change to src/ that breaks the
benchmark fails here.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from symfreq import balls, cli, cyclotomic, frequencies, linalg, lll, relations, solver

ROOT = Path(__file__).resolve().parent.parent
MODULES = {
    "balls": balls,
    "frequencies": frequencies,
    "cli": cli,
    "cyclotomic": cyclotomic,
    "lll": lll,
    "linalg": linalg,
    "relations": relations,
    "solver": solver,
}


def load_bench(name: str):
    """A module of bench/, loaded from its file, with no change to sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DECLARED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", DECLARED)
def test_workload_runs_on_the_package(name):
    workloads = load_bench("workloads")
    tracing = load_bench("tracing")
    wl = workloads.WORKLOADS[name](MODULES)
    (ops,) = wl.make_passes(random.Random(1), 1)
    wl.warm_up()
    fn = getattr(MODULES[wl.entry[0]], wl.entry[1])
    op = ops[0]
    assert wl.check(op, wl.call(fn, op))

    tracer = tracing.Tracer()
    traced_fn = tracer.wrap(*wl.entry, fn)
    tracer.op = 0
    tracer.install(MODULES)
    try:
        out = wl.call(traced_fn, op)
    finally:
        tracer.uninstall()
    assert wl.check(op, out)
    assert getattr(MODULES[wl.entry[0]], wl.entry[1]) is fn  # uninstall restored every name
    metrics = tracing.layer_metrics(tracer.spans, lambda form: workloads.exponent_mass(cyclotomic, form))
    if name == "certify":
        _, form, _ = op
        assert metrics["cyclotomic.exponent_mass"] == sum(map(abs, form.nums)) > 0
    else:
        assert metrics["solver.calls"] >= 1
