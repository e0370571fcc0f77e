"""The library names that the benchmark in perfbench/ reads.

perfbench/tracing.py wraps every public function and binds some of their
arguments by name; perfbench/setup_probe.py and run.py import a few names
from the package.  A library edit that renames or drops one of them breaks
the benchmark, so these tests fail first.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import tumorctrl

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# span name -> the parameters its tracer hook reads from bound.arguments
HOOK_PARAMETERS = {
    "solver.solve_state": ("stats", "init"),
    "solver.solve_adjoint": (),
    "sparsity.prox_pair": ("mode", "eta", "kappa", "v1", "v2"),
    "optim.proximal_gradient_solve": (),
    "fields.write_field_csv": ("u",),
}


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(span_name):
    """The function the tracer names span_name, as Tracer.install finds it."""
    module_name, attr = span_name.split(".")
    module = importlib.import_module(f"tumorctrl.{module_name}")
    fn = getattr(module, attr)
    assert inspect.isfunction(fn) and not attr.startswith("_")
    assert fn.__module__ == module.__name__
    return fn


def test_every_hook_has_a_known_parameter_list():
    assert set(_tracing()._HOOKS) == set(HOOK_PARAMETERS)


@pytest.mark.parametrize("span_name", sorted(HOOK_PARAMETERS))
def test_hooked_function_takes_the_bound_parameters(span_name):
    params = inspect.signature(_resolve(span_name)).parameters
    assert set(HOOK_PARAMETERS[span_name]) <= set(params)


def test_hooks_find_what_they_read_after_the_call():
    # _SolveState reads stats["cg_iterations"], _Optimizer result.n_iters
    p = tumorctrl.preset_problem("stationary-trivial")
    stats = {}
    tumorctrl.solve_state(p.params, p.pot, p.hspec, p.u0, p.init,
                          stats=stats)
    assert isinstance(stats["cg_iterations"], int)
    assert "n_iters" in tumorctrl.OptimizeResult.__dataclass_fields__


def test_slice_norms_takes_field_and_direction():
    # _ProxPair calls tracer.original("fields.slice_norms")(v, direction)
    fn = _resolve("fields.slice_norms")
    assert list(inspect.signature(fn).parameters) == ["u", "direction"]


def test_package_exports_what_the_benchmark_imports():
    # setup_probe.py's import line, then what run.py calls on runner
    from tumorctrl import make_problem, runner, validate_setup
    assert callable(make_problem) and callable(validate_setup)
    for name in ("run", "parse_config_text"):
        assert callable(getattr(runner, name)), name
    # setup_probe.py unpacks to_settings() into three and formats the report
    text = "[run]\npreset = time-sparsity-demo\n"
    _, _, settings = runner.parse_config_text(text).to_settings()
    problem = make_problem(settings)
    report = validate_setup(problem.params, problem.pot, problem.init,
                            problem.hspec)
    assert report.passed and str(report) == "setup valid"
