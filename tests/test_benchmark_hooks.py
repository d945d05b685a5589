"""The benchmark in perfbench/ reaches into rtgmi by name; these checks keep
those names in place.

perfbench/tracing.py replaces each hooked function at ``rtgmi.<site>.<name>``
and its counter reads the call's arguments by parameter name;
perfbench/workloads.py computes its oracle values through package-level
names.  A rename in rtgmi would otherwise surface only when the benchmark
runs.
"""

import importlib
import inspect
import pathlib
import re

import pytest

import rtgmi

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _hooks():
    """tracing.HOOKS, run from source so no bytecode lands in perfbench/."""
    path = PERFBENCH / "tracing.py"
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["HOOKS"]


HOOKS = _hooks()
_SITES = [pytest.param(name, site, counter, id=f"{site}.{name}")
          for _, name, sites, counter in HOOKS for site in sites]


def _arguments_read(counter):
    """The parameter names a counter takes from its bound arguments."""
    return set(re.findall(r"""\ba\[["'](\w+)["']\]""",
                          inspect.getsource(counter)))


@pytest.mark.parametrize("name, site, counter", _SITES)
def test_hooked_function_resolves_and_takes_what_its_counter_reads(
        name, site, counter):
    fn = getattr(importlib.import_module(f"rtgmi.{site}"), name)
    assert callable(fn)
    if counter is not None:
        params = inspect.signature(fn).parameters
        missing = _arguments_read(counter) - set(params)
        assert not missing, f"rtgmi.{site}.{name} lacks {sorted(missing)}"


def test_counters_are_read_by_parameter_name():
    # guards the scan above: it must find every argument the counters read
    read = set().union(*(_arguments_read(counter)
                         for _, _, _, counter in HOOKS if counter is not None))
    assert read == {"n", "interleave_depth", "codebook", "block", "n_samples",
                    "config"}


def test_oracle_names_stay_package_level():
    source = (PERFBENCH / "workloads.py").read_text()
    used = set(re.findall(r"_rtgmi\.(\w+)", source))
    assert {"psk_capacity_quadrature", "Ar1Fading", "ClarkeFading",
            "rho_sequence"} <= used
    for name in sorted(used):
        assert callable(getattr(rtgmi, name, None)), name
