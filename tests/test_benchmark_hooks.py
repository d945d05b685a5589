"""The benchmark in perfbench/ reaches into rtgmi by name; these checks keep
those names in place, and the counters its hooks read counting.

perfbench/tracing.py replaces each hooked function at ``rtgmi.<site>.<name>``
and its counter reads the call's arguments by parameter name;
perfbench/workloads.py computes its oracle values through package-level
names.  A rename in rtgmi would otherwise surface only when the benchmark
runs.
"""

import ast
import importlib
import inspect
import json
import pathlib
import re

import pytest

import rtgmi
from rtgmi import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    """perfbench/tracing.py's names, run from source so no bytecode lands in
    perfbench/."""
    path = PERFBENCH / "tracing.py"
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


HOOKS = _tracing()["HOOKS"]
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


def _unused_relative_imports(path):
    """Names a module imports from within the package but never reads."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_modules_import_only_what_they_call_or_the_benchmark_hooks():
    # a name imported only so that perfbench can replace it there is kept;
    # any other unread import is left over from a refactor
    package = pathlib.Path(rtgmi.__file__).resolve().parent
    unused = {path.stem: _unused_relative_imports(path)
              for path in sorted(package.glob("*.py"))
              if path.stem != "__init__"}
    for module, names in unused.items():
        hooked = {name for _, name, sites, _ in HOOKS if module in sites}
        assert names <= hooked, f"rtgmi.{module} never reads " \
                                f"{sorted(names - hooked)}"
    # guards the scan: these are imported for the hooks alone
    assert unused["simulate"] == {"generate_path", "generate_codebook", "gmi",
                                  "synthesize_block_at_rho"}


def test_oracle_names_stay_package_level():
    source = (PERFBENCH / "workloads.py").read_text()
    used = set(re.findall(r"_rtgmi\.(\w+)", source))
    assert {"psk_capacity_quadrature", "Ar1Fading", "ClarkeFading",
            "rho_sequence"} <= used
    for name in sorted(used):
        assert callable(getattr(rtgmi, name, None)), name


def test_a_traced_simulate_counts_every_decode(tmp_path, monkeypatch, capsys):
    # the counters run, so this also sees the result attributes they read
    tracing = _tracing()
    tracer = tracing["Tracer"]()
    monkeypatch.chdir(tmp_path)
    depth, trials = 3, 20
    with tracer.installed():
        assert cli.main(["simulate", "--model", "ar1", "--alpha", "0.9",
                         "--constellation", "bpsk", "--snr-db", "3",
                         "--L", str(depth), "--K", "16", "--rate-fraction",
                         "0.9", "--trials", str(trials), "--seed", "2030",
                         "--output-dir", "out"]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    totals = tracing["layer_totals"](tracer.spans)
    assert totals["decoder.calls"] == (depth - 1) * trials
    assert totals["decoder.candidates"] == trials * sum(report["codebook_sizes"])
    # the rate is near capacity, so some decodes fail
    errors = round(trials * sum(report["per_psc_block_error"]))
    assert errors > 0 and totals["decoder.errors"] == errors
    assert totals.get("psk.codebooks", 0) == 0
