import ast
import os
import subprocess
import sys
from pathlib import Path

import cpn_entropy

# Settable values left in the package: every parameter with a default plus
# every ``RunConfig`` field.  A change that adds a knob raises this bound
# and says why.
SETTABLE_VALUES_BOUND = 24


def test_every_exported_name_resolves():
    missing = [name for name in cpn_entropy.__all__
               if not hasattr(cpn_entropy, name)]
    assert missing == []


def _settable(package_dir: Path) -> list[tuple[str, str]]:
    """(function, parameter) of every parameter with a default, and
    ("RunConfig", field) of every ``RunConfig`` field."""
    found = []
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                name = f"{path.stem}.{getattr(node, 'name', '<lambda>')}"
                args = node.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional)
                                          - len(args.defaults):]
                with_default += [arg for arg, default in zip(
                    args.kwonlyargs, args.kw_defaults) if default is not None]
                found += [(name, arg.arg) for arg in with_default]
            elif isinstance(node, ast.ClassDef) and node.name == "RunConfig":
                found += [("RunConfig", ast.unparse(s.target))
                          for s in node.body if isinstance(s, ast.AnnAssign)]
    return found


def _settable_values(package_dir: Path) -> int:
    return len(_settable(package_dir))


def test_settable_values_do_not_grow():
    package = Path(cpn_entropy.__file__).parent
    assert _settable_values(package) <= SETTABLE_VALUES_BOUND, \
        _settable(package)


def test_benchmark_probes_run_on_the_package_api(monkeypatch):
    # the probes call package functions directly, not through the CLI: a
    # signature change breaks them, so run them once on tiny batches
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import probes

    monkeypatch.setattr(probes, "BATCH", 8)
    monkeypatch.setattr(probes, "REPEATS", 1)
    monkeypatch.setattr(probes, "MIN_SECONDS", 0)
    timings = probes.run_probes(1)
    assert len(timings) == 11
    assert all(value > 0 for value in timings.values())


def test_cli_import_loads_only_stdlib_and_numpy():
    # the import every benchmark spawn pays for before its worker starts
    code = ("import sys; before = set(sys.modules); import cpn_entropy.cli; "
            "cpn_entropy.cli.build_parser(); "
            "new = set(sys.modules) - before; "
            "print(sorted({m.split('.')[0] for m in new} "
            "- set(sys.stdlib_module_names))); "
            "print(sorted(m for m in new if m.split('.')[0] == 'concurrent'))")
    src = os.path.dirname(os.path.dirname(cpn_entropy.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.splitlines() == ["['cpn_entropy', 'numpy']", "[]"]
