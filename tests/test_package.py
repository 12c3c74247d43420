import ast
import os
import subprocess
import sys
from pathlib import Path

import cpn_entropy

# Settable values left in the package: every parameter with a default plus
# every ``RunConfig`` field.  A change that adds a knob raises this bound
# and says why.
SETTABLE_VALUES_BOUND = 55


def test_every_exported_name_resolves():
    missing = [name for name in cpn_entropy.__all__
               if not hasattr(cpn_entropy, name)]
    assert missing == []


def _settable_values(package_dir: Path) -> int:
    count = 0
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and node.name == "RunConfig":
                count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return count


def test_settable_values_do_not_grow():
    assert _settable_values(Path(cpn_entropy.__file__).parent) \
        <= SETTABLE_VALUES_BOUND


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
