import ast
from pathlib import Path

import cpn_entropy

# Settable values left in the package: every parameter with a default plus
# every ``RunConfig`` field.  A change that adds a knob raises this bound
# and says why.
SETTABLE_VALUES_BOUND = 56


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
