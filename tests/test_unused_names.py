"""No helper that nothing calls: every public function, class, method and
module-level binding of the package is loaded by name somewhere in the
package itself.  `__init__.py` re-exports names and does not count as a
use, and neither do the tests."""

import ast
from pathlib import Path

import qreflect

# the paper's statements that no check reports yet: ROADMAP item 10 makes
# each a reported identity, and drops it from this list
PAPER_STATEMENTS = {"kappa", "build_K_factored", "build_K_upper_split",
                    "r_from_l", "casimir_other_form", "casimir_value"}


def defined_names(tree: ast.Module) -> set:
    """The public module-level functions, classes and bindings, and the
    public methods of the module's classes."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            out.update(m.name for m in node.body if isinstance(m, ast.FunctionDef))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in out if not name.startswith("_")}


def loaded_names(tree: ast.Module) -> set:
    """Every name the module reads: a Name or Attribute in load context, or
    a string that is an identifier (a name looked up at run time)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out.add(node.value)
    return out


def test_every_public_name_is_used_by_the_package():
    defined, loaded = set(), set()
    for path in Path(qreflect.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            defined |= defined_names(tree)
            loaded |= loaded_names(tree)
    assert defined - loaded == PAPER_STATEMENTS
