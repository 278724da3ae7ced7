"""Checks on the package source itself, by parsing it with ast."""

import ast
import pathlib

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "horoflow"


def _trees():
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(_SRC.glob("*.py"))}


def _public_definitions(tree):
    """(qualified name, node) of each public module-level function and
    class, and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub


def _references(tree):
    """(name, node) of every name a module reads: bare names, attributes
    and names imported from another module (an export counts)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def test_every_public_name_has_a_reference_in_src():
    trees = _trees()
    refs = [(module, name, node) for module, tree in trees.items()
            for name, node in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            # a reference inside the definition's own body does not count
            own = {id(n) for n in ast.walk(node)}
            if not any(ref == name and not (m == module and id(n) in own)
                       for m, ref, n in refs):
                unused.append(f"{module[:-3]}.{qualname}")
    assert not unused, f"public names that nothing in src reads: {', '.join(unused)}"


def test_frexp_only_in_the_exact_module_and_expm_taylor():
    # expm_taylor's scaling is a Taylor bound on the 1-norm, not the
    # largest-modulus rule of horoflow._exact
    allowed = {("operator_cone.py", "expm_taylor")}
    found = []
    for module, tree in _trees().items():
        for top in tree.body:
            where = getattr(top, "name", "<module>")
            if module == "_exact.py" or (module, where) in allowed:
                continue
            found += [f"{module}:{node.lineno} ({where})" for node in ast.walk(top)
                      if isinstance(node, ast.Attribute) and node.attr == "frexp"]
    assert not found, f"np.frexp outside _exact and expm_taylor: {', '.join(found)}"
