"""The public surface of ``src/localgraphs``.

Every defaulted parameter of a public function or method is listed: an option
doubles the configurations that tests and benchmarks must cover, so a new one
fails here until it is listed.  Every public module-level function or class
has a caller in the product (the package itself or ``bench/``), and every
public method or property of a public class has a reader there: a name that
only tests reach belongs in the tests."""
import ast
import re
from collections import Counter
from pathlib import Path

import localgraphs

#: module.function.parameter for each default of a function whose name does
#: not start with an underscore, nested functions and methods included.
OPTIONS = {
    "canonical.decode_code.alphabets",
    "canonical.decode_rooted.alphabets",
    "cli.main.argv",
    "colored.add.count",
    "enumeration.enumerate_graphs.cap",
    "enumeration.enumerate_marked.cap",
    "graphs.build_graph.tau",
    "graphs.build_graph.alphabets",
    "graphs.ball.r",
    "graphs.ball.exclude_edge",
    "graphs.read_graph.alphabets",
    "graphs.bfs_layers.radius",
    "graphs.bfs_layers.cut",
    "marks.chi2_leq.order",
    "measures.empirical_distribution.depth",
    "samplers.sample_uniform_graph.max_attempts",
    "surgery.modify_graph.max_attempts",
    "verify.random_rooted.max_n",
    "verify.run_suites.numbers",
}


def public_options() -> Counter:
    found = Counter()
    for path in sorted(Path(localgraphs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
            names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found.update(f"{path.stem}.{node.name}.{name}" for name in names)
    return found


def test_public_options_are_the_listed_ones():
    found = public_options()
    assert not {k: c for k, c in found.items() if c > 1}
    assert set(found) == OPTIONS


ROOT = Path(__file__).resolve().parents[1]

#: Public names with no caller in the product, each with the reason.
NO_PRODUCT_CALLER = {
    # README promises that every write_* format function has a matching read_*
    # and round-trips exactly; each of these is the writer for a reader the CLI uses.
    "write_cds",  # writes the `cm --cds` colored degree sequence file
    "write_rate_inputs",  # writes the `entropy --inputs` file
    "write_targets",  # writes the `transport --targets` file
}


def product_files() -> list[Path]:
    return sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))


def _docstrings(tree: ast.AST) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def product_references() -> Counter:
    """Identifiers named in code under src/ and bench/: names, attributes,
    imports, and the words of string constants other than docstrings (so
    bench/tracing.SPANS, which names functions as strings, counts)."""
    found = Counter()
    for path in product_files():
        tree = ast.parse(path.read_text())
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found[node.id] += 1
            elif isinstance(node, ast.Attribute):
                found[node.attr] += 1
            elif isinstance(node, ast.alias):
                found[node.name.rsplit(".", 1)[-1]] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in docs:
                    found.update(re.findall(r"\w+", node.value))
    return found


def test_every_public_function_has_a_product_caller():
    found = product_references()
    orphans = []
    for path in sorted(Path(localgraphs.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in NO_PRODUCT_CALLER:
                continue
            if not found[node.name]:
                orphans.append(f"{path.stem}.{node.name}")
    assert orphans == []
    assert all(found[name] == 0 for name in NO_PRODUCT_CALLER)


def test_every_public_method_has_a_product_reader():
    """Every public method or property of a public class is read as an
    attribute somewhere in src/ or bench/.  Bare names do not count: a local
    function that shares a method's name would hide the unread method."""
    read = Counter()
    for path in product_files():
        read.update(n.attr for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Attribute))
    unread = []
    for path in sorted(Path(localgraphs.__file__).parent.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")
                    and not read[node.name]
                ):
                    unread.append(f"{path.stem}.{cls.name}.{node.name}")
    assert unread == []
