"""The public option surface: every defaulted parameter of a public function
or method in ``src/localgraphs``.  An option doubles the configurations that
tests and benchmarks must cover, so a new one fails here until it is listed."""
import ast
from collections import Counter
from pathlib import Path

import localgraphs

#: module.function.parameter for each default of a function whose name does
#: not start with an underscore, nested functions and methods included.
OPTIONS = {
    "canonical.decode_code.alphabets",
    "canonical.decode_rooted.alphabets",
    "canonical.radius_profile.cls",
    "cli.main.argv",
    "colored.add.count",
    "enumeration.enumerate_graphs.cap",
    "enumeration.enumerate_marked.cap",
    "enumeration.count_ball_restricted.degree_law",
    "enumeration.finite_entropy_estimate.degree_law",
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
