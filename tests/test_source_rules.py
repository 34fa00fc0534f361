"""Rules on the library source that the test suite enforces, and pins of the
README's contract."""

import argparse
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import commgrowth


def library_nodes():
    """(file name, node) for every AST node of every library module."""
    sources = sorted(Path(commgrowth.__file__).parent.glob("*.py"))
    assert {"cli.py", "commgraph.py", "root_systems.py"} <= {p.name for p in sources}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_no_assert_in_library():
    # python -O strips assert statements, so a runtime check of the
    # library must raise explicitly
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_does_not_import_the_benchmark_oracles():
    # perfbench/oracles.py checks the library independently, so the
    # library must never lean on it
    found = []
    for name, node in library_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any({"perfbench", "oracles"} & set(m.split(".")) for m in modules):
            found.append(f"{name}:{node.lineno}")
    assert found == []


def talks_to_the_process(node):
    """True for a call of print, or a use of sys.exit, sys.stdout,
    sys.stderr or sys.set_int_max_str_digits (also imported from sys)."""
    names = {"exit", "stdout", "stderr", "set_int_max_str_digits"}
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "print"
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "sys" and node.attr in names
    if isinstance(node, ast.ImportFrom) and node.module == "sys":
        return any(alias.name in names for alias in node.names)
    return False


def test_only_the_cli_talks_to_the_process():
    # stdout is byte-identical for identical flags and stderr carries one
    # diagnostic line, so only the CLI may print, exit, or touch the
    # streams and the interpreter's digit limit
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if name not in ("cli.py", "__main__.py") and talks_to_the_process(node)]
    assert found == []


def test_no_module_touches_the_digit_limit():
    # results print past CPython's int->str digit limit through
    # reporting._decimal_text, so no module, the CLI included, reads or
    # changes that interpreter-wide setting
    names = {"get_int_max_str_digits", "set_int_max_str_digits"}
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if {getattr(node, field, None) for field in ("attr", "id", "name")} & names]
    assert found == []


def reads_the_environment(node):
    """True for a use of os.environ, os.environb or os.getenv (also
    imported from os)."""
    names = {"environ", "environb", "getenv"}
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "os" and node.attr in names
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(alias.name in names for alias in node.names)
    return False


def test_library_reads_no_environment_variables():
    # the README promises that `growth` reads no environment variables, so
    # no flag can be overridden from outside the command line
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if reads_the_environment(node)]
    assert found == []


def test_guards_are_constants_not_keywords():
    # a resource guard is a module constant read at call time, so no
    # library function takes keyword-only parameters, and only
    # reporting.compare takes ** keywords (the report context)
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             and (node.args.kwonlyargs or node.args.kwarg
                  and (name, getattr(node, "name", None)) != ("reporting.py", "compare"))]
    assert found == []


def test_powers_of_p_and_m_go_through_the_guard():
    # a power of a caller's prime or modulus can outgrow any memory, so the
    # bound modules build it with arith._power, which refuses it first
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if name in ("chevalley.py", "parahoric.py") and isinstance(node, ast.BinOp)
             and isinstance(node.op, ast.Pow) and isinstance(node.left, ast.Name)
             and node.left.id in ("p", "m")]
    assert found == []


def test_one_guard_routine():
    # every resource guard refuses through errors._guard, so only errors.py
    # constructs a ResourceLimitError; the CLI may still catch one
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if name != "errors.py" and isinstance(node, ast.Call)
             and "ResourceLimitError" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None))]
    assert found == []


def owned_nodes(name, home=Path(commgrowth.__file__).parent):
    """(outermost function around it or None, node) for every AST node of the
    module file name in home, the library's directory unless given."""
    path = home / name

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            inner = owner or (child.name if is_def else None)
            yield inner, child
            yield from visit(child, inner)
    return visit(ast.parse(path.read_text(), filename=str(path)), None)


def branches_on_the_cyclic_family(node):
    """True for isinstance(..., RationalCyclic), or a dim-None sentinel:
    `dim is None`, `dim is not None` or `dim or ...` (dim a name or an attribute)."""
    def is_dim(value):
        return "dim" in (getattr(value, "id", None), getattr(value, "attr", None))
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        return any(getattr(n, "id", None) == "RationalCyclic" for n in ast.walk(node))
    if isinstance(node, ast.Compare):
        return is_dim(node.left) and isinstance(node.ops[0], (ast.Is, ast.IsNot)) \
            and isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value is None
    return isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or) and is_dim(node.values[0])


def test_cyclic_branches_stay_in_their_functions():
    # (a/b)Z is the dim-1 RationalLattice, so one code path serves both
    # families; only the (a, b) member order of a ball and the pinned cyclic
    # chain step may test for RationalCyclic or keep a dim-None sentinel
    homes = {"enumerate_ball", "_random_chain"}
    found = [f"{name}:{owner}:{node.lineno}" for name in ("commgraph.py", "cli.py")
             for owner, node in owned_nodes(name)
             if owner not in homes and branches_on_the_cyclic_family(node)]
    assert found == []


def names_in(node):
    """The names a node refers to: an attribute, a variable, an imported name,
    or a string, as setattr and getattr take a name."""
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.alias):
        return {node.name, node.asname}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    return set()


def test_ball_layout_stays_in_three_tests():
    # the ball kernel's layout (the stack's rows, the unreduced frames, the
    # triangular columns) belongs to commgraph: the ball tests check the
    # kernel's output against tests/ball_oracles.py, and only these three
    # read the layout, so a kernel rewrite edits commgraph and them alone.
    # This file names the helpers to look for them, so it is not read
    layout = {"_hnf_stack", "_frames", "_triangular_canonical"}
    readers = {"test_hnf_stack_oracle", "test_int64_exact_at_guard_edge", "test_sort_code_guard"}
    tests = Path(__file__).parent
    found, seen = [], set()
    for path in sorted(set(tests.glob("*.py")) - {Path(__file__)}):
        for owner, node in owned_nodes(path.name, tests):
            if names_in(node) & layout:
                if owner in readers:
                    seen.add(owner)
                else:
                    found.append(f"{path.name}:{owner}:{node.lineno}")
    assert found == [] and seen == readers


INTAKE_MODULES = ("operator", "numbers", "fractions")


def converts_or_bounds_an_integer(node):
    """True for an import of operator, numbers or fractions, a use of
    operator.index, a name Fraction or Rational, or a string that says an
    argument "must be >=" a bound or "must be an integer"."""
    if isinstance(node, ast.Import):
        return any(alias.name in INTAKE_MODULES for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module in INTAKE_MODULES
    if isinstance(node, ast.Name):
        return node.id in ("Fraction", "Rational")
    if isinstance(node, ast.Attribute):
        return node.attr in ("Fraction", "Rational") or isinstance(node.value, ast.Name) \
            and (node.value.id, node.attr) == ("operator", "index")
    return isinstance(node, ast.Constant) and isinstance(node.value, str) \
        and ("must be >=" in node.value or "must be an integer" in node.value)


def test_one_integer_check():
    # every integer argument is converted and bounded by errors._at_least
    # (or only converted, by errors._integer), and every rational one read by
    # errors._rational, so a numpy scalar or a float is treated alike
    # everywhere and every refusal reads alike
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if name != "errors.py" and converts_or_bounds_an_integer(node)]
    assert found == []


def run_fresh(*args):
    """A fresh python with this checkout's src first on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(commgrowth.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


POINT_QUERIES = """
import contextlib, io, sys
from commgrowth.cli import main
statuses = []
for argv in (["--version"], ["order", "--type", "E8", "--p", "7", "--k", "2"],
             ["rootsys", "--type", "E8", "--json"], ["rootsys", "--type", "Q2"],
             ["check", "metric", "--samples", "5"], ["parahoric", "--type", "E8", "--k", "2"],
             ["parahoric", "--type", "F4", "--k", "99", "--json"],
             ["parahoric", "--type", "A8", "--k", "3"],
             ["rank1", "--n", "0"], ["rank1", "--n", "10000001"],
             ["ball", "--family", "cyclic", "--n", "1001"],
             ["ball", "--family", "lattice", "--dim", "4", "--n", "2"],
             ["order", "--type", "C2", "--p", "5", "--brute-force"],
             ["order", "--type", "E8", "--p", "1000003", "--k", "100"],
             ["order", "--type", "A1", "--p", "4"], ["rootsys", "--type", "A49"],
             ["parahoric", "--type", "A1", "--k", "101"],
             ["check", "metric", "--samples", "100001"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            statuses.append(main(argv))
        except SystemExit as exc:
            statuses.append(exc.code)
print(statuses, "numpy" in sys.modules)
"""


def test_point_queries_do_not_import_numpy():
    # numpy is imported inside the functions that build arrays, so a
    # process that prints the version, an order, a root system or a
    # cocharacter count, runs the metric suite, or meets any refusal but the
    # ball candidate guard's (which counts with numpy) never pays for the
    # import; one process runs all eighteen
    result = run_fresh("-c", POINT_QUERIES)
    assert (result.stdout, result.stderr) == \
        ("[0, 0, 0, 2, 0, 0, 0, 0, 2, 3, 3, 3, 3, 3, 2, 3, 3, 3] False\n", "")


LOADED_MODULES = """
import contextlib, io, sys
from commgrowth.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        status = main(sys.argv[1:])
    except SystemExit as exc:
        status = exc.code
print(status, *sorted(name for name in sys.modules if name.startswith("commgrowth.")))
"""


@pytest.mark.parametrize("argv, modules", [
    (["--version"], set()),
    (["rootsys", "--type", "E8"], {"root_systems"}),
    (["check", "metric", "--samples", "5"], {"commgraph", "reporting"}),
    (["order", "--type", "E8", "--p", "7", "--k", "2"],
     {"arith", "chevalley", "reporting", "root_systems"}),
], ids=["version", "rootsys", "check-metric", "order"])
def test_each_subcommand_loads_only_its_modules(argv, modules):
    # the package namespace imports a module on first access to it, and each
    # CLI handler imports what it uses when it runs, so a fresh `growth`
    # process loads cli, errors and only the modules its subcommand needs;
    # sys.modules also holds a module that `from . import <name>` loaded
    # through the package's __getattr__
    result = run_fresh("-c", LOADED_MODULES, *argv)
    assert result.returncode == 0, result.stderr
    status, *loaded = result.stdout.split()
    assert status == "0" and set(loaded) == \
        {f"commgrowth.{name}" for name in {"cli", "errors", *modules}}


NO_JSON_WRITTEN = """
import contextlib, io, sys
from commgrowth.cli import main
for argv in (["--version"], ["rootsys", "--type", "E8"], ["parahoric", "--type", "F4", "--k", "2"],
             ["rank1", "--n", "10", "--csv"], ["ball", "--family", "cyclic", "--n", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass
    print(argv[0], *sorted({"json", "fractions", "decimal"} & set(sys.modules)))
"""


def test_runs_that_write_no_json_load_neither_json_nor_fractions():
    # cli imports json only where it writes JSON, and errors imports fractions
    # only where it reads a rational, so a fresh `--version`, a text report
    # and a text or CSV listing leave json, fractions and decimal unloaded
    result = run_fresh("-c", NO_JSON_WRITTEN)
    assert (result.stdout.split(), result.stderr) == \
        (["--version", "rootsys", "parahoric", "rank1", "ball"], "")


# commgrowth.__all__ by defining module, as it stood when the package
# imported every module eagerly, then __version__
PUBLIC_NAMES = {
    "arith": ["EULER_MASCHERONI", "Factorization", "GrowthSeries", "check_sandwich_bounds",
              "cn_rank1", "dirichlet_residual", "divisor_count", "divisor_count_sieve",
              "divisors", "factorize", "growth_series_rank1", "is_prime", "omega",
              "omega_sieve", "omega_sum_ratio", "prime_sieve", "sum_divisor_count",
              "sum_omega"],
    "chevalley": ["ORACLE_FAMILIES", "brute_force_order", "check_order_bound", "order_fp",
                  "order_zm", "order_zpk"],
    "commgraph": ["CommIndex", "GeodesicPath", "RationalCyclic", "RationalLattice",
                  "chain_length", "check_transfer_inequality", "comm_index", "distance",
                  "enumerate_ball", "geodesic", "index_in", "intersect", "run_metric_checks"],
    "errors": ["DomainError", "ResourceLimitError"],
    "parahoric": ["CocharacterCount", "check_cocharacter_bound", "check_two_k_plus_three",
                  "count_admissible_cocharacters", "maximal_lattice_bound", "per_prime_bound",
                  "upper_bound_profile"],
    "reporting": ["BoundReport", "compare"],
    "root_systems": ["RootSystem", "root_system", "supported_labels"],
}
ALL = [name for names in PUBLIC_NAMES.values() for name in names] + ["__version__"]

LAZY_NAMESPACE = """
import json, sys
import commgrowth
loaded = sorted(m for m in sys.modules if m.startswith("commgrowth"))
limit = commgrowth.arith.MAX_SIEVE_LIMIT
modules = [getattr(commgrowth, m).__name__ for m in %r]
namespace = {}
exec("from commgrowth import *", namespace)
print(json.dumps([loaded, limit, modules, [k for k in namespace if k != "__builtins__"]]))
"""


def test_public_namespace_loads_on_first_access():
    # a bare import loads no module of the package; each module resolves as
    # an attribute, and `import *` binds the public names in their order
    result = run_fresh("-c", LAZY_NAMESPACE % list(PUBLIC_NAMES))
    assert result.stderr == ""
    loaded, limit, modules, starred = json.loads(result.stdout)
    assert loaded == ["commgrowth"]
    assert limit == 10 ** 7
    assert modules == [f"commgrowth.{m}" for m in PUBLIC_NAMES]
    assert starred == ALL


def test_public_names_are_their_modules_objects():
    assert commgrowth.__all__ == ALL
    for module, names in PUBLIC_NAMES.items():
        home = importlib.import_module(f"commgrowth.{module}")
        assert getattr(commgrowth, module) is home
        for name in names:
            assert getattr(commgrowth, name) is getattr(home, name), name
    assert set(ALL) | set(PUBLIC_NAMES) <= set(dir(commgrowth))


def test_readme_names_every_public_name_and_guard():
    # the README is the contract: each public name and each MAX_* guard
    # constant is named in it, in backticks (fences are no inline code)
    readme = (Path(__file__).parents[1] / "README.md").read_text().replace("```", "")
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", readme))))
    guards = {target.id for _, node in library_nodes() if isinstance(node, ast.Assign)
              for target in node.targets
              if isinstance(target, ast.Name) and target.id.startswith("MAX_")}
    assert {"MAX_BALL_CANDIDATES", "MAX_SIEVE_LIMIT"} <= guards
    assert sorted({*ALL, *guards} - {"__version__"} - named) == []


@pytest.mark.parametrize("name", ["nonexistent", "cli_main", "_EXPORT", "numpy"])
def test_unknown_public_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(commgrowth, name)
    assert not hasattr(commgrowth, name)


README = Path(__file__).parents[1] / "README.md"


def readme_code():
    """Every fenced block and every inline backticked span of the README."""
    text = README.read_text()
    fence = r"```[^\n]*\n(.*?)```"
    inline = re.sub(fence, "", text, flags=re.S)
    return re.findall(fence, text, re.S) + re.findall(r"`([^`]+)`", inline)


def readme_rows():
    """The stripped cells of each table row of the README."""
    return [[cell.strip() for cell in line.strip("| ").split(" | ")]
            for line in README.read_text().splitlines() if line.startswith("| ")]


def parser_actions(parser, path=()):
    """(subcommand path, action) for each option of parser and of its subparsers."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from parser_actions(sub, (*path, name))
        else:
            yield path, action


def test_readme_is_the_contract():
    # the README holds the contract, not how it is kept: a mechanism lives in
    # the docstring that owns it, so the README names no private identifier
    # (one leading underscore; a dunder such as __all__ passes), and a timing
    # lives in the BENCH file or CHANGES.md entry that measured it, so the
    # README cites no BENCH file; and it names every subcommand and option
    # string that `growth` parses
    from commgrowth.cli import build_parser
    code = readme_code()
    private = {name for span in code for name in re.findall(r"(?<!\w)_(?!_)\w+", span)}
    assert sorted(private) == []
    assert re.findall(r"BENCH_[\w*]*", README.read_text()) == []
    words = {word for span in code for word in re.findall(r"-{1,2}[\w-]+|\w+", span)}
    parsed = {word for path, action in parser_actions(build_parser())
              for word in (*path, *action.option_strings)}
    assert sorted(parsed - words) == []


def test_readme_has_only_the_contract_sections():
    # a note on how the code works belongs in the docstring of that code, so the
    # README's sections are the contract's own and no other
    sections = set(re.findall(r"^## (.+)$", README.read_text(), re.M))
    assert sorted(sections - {"Install", "Tests", "Command line", "Guards", "Library",
                              "Oracles", "Demos"}) == []


def test_readme_gives_every_flag_its_default():
    # the flag table has a row for each option of each subcommand, with the
    # parser's default: required, off for a switch, none, or the value, and
    # each of its choices; --help and --version have no default
    from commgrowth.cli import build_parser
    rows = {(cells[0].strip("`"), flag): cells for cells in readme_rows() if len(cells) == 4
            for flag in re.findall(r"`(-[\w-]+)`", cells[1])}
    found = []
    for path, action in parser_actions(build_parser()):
        if action.default == argparse.SUPPRESS:
            continue
        default = "required" if action.required else "off" if action.const is True \
            else "none" if action.default is None else f"`{action.default}`"
        for flag in action.option_strings:
            cells = rows.get((" ".join(path), flag), ["", "", "", ""])
            if cells[2] != default or any(f"`{c}`" not in cells[3] for c in action.choices or ()):
                found.append((" ".join(path), flag, default, cells[2]))
    assert found == []


def test_readme_gives_every_guard_its_value():
    # the guard table gives each MAX_* constant as `module.NAME` and the
    # expression its module assigns, so a changed guard changes its row too
    table = {cells[0].strip("`"): ast.unparse(ast.parse(cells[1].strip("`"), mode="eval"))
             for cells in readme_rows() if re.fullmatch(r"`\w+\.MAX_\w+`", cells[0])}
    guards = {f"{name[:-3]}.{target.id}": ast.unparse(node.value)
              for name, node in library_nodes() if isinstance(node, ast.Assign)
              for target in node.targets
              if isinstance(target, ast.Name) and target.id.startswith("MAX_")}
    assert table == guards


def test_readme_paths_are_the_repository_files():
    # every file the README names exists, and every demo is named in it
    root = README.parent
    paths = {path for span in readme_code()
             for path in re.findall(r"[\w/]+\.(?:py|json|toml)\b", span) if "/" in path}
    assert sorted(path for path in paths if not (root / path).is_file()) == []
    demos = {f"demos/{path.name}" for path in (root / "demos").glob("*.py")}
    assert sorted(demos - paths) == []


def test_readme_oracles_name_existing_tests():
    # each test file, class or function the oracle table names is in tests/
    known = set()
    for path in Path(__file__).parent.glob("test_*.py"):
        names = {node.name for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        known |= {path.name, *names, *(f"{path.name}::{name}" for name in names)}
    table = readme_rows()[readme_rows().index(["closed form", "checked by", "against"]) + 2:]
    named = {span for cells in table for cell in cells[1:]
             for span in re.findall(r"`([^`]+)`", cell)
             if re.fullmatch(r"(test_\w+\.py)?(::)?((Test|test_)\w+)?", span)}
    assert len(named) >= 10 and sorted(named - known) == []


def test_pyproject_installs_growth_with_numpy_alone():
    # `pip install -e .` gives the `growth` command, and numpy is the only
    # runtime dependency, as the README's Install section says
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((README.parent / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"growth": "commgrowth.cli:main"}
    assert [re.match(r"[\w-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]


def test_failed_checks_exit_one(monkeypatch, capsys):
    # exit 1, as the README's exit table gives it: a brute-force count unequal
    # to the formula prints both and a `mismatch:` line on stderr, and a FAIL
    # report of `check metric` prints its line and nothing on stderr
    from commgrowth import chevalley, commgraph, reporting
    from commgrowth.cli import main
    monkeypatch.setattr(chevalley, "brute_force_order", lambda family, m: 7)
    assert main(["order", "--type", "A1", "--p", "2", "--brute-force"]) == 1
    assert capsys.readouterr() == ("6 (enumeration: 7)\n",
                                   "mismatch: formula 6 != enumeration 7\n")
    monkeypatch.setattr(commgraph, "run_metric_checks",
                        lambda samples, seed: [reporting.compare("metric_symmetry", 1, 0)])
    assert main(["check", "metric"]) == 1
    assert capsys.readouterr() == ("FAIL metric_symmetry: 1 <= 0\n", "")


def test_build_parser_returns_a_new_parser():
    from commgrowth.cli import build_parser
    assert build_parser() is not build_parser()
