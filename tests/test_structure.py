"""Import discipline of the package: no function-level relative imports (they
hide import cycles), no module reaches into the expression kernel's private
helpers, no module outside the kernel, the printer and the workspace reads a
jet's (name, order) pairs, and no module-level import is left unused.
Every module-level definition has a caller outside the tests, unless it is a
named test oracle.  No function mutates module-level state; the two settings
the README names are per context.  Every loop cap is a named constant.  Only
the kernel builds a product or reads a node's cached views.  Only `jets` and
the reducer rank jets.  The reducer runs every pass it defines, and has
three.  Every knob a user can set is listed here and in the README.  Every
`Rejection` reason is quoted by some test."""

import ast
import pathlib
import re
import threading
from collections import Counter

from helpers import burgers_workspace
from pdelin import wsfile
from pdelin.errors import ExprError
from pdelin.expr import add, mul, rat, set_max_terms
from pdelin.probe import default_probe_seed, set_default_probe_seed

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "pdelin"

# (module, enclosing function, imported module): the printer is needed by
# Expr.__repr__ while grammar imports expr
ALLOWED_LOCAL = {("expr", "__repr__", "grammar")}


def _imports():
    """(module, enclosing function or None, ImportFrom node) per import."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, func):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from visit(child, child.name)
                elif isinstance(child, ast.ImportFrom):
                    yield path.stem, func, child
                else:
                    yield from visit(child, func)

        yield from visit(tree, None)


def test_no_function_level_relative_imports():
    local = {(mod, func, node.module) for mod, func, node in _imports()
             if func is not None and node.level > 0}
    assert local <= ALLOWED_LOCAL, sorted(local - ALLOWED_LOCAL)


def test_no_private_expr_names_imported_elsewhere():
    bad = [(mod, alias.name) for mod, _, node in _imports()
           if mod != "expr" and node.module in ("expr", "pdelin.expr")
           for alias in node.names if alias.name.startswith("_")]
    assert not bad, bad


# the modules that read a jet's (name, order) pairs; everywhere else a
# multi-index is an integer vector (`Workspace.jet_vector`, `Workspace.jet`)
MIDX_READERS = {"expr", "grammar", "workspace"}


def test_only_kernel_printer_and_workspace_read_jet_pairs():
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.Attribute) and node.attr == "midx"
               for node in ast.walk(tree)):
            readers.add(path.stem)
    assert readers <= MIDX_READERS, sorted(readers - MIDX_READERS)


def _exported(tree):
    """The names listed in a module's `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _names(tree):
    """Every identifier a tree names: variables, attributes, imported
    names, and string constants (the benchmark's span table names the
    functions it wraps as strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _unnamed_definitions(folders):
    """(module, name) of each module-level function or class of the package
    that no file in the given folders names outside its own body."""
    root = PACKAGE.parent.parent
    named = Counter()
    defs = []
    for folder in folders:
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            named.update(_names(tree))
            if path.parent == PACKAGE:
                defs += [(path.stem, node) for node in tree.body
                         if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return [(mod, node.name) for mod, node in defs
            if named[node.name] == Counter(_names(node))[node.name]]


def test_every_module_level_definition_is_used():
    unused = _unnamed_definitions(("src", "tests", "demos", "bench"))
    assert not unused, unused


# the test oracles: module-level definitions that only tests name, each
# with what it checks
TEST_ORACLES = {
    "identity_residual": "the bilinear identity of an operator, in full",
    "euler_wrt_function": "E_V in the new coordinates, against W and Q",
    "verify_point_symmetry": "the symmetries of the bundled systems",
    "SymmetryGenerator": "the input of verify_point_symmetry",
}


def test_no_api_is_named_only_by_tests():
    # API that only tests call is deleted together with its tests, unless
    # it is a named oracle; an oracle that gains a caller leaves the list
    test_only = {name for _, name in
                 _unnamed_definitions(("src", "demos", "bench"))}
    assert test_only == set(TEST_ORACLES), \
        sorted(test_only ^ set(TEST_ORACLES))


def test_no_unused_module_level_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update(a.asname or a.name.split(".")[0]
                             for a in node.names)
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [(path.stem, name)
                   for name in sorted(bound - used - _exported(tree))]
    assert not unused, unused


# module-level names that functions may mutate: none, since the
# expression-size guard and the base probe seed are context variables
PROCESS_WIDE = set()

MUTATING_METHODS = {"append", "extend", "insert", "pop", "popitem", "remove",
                    "clear", "update", "setdefault", "add", "discard", "sort",
                    "reverse", "__setitem__", "__delitem__"}

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(func):
    """The nodes of a function body, not descending into nested scopes."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _mutated_module_names(tree):
    """Module-level names that some function mutates: by a subscript store
    or delete, by a mutating method call, or by rebinding through
    `global`."""
    module = {t.id for node in tree.body
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              for t in (node.targets if isinstance(node, ast.Assign)
                        else [node.target])
              if isinstance(t, ast.Name)}
    out = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(_own_nodes(func))
        declared = {n for node in nodes if isinstance(node, ast.Global)
                    for n in node.names}
        local = {a.arg for a in ast.walk(func.args)
                 if isinstance(a, ast.arg)}
        local |= {node.id for node in nodes if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store)} - declared
        visible = (module - local) | declared
        out |= declared & module
        for node in nodes:
            if isinstance(node, ast.Subscript) and \
                    isinstance(node.ctx, (ast.Store, ast.Del)):
                base = node.value
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in MUTATING_METHODS:
                base = node.func.value
            else:
                continue
            if isinstance(base, ast.Name) and base.id in visible:
                out.add(base.id)
    return out


def test_process_wide_state_is_only_the_named_settings():
    mutated = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        mutated |= {(path.stem, name) for name in _mutated_module_names(tree)}
    assert mutated == PROCESS_WIDE, sorted(mutated ^ PROCESS_WIDE)


def test_settings_are_per_thread():
    # both threads set their values before either reads, so a shared
    # setting would show the other thread's value to one of them
    barrier = threading.Barrier(2, timeout=60)
    x, t = burgers_workspace().independents
    cube = (add(x, t, rat(1)),) * 3    # 27 monomials before collecting
    seen = {}

    def work(max_terms, seed):
        set_max_terms(max_terms)
        set_default_probe_seed(seed)
        barrier.wait()
        try:
            mul(*cube)
            limited = False
        except ExprError:
            limited = True
        seen[seed] = (limited, default_probe_seed())
        barrier.wait()

    threads = [threading.Thread(target=work, args=(5, 1)),
               threading.Thread(target=work, args=(200000, 2))]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
        assert not th.is_alive()
    assert seen == {1: (True, 1), 2: (False, 2)}


def _literal_range_loops():
    """(module, line) of every loop, comprehensions included, whose range()
    bound is an integer literal."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.For, ast.comprehension)):
                continue
            it = node.iter
            if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                    and it.func.id == "range" and it.args):
                continue
            bound = it.args[0] if len(it.args) == 1 else it.args[1]
            if isinstance(bound, ast.Constant) and \
                    isinstance(bound.value, int):
                yield path.stem, it.lineno


def test_loop_caps_are_named():
    # an iteration cap is a named module constant that its error or report
    # can quote, never a bare number in a range()
    assert not list(_literal_range_loops())


# the modules that call `LinearOperator.from_rows`: the operator itself and
# the constraint system, which reads its rows once through it
ROW_PARSERS = {"constraints", "linops"}


def _callers(name):
    """The modules that call a function or method of the given name."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.Call) and
               getattr(node.func, "id", getattr(node.func, "attr", None))
               == name for node in ast.walk(tree)):
            yield path.stem


def test_one_row_parser():
    callers = set(_callers("from_rows"))
    assert callers <= ROW_PARSERS, sorted(callers - ROW_PARSERS)
    imported = {(mod, alias.name) for mod, _, node in _imports()
                for alias in node.names}
    # constraint rows are read through `constraints.operator` only
    assert not imported & {("constraints", "linear_form"),
                           ("constraints", "solve_linear"),
                           ("linearize", "solve_linear")}


def _capped_kernel_rewriters():
    """(module, cap) of every `for ... in range(MAX_...)` loop whose body
    calls `substitute_kernels`."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.For):
                continue
            it = node.iter
            if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                    and it.func.id == "range" and len(it.args) == 1
                    and isinstance(it.args[0], ast.Name)
                    and it.args[0].id.startswith("MAX_")):
                continue
            calls = {n.func.id if isinstance(n.func, ast.Name) else
                     getattr(n.func, "attr", None)
                     for body in node.body for n in ast.walk(body)
                     if isinstance(n, ast.Call)}
            if "substitute_kernels" in calls:
                yield path.stem, it.args[0].id


def test_one_kernel_rule_rewriter():
    # arbitrary-function kernels are rewritten in capped rounds only by
    # `constraints.KernelRules.reduce`; the reducer's substitutions, the
    # constraint rows and the multiplier oracle all go through it
    assert sorted(_capped_kernel_rewriters()) == [
        ("constraints", "MAX_REDUCE_ROUNDS")]


# the modules that rank jets: `PdeSystem`'s leading solves and rules, and
# the reducer's; a system's equations are reduced against each other's
# leading jets only by `PdeSystem`
JET_RANKERS = {"jets", "conslaw"}


def test_one_triangular_form():
    callers = set(_callers("jet_rank"))
    assert callers <= JET_RANKERS, sorted(callers - JET_RANKERS)


def _view_readers():
    """(module, what) of every read of a node's `_mono` or `_prim` slot and
    every call that builds a `Mul`."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and \
                    node.attr in ("_mono", "_prim"):
                yield path.stem, node.attr
            elif isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "Mul" or
                    getattr(node.func, "attr", None) == "Mul"):
                yield path.stem, "Mul()"


def test_only_the_kernel_builds_products_and_reads_views():
    # a product is its own monomial view, set once when `expr` builds it;
    # every other module reads a view through `monomials`
    assert {mod for mod, _ in _view_readers()} == {"expr"}


# the functions allowed a true division: the probe formats an interval's
# width as a float in its give-up message; coefficients divide only through
# `expr.quotient`, which builds a Fraction and never a float
TRUE_DIVIDERS = {("probe", "numeric_probe")}


def _true_divisions():
    """(module, enclosing function or None) of every `/` and `/=`."""
    for path in sorted(PACKAGE.glob("*.py")):
        def visit(node, func):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from visit(child, child.name)
                    continue
                if isinstance(child, (ast.BinOp, ast.AugAssign)) and \
                        isinstance(child.op, ast.Div):
                    yield path.stem, func
                yield from visit(child, func)

        yield from visit(ast.parse(path.read_text(encoding="utf-8")), None)


def test_coefficients_divide_only_through_the_quotient():
    # `int / int` is a float: a coefficient quotient written with `/`
    # leaks one into a node the first time both operands are integral
    found = set(_true_divisions())
    assert found <= TRUE_DIVIDERS, sorted(found - TRUE_DIVIDERS)


# the reducer's passes: one method of characteristics for every first-order
# linear row in one function, algebraic elimination and potentials
REDUCER_PASSES = 3


def test_reducer_runs_each_pass_it_defines():
    tree = ast.parse((PACKAGE / "conslaw.py").read_text(encoding="utf-8"))
    state = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                 and node.name == "_ReducerState")
    methods = {f.name: f for f in state.body
               if isinstance(f, ast.FunctionDef)}
    defined = {name for name in methods if name.startswith("_pass_")}
    tuple_ = next(node.value for node in ast.walk(methods["run"])
                  if isinstance(node, ast.Assign) and
                  isinstance(node.value, ast.Tuple))
    listed = [elt.attr for elt in tuple_.elts]
    assert sorted(listed) == sorted(defined), (listed, sorted(defined))
    assert len(defined) == REDUCER_PASSES, sorted(defined)


# every knob a user can set: the flags of `pdelin`, the sections of a
# workspace file and the keys of [ansatz]; a knob joins this list, and the
# README, only with a caller
KNOBS = {
    "flags": {"--json", "--max-terms", "--seed"},
    "sections": {"vars", "system", "ansatz", "multipliers", "transformation",
                 "target"},
    "ansatz keys": {"order", "preset"},
}


def _readme_knobs():
    """The flags of the README's "Flags:" sentence, and the sections and
    [ansatz] keys of its workspace-file example."""
    text = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    flags = text[text.index("Flags:"):]
    flags = flags[:flags.index(".\n")]
    example = text[text.index("```ini"):]
    example = example[:example.index("```", 3)]
    keys = {}
    for line in example.splitlines()[1:]:
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = keys.setdefault(line[1:-1], set())
        elif line:
            section.add(line.split("=", 1)[0].strip())
    return {"flags": set(re.findall(r"--[a-z-]+", flags)),
            "sections": set(keys), "ansatz keys": keys["ansatz"]}


def test_every_knob_is_listed_and_documented():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    flags = {node.args[0].value for node in ast.walk(tree)
             if isinstance(node, ast.Call) and
             getattr(node.func, "attr", None) == "add_argument" and
             node.args[0].value.startswith("--")}
    code = {"flags": flags, "sections": set(wsfile._SECTIONS),
            "ansatz keys": set(wsfile._ANSATZ_KEYS)}
    assert code == KNOBS
    assert _readme_knobs() == KNOBS


def _strings(node):
    """The string literals in an AST; adjacent literals arrive joined."""
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def test_every_rejection_is_quoted_by_a_test():
    # an exit-2 rejection claims that a condition of the theory fails, so
    # some test reaches each one and quotes it: the longest literal
    # fragment of its reason appears in a string of some test file
    quoted = [s for path in sorted(PACKAGE.parent.parent.glob("tests/test_*.py"))
              for s in _strings(ast.parse(path.read_text(encoding="utf-8")))]
    silent = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "Rejection":
                fragment = max(_strings(node.args[0]), key=len)
                if not any(fragment in s for s in quoted):
                    silent.append((path.stem, node.lineno, fragment))
    assert not silent, silent
