"""Module boundaries of the steintail package, read from the source.

No module reads a private (single-underscore) attribute of another steintail
module, and every module is imported by another one unless it is an entry
point (``cli`` or ``__init__``).  A Pearson case is known in one place: only
``pearson.classify`` and the rows of ``pearson._CASES`` name a ``CaseTag``
member, and ``bounds`` reads neither the tag nor a canonical parameter.
Sampling stays off ``scipy.stats``, whose import alone costs about half a
second and 17 MB, and the library and the CLI load neither ``scipy.optimize``
nor ``scipy.integrate``.  Every root goes through ``quadrature.solve_monotone``:
no module names a library root finder (companion matrix, eigenvalues, Brent or
Newton).  Every ``raise`` names a class of ``steintail.errors`` or re-raises.
Only ``rng`` spells the range of the uniforms, and ``verify`` tests the type of
an X model only in ``_model`` and in scenario (de)serialization.  ``run_scenario``
reaches ``bounds`` only through its statement table.  Each rule about a comparison's
inputs has one owner: a coefficient triple checks itself when it is made, the
scenario reader casts nothing, only ``bounds`` tests the upper multiplier K, and
only ``bounds`` spells the default of the explicit bound's constant c.  ``verify``
maps no draw through the sampler's inverse.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "steintail"
ENTRY_POINTS = {"cli", "__init__"}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _sibling(node: ast.ImportFrom) -> str | None:
    """The sibling module named by a from-import, '' for the package itself, None if foreign."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "steintail":
        return ".".join(node.module.split(".")[1:])
    return None


def _imports(tree: ast.Module, modules: set[str]) -> tuple[set[str], dict[str, str], list[str]]:
    """(sibling modules imported, local alias -> sibling module, private names imported from siblings)."""
    imported, aliases, private = set(), {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "steintail" and len(parts) == 2 and parts[1] in modules:
                    imported.add(parts[1])
                    if a.asname:
                        aliases[a.asname] = parts[1]
        elif isinstance(node, ast.ImportFrom):
            target = _sibling(node)
            if target is None:
                continue
            for a in node.names:
                if target == "" and a.name in modules:  # from . import pearson
                    imported.add(a.name)
                    aliases[a.asname or a.name] = a.name
                elif target:
                    imported.add(target)
                    if _is_private(a.name):
                        private.append(f"{target}.{a.name}")
    return imported, aliases, private


def test_no_module_reads_private_names_of_another():
    modules = _modules()
    violations = []
    for name, tree in modules.items():
        _, aliases, private = _imports(tree, set(modules))
        violations += [f"{name} imports {p}" for p in private]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and aliases[node.value.id] != name
                    and _is_private(node.attr)):
                violations.append(f"{name}:{node.lineno} reads {aliases[node.value.id]}.{node.attr}")
    assert not violations, violations


def test_every_module_is_imported_or_an_entry_point():
    modules = _modules()
    imported_by_others = set()
    for name, tree in modules.items():
        imported, _, _ = _imports(tree, set(modules))
        imported_by_others |= imported - {name}
    orphans = sorted(set(modules) - imported_by_others - ENTRY_POINTS)
    assert not orphans, f"modules imported by no other module: {orphans}"


def _case_tag_members(pearson: ast.Module) -> set[str]:
    cls = next(n for n in pearson.body if isinstance(n, ast.ClassDef) and n.name == "CaseTag")
    return {t.id for n in cls.body if isinstance(n, ast.Assign) for t in n.targets}


def test_only_classify_and_the_case_table_name_a_case():
    modules = _modules()
    members = _case_tag_members(modules["pearson"])
    allowed = set()
    for node in modules["pearson"].body:
        is_classify = isinstance(node, ast.FunctionDef) and node.name == "classify"
        is_table = isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_CASES" for t in node.targets)
        if is_classify or is_table:
            allowed |= {id(n) for n in ast.walk(node)}
    named = [f"{name}:{node.lineno} names {node.attr}" for name, tree in modules.items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in members and id(node) not in allowed]
    assert not named, named


def test_bounds_reads_no_case_tag_and_no_canonical_parameter():
    tree = _modules()["bounds"]
    reads = [f"bounds:{node.lineno} reads .{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in {"CaseTag", "r", "s", "mu", "delta"}]
    reads += [f"bounds:{node.lineno} imports CaseTag" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and any(a.name == "CaseTag" for a in node.names)]
    assert not reads, reads


ROOT_FINDERS = {"polyroots", "roots", "eig", "eigvals", "brentq", "newton"}


def test_no_module_names_a_library_root_finder():
    named = []
    for name, tree in _modules().items():
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        bound = {(a.asname or a.name).split(".")[0] for n in imports for a in n.names}
        named += [f"{name}:{n.lineno} imports {a.name}" for n in imports for a in n.names
                  if a.name.split(".")[-1] in ROOT_FINDERS]
        for node in ast.walk(tree):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(node, ast.Attribute) and node.attr in ROOT_FINDERS and getattr(base, "id", None) in bound:
                named.append(f"{name}:{node.lineno} names {ast.unparse(node)}")
    assert not named, named


def test_no_assert_statement_in_src():
    # python -O strips asserts, so a check that guards a result must raise
    found = [f"{name}:{node.lineno}" for name, tree in _modules().items() for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_every_raise_names_an_error_class_of_the_package():
    # errors promises "never a bare ValueError": a raise is a typed error from errors, or a bare re-raise
    modules = _modules()
    classes = {n.name for n in modules["errors"].body if isinstance(n, ast.ClassDef)}
    found = []
    for name, tree in modules.items():
        imported = classes if name == "errors" else {
            a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and _sibling(n) == "errors"
            for a in n.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                call = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(call, ast.Name) and call.id in classes & imported):
                    found.append(f"{name}:{node.lineno} raises {ast.unparse(node.exc)}")
    assert not found, found


def test_version_matches_pyproject():
    import steintail

    pyproject = (SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert steintail.__version__ == re.search(r'^version = "([^"]+)"', pyproject, re.M).group(1)


def test_library_and_cli_load_only_scipy_special():
    # scipy.optimize and scipy.integrate cost about 0.3 s of every process start
    script = (
        "import sys, steintail, steintail.cli\n"
        "from steintail import chaos, pearson\n"
        "law = pearson.build_law(pearson.PearsonCoefficients(0.25, 0.0, 0.25))\n"
        "pearson.tail(law, 2.0), pearson.quantile(law, 1e-6)\n"
        "pearson.quantile(pearson.build_law(pearson.PearsonCoefficients(0.0, 2.0, 2.0)), 0.3)\n"
        "chaos.g_function(chaos.HermiteSeries((0.0, 1.0, 0.0, 0.1)), 0.5)\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sampling_does_not_import_scipy_stats():
    script = (
        "import sys, steintail\n"
        "from steintail import pearson\n"
        "for c in [(0, 0, 1), (0, 2, 2), (-0.25, 0, 0.0625), (0.5, 1, 0.5), (0.25, 0, 0.25)]:\n"
        "    pearson.sample(pearson.build_law(pearson.PearsonCoefficients(*c)), 1000, seed=1)\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_no_module_reads_the_old_tail_grid_name():
    # pearson keeps ``tail_grid = tail`` for the benchmark harness only; steintail itself calls ``tail``
    readers = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "tail_grid":
                readers.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.Name) and node.id == "tail_grid" and not isinstance(node.ctx, ast.Store):
                readers.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and any(a.name == "tail_grid" for a in node.names):
                readers.append(f"{name}:{node.lineno}")
    assert not readers, readers


def _spells_the_range(node: ast.AST) -> bool:
    """2^-53, 1 - 2^-53 or 2^53 written out: a power of two to the +-53rd, or either end as a number."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        exp = node.right.operand if isinstance(node.right, ast.UnaryOp) else node.right
        return isinstance(exp, ast.Constant) and exp.value == 53
    return isinstance(node, ast.Constant) and type(node.value) is float and node.value in (2.0**-53, 1.0 - 2.0**-53)


def test_only_rng_spells_the_range_of_the_uniforms():
    # rng.U_MIN and rng.U_MAX are the range [2^-53, 1 - 2^-53]; every other module reads them
    spelled = [f"{name}:{node.lineno} {ast.unparse(node)}" for name, tree in _modules().items() if name != "rng"
               for node in ast.walk(tree) if _spells_the_range(node)]
    assert not spelled, spelled


X_MODELS = {"HermiteSeries", "PearsonLaw"}


def test_verify_tests_the_type_of_an_x_model_only_in_model_and_serialization():
    # the runner reads one model of X, ``verify._model``; the scenario's JSON names its type
    tests = []
    for top in _modules()["verify"].body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            if node.func.id == "type" or (node.func.id in {"isinstance", "issubclass"} and names & X_MODELS):
                tests.append((getattr(top, "name", "<module>"), node.lineno))
    assert tests and {name for name, _ in tests} <= {"_model", "scenario_to_json", "scenario_from_json"}, tests


def test_run_scenario_reaches_the_bounds_only_through_the_statement_table():
    # ``bounds.statement_table`` owns which statements exist, where each is asserted and K; the runner reads its rows
    run = next(node for node in _modules()["verify"].body if getattr(node, "name", None) == "run_scenario")
    named = {node.attr for node in ast.walk(run)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "bounds"}
    assert named == {"statement_table"}, named
    imported = [a.name for node in ast.walk(_modules()["verify"]) if isinstance(node, ast.ImportFrom)
                and _sibling(node) == "bounds" for a in node.names]
    assert not imported, imported


K_NAMES = {"K", "k_upper"}  # the upper multiplier, as the CLI and the scenario spec name it; bounds calls it k


def _function(module: ast.Module, name: str) -> ast.FunctionDef:
    return next(node for node in module.body if isinstance(node, ast.FunctionDef) and node.name == name)


def _callee(call: ast.Call) -> str | None:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _called_names(node: ast.AST) -> set[str]:
    return {_callee(n) for n in ast.walk(node) if isinstance(n, ast.Call)}


def _tests_k(node: ast.AST, names=K_NAMES) -> bool:
    """A comparison other than `is None`, or a finiteness test, of a name or attribute that K goes by."""
    named = lambda n: (getattr(n, "id", None) or getattr(n, "attr", None)) in names
    if isinstance(node, ast.Compare) and not all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
        return any(named(n) for side in (node.left, *node.comparators) for n in ast.walk(side))
    return (isinstance(node, ast.Call) and _callee(node) in {"isfinite", "isinf", "isnan"}
            and any(named(n) for arg in node.args for n in ast.walk(arg)))


def test_each_input_rule_has_one_owner():
    # a triple checks itself when it is made, the scenario reader casts nothing, and bounds owns K
    modules = _modules()
    validate = [f"{name}:{node.lineno}" for name, tree in modules.items() for node in ast.walk(tree)
                if (isinstance(node, ast.FunctionDef) and node.name == "validate")
                or (isinstance(node, ast.Call) and _callee(node) == "validate")]
    assert not validate, f"defines or calls validate: {validate}"
    verify = modules["verify"]
    reader = _function(verify, "scenario_from_json")
    helpers = {n.name for n in verify.body if isinstance(n, ast.FunctionDef)} & _called_names(reader)
    casts = [f"verify.{f.name}:{n.lineno}" for f in [reader, *(_function(verify, h) for h in helpers)]
             for n in ast.walk(f) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "float"]
    assert not casts, f"the scenario reader casts: {casts}"
    alpha = [n.lineno for n in ast.walk(_function(modules["cli"], "_cmd_bounds"))
             if isinstance(n, ast.Attribute) and n.attr == "alpha"]
    assert not alpha, f"cli._cmd_bounds reads alpha at lines {alpha}"
    others = sorted(name for name, tree in modules.items() if name != "bounds" and any(map(_tests_k, ast.walk(tree))))
    assert not others, f"modules other than bounds that test K: {others}"
    owner = _function(modules["bounds"], "pearson_upper_multiplier")
    assert any(_tests_k(n, {"k"}) for n in ast.walk(owner)), "bounds.pearson_upper_multiplier no longer tests k"
    spelled = [f"{name}:{line}" for name, tree in modules.items() for line in _c_defaults(tree)]
    assert len(spelled) == 1 and spelled[0].startswith("bounds:"), f"c's default, spelled once in bounds: {spelled}"


C_NAMES = {"c", "c_lower", "--c"}  # the explicit lower bound's constant, as bounds, the scenario spec and the CLI name it


def _c_defaults(tree: ast.Module) -> list[int]:
    """Lines where a number is given to c as its default: a parameter, a field, a ``--c`` option or a module constant
    that a default of c reads."""
    lines, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments):
            args = node.posonlyargs + node.args
            pairs = [*zip(args[len(args) - len(node.defaults):], node.defaults), *zip(node.kwonlyargs, node.kw_defaults)]
            defaults = [d for a, d in pairs if a.arg in C_NAMES]
        elif isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) in C_NAMES:
            defaults = [node.value]
        elif isinstance(node, ast.Call) and any(isinstance(a, ast.Constant) and a.value in C_NAMES for a in node.args):
            defaults = [k.value for k in node.keywords if k.arg == "default"]
        else:
            continue
        lines += [d.lineno for d in defaults if isinstance(d, ast.Constant)]
        read |= {getattr(d, "id", None) for d in defaults}
    lines += [node.lineno for node in tree.body if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
              and any(t.id in read for t in node.targets if isinstance(t, ast.Name))]
    return sorted(lines)


def test_verify_maps_no_draw():
    # verify counts {X > z} on the ends of its intervals of u, which X's law gives; the sampler's inverse is not read
    calls = [node.lineno for node in ast.walk(_modules()["verify"])
             if isinstance(node, ast.Attribute) and node.attr == "quantile_grid"]
    assert not calls, f"verify names pearson.quantile_grid at lines {calls}"
