import ast
import builtins
import importlib
import inspect
import io
import math
import re
import sys
import tokenize
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

import floatcyl

TEXTS = {path.stem: path.read_text()
         for path in Path(floatcyl.__file__).resolve().parent.glob("*.py")}
SOURCES = {module: ast.parse(text) for module, text in TEXTS.items()}
# every test function's name under tests/
TESTS = {node.name for path in Path(__file__).resolve().parent.glob("*.py")
         for node in ast.walk(ast.parse(path.read_text()))
         if isinstance(node, ast.FunctionDef)
         and node.name.startswith("test_")}

SUBMODULES = ["equilibria", "intersection", "model", "oracles", "regions"]
ALL = [
    "BoundaryCurve", "CriticalPoint", "CurveKind",
    "DimensionlessParams", "EnergyBreakdown", "Equilibrium", "ExtremumKind",
    "FlatInterfaceError", "InterfaceProfile", "ModelInconsistencyWarning",
    "NoSecondCriticalPointError", "OracleReport", "PhysicalParams",
    "QuadratureError", "Regime", "RegionLabel", "RegionMap", "Stability",
    "UnsupportedRegimeError", "ValidityReport",
    "asymptotic_critical_mass", "buoyancy_closed", "buoyancy_geometric",
    "buoyancy_quadrature", "center_height", "center_height_slope",
    "classify_point", "critical_mass_ratio", "critical_points",
    "endpoint_boundary_c", "endpoint_boundary_is_vertical",
    "energy_factored_identity_check", "energy_force_identity_check",
    "energy_slope", "equilibria", "expected_fourier_coefficients",
    "find_equilibria", "fluid_energy_quadrature", "force_curvature",
    "force_series", "force_slope", "fourier_coefficients",
    "fourier_projection_check", "inclination_at_contact",
    "interface_profile", "intersection", "intersection_curve_point",
    "intersection_margin", "model", "oracles", "region_map",
    "region_map_csv", "region_map_json", "regions", "run_all",
    "second_extremum_threshold", "submerged_segment_force",
    "surface_energy_quadrature", "tangency_boundary_c",
    "to_dimensionless", "total_energy",
    "total_force", "trace_endpoint_curve", "trace_intersection_curve",
    "trace_tangency_curve", "two_equilibrium_corner", "validity",
]


class TestNamespace:
    def test_all_is_pinned(self):
        assert floatcyl.__all__ == ALL

    def test_star_import_binds_the_defining_objects(self):
        names = {}
        exec("from floatcyl import *", names)
        for name in ALL:
            value = names[name]
            if name in SUBMODULES:
                assert value is importlib.import_module(f"floatcyl.{name}")
            else:
                # each public name is the object its submodule defines
                assert value.__module__ in {f"floatcyl.{m}" for m in SUBMODULES}
                module = importlib.import_module(value.__module__)
                assert value is getattr(module, name), name
                assert value is getattr(floatcyl, name), name

    def test_dir_lists_every_name(self):
        assert set(ALL) <= set(dir(floatcyl))

    def test_every_error_is_a_value_error(self):
        # so cli.main's one ValueError clause exits 4 on each of them
        errors = [name for name in ALL if name.endswith("Error")]
        assert len(errors) == 4
        for name in errors:
            assert issubclass(getattr(floatcyl, name), ValueError), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            floatcyl.no_such_name


# a valid value for each other required argument of a public function
# taking a contact angle; A < pi and sin(phi02) = 0 take early returns
# (None), which the check must come before
VALID = {"mass_ratio": 2.0, "capillary_ratio": 1.0, "phi0": 1.0,
         "phi02": 0.0, "a_window": (0.0, 12.0), "c_window": (0.0, 5.0),
         "regime": "small"}
# the public functions with a contact_angle parameter, but for
# inclination_at_contact, a formula that also runs on arrays
TAKE_CONTACT_ANGLE = sorted(
    name for names in floatcyl._EXPORTS.values() for name in names
    if inspect.isfunction(getattr(floatcyl, name))
    and "contact_angle" in inspect.signature(getattr(floatcyl, name)).parameters
    and name != "inclination_at_contact")


class TestContactAngle:
    @pytest.mark.parametrize("name", TAKE_CONTACT_ANGLE)
    @pytest.mark.parametrize("gamma", [math.nan, 4.0])
    def test_every_entry_point_checks_it(self, name, gamma):
        # the angle is checked where it enters, with a ValueError naming it
        fn = getattr(floatcyl, name)
        args = {arg: gamma if arg == "contact_angle" else VALID[arg]
                for arg, param in inspect.signature(fn).parameters.items()
                if param.default is param.empty}
        with pytest.raises(ValueError, match="contact.angle"):
            fn(**args)


# the count parameters of the public functions; a resolution is a pair
COUNTS = ("n", "n_sets", "resolution", "curve_samples")
TAKE_COUNT = sorted(
    (name, arg) for names in floatcyl._EXPORTS.values() for name in names
    if inspect.isfunction(getattr(floatcyl, name))
    for arg in inspect.signature(getattr(floatcyl, name)).parameters
    if arg in COUNTS)


class TestCounts:
    @pytest.mark.parametrize("name,arg", TAKE_COUNT)
    @pytest.mark.parametrize("value", [2.5, math.nan])
    def test_every_count_is_checked(self, name, arg, value):
        # a count that is no integer fails where it enters, naming itself,
        # not in NumPy after the work it sizes
        fn = getattr(floatcyl, name)
        valid = {**VALID, "contact_angle": 1.0,
                 "params": floatcyl.DimensionlessParams(2.0, 1.0, 1.0)}
        args = {a: valid[a]
                for a, param in inspect.signature(fn).parameters.items()
                if param.default is param.empty}
        args[arg] = (3, value) if arg == "resolution" else value
        with pytest.raises(ValueError, match=rf"\b{arg}\b"):
            fn(**args)

    @pytest.mark.parametrize("n_sets", [0, -1])
    def test_run_all_needs_a_draw(self, n_sets):
        # over no draws, a check would pass with samples=0
        with pytest.raises(ValueError, match=r"\bn_sets\b.*at least 1"):
            floatcyl.run_all(n_sets)


def _imported(tree):
    """The names a module's imports bind, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _read(tree):
    """The names a module reads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _module_names(tree):
    """The names a module binds at module level, imports aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from (leaf.id for target in targets
                        for leaf in ast.walk(target)
                        if isinstance(leaf, ast.Name))


def _private_definitions(tree):
    """The private names a module binds at module level, dunders aside."""
    return (name for name in _module_names(tree)
            if name.startswith("_") and not name.endswith("__"))


def _prose(text):
    """A module's docstrings and comments."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            yield ast.get_docstring(node, clean=False) or ""
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            yield token.string


def _bound_anywhere(tree):
    """The names a module binds at any depth, as a def, class, argument,
    assignment target, import or attribute."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
    yield from _imported(tree)


def _signature(args):
    """The ``inspect.Signature`` of a def's ``ast.arguments``, each default
    a placeholder."""
    Parameter = inspect.Parameter
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    params = []
    for k, arg in enumerate(positional):
        kind = (Parameter.POSITIONAL_ONLY if k < len(args.posonlyargs)
                else Parameter.POSITIONAL_OR_KEYWORD)
        params.append(Parameter(arg.arg, kind, default=(
            None if k >= first_default else Parameter.empty)))
    if args.vararg:
        params.append(Parameter(args.vararg.arg, Parameter.VAR_POSITIONAL))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        params.append(Parameter(arg.arg, Parameter.KEYWORD_ONLY, default=(
            Parameter.empty if default is None else None)))
    if args.kwarg:
        params.append(Parameter(args.kwarg.arg, Parameter.VAR_KEYWORD))
    return inspect.Signature(params)


def _binds(signatures, call, constants):
    """Whether the call, ``name(args)`` as written in prose, binds to one
    of the signatures, each argument that is a bare name, no name in
    ``constants``, to the parameter of that name.  A call that is no
    Python expression, or that unpacks arguments, is not checked."""
    try:
        node = ast.parse(call, mode="eval").body
    except SyntaxError:
        return True
    if not isinstance(node, ast.Call) or any(
            isinstance(arg, ast.Starred) for arg in node.args) or any(
            keyword.arg is None for keyword in node.keywords):
        return True
    for signature in signatures:
        try:
            bound = signature.bind(*node.args, **{
                keyword.arg: keyword.value for keyword in node.keywords})
        except TypeError:
            continue
        if all(value.id == name
               for name, value in bound.arguments.items()
               if isinstance(value, ast.Name) and value.id not in constants):
            return True
    return False


def _stale_names(texts, tests):
    """The ``test_*`` names in the modules that no test in ``tests`` has,
    the private names in their prose that no module binds, the
    double-backticked bare names there that no module binds anywhere,
    submodule names, builtins and test names aside, and the
    double-backticked calls there of a module-level function that do not
    bind to its signature (``_binds``)."""
    trees = [ast.parse(text) for text in texts.values()]
    bound = {name for tree in trees for name in _module_names(tree)}
    known = ({name for tree in trees for name in _bound_anywhere(tree)}
             | set(texts) | set(dir(builtins)) | set(tests))
    signatures = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                signatures.setdefault(node.name, []).append(
                    _signature(node.args))
    stale = set()
    for module, text in texts.items():
        stale.update(f"{module}: {name}"
                     for name in re.findall(r"\btest_\w+", text)
                     if name not in tests)
        # a single leading underscore: dunders never match
        stale.update(f"{module}: {name}" for prose in _prose(text)
                     for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", prose)
                     if name not in bound)
        stale.update(f"{module}: {name}" for prose in _prose(text)
                     for name in re.findall(r"``([A-Za-z_]\w*)``", prose)
                     if name not in known)
        stale.update(f"{module}: {call}" for prose in _prose(text)
                     for call, name in re.findall(
                         r"``((?:\w+\.)*(\w+)\([^`]*\))``", prose)
                     if name in signatures
                     and not _binds(signatures[name], call, bound))
    return sorted(stale)


def _unused_imports(tree):
    bare = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(set(_imported(tree)) - bare)


def _unreferenced(sources):
    read = {name for tree in sources.values() for name in _read(tree)}
    return sorted(f"{module}.{name}" for module, tree in sources.items()
                  for name in _private_definitions(tree) if name not in read)


class TestSourceHygiene:
    """What a refactor leaves behind, checked with ``ast``: tests do not
    count as references."""

    @pytest.mark.parametrize("module", sorted(SOURCES))
    def test_every_import_is_used(self, module):
        assert _unused_imports(SOURCES[module]) == []

    def test_every_private_name_is_referenced(self):
        assert _unreferenced(SOURCES) == []

    def test_prose_names_what_exists(self):
        # a test or a private name that a docstring or comment cites
        # outlives the code it named unless something checks it
        assert _stale_names(TEXTS, TESTS) == []

    def test_leftovers_are_caught(self):
        stale = ast.parse("from .equilibria import _bracket, solve\n"
                          "_STEP = 2\n_a, (_b, c) = 1, (2, 3)\n"
                          "def _stage():\n    return solve(_b)\n")
        assert _unused_imports(stale) == ["_bracket"]
        assert _unreferenced({"m": stale}) == ["m._STEP", "m._a", "m._stage"]
        text = ('"""Rows from ``_rows()`` (test_rows)."""\n'
                "_KEPT = 1  # _KEPT once held _gone; see test_kept\n"
                "def f():\n    \"\"\"_KEPT, not __init__ or a_b.\"\"\"\n"
                # a public name in double backticks is known when a module
                # binds it anywhere, names the module, or is a builtin
                "def g(x):\n    \"\"\"``x``, ``f``, ``m``, ``len``, ``real``,"
                " ``test_kept``, not ``solve``.\"\"\"\n    return x.real\n"
                # a call of a module-level function binds to its signature,
                # a bare name that no module binds to the parameter of
                # that name; SciPy's keyword or a renamed argument does not
                "def h(f, lo, f_lo=_KEPT):\n    \"\"\"``h(f, lo)``, "
                "``h(f, _KEPT, f_lo=1)``, ``h(*p)``, ``m.h(f, lo, x + 1)``, not"
                " ``h(f, lo, xtol=1)``, ``h(f, lo, f_hi)`` or ``g()``.\"\"\"\n")
        assert _stale_names({"m": text}, {"test_kept"}) == [
            "m: _gone", "m: _rows", "m: g()", "m: h(f, lo, f_hi)",
            "m: h(f, lo, xtol=1)", "m: solve", "m: test_rows"]


def _third_party_imports(trees):
    """The top-level modules the trees import at any depth, the standard
    library and floatcyl aside."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return sorted(names - set(sys.stdlib_module_names) - {"floatcyl"})


def _normalized(name):
    """A distribution's name as PEP 503 compares it."""
    return re.sub(r"[-_.]+", "-", name).lower()


class TestDeclaredDependencies:
    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="tomllib is new in Python 3.11")
    def test_tests_import_only_declared_packages(self):
        # a fresh install of the package with its test extra collects
        # every test module
        import tomllib
        project = tomllib.loads((Path(__file__).resolve().parents[1]
                                 / "pyproject.toml").read_text())["project"]
        declared = {_normalized(re.match(r"[\w.-]+", req).group())
                    for req in (project["dependencies"]
                                + project["optional-dependencies"]["test"])}
        # a test module may import another: that one is not a package
        paths = list(Path(__file__).resolve().parent.glob("*.py"))
        imported = [module for module in _third_party_imports(
            ast.parse(path.read_text()) for path in paths)
            if module not in {path.stem for path in paths}]
        assert {"mpmath", "numpy", "pytest"} <= set(imported)
        dists = packages_distributions()
        assert [module for module in imported
                if not declared & {_normalized(d)
                                   for d in dists.get(module, [module])}
                ] == []

    def test_imports_are_read_at_any_depth(self):
        tree = ast.parse("import os, numpy.linalg\nfrom . import x\n"
                         "def f():\n    from scipy.optimize import bisect\n"
                         "from floatcyl import model\n")
        assert _third_party_imports([tree]) == ["numpy", "scipy"]
