"""Rules on the package source itself, checked by parsing it.

Every error the library raises is an EtfkitError, so the CLI can turn it into
exit 2.  An assert statement vanishes under python -O, and an AssertionError
escapes that net, so neither may appear in src/etfkit.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "etfkit").glob("*.py"))


def _raises_assertion_error(node: ast.Raise) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_every_module_is_found():
    assert {"flatmat.py", "frames.py", "gf.py", "metrics.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_assertion_error(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
           if isinstance(node, ast.Assert)
           or (isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node))]
    assert not bad, f"assert or raise AssertionError in the package source: {bad}"


def _sites(tree: ast.AST, matches) -> list[tuple[str, int]]:
    """(enclosing 'Class.function' or 'function', line) of every node that matches."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if matches(child):
                sites.append((scope, child.lineno))
            visit(child, scope)

    visit(tree, "")
    return sites


def _is_numeric_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "_numeric"


def test_complex_entries_of_an_integer_frame_are_derived_in_one_place():
    """An integer frame stores exact_ints and scale_sq only; Frame.entries
    derives the complex entries, so no other code may call _numeric."""
    sites = {path.name: _sites(ast.parse(path.read_text(), filename=str(path)), _is_numeric_call)
             for path in SOURCES}
    assert [scope for scope, _ in sites.pop("frames.py")] == ["Frame.entries"]
    assert not any(sites.values()), f"_numeric called outside Frame.entries: {sites}"


def _names_provenance(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Attribute) and node.attr == "provenance")
            or (isinstance(node, ast.Name) and node.id == "provenance")
            or (isinstance(node, ast.Constant) and node.value == "provenance"))


def _reads_the_group_hint(node: ast.AST) -> bool:
    """provenance["group"] or provenance.get("group"), on any provenance."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
        target, key = node.value, node.slice
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr == "get" and node.args):
        target, key = node.func.value, node.args[0]
    else:
        return False
    return _names_provenance(target) and isinstance(key, ast.Constant) and key.value == "group"


def test_metrics_reads_provenance_only_where_it_is_checked():
    """A provenance field is a claim from the input, not a fact: in metrics
    only _design_structure reads it, and tests the R+1 columns of its witness
    on the frame; only spark and steiner_rip_verdict call it, so both decide
    "this frame has design structure R" one way.  In the whole package only
    frames._group_hint reads the group hint, so every use of one goes
    through those two.  Only frames._character_rows calls _group_hint, and
    it verifies the group on the exponents (flatmat._character_labels, which
    nothing else calls) before anything rests on it: it is the one test of a
    character frame."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    sites = _sites(trees["metrics.py"], _names_provenance)
    assert {scope for scope, _ in sites} == {"_design_structure"}, sites
    calls = {name: [scope for scope, _ in _sites(tree, _calls("_design_structure"))] for name, tree in trees.items()}
    assert {name: scopes for name, scopes in calls.items() if scopes} == {
        "metrics.py": ["spark", "steiner_rip_verdict"]}, calls
    reads = {name: [scope for scope, _ in _sites(tree, _reads_the_group_hint)] for name, tree in trees.items()}
    assert {name: scopes for name, scopes in reads.items() if scopes} == {"frames.py": ["_group_hint"]}, reads
    for callee in ("_group_hint", "_character_labels"):
        calls = {name: [scope for scope, _ in _sites(tree, _calls(callee))] for name, tree in trees.items()}
        assert {name: scopes for name, scopes in calls.items() if scopes} == {"frames.py": ["_character_rows"]}, calls
    probe = 'f.provenance.get("group")\nprovenance["group"]\nf.provenance["group"] = 1\nf.provenance.get("r")'
    assert _sites(ast.parse(probe), _reads_the_group_hint) == [("", 1), ("", 2)]


def test_frames_takes_an_svd_only_in_the_naimark_fallback():
    """naimark_complement returns the complementary characters of a verified
    character frame before its SVD, the only one in frames."""
    path = next(p for p in SOURCES if p.name == "frames.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [scope for scope, _ in _sites(tree, _calls("svd"))] == ["naimark_complement"]
    func = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "naimark_complement")

    def holds(statement, matches):
        return any(matches(node) for node in ast.walk(statement))

    svd_at = [i for i, statement in enumerate(func.body) if holds(statement, _calls("svd"))]
    characters_at = [i for i, statement in enumerate(func.body) if isinstance(statement, ast.If)
                     and holds(statement, _calls("_character_phases"))
                     and holds(statement, lambda node: isinstance(node, ast.Return))]
    assert len(svd_at) == len(characters_at) == 1 and characters_at[0] < svd_at[0]
    assert not isinstance(func.body[svd_at[0]], (ast.If, ast.For, ast.While, ast.With, ast.Try))


def test_metrics_takes_an_svd_only_in_the_design_witness_test():
    """The rank of a design witness, the R+1 columns of one design point,
    and of its first R columns is decided in one place, by one threshold:
    _svd_rank's SVD is the only one in metrics, and only _design_structure
    and steiner_rip_verdict call it."""
    path = next(p for p in SOURCES if p.name == "metrics.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [scope for scope, _ in _sites(tree, _calls("svd"))] == ["_svd_rank"]
    assert [scope for scope, _ in _sites(tree, _calls("_svd_rank"))] == ["_design_structure", "steiner_rip_verdict"]


def _is_root_exponential(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node).startswith("np.exp(2j")


def test_roots_of_unity_are_tabulated_in_one_place():
    """DFT and character entries are gathered from flatmat._unit_roots, whose
    quarter roots are exact; only it evaluates exp(2 pi i k / n)."""
    sites = {path.name: _sites(ast.parse(path.read_text(), filename=str(path)), _is_root_exponential)
             for path in SOURCES}
    assert [scope for scope, _ in sites.pop("flatmat.py")] == ["_unit_roots"]
    assert not any(sites.values()), f"np.exp(2j ...) outside flatmat._unit_roots: {sites}"


def _calls(name: str):
    def matches(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and (
            node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)) == name
    return matches


def _builds_a_frame_with(keyword: str):
    def matches(node: ast.AST) -> bool:
        return _calls("Frame")(node) and any(k.arg == keyword for k in node.keywords)
    return matches


def test_frames_builds_an_integer_form_in_one_place():
    """A construction hands its values to _assemble, which picks the form;
    only it and parse_frame, which reads a sign form that Frame turns into
    exponents, build a Frame with exact_ints.  Exponents are handed in only
    by _assemble and by codes.code_to_frame, whose bits are a sign frame's
    exponents mod 2."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    for keyword, builders in (("exact_ints", {"frames.py": ["_assemble", "parse_frame"]}),
                              ("_phases", {"frames.py": ["_assemble"], "codes.py": ["code_to_frame"]})):
        sites = {name: sorted(scope for scope, _ in _sites(tree, _builds_a_frame_with(keyword)))
                 for name, tree in trees.items()}
        assert {name: scopes for name, scopes in sites.items() if scopes} == builders, keyword


def _derives_int8_signs(node: ast.AST) -> bool:
    return _calls("astype")(node) and "int8" in ast.unparse(node.args)


def test_a_frame_derives_its_sign_integers_in_one_place():
    """A sign frame stores only its exponents mod 2: Frame.exact_ints is
    the one place its +-1 integers are derived, through frames._signs, the
    one derivation of int8 signs, which otherwise serves only _form (a
    unimodular matrix's exponents) and codes.distance (a code's bits).  The
    code bridge and the exponent reading (frame_to_json, frame_to_code,
    code_to_frame, _unit_exponents) read no integers."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    derived = {name: [scope for scope, _ in _sites(tree, _derives_int8_signs)] for name, tree in trees.items()}
    assert {name: scopes for name, scopes in derived.items() if scopes} == {"frames.py": ["_signs"]}, derived
    calls = {name: [scope for scope, _ in _sites(tree, _calls("_signs"))] for name, tree in trees.items()}
    assert {name: scopes for name, scopes in calls.items() if scopes} == {
        "frames.py": ["Frame.exact_ints", "_form"], "codes.py": ["distance"]}, calls
    for module, name in (("frames.py", "frame_to_json"), ("frames.py", "_unit_exponents"),
                         ("codes.py", "frame_to_code"), ("codes.py", "code_to_frame")):
        assert not _attributes(_function(trees[module], name), "exact_ints"), name
    assert _sites(ast.parse("1 - 2 * bits.astype(np.int8)"), _derives_int8_signs) == [("", 1)]


def test_is_sign_matrix_reads_no_array():
    """Whether a frame is +-1/sqrt(M) is a test of its stored form, with no
    call and no array read: phases of order at most 2 at scale M."""
    path = next(p for p in SOURCES if p.name == "frames.py")
    frame = next(node for node in ast.parse(path.read_text(), filename=str(path)).body
                 if isinstance(node, ast.ClassDef) and node.name == "Frame")
    test = next(node for node in frame.body if isinstance(node, ast.FunctionDef) and node.name == "is_sign_matrix")
    assert not [node for node in ast.walk(test) if isinstance(node, (ast.Call, ast.Subscript))]
    assert {node.attr for node in ast.walk(test) if isinstance(node, ast.Attribute)} == {
        "_phases", "order", "scale_sq", "m"}


def test_no_package_function_builds_a_character_table():
    """character_table is for callers outside the package: inside it,
    character phases are computed for the elements needed
    (flatmat._character_phases), never as a whole N x N table."""
    sites = {path.name: _sites(ast.parse(path.read_text(), filename=str(path)), _calls("character_table"))
             for path in SOURCES}
    assert not any(sites.values()), f"character_table called in the package: {sites}"


def _news_a_unimodular_matrix(node: ast.AST) -> bool:
    return _calls("__new__")(node) and "UnimodularMatrix" in ast.unparse(node)


def test_unimodular_matrices_are_checked_in_one_place():
    """Every UnimodularMatrix goes through its constructor, which stores the
    entries and derives the sign view in one place; the dense Gram test runs
    only from UnimodularMatrix.check, for entries from outside the package,
    since each builder proves its invariant on its exact form."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    bypasses = {name: _sites(tree, _news_a_unimodular_matrix) for name, tree in trees.items()}
    assert not any(bypasses.values()), f"UnimodularMatrix built without its constructor: {bypasses}"
    dense = {name: _sites(tree, _calls("_check_gram")) for name, tree in trees.items()}
    assert [scope for scope, _ in dense.pop("flatmat.py")] == ["UnimodularMatrix.check"]
    assert not any(dense.values()), f"_check_gram called outside UnimodularMatrix.check: {dense}"


def _tests_for_an_integer_form(node: ast.AST) -> bool:
    return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Attribute)
            and node.left.attr == "exact_ints" and isinstance(node.ops[0], (ast.Is, ast.IsNot)))


def test_metrics_decides_exact_arithmetic_in_one_place():
    """The rule "exact when an integer form exists" is written once in
    metrics: _gram_profile picks the arithmetic for coherence and
    certify_etf, and gram_equal, which compares two frames, the only other
    test of an integer form."""
    path = next(p for p in SOURCES if p.name == "metrics.py")
    sites = _sites(ast.parse(path.read_text(), filename=str(path)), _tests_for_an_integer_form)
    assert {scope for scope, _ in sites} == {"_gram_profile", "gram_equal"}, sites


def test_frames_and_codes_take_one_certificate_path():
    """Only metrics._certify builds an EtfCertificate, from a _gram_profile,
    and codes reaches metrics only through those two and DEFAULT_TOL: a
    code's ETF side is certified as the frame of its first half, on the
    path certify_etf takes."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    builds = {name: [scope for scope, _ in _sites(tree, _calls("EtfCertificate"))] for name, tree in trees.items()}
    assert {name: scopes for name, scopes in builds.items() if scopes} == {"metrics.py": ["_certify"]}, builds
    imported = {alias.name for node in ast.walk(trees["codes.py"])
                if isinstance(node, ast.ImportFrom) and node.module == "metrics" for alias in node.names}
    assert imported == {"DEFAULT_TOL", "_gram_profile", "_certify"}, imported


def _imports_the_package(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "etfkit"
    return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "etfkit" for a in node.names)


def test_no_function_imports_a_package_module():
    """Package modules import each other at module level only, so an import
    cycle shows at import time instead of hiding inside a function."""
    sites = {path.name: [site for site in _sites(ast.parse(path.read_text(), filename=str(path)),
                                                 _imports_the_package) if site[0]]
             for path in SOURCES}
    assert not any(sites.values()), f"package imports inside a function or class: {sites}"
    assert _sites(ast.parse("def f():\n    from .metrics import x\n"), _imports_the_package) == [("f", 2)]


def _gathers_in_wrap_mode(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and any(
        k.arg == "mode" and isinstance(k.value, ast.Constant) and k.value.value == "wrap" for k in node.keywords)


def test_no_gather_wraps_its_indices():
    """Phases are reduced mod L once, where they are computed, so every
    gather reads indices already in range.  numpy's mode="wrap" costs more
    the further an index lies past the table: on the unreduced phases of
    dft(2048) it took about 1 s, where the reduced gather takes 55 ms."""
    sites = {path.name: _sites(ast.parse(path.read_text(), filename=str(path)), _gathers_in_wrap_mode)
             for path in SOURCES}
    assert not any(sites.values()), f'mode="wrap" in the package source: {sites}'
    assert _sites(ast.parse('a.take(i, mode="wrap")'), _gathers_in_wrap_mode) == [("", 1)]


def test_one_subset_engine_serves_spark_and_rip():
    """In metrics only _lex_batches enumerates subsets, and only
    _subset_spectra eigensolves them: it alone calls eigvalsh, the
    certificate _certified_extensions and _lex_batches, and spark and
    _rip_spectrum (rip_delta and steiner_rip_verdict) reach subsets only
    through it.  No itertools enumerator is imported beside it."""
    path = next(p for p in SOURCES if p.name == "metrics.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    for callee, callers in (("eigvalsh", ["_subset_spectra"]),
                            ("_certified_extensions", ["_subset_spectra"]),
                            ("_lex_batches", ["_subset_spectra"]),
                            ("_subset_spectra", ["spark", "_rip_spectrum"]),
                            ("_rip_spectrum", ["rip_delta", "steiner_rip_verdict"])):
        assert [scope for scope, _ in _sites(tree, _calls(callee))] == callers, callee
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert not imported & {"itertools", "combinations", "permutations", "product"}, imported


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name)


def _attributes(node: ast.AST, attr: str) -> list[ast.Attribute]:
    return [child for child in ast.walk(node) if isinstance(child, ast.Attribute) and child.attr == attr]


def test_the_kirkman_layer_takes_one_exponent_route():
    """mcfarland_as_kirkman proves the twins equal by one integer identity
    on their exponents: it reads no complex entries and forms no @ product.
    kirkman_etf multiplies values, the arrays _form gives, only in the one
    branch for a matrix with no exponent form, which returns; every other
    pair of matrices takes the exponent sum, whatever their signs."""
    path = next(p for p in SOURCES if p.name == "frames.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    twins = _function(tree, "mcfarland_as_kirkman")
    assert not _attributes(twins, "entries")
    assert not [node for node in ast.walk(twins) if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)]

    kirkman = _function(tree, "kirkman_etf")
    branch, = [node for node in kirkman.body if isinstance(node, ast.If)
               and any(_calls("_form")(child) for child in ast.walk(node))]
    assert ast.unparse(branch.test) == "fx is None or hx is None" and not branch.orelse
    assert isinstance(branch.body[-1], ast.Return)
    inside = {id(node) for statement in branch.body for node in ast.walk(statement)}
    values = [node for node in ast.walk(kirkman) if _calls("_form")(node)]
    assert values and all(id(node) in inside for node in values)
    assert not _attributes(kirkman, "signs")
    # outside the branch, a matrix's entries give only their shape
    shapes = {id(node.value) for node in _attributes(kirkman, "shape")}
    assert all(id(node) in inside or id(node) in shapes for node in _attributes(kirkman, "entries"))


def test_a_frame_is_read_as_a_steiner_form_in_one_place():
    """Only metrics._steiner_reading calls _steiner_form, and it keeps the
    form on the frame, so every structural path reads a frame once; only
    _gram_profile, the one path that needs the verdict, calls _is_steiner."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    for callee, caller in (("_steiner_form", "_steiner_reading"), ("_is_steiner", "_gram_profile")):
        calls = {name: [scope for scope, _ in _sites(tree, _calls(callee))] for name, tree in trees.items()}
        assert {name: scopes for name, scopes in calls.items() if scopes} == {"metrics.py": [caller]}, calls


@pytest.mark.parametrize("builder", ["steiner_etf", "kirkman_etf"])
def test_the_constructions_write_the_point_grid_directly(builder):
    """steiner_etf and kirkman_etf write their values on the grid of points
    and simplex columns and reshape it: neither expands a table with
    np.repeat or np.tile."""
    path = next(p for p in SOURCES if p.name == "frames.py")
    function = _function(ast.parse(path.read_text(), filename=str(path)), builder)
    assert not [ast.unparse(node) for node in ast.walk(function) if _calls("repeat")(node) or _calls("tile")(node)]


def _writes_a_signs_field(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and '"signs":' in node.value


def test_sign_text_has_one_writer():
    """frames._sign_rows writes the text of every sign matrix from its
    exponents: only frame_to_json calls it and writes a "signs" field, and
    it reads no integer form, only the phases it hands to _sign_rows.  Its
    one tolist writes the entries form, from the float64 view of the
    complex128 entries."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    for matches in (_calls("_sign_rows"), _writes_a_signs_field):
        sites = {name: [scope for scope, _ in _sites(tree, matches)] for name, tree in trees.items()}
        assert {name: scopes for name, scopes in sites.items() if scopes} == {"frames.py": ["frame_to_json"]}, sites
    writer = _function(trees["frames.py"], "frame_to_json")
    lists = [ast.unparse(node.func.value) for node in ast.walk(writer) if _calls("tolist")(node)]
    assert lists == ["entries.reshape(frame.m, frame.n, 2)"], lists
    handed = {id(arg) for node in ast.walk(writer) if _calls("_sign_rows")(node) for arg in node.args}
    assert not _attributes(writer, "exact_ints")
    assert [id(node) for node in _attributes(writer, "phases")] == list(handed)


def test_codes_enumerates_no_pairs_in_python():
    """Linearity takes its witness from array blocks of pairs
    (codes._first_witness), not from a Python loop over
    itertools.combinations."""
    path = next(p for p in SOURCES if p.name == "codes.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"itertools", "combinations"}, imported


def _tests_a_type(node: ast.AST) -> bool:
    return any(_calls(name)(node) for name in ("isinstance", "issubclass", "type"))


def test_designs_and_difference_sets_are_checked_where_they_are_built():
    """SteinerSystem.__post_init__ is the one place in designs that tests a
    value's type or raises DesignFormatError for a field, so parse_design
    and to_json hold no field checks of their own (parse_design refuses
    only text that is no JSON object with the fields); only
    DifferenceSet.__post_init__ takes differences in frames, and
    DifferenceSet has no other way to be built; and designs._class_partition
    decides the class partition, called only by validate and by
    frames._resolution_lookup, which only the two frame builders call."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    designs, frames = trees["designs.py"], trees["frames.py"]
    assert {scope for scope, _ in _sites(designs, _tests_a_type)} == {"SteinerSystem.__post_init__"}
    raises = [scope for scope, _ in _sites(designs, _calls("DesignFormatError"))]
    assert set(raises) == {"SteinerSystem.__post_init__", "parse_design"} and raises.count("parse_design") == 2
    for name in ("parse_design", "SteinerSystem.to_json"):
        assert not [scope for scope, _ in _sites(designs, lambda node: isinstance(node, ast.Compare))
                    if scope == name], name
    calls = {name: [scope for scope, _ in _sites(tree, _calls("sub_array"))] for name, tree in trees.items()}
    assert {name: scopes for name, scopes in calls.items() if scopes} == {"frames.py": ["DifferenceSet.__post_init__"]}
    assert not [node for node in ast.walk(frames) if isinstance(node, ast.FunctionDef) and node.name == "verified"]
    for callee, callers in (("_class_partition", {"designs.py": ["validate"], "frames.py": ["_resolution_lookup"]}),
                            ("_resolution_lookup", {"frames.py": ["steiner_etf", "kirkman_etf"]})):
        calls = {name: [scope for scope, _ in _sites(tree, _calls(callee))] for name, tree in trees.items()}
        assert {name: scopes for name, scopes in calls.items() if scopes} == callers, callee
