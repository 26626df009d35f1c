"""Each checker flags a known-bad output, so a workload that passes its
checks was actually checked.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import checks
from workloads import ExactSurvey

C4 = checks.adjacency(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
C5 = checks.adjacency(5, [(i, (i + 1) % 5) for i in range(5)])
K4 = checks.adjacency(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def test_clique_checker_flags_a_non_clique():
    assert checks.check_clique(K4, (0, 1, 2, 3)) == []
    assert checks.check_clique(C4, (0, 2))
    assert checks.check_clique(K4, (0, 0))


def test_non_maximum_clique_is_a_failed_omega_query():
    assert ExactSurvey._check_omega((4, (0, 1, 2, 3)), K4, 4) == (False, [])
    failed, problems = ExactSurvey._check_omega((3, (0, 1, 2)), K4, 4)
    assert failed and not problems
    failed, problems = ExactSurvey._check_omega((4, (0, 1, 2)), K4, 4)
    assert problems  # the witness does not back the claimed size
    failed, problems = ExactSurvey._check_omega((2, (0, 2)), C4, 2)
    assert problems  # not a clique at all


def test_coloring_checker_flags_improper_and_wrong_palettes():
    assert checks.check_coloring(C5, (0, 1, 0, 1, 2), 3, 3) == []
    assert checks.check_coloring(C5, (0, 1, 0, 1, 0), 3, 3)  # edge 4-0 monochromatic
    assert checks.check_coloring(C5, (0, 1, 0, 1, 2), 4, 3)  # palette larger than chi
    assert checks.check_coloring(C4, (0, 1, 0, 2), 3, 2)  # three colours where chi is 2
    assert checks.check_coloring(C5, (0, 1, 0, 1), 3, 3)  # a vertex left uncoloured


def test_chi_check_uses_the_reference():
    good = SimpleNamespace(colors=(0, 1, 0, 1, 2), palette_size=3)
    assert ExactSurvey._check_chi((3, good), C5, 3) == (False, [])
    assert ExactSurvey._check_chi((2, good), C5, 3)[1]
    wide = SimpleNamespace(colors=(0, 1, 0, 1, 3), palette_size=4)
    assert ExactSurvey._check_chi((4, wide), C5, 3)[1]


def test_colouring_search_refutes_and_finds():
    assert checks.k_coloring(C5, 2) is None
    assert checks.check_coloring(C5, checks.k_coloring(C5, 3), 3, 3) == []
    assert checks.chromatic_reference(K4, (0, 1))[0] == 4
    assert checks.chromatic_reference(C5, (0, 1))[0] == 3


def test_embedding_checker_flags_non_induced_copies():
    for delta in (1, 2):
        n, edges = checks.t_delta(delta)
        assert n == 1 + delta * (2 * delta + 3)
        assert checks.check_induced_tree(checks.adjacency(n, edges), range(n), delta) == []
    n, edges = checks.t_delta(1)
    leaves = [v for v in range(n) if len(checks.adjacency(n, edges)[v]) == 1]
    chord = checks.adjacency(n, edges + [tuple(leaves[:2])])
    assert checks.check_induced_tree(chord, range(n), 1)  # an extra host edge
    star = checks.adjacency(n, [(0, i) for i in range(1, n)])
    assert checks.check_induced_tree(star, range(n), 1)  # a tree, but not T(1)
    assert checks.check_induced_tree(checks.adjacency(n, edges), [0, 0, 1, 2, 3, 4], 1)


def test_core_checker_flags_fake_cores():
    assert checks.check_core(C4, [[0, 2], [1, 3]], 2, 2) == []
    assert checks.check_core(K4, [[0, 2], [1, 3]], 2, 2)  # parts not stable
    assert checks.check_core(C5, [[0, 2], [1, 3]], 2, 2)  # 0 and 3 not joined
    assert checks.check_core(C4, [[0, 2], [0, 2]], 2, 2)  # parts overlap
    assert checks.check_core(C4, [[0, 2]], 2, 2)  # too few parts


def test_induced_c4_search():
    assert checks.find_induced_c4(C4, range(4)) is not None
    assert checks.find_induced_c4(K4, range(4)) is None
    assert checks.find_induced_c4(C5, range(5)) is None
    assert checks.find_induced_c4(C4, [0, 1, 2]) is None


def _ledger(tower_exponent: int, printed: bool = True):
    params = {"delta": 2, "tau": 1}
    formulas = [("a", "2*delta + tau"), ("b", f"a**({tower_exponent}*delta)"),
                ("c", "b - a + 1")]
    values, env = {}, dict(params)
    for key, formula in formulas:
        values[key] = env[key] = eval(formula, {}, env)
    entries = [{"key": k, "formula": f, "decimal": str(values[k]) if printed else None}
               for k, f in formulas]
    return params, entries, values


def test_ledger_checker_flags_a_value_off_by_one():
    params, entries, values = _ledger(40)
    assert checks.check_ledger(params, entries, values) == []
    assert checks.check_ledger(params, entries, {**values, "c": values["c"] + 1})
    bumped = [dict(e) for e in entries]
    bumped[2]["decimal"] = str(values["c"] + 1)
    assert checks.check_ledger(params, bumped, values)
    assert checks.check_ledger(params, entries, {k: v for k, v in values.items() if k != "b"})


def test_ledger_checker_on_truncated_entries():
    # Beyond EXACT_BITS the check rests on residues and the printed bit length.
    params, entries, values = _ledger(checks.EXACT_BITS, printed=False)
    for e in entries:
        e["bit_length"] = values[e["key"]].bit_length()
    assert checks.check_ledger(params, entries, values) == []
    assert checks.check_ledger(params, entries, {**values, "b": values["b"] + 1})
    entries[2]["bit_length"] += 1
    assert checks.check_ledger(params, entries, values)


def test_ledger_checker_reads_the_library_formulas():
    constants = pytest.importorskip("broomlab.constants")
    structures = pytest.importorskip("broomlab.structures")
    lg = constants.ledger(structures.Params.with_minimal_sides(delta=1, tau=1, beta=2))
    doc = lg.to_json_dict()
    values = constants.reevaluate(lg)
    assert checks.check_ledger(doc["params"], doc["entries"], values) == []
    key = lg.entries[-1].key
    assert checks.check_ledger(doc["params"], doc["entries"], {**values, key: values[key] - 1})
