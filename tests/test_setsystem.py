import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (closure_by_enumeration, is_closed_by_enumeration,
                     random_set_system)
import setfield
from setfield import SetSystem, generate
from setfield.setsystem import (complete_complex, parse_system, random_complex,
                                system_to_json)

small_generators = st.lists(
    st.sets(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
    min_size=1, max_size=4)


def test_generate_edge():
    assert system_to_json(generate([[1, 2]])) == [[1], [2], [1, 2]]


def test_generate_triangle_has_seven_sets(K3):
    assert len(K3) == 7
    assert system_to_json(K3) == [[1], [2], [3], [1, 2], [1, 3], [2, 3],
                                  [1, 2, 3]]


def test_generate_linear_complex_has_ten_elements(linear10):
    assert len(linear10) == 10


def test_generate_rejects_empty_generator():
    with pytest.raises(ValueError):
        generate([[1, 2], []])


@given(small_generators)
@settings(max_examples=60)
def test_generate_matches_enumeration_and_is_complex(gens):
    system = generate(gens)
    assert set(system.elements) == closure_by_enumeration(gens)
    assert system.is_simplicial_complex()


@given(small_generators)
@settings(max_examples=40)
def test_generate_idempotent(gens):
    once = generate(gens)
    assert generate(once.elements) == once


def test_is_simplicial_complex_counterexamples():
    assert not SetSystem([[1], [1, 3, 4], [1, 4, 5], [4], [1, 4]]
                         ).is_simplicial_complex()
    assert not SetSystem([[1, 3, 4], [4]]).is_simplicial_complex()


def test_closure_test_matches_subset_enumeration():
    # closed systems, systems drawn without closure, and closed systems
    # less one element (still closed when that element was maximal)
    rng = random.Random(41)
    seen = set()
    for trial in range(600):
        shape = trial % 3
        if shape == 0:
            system = random_set_system(rng, rng.randint(1, 12))
        else:
            elements = list(random_complex(rng).elements)
            if shape == 2:
                del elements[rng.randrange(len(elements))]
            rng.shuffle(elements)
            system = SetSystem(elements)
        want = is_closed_by_enumeration(system)
        assert system.is_simplicial_complex() == want, system
        seen.add((shape, want))
    assert {(0, False), (1, True), (2, True), (2, False)} <= seen


def _index(system, element):
    return system.elements.index(frozenset(element))


def _core(system, x):
    """Column x of the inclusion matrix: the indices of the y <= x_x."""
    return [k for k, row in enumerate(system.zeta.tolist()) if row[x]]


def _star(system, x):
    """The bits of star row x: the indices of the y >= x_x."""
    return [k for k in range(len(system)) if system.star_rows[x] >> k & 1]


def test_core_and_star_on_edge(K2):
    assert _core(K2, _index(K2, [1, 2])) == [0, 1, 2]
    assert _core(K2, _index(K2, [1])) == [0]
    assert _star(K2, _index(K2, [1])) == [0, 2]
    assert _star(K2, _index(K2, [1, 2])) == [2]


def test_star_on_triangle(K3):
    got = {K3.elements[k] for k in _star(K3, _index(K3, [2]))}
    assert got == {frozenset(s) for s in ([2], [1, 2], [2, 3], [1, 2, 3])}


def test_core_of_nonclosed_system(nonclosed_pair):
    assert _core(nonclosed_pair, 0) == [0, 1]


@given(small_generators)
@settings(max_examples=40)
def test_star_core_duality(gens):
    system = generate(gens)
    for x in range(len(system)):
        for y in range(len(system)):
            inside = system[y] <= system[x]
            assert (y in _core(system, x)) == (x in _star(system, y)) == inside


def test_canonical_order_is_monotone():
    rng = random.Random(11)
    for _ in range(20):
        system = random_complex(rng)
        keys = [(len(e), sorted(e)) for e in system.elements]
        assert keys == sorted(keys)
        assert system.is_canonical()


def test_rejects_bad_elements():
    with pytest.raises(ValueError):
        SetSystem([[1], []])
    with pytest.raises(ValueError):
        SetSystem([[1], [1]])
    with pytest.raises(ValueError):
        SetSystem([[0, 1]])
    with pytest.raises(ValueError):  # True == 1, but it is no vertex
        SetSystem([[True], [2]])


def test_parse_json_and_braces():
    a = parse_system("[[1,2],[2,3]]")
    b = parse_system("{{1,2},{2,3}}")
    assert a == b
    assert len(a) == 2
    closed = parse_system("{{1,2},{2,3}}", closure=True)
    assert closed == generate([[1, 2], [2, 3]])


def test_parse_relabels_string_vertices():
    system = parse_system('[["a","b"],["b","c"]]')
    assert system_to_json(system) == [[1, 2], [2, 3]]


def test_relabelling_does_not_depend_on_the_hash_seed():
    # 1 and "1" have the same text; labels are numbered in (type name, text)
    # order, so the order a set of them iterates in, which the hash seed of
    # strings sets, cannot matter
    src = str(Path(setfield.__file__).resolve().parents[1])
    code = ("from setfield.setsystem import parse_system, system_to_json; "
            "print(system_to_json(parse_system('[[\"a\"],[1,\"b\"],[\"1\"]]')))")
    printed = set()
    for seed in range(7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        printed.add(proc.stdout)
    assert printed == {"[[3], [1, 4], [2]]\n"}


def test_complete_complex_sizes():
    assert len(complete_complex(4)) == 15
    assert complete_complex(3).dimension == 2
