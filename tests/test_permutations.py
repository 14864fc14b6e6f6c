import ast
import copy
import itertools
import pickle
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import snspectra
from snspectra import diagrams, equitable, graphs, permutations, yor
from snspectra.permutations import (
    CapExceededError,
    ConnectingSetSpec,
    DegreeMismatchError,
    check_group,
    connecting_cycles,
    connecting_images,
    full_cycles,
    generated_subgroup_kind,
    group_images,
    parse_spec,
    prefix_moving_cycles,
)

import reference_checks
from reference_checks import (
    Permutation,
    as_permutations,
    compose,
    conjugate,
    cycle_string,
    cycle_type,
    enumerate_connecting_set,
    image_array,
    parity,
    parse_cycles,
)


def apply_pointwise(g: Permutation, h: Permutation, x: int) -> int:
    # Independent oracle for the composition convention: h first, then g.
    return g.images[h.images[x - 1] - 1]


def bfs_closure(generators):
    # Independent closure oracle.
    n = generators[0].degree
    seen = {Permutation.identity(n)}
    frontier = list(seen)
    while frontier:
        frontier = [
            p
            for g in frontier
            for h in generators
            if (p := compose(g, h)) not in seen and not seen.add(p)
        ]
    return seen


def reference_connecting_set(spec):
    # Every k-cycle on every allowed support, anchored at the support's least
    # point, built one at a time and sorted by image sequence.
    fixed = () if spec.family == "full" else tuple(range(1, spec.r + 1))
    rest = range(len(fixed) + 1, spec.n + 1)
    elements = []
    for extra in itertools.combinations(rest, spec.k - len(fixed)):
        support = fixed + extra
        for arrangement in itertools.permutations(support[1:]):
            elements.append(Permutation.from_cycles([support[:1] + arrangement], spec.n))
    return tuple(sorted(elements))


perm_strategy = st.integers(3, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(lambda t: Permutation(tuple(t)))
)


class TestCompose:
    def test_identity_law(self):
        h = parse_cycles("(1,3,4)", 5)
        assert compose(Permutation.identity(5), h) == h
        assert compose(h, Permutation.identity(5)) == h

    def test_involution(self):
        t = parse_cycles("(1,2)", 4)
        assert compose(t, t).is_identity()

    def test_convention_matches_pointwise_oracle(self):
        g = parse_cycles("(1,2)", 3)
        h = parse_cycles("(2,3)", 3)
        product = compose(g, h)
        for x in (1, 2, 3):
            assert product(x) == apply_pointwise(g, h, x)
        assert product == parse_cycles("(1,2,3)", 3)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            compose(Permutation.identity(3), Permutation.identity(4))


class TestBasics:
    def test_parity_of_three_cycle(self):
        assert parity(parse_cycles("(1,2,3)", 3)) == "even"

    def test_parity_of_k_cycle(self):
        for k in range(2, 8):
            g = parse_cycles("(" + ",".join(map(str, range(1, k + 1))) + ")", 8)
            assert (parity(g) == "even") == (k % 2 == 1)

    def test_cycle_type(self):
        g = parse_cycles("(1,2)(3,4)", 5)
        assert cycle_type(g) == (2, 2, 1)

    def test_conjugate_relabels(self):
        g = parse_cycles("(1,2,3)", 4)
        x = parse_cycles("(1,4)", 4)
        expected = parse_cycles("(4,2,3)", 4)
        assert conjugate(g, x) == expected
        for point in range(1, 5):
            # oracle: x g x^-1 applied pointwise
            assert conjugate(g, x)(point) == x(g(x.inverse()(point)))

    @given(perm_strategy)
    def test_inverse_roundtrip(self, g):
        assert compose(g, g.inverse()).is_identity()
        assert compose(g.inverse(), g).is_identity()

    @given(perm_strategy)
    def test_conjugation_preserves_cycle_type(self, g):
        n = g.degree
        x = Permutation(tuple(range(2, n + 1)) + (1,))
        assert cycle_type(conjugate(g, x)) == cycle_type(g)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))


class TestPermutationValue:
    """A Permutation is an immutable value: checked on input, compared, hashed
    and ordered by its images."""

    @pytest.mark.parametrize("images", [(1, 1, 3), (0, 1, 2), (2, 3, 4), (1, 3)])
    def test_checks_its_input(self, images):
        with pytest.raises(ValueError, match="not a bijection"):
            Permutation(images)

    def test_immutable(self):
        g = Permutation((2, 1, 3))
        with pytest.raises(AttributeError):
            g.images = (1, 2, 3)
        with pytest.raises(AttributeError):
            del g.images
        with pytest.raises(AttributeError):
            g.label = "swap"
        assert g.images == (2, 1, 3)

    def test_equality_and_hash(self):
        a, b = Permutation((2, 1, 3)), Permutation((2, 1, 3))
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(((2, 1, 3),))
        assert len({a, b, Permutation((1, 2, 3))}) == 2
        assert a != Permutation((1, 2, 3))
        assert a != (2, 1, 3)

    def test_orderings_follow_images(self):
        a, b = Permutation((1, 3, 2)), Permutation((2, 1, 3))
        assert a < b and a <= b and b > a and b >= a
        assert a <= a and a >= a and not a < a and not a > a
        assert not b < a and not b <= a and not a > b and not a >= b
        assert sorted([b, a]) == [a, b]
        with pytest.raises(TypeError):
            a < (2, 1, 3)

    def test_repr_and_copies(self):
        g = Permutation((2, 1, 3))
        assert repr(g) == "Permutation(images=(2, 1, 3))"
        assert copy.copy(g) == g and pickle.loads(pickle.dumps(g)) == g


class TestCycleNotation:
    def test_roundtrip(self):
        g = parse_cycles("(1,2,5)(3)(4)", 5)
        assert g == parse_cycles("(1,2,5)", 5)
        assert cycle_string(g) == "(1,2,5)"

    def test_identity(self):
        assert parse_cycles("", 4).is_identity()
        assert cycle_string(Permutation.identity(4)) == "()"

    def test_rejects_overlapping_cycles(self):
        with pytest.raises(ValueError):
            parse_cycles("(1,2)(2,3)", 4)


class TestSpecs:
    def test_parse(self):
        assert parse_spec("C(6,3;2)") == prefix_moving_cycles(6, 3, 2)
        assert parse_spec("C(5,5)") == full_cycles(5, 5)
        with pytest.raises(ValueError):
            parse_spec("C(6)")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            full_cycles(5, 1)
        with pytest.raises(ValueError):
            prefix_moving_cycles(5, 5, 2)  # needs k < n
        with pytest.raises(ValueError):
            prefix_moving_cycles(5, 3, 3)

    @pytest.mark.parametrize(
        "args",
        [("full", 5, 1), ("full", 5, 6), ("full", 5, 5, 2), ("prefix", 6, 3), ("prefix", 6, 3, 0),
         ("prefix", 6, 6, 2), ("cyclic", 5, 5)],
    )
    def test_validation(self, args):
        with pytest.raises(ValueError):
            ConnectingSetSpec(*args)

    def test_spec_is_an_immutable_hashable_value(self):
        spec = ConnectingSetSpec("prefix", 6, 3, 2)
        assert spec == prefix_moving_cycles(6, 3, 2) and spec is not prefix_moving_cycles(6, 3, 2)
        assert hash(spec) == hash(prefix_moving_cycles(6, 3, 2))
        assert {spec: "C(6,3;2)"}[parse_spec("C(6,3;2)")] == "C(6,3;2)"
        assert spec != full_cycles(6, 3) and spec != ("prefix", 6, 3, 2)
        assert repr(spec) == "ConnectingSetSpec(family='prefix', n=6, k=3, r=2)"
        assert repr(full_cycles(5, 5)) == "ConnectingSetSpec(family='full', n=5, k=5, r=None)"
        with pytest.raises(AttributeError):
            spec.n = 7
        assert (spec.family, spec.n, spec.k, spec.r) == ("prefix", 6, 3, 2)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_set_cap_refuses_before_making_an_element(self, no_element_made):
        with pytest.raises(
            CapExceededError, match=r"^\|C\(13,13\)\| = 479001600 exceeds set cap 1000000$"
        ):
            enumerate_connecting_set(full_cycles(13, 13))
        assert permutations.SET_CAP == 10**6
        assert graphs.CapExceededError is CapExceededError

    def test_set_cap_admits_a_set_of_its_size(self, monkeypatch):
        monkeypatch.setattr(permutations, "SET_CAP", 24)
        assert len(enumerate_connecting_set(full_cycles(5, 5))) == 24
        with pytest.raises(CapExceededError, match=r"\|C\(5,4\)\| = 30 exceeds set cap 24"):
            enumerate_connecting_set(full_cycles(5, 4))

    def test_full_cycle_count(self):
        assert len(enumerate_connecting_set(full_cycles(5, 5))) == 24

    def test_prefix_count(self):
        assert len(enumerate_connecting_set(prefix_moving_cycles(5, 3, 2))) == 6

    def test_membership(self):
        connecting = set(enumerate_connecting_set(prefix_moving_cycles(5, 3, 2)))
        assert parse_cycles("(1,2,5)", 5) in connecting
        assert parse_cycles("(1,3,4)", 5) not in connecting  # fixes the point 2

    @pytest.mark.parametrize("n", range(5, 9))
    def test_cardinality_formula_all_specs(self, n):
        specs = [full_cycles(n, k) for k in range(2, n + 1)]
        specs += [
            prefix_moving_cycles(n, k, r)
            for k in range(2, n)
            for r in range(1, k)
        ]
        for spec in specs:
            connecting = enumerate_connecting_set(spec)
            assert len(connecting) == spec.cardinality()
            assert len(set(connecting)) == len(connecting)

    def test_enumeration_properties(self):
        spec = prefix_moving_cycles(6, 4, 2)
        connecting = enumerate_connecting_set(spec)
        as_set = set(connecting)
        assert {h.inverse() for h in as_set} == as_set
        assert not any(h.is_identity() for h in as_set)
        for h in as_set:
            assert cycle_type(h) == (4, 1, 1)
            assert all(h(p) != p for p in (1, 2))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_enumeration_matches_itertools_reference(self, n):
        specs = [full_cycles(n, k) for k in range(2, n + 1)]
        specs += [prefix_moving_cycles(n, k, r) for k in range(2, n) for r in range(1, k)]
        for spec in specs:
            assert enumerate_connecting_set(spec) == reference_connecting_set(spec)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_cycles_give_each_element_once(self, n):
        specs = [full_cycles(n, k) for k in range(2, n + 1)]
        specs += [prefix_moving_cycles(n, k, r) for k in range(2, n) for r in range(1, k)]
        for spec in specs:
            cycles = list(connecting_cycles(spec))
            assert all(len(c) == spec.k and c[0] == min(c) for c in cycles)
            elements = sorted(Permutation.from_cycles([c], n) for c in cycles)
            assert tuple(elements) == enumerate_connecting_set(spec)

    def test_cycles_refused_on_the_call(self, no_element_made):
        with pytest.raises(CapExceededError, match=r"^\|C\(13,13\)\| = 479001600 exceeds"):
            connecting_cycles(full_cycles(13, 13))

    def test_enumeration_deterministic(self):
        spec = prefix_moving_cycles(6, 3, 2)
        assert enumerate_connecting_set(spec) == enumerate_connecting_set(spec)
        assert list(enumerate_connecting_set(spec)) == sorted(enumerate_connecting_set(spec))

    def test_normalizer_invariance(self):
        # Conjugation by Sym(1..r) x Sym(r+1..n) preserves the set.
        spec = prefix_moving_cycles(6, 4, 2)
        connecting = set(enumerate_connecting_set(spec))
        stabilizer_gens = [
            parse_cycles("(1,2)", 6),
            parse_cycles("(3,4)", 6),
            parse_cycles("(3,4,5,6)", 6),
        ]
        for x in stabilizer_gens:
            assert {conjugate(h, x) for h in connecting} == connecting


class TestGeneratedSubgroup:
    def test_even_k_gives_symmetric(self):
        assert generated_subgroup_kind(full_cycles(6, 6)) == "symmetric"
        assert generated_subgroup_kind(full_cycles(5, 4)) == "symmetric"

    def test_odd_k_gives_alternating(self):
        assert generated_subgroup_kind(prefix_moving_cycles(5, 3, 2)) == "alternating"
        assert generated_subgroup_kind(full_cycles(5, 5)) == "alternating"

    @pytest.mark.parametrize(
        "spec",
        [
            full_cycles(5, 5),
            full_cycles(5, 4),
            prefix_moving_cycles(5, 3, 2),
            prefix_moving_cycles(6, 3, 2),
            full_cycles(6, 6),
            prefix_moving_cycles(6, 4, 3),
        ],
    )
    def test_agrees_with_bfs_closure(self, spec):
        closure = bfs_closure(list(enumerate_connecting_set(spec)))
        expected = (
            factorial(spec.n)
            if generated_subgroup_kind(spec) == "symmetric"
            else factorial(spec.n) // 2
        )
        assert len(closure) == expected

    def test_closure_of_small_alternating_set(self):
        connecting = enumerate_connecting_set(prefix_moving_cycles(5, 3, 2))
        assert len(bfs_closure(list(connecting))) == 60


def test_group_enumerations():
    assert len(as_permutations(group_images("symmetric", 4))) == 24
    assert len(as_permutations(group_images("alternating", 4))) == 12
    sym3 = as_permutations(group_images("symmetric", 3))
    assert sym3 == tuple(sorted(sym3))


@pytest.mark.parametrize("n", range(1, 8))
def test_group_enumerations_match_itertools(n):
    group = tuple(Permutation(p) for p in itertools.permutations(range(1, n + 1)))
    even = tuple(g for g in group if parity(g) == "even")
    assert as_permutations(group_images("symmetric", n)) == group
    assert as_permutations(group_images("alternating", n)) == even
    for kind, expected in (("symmetric", group), ("alternating", even)):
        images = group_images(kind, n)
        assert images.dtype == np.min_scalar_type(n)
        assert images.tolist() == [[i - 1 for i in g.images] for g in expected]


def test_group_of_degree_0_is_one_empty_row():
    for kind in ("symmetric", "alternating"):
        assert group_images(kind, 0).shape == (1, 0)


class TestConnectingImages:
    """connecting_images makes H as one array straight from its cycles: the
    rows of enumerate_connecting_set, unsorted, in the group's dtype."""

    @pytest.mark.parametrize("spec_text", ["C(4,2)", "C(5,5)", "C(7,5;2)", "C(8,3;1)"])
    def test_rows_are_the_enumerated_set(self, spec_text):
        spec = parse_spec(spec_text)
        images = connecting_images(spec)
        assert images.dtype == np.min_scalar_type(spec.n)
        assert images.shape == (spec.cardinality(), spec.n)
        rows = sorted(map(tuple, (images + 1).tolist()))
        assert rows == [h.images for h in enumerate_connecting_set(spec)]

    def test_set_cap_refuses_before_making_an_element(self, no_element_made):
        with pytest.raises(CapExceededError, match=r"^\|C\(13,13\)\| = 479001600 exceeds set cap"):
            connecting_images(full_cycles(13, 13))


class TestImageArray:
    """reference_checks.image_array fills one flat buffer; it must equal the
    array of a list of image rows in dtype, shape, row order and the refusal
    of another degree."""

    @staticmethod
    def rows_reference(perms, n):
        rows = [p.images for p in perms]
        return np.array(rows, dtype=np.min_scalar_type(n)).reshape(-1, n) - 1

    @pytest.mark.parametrize("spec_text", ["C(4,2)", "C(7,5;2)", "C(9,9)"])
    def test_matches_a_list_of_rows(self, spec_text):
        spec = parse_spec(spec_text)
        perms = enumerate_connecting_set(spec)
        images, reference = image_array(perms, spec.n), self.rows_reference(perms, spec.n)
        assert (images.dtype, images.shape) == (reference.dtype, reference.shape)
        assert (images == reference).all()

    @pytest.mark.parametrize("n", [1, 3, 255, 256])
    @pytest.mark.parametrize("count", [0, 2])
    def test_dtype_and_shape_at_each_width(self, n, count):
        perms = [Permutation(tuple(range(n, 0, -1)))] * count
        images, reference = image_array(perms, n), self.rows_reference(perms, n)
        assert (images.dtype, images.shape) == (reference.dtype, reference.shape)
        assert images.tolist() == reference.tolist()

    def test_degree_zero(self):
        # The shape is taken from the row count, so empty rows keep their number.
        assert image_array([Permutation(())] * 2, 0).shape == (2, 0)

    def test_another_degree_refused(self):
        perms = [Permutation((2, 3, 1)), Permutation((2, 1))]
        with pytest.raises(DegreeMismatchError, match="^degrees 2 != 3$"):
            image_array(perms, 3)


class TestOneMembershipRule:
    """Every route decides whether H lies in the group by check_group, with
    one message for each refusal."""

    ROUTES = {
        "dense": lambda kind, spec: graphs.build(kind, spec),
        "explicit": lambda kind, spec: reference_checks.from_explicit_set(
            kind, spec.n, enumerate_connecting_set(spec)
        ),
        "irrep": lambda kind, spec: yor.full_spectrum_via_irreps(spec, kind),
        "char": lambda kind, spec: yor.char_spectrum(
            spec.n, (spec.k,) + (1,) * (spec.n - spec.k), kind
        ),
    }

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []

        def recorded(kind, inside_alt):
            calls.append((kind, inside_alt))
            check_group(kind, inside_alt)

        for module in (graphs, reference_checks, yor):
            monkeypatch.setattr(module, "check_group", recorded)
        return calls

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize(
        "kind, spec, message",
        [
            ("alternating", full_cycles(6, 4), "connecting set contains odd permutations, not inside Alt"),
            ("cyclic", full_cycles(6, 3), "unknown group kind 'cyclic'"),
        ],
        ids=["odd-on-alt", "unknown-kind"],
    )
    def test_refused_by_the_one_rule(self, checks, route, kind, spec, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.ROUTES[route](kind, spec)
        assert checks == [(kind, spec.k % 2 == 1)]

    @pytest.mark.parametrize("route", ROUTES)
    def test_even_set_admitted_on_alt(self, checks, route):
        assert self.ROUTES[route]("alternating", full_cycles(5, 3)) is not None
        assert checks == [("alternating", True)]


class TestNoPermutationObjects:
    """The package holds H and G only as specs, cycles and image arrays: no
    module of it defines, imports or names a ``Permutation``, and the
    permutation algebra lives in the test references."""

    EXPORTS = [
        "CayleyGraph", "ConnectingSetSpec", "SpectrumReport", "build",
        "dense_spectrum", "dimension", "full_cycles", "full_spectrum_via_irreps",
        "generated_subgroup_kind", "hplus_block_spectrum", "max_ratio_diagram", "mn_character", "natural_module_spectrum", "parse_spec",
        "partitions_of", "prefix_moving_cycles", "quotient_B1", "quotient_B2", "transpose",
    ]
    MOVED = {
        permutations: [
            "Permutation", "compose", "conjugate", "cycle_type", "parity", "parse_cycles",
            "_CYCLE_RE", "cycle_string", "as_permutations", "enumerate_connecting_set",
            "symmetric_group", "alternating_group",
        ],
        yor: [
            "yor_image", "yor_generator", "adjacent_word", "Permutation", "standard_tableaux",
            "Tableau",
        ],
        equitable: [
            "is_equitable", "partition_P1", "partition_P2", "_three_blocks", "_check_partition",
            "MalformedPartitionError", "VertexPartition", "np", "CayleyGraph",
        ],
        diagrams: ["branch_restrict", "is_hook", "hook_leg"],
    }

    def test_no_module_defines_imports_or_names_it(self):
        sources = sorted(Path(snspectra.__file__).parent.rglob("*.py"))
        assert len(sources) >= 10
        found = [
            f"{path.name}:{node.lineno}"
            for path in sources
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if "Permutation" in (
                getattr(node, "name", None),  # a class or an imported name
                getattr(node, "id", None),  # a name read or bound
                getattr(node, "attr", None),  # module.Permutation
            )
        ]
        assert found == []

    def test_exports(self):
        assert snspectra.__all__ == self.EXPORTS
        assert all(getattr(snspectra, name) is not None for name in self.EXPORTS)

    def test_moved_names_are_gone_from_the_package(self):
        for module, names in self.MOVED.items():
            assert [name for name in names if hasattr(module, name)] == [], module.__name__
        assert not hasattr(yor._Generator, "apply_right")
        assert not hasattr(graphs.CayleyGraph, "vertices")
