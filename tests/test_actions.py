import random

import pytest

from conftest import cone, singleton
from paracon import (
    EquivariantMap,
    FinitePermutationAction,
    FiniteRegularAction,
    FiniteSet,
    FreeSelfAction,
    Partition,
    Permutation,
    SymbolicSet,
    TrivialAction,
    configuration_pair,
    langsets,
    parse_word,
    partition,
    pull_back_partition,
    validate_partition,
)
from paracon.langsets import labelled_pass
from paracon.words import identity_permutation, permutation_closure


class TestAct:
    def test_free_self_cancellation(self, f2):
        assert f2.act(parse_word("a"), parse_word("A")) == parse_word("e")

    def test_finite_permutation(self, z3):
        assert z3.act(Permutation((1, 2, 0)), 0) == 1

    def test_trivial_fixes_everything(self, trivial3):
        for x in range(3):
            assert trivial3.act(parse_word("ab"), x) == x

    def test_words_act_through_generators(self, z3):
        assert z3.act(parse_word("aa"), 0) == 2

    def test_regular_action_by_left_multiplication(self, s3_regular):
        g = Permutation((1, 0, 2))
        x = s3_regular.point_of(Permutation((0, 2, 1)))
        moved = s3_regular.act(g, x)
        assert s3_regular.elements[moved] == g * Permutation((0, 2, 1))

    def test_incompatible_element(self, z3):
        with pytest.raises(ValueError):
            z3.act(Permutation((1, 0)), 0)


class TestActOnSet:
    def test_symbolic_delegates_to_translate(self, f2):
        assert f2.act_on_set(parse_word("a"), cone("A")) == cone("a").complement()

    def test_finite_elementwise(self, z3):
        assert z3.act_on_set(Permutation((1, 2, 0)), z3.point_set([0, 1])).members == {1, 2}

    def test_bijectivity_preserves_full(self, f2, z3):
        assert f2.act_on_set(parse_word("bA"), f2.full_set()) == f2.full_set()
        assert z3.act_on_set(parse_word("a"), z3.full_set()) == z3.full_set()


class TestValidatePartition:
    def test_first_letter_partition(self, f2, five_blocks):
        assert validate_partition(f2, five_blocks).ok

    def test_finite_partition(self, z3):
        assert validate_partition(z3, [z3.point_set([0]), z3.point_set([1, 2])]).ok

    def test_overlapping_cones(self, f2):
        report = validate_partition(f2, [cone("a"), cone("ab")])
        assert not report.ok
        assert report.problem == "overlap"
        assert report.witness == parse_word("ab")

    def test_cover_gap(self, f2):
        report = validate_partition(f2, [cone("a"), cone("A")])
        assert not report.ok
        assert report.problem == "cover-gap"
        assert report.witness == parse_word("e")

    def test_empty_block_forbidden(self, z3):
        report = validate_partition(z3, [z3.full_set(), z3.empty_set()])
        assert not report.ok
        assert report.problem == "empty-block"

    def test_partition_constructor_raises(self, f2):
        with pytest.raises(ValueError):
            partition(f2, [cone("a"), cone("ab")])

    @pytest.mark.parametrize("build", [
        partition, lambda action, blocks: configuration_pair(action, ["a"], blocks)],
        ids=["partition", "configuration_pair"])
    def test_blocks_from_another_universe_raise(self, build, z4):
        # the pass runs over the blocks alone, so their universe is checked
        # against the action's before it
        with pytest.raises(ValueError, match="degree mismatch: 4 vs 3"):
            build(z4, [FiniteSet.of(3, [0]), FiniteSet.of(3, [1, 2])])
        with pytest.raises(ValueError, match="rank mismatch: 2 vs 1"):
            build(FreeSelfAction(2), [SymbolicSet.full(1)])

    def test_validated_partition_keeps_its_pass(self, f2, five_blocks, monkeypatch):
        # partition() takes one labelled pass over the blocks, checks it, and
        # returns the partition held as that pass; its blocks are read back
        # off it
        passes = []
        symbolic_pass = langsets._symbolic_pass
        monkeypatch.setattr(langsets, "_symbolic_pass",
                            lambda parts: passes.append(parts) or symbolic_pass(parts))
        validated = partition(f2, five_blocks)
        assert len(passes) == 1
        assert vars(validated) == {"labelling": symbolic_pass(passes[0])}
        assert len(validated) == validated.labelling.width == 5
        assert validated.blocks == tuple(five_blocks)
        assert validated == Partition(labelled_pass(five_blocks))


class TestActionAxioms:
    def test_compatibility_random(self, f2, z3, s3_regular):
        rng = random.Random(7)

        def random_word(chars):
            out = parse_word("e")
            for _ in range(rng.randint(0, 4)):
                out = out * parse_word(rng.choice(chars))
            return out

        for _ in range(40):
            g, h = random_word("aAbB"), random_word("aAbB")
            x_word = parse_word("Ba")
            assert f2.act(g * h, x_word) == f2.act(g, f2.act(h, x_word))
            for action, chars in ((z3, "aA"), (s3_regular, "aAbB")):
                gg = action.normalize_element(random_word(chars))
                hh = action.normalize_element(random_word(chars))
                for x in range(action.degree):
                    assert action.act(gg * hh, x) == action.act(gg, action.act(hh, x))

    def test_translated_partition_still_validates(self, f2, five_blocks):
        g = parse_word("aB")
        moved = [f2.act_on_set(g, block) for block in five_blocks]
        assert validate_partition(f2, moved).ok


class TestEquivariantMap:
    def test_z4_mod2(self, z4):
        z2 = FinitePermutationAction(2, {1: Permutation((1, 0))})
        EquivariantMap(z4, z2, (0, 1, 0, 1))

    def test_pull_back_blocks(self, z4):
        z2 = FinitePermutationAction(2, {1: Permutation((1, 0))})
        emap = EquivariantMap(z4, z2, (0, 1, 0, 1))
        pulled = pull_back_partition(emap, partition(z2, [z2.point_set([0]), z2.point_set([1])]))
        assert [sorted(b.members) for b in pulled.blocks] == [[0, 2], [1, 3]]

    def test_pull_back_of_another_universe_raises(self, z3, z4):
        # a partition of Z/3 is not one of Z/2, whose points the map reaches
        z2 = FinitePermutationAction(2, {1: Permutation((1, 0))})
        emap = EquivariantMap(z4, z2, (0, 1, 0, 1))
        with pytest.raises(ValueError, match="degree mismatch: 2 vs 3"):
            pull_back_partition(emap, partition(z3, [z3.point_set([0]), z3.point_set([1, 2])]))

    def test_identity_map_round_trip(self, z3):
        emap = EquivariantMap(z3, z3, (0, 1, 2))
        original = partition(z3, [z3.point_set([0]), z3.point_set([1, 2])])
        assert pull_back_partition(emap, original).blocks == original.blocks

    def test_non_equivariant_table_rejected(self, z4):
        z2 = FinitePermutationAction(2, {1: Permutation((1, 0))})
        with pytest.raises(ValueError, match=r"^not equivariant at generator 1, point 0: "
                                             r"f\(g\.x\)=0 but phi\(g\)\.f\(x\)=1$"):
            EquivariantMap(z4, z2, (0, 0, 1, 1))

    def test_non_surjective_rejected(self, z4):
        z2 = FinitePermutationAction(2, {1: identity_permutation(2)})
        with pytest.raises(ValueError, match="^point map is not onto the target$"):
            EquivariantMap(z4, z2, (0, 0, 0, 0))

    def test_generator_without_image_rejected(self, z4):
        z2 = FinitePermutationAction(2, {2: Permutation((1, 0))})
        with pytest.raises(ValueError, match="^generator 1 has no image$"):
            EquivariantMap(z4, z2, (0, 1, 0, 1))

    def test_point_map_of_wrong_length_rejected(self, z4):
        z2 = FinitePermutationAction(2, {1: Permutation((1, 0))})
        with pytest.raises(ValueError, match="^point map has 2 entries, expected 4$"):
            EquivariantMap(z4, z2, (0, 1))

    def test_infinite_backend_rejected(self):
        z2 = FinitePermutationAction(2, {1: Permutation((1, 0))})
        with pytest.raises(ValueError, match="^equivariant maps are only validated on finite backends$"):
            EquivariantMap(FreeSelfAction(1), z2, (0, 1))


class TestFiniteRegular:
    def test_free_and_transitive(self, s3_regular):
        identity = identity_permutation(3)
        for g in s3_regular.elements:
            if g == identity:
                continue
            for x in range(s3_regular.degree):
                assert s3_regular.act(g, x) != x
        orbit = {s3_regular.act(g, 0) for g in s3_regular.elements}
        assert orbit == set(range(6))

    def test_rejects_elements_outside_group(self):
        z4_regular = FiniteRegularAction({1: Permutation((1, 2, 3, 0))})
        assert z4_regular.degree == 4
        with pytest.raises(ValueError):
            z4_regular.normalize_element(Permutation((1, 0, 2, 3)))

    def test_closure_matches_permutation_closure(self, s3_regular):
        direct = permutation_closure([Permutation((1, 0, 2)), Permutation((0, 2, 1))])
        assert [g.images for g in s3_regular.elements] == [
            tuple(c) if isinstance(c, bytes) else tuple(map(ord, c)) for c in direct]


class TestTrivialInfinite:
    def test_symbolic_universe(self):
        action = TrivialAction(rank=2)
        assert not action.is_finite
        blocks = [singleton("e"), cone("a"), cone("A"), cone("b"), cone("B")]
        assert validate_partition(action, blocks).ok
        assert action.act_on_set(parse_word("ab"), blocks[1]) == blocks[1]

    def test_exactly_one_universe(self):
        with pytest.raises(ValueError):
            TrivialAction()
        with pytest.raises(ValueError):
            TrivialAction(degree=2, rank=2)

    @pytest.mark.parametrize("size", [0, -3])
    @pytest.mark.parametrize("universe", ["degree", "rank"])
    def test_universe_of_size_below_1_is_rejected(self, universe, size):
        # as FreeSelfAction and FinitePermutationAction do: degree -3 gave
        # FiniteSet(-3, []), and rank 0 a full set whose repr raised IndexError
        with pytest.raises(ValueError, match=rf"^{universe} must be at least 1$"):
            TrivialAction(**{universe: size})
