"""Cross enumeration and branch tensors against brute-force oracles."""

import numpy as np
import pytest

from fiinet import engine as eg
from fiinet.crosses import ChannelLayout, build_branch_2, build_branch_3
from fiinet.errors import ShapeError
from gradcheck import total


def brute_force_pairs(E):
    """Independent loop over all i<j Hadamard products; E is (f,k)."""
    f = E.shape[0]
    return np.stack([E[i] * E[j] for i in range(f) for j in range(i + 1, f)])


def brute_force_triples(E):
    f = E.shape[0]
    rows = []
    for i in range(f):
        for j in range(i + 1, f):
            for k in range(j + 1, f):
                rows.append(E[i] * E[j] * E[k])
    return np.stack(rows)


def pairs(num_fields):
    return ChannelLayout.build(num_fields, (2,)).pairs


def triples(num_fields):
    return ChannelLayout.build(num_fields, (3,)).triples


class TestEnumeration:
    def test_pairs_f4(self):
        assert pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_pairs_f2(self):
        assert pairs(2) == ((0, 1),)

    def test_pairs_f10_length(self):
        assert len(pairs(10)) == 45

    def test_pairs_too_few_fields(self):
        with pytest.raises(ShapeError, match="^order-2 crosses need at least 2 fields, got 1$"):
            pairs(1)

    def test_triples_f4(self):
        assert triples(4) == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

    def test_triples_f3(self):
        assert triples(3) == ((0, 1, 2),)

    def test_triples_f6_length(self):
        assert len(triples(6)) == 20

    def test_triples_too_few_fields(self):
        with pytest.raises(ShapeError, match="^order-3 crosses need at least 3 fields, got 2$"):
            triples(2)

    @pytest.mark.parametrize("f", range(3, 9))
    def test_channel_counts(self, f):
        layout = ChannelLayout.build(f)
        assert layout.num_pairs == f * (f - 1) // 2
        assert len(layout.triples) == f * (f - 1) * (f - 2) // 6
        assert layout.num_channels == layout.num_pairs + len(layout.triples)


class TestBranchTensors:
    def test_single_pair_example(self):
        layout = ChannelLayout.build(2, orders=(2,))
        E = eg.Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        out = build_branch_2(E, layout)
        assert np.array_equal(out.data, [[[3.0, 8.0]]])

    def test_zero_embedding_annihilates(self):
        layout = ChannelLayout.build(4)
        E = np.random.default_rng(0).standard_normal((1, 4, 3))
        E[0, 2] = 0.0
        u2 = build_branch_2(eg.Tensor(E), layout).data[0]
        for c, (i, j) in enumerate(layout.pairs):
            if 2 in (i, j):
                assert np.array_equal(u2[c], np.zeros(3))

    def test_single_triple_example(self):
        layout = ChannelLayout.build(3)
        E = eg.Tensor(np.array([[[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]]))
        out = build_branch_3(E, layout)
        assert np.array_equal(out.data[0, 0], [6.0, 6.0])

    def test_identical_embeddings_symmetric_triples(self):
        layout = ChannelLayout.build(5)
        e = np.array([0.5, -2.0, 1.5])
        E = eg.Tensor(np.broadcast_to(e, (1, 5, 3)).copy())
        u3 = build_branch_3(E, layout).data[0]
        assert u3.shape == (len(layout.triples), 3)
        for c in range(len(layout.triples)):
            assert np.allclose(u3[c], e * e * e)

    @pytest.mark.parametrize("f", range(3, 9))
    def test_matches_brute_force_bitwise(self, f):
        rng = np.random.default_rng(100 + f)
        layout = ChannelLayout.build(f)
        E = rng.standard_normal((4, f, 5))
        u2 = build_branch_2(eg.Tensor(E), layout).data
        u3 = build_branch_3(eg.Tensor(E), layout).data
        for b in range(4):
            expect2 = brute_force_pairs(E[b])
            expect3 = brute_force_triples(E[b])
            assert np.array_equal(u2[b], expect2)
            assert np.array_equal(u3[b], expect3)

    def test_branches_hold_only_live_channels(self):
        layout = ChannelLayout.build(5)
        E = eg.Tensor(np.random.default_rng(3).standard_normal((2, 5, 4)))
        assert build_branch_2(E, layout).data.shape == (2, layout.num_pairs, 4)
        assert build_branch_3(E, layout).data.shape == (2, len(layout.triples), 4)

    def test_permutation_consistency(self):
        # swapping two field embeddings permutes channels, values unchanged
        f, k = 5, 3
        rng = np.random.default_rng(9)
        layout = ChannelLayout.build(f)
        E = rng.standard_normal((1, f, k))
        swapped = E.copy()
        swapped[0, [1, 3]] = swapped[0, [3, 1]]
        perm = {1: 3, 3: 1}

        def mapped(fields):
            return tuple(sorted(perm.get(i, i) for i in fields))

        base2 = build_branch_2(eg.Tensor(E), layout).data[0]
        swap2 = build_branch_2(eg.Tensor(swapped), layout).data[0]
        for c, pair in enumerate(layout.pairs):
            target = layout.pairs.index(mapped(pair))
            assert np.array_equal(base2[c], swap2[target])
        base3 = build_branch_3(eg.Tensor(E), layout).data[0]
        swap3 = build_branch_3(eg.Tensor(swapped), layout).data[0]
        for c, triple in enumerate(layout.triples):
            target = layout.triples.index(mapped(triple))
            # triple products regroup under the swap, so equality is up to rounding
            np.testing.assert_allclose(base3[c], swap3[target], rtol=1e-14, atol=0)

    def test_gradients_flow_to_embeddings(self):
        layout = ChannelLayout.build(4)
        E = eg.Tensor(np.random.default_rng(5).standard_normal((2, 4, 3)), requires_grad=True)
        E.zero_grad()
        loss = eg.add(total(build_branch_2(E, layout)), total(build_branch_3(E, layout)))
        loss.backward()
        assert E.grad.shape == E.data.shape
        assert np.abs(E.grad).sum() > 0

    def test_shape_mismatch_errors(self):
        layout = ChannelLayout.build(4)
        with pytest.raises(ShapeError):
            build_branch_2(eg.Tensor(np.zeros((2, 5, 3))), layout)

    def test_restricted_layouts(self):
        pair_only = ChannelLayout.build(4, orders=(2,))
        assert not pair_only.triples
        E = eg.Tensor(np.random.default_rng(1).standard_normal((2, 4, 3)))
        assert build_branch_2(E, pair_only).data.shape == (2, 6, 3)
        with pytest.raises(ShapeError):
            build_branch_3(E, pair_only)
        triple_only = ChannelLayout.build(4, orders=(3,))
        assert build_branch_3(E, triple_only).data.shape == (2, 4, 3)

    def test_pair_branch_of_a_layout_with_only_triples_errors(self):
        E = eg.Tensor(np.zeros((2, 4, 3)))
        with pytest.raises(ShapeError, match="^layout carries no pair channels$"):
            build_branch_2(E, ChannelLayout.build(4, orders=(3,)))


class TestLayoutOrders:
    @pytest.mark.parametrize("orders", [(), (4,), (2, 4), (1, 2)])
    def test_refuses_orders_other_than_2_and_3(self, orders):
        with pytest.raises(ShapeError, match="non-empty selection of 2 and 3"):
            ChannelLayout.build(5, orders)

    @pytest.mark.parametrize("orders", [(2, 3), (3, 2)])
    def test_field_minimum_is_that_of_the_highest_order(self, orders):
        with pytest.raises(ShapeError, match="^order-3 crosses need at least 3 fields, got 2$"):
            ChannelLayout.build(2, orders)

    @pytest.mark.parametrize("num_fields", ["4", 4.0, None, True])
    def test_refuses_a_field_count_that_is_not_an_int(self, num_fields):
        # "4" and 4.0 raised TypeError, True was read as 1
        message = f"^the field count must be an int, got {num_fields!r}$"
        with pytest.raises(ShapeError, match=message):
            ChannelLayout.build(num_fields)

    def test_accepts_a_numpy_int_field_count(self):
        assert ChannelLayout.build(np.int64(4)) == ChannelLayout.build(4)
