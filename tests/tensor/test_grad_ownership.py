"""Gradient ownership: borrowed first contributions, owned sums, no aliasing.

``Tensor._accumulate`` keeps a reference to the first gradient it receives
(borrowed) and allocates a fresh array on the second (owned); only owned
arrays are updated in place.  These tests pin the observable consequences:
values equal a copy-always engine exactly, borrowed arrays shared between
tensors never change behind one of them, layout scratch never becomes a
``.grad``, and constants never receive one.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.tensor import CSRSegmentLayout, Tensor, functional as F, gather_rows


def _leaf(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


class TestPassThroughReuse:
    def test_x_plus_x_sums_both_paths(self):
        x = _leaf((3, 4))
        upstream = np.random.default_rng(1).normal(size=(3, 4))
        kept = upstream.copy()
        (x + x).backward(upstream)
        np.testing.assert_array_equal(x.grad, upstream + upstream)
        # The caller's array is neither mutated nor adopted as .grad.
        np.testing.assert_array_equal(upstream, kept)
        assert not np.shares_memory(x.grad, upstream)

    def test_reshape_used_beside_its_source(self):
        x = _leaf((2, 6))
        weights = np.arange(12.0).reshape(3, 4)
        y = x.reshape(3, 4)
        loss = (y * weights).sum() + (x * 2.0).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, weights.reshape(2, 6) + 2.0)

    def test_second_backward_adds_into_borrowed_grad_without_mutating_it(self):
        x = _leaf((4,))
        (x * 3.0).sum().backward()
        first = x.grad
        snapshot = first.copy()
        (x * 5.0).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full(4, 8.0))
        np.testing.assert_array_equal(first, snapshot)

    def test_external_grad_assignment_is_never_updated_in_place(self):
        x = _leaf((3,))
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()  # x now owns its grad
        external = np.ones(3)
        x.grad = external
        (x * 2.0).sum().backward()
        np.testing.assert_array_equal(external, np.ones(3))
        np.testing.assert_array_equal(x.grad, np.full(3, 3.0))


class TestProbePattern:
    """``structure_mask + probe`` hands one array to both operands."""

    def test_probe_grad_unchanged_by_later_mask_contributions(self):
        mask = _leaf((5,))
        probe = Tensor(np.zeros(5), requires_grad=True)
        coeff = np.arange(1.0, 6.0)
        ((mask + probe) * coeff).sum().backward()
        before = probe.grad.copy()
        for _ in range(2):  # borrowed -> owned sum -> in-place add
            (mask * 7.0).sum().backward()
        np.testing.assert_array_equal(probe.grad, before)
        np.testing.assert_array_equal(probe.grad, coeff)
        np.testing.assert_array_equal(mask.grad, coeff + 7.0 + 7.0)

    def test_in_graph_mask_consumed_again_after_the_probe_sum(self):
        logits = _leaf((5,), seed=3)
        probe = Tensor(np.zeros(5), requires_grad=True)
        structure_mask = F.sigmoid(logits)
        coeff = np.linspace(-1.0, 1.0, 5)
        loss = ((structure_mask + probe) * coeff).sum() + (structure_mask * 4.0).sum()
        loss.backward()
        np.testing.assert_array_equal(probe.grad, coeff)
        s = structure_mask.data
        np.testing.assert_allclose(logits.grad, (coeff + 4.0) * s * (1.0 - s))


class TestLayoutScratch:
    def test_two_backward_passes_never_alias_layout_scratch(self):
        index = np.array([0, 2, 2, 1, 0], dtype=np.int64)
        layout = CSRSegmentLayout(index, 3)
        grads = []
        for seed in range(2):
            x = _leaf((3, 2), seed=seed)
            weights = np.random.default_rng(10 + seed).normal(size=(5, 2))
            (gather_rows(x, index, layout=layout) * weights).sum().backward()
            grads.append((x, x.grad.copy()))
        scratch = list(layout._workspaces.values())
        assert scratch, "the CSR adjoint should have used layout scratch"
        for x, expected in grads:
            np.testing.assert_array_equal(x.grad, expected)
            assert not any(np.shares_memory(x.grad, buffer) for buffer in scratch)

    def test_scratch_adjoint_added_to_an_owned_grad(self):
        index = np.array([1, 1, 0], dtype=np.int64)
        layout = CSRSegmentLayout(index, 2)
        x = _leaf((2, 3))
        loss = gather_rows(x, index, layout=layout).sum() + gather_rows(
            x, index, layout=layout
        ).sum() + (x * 1.0).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, np.array([[3.0] * 3, [5.0] * 3]))


class TestConstants:
    @pytest.mark.parametrize(
        "build",
        [
            lambda x, c: x + c,
            lambda x, c: c + x,
            lambda x, c: x - c,
            lambda x, c: x * c,
            lambda x, c: c * x,
            lambda x, c: x / c,
            lambda x, c: c / (x * x + 1.0),
            lambda x, c: x @ c.T,
            lambda x, c: F.where(x.data > 0, x, c),
            lambda x, c: F.where(x.data > 0, c, x),
            lambda x, c: F.maximum(x, c),
            lambda x, c: F.maximum(c, x),
            lambda x, c: F.concatenate([x, c]),
        ],
    )
    def test_constant_operand_gets_no_grad(self, build):
        x = _leaf((3, 4))
        const = Tensor(np.random.default_rng(2).uniform(0.5, 1.5, size=(3, 4)))
        build(x, const).sum().backward()
        assert const.grad is None
        assert x.grad is not None and np.isfinite(x.grad).all()


# ---------------------------------------------------------------------------
# Differential property: borrow/own engine == copy-always reference, exactly.
# ---------------------------------------------------------------------------


def _copy_always_accumulate(self, grad, scratch=False):
    """The engine's former ``_accumulate``: copy the first grad, ``+=`` after."""
    if not self.requires_grad:
        return
    if self._grad is None:
        self._grad = np.array(grad, dtype=np.float64, copy=True)
    else:
        self._grad += grad


_UNARY = {
    "neg": lambda a: -a,
    "sigmoid": F.sigmoid,
    "tanh": F.tanh,
    "relu": F.relu,
    "exp_small": lambda a: (a * 0.1).exp(),
    "reshape": lambda a: a.reshape(4, 3).reshape(3, 4),
    "transpose": lambda a: a.T.T,
    "row_sum": lambda a: a.sum(axis=1, keepdims=True) + a,
    "gather": lambda a: gather_rows(a, np.array([2, 0, 2], dtype=np.int64)),
    "slice": lambda a: F.concatenate([a[1:], a[:1]]),
}
_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / (b * b + 1.0),
    "matmul": lambda a, b: (a @ b.T) @ b * 0.1,
    "where": lambda a, b: F.where(a.data > b.data, a, b),
    "maximum": F.maximum,
}


def _run_dag(ops, seed):
    rng = np.random.default_rng(seed)
    leaves = [_leaf((3, 4), seed=seed + i) for i in range(3)]
    nodes = list(leaves) + [Tensor(rng.normal(size=(3, 4)))]  # one constant
    for kind, name, i, j in ops:
        a, b = nodes[i % len(nodes)], nodes[j % len(nodes)]
        nodes.append(_UNARY[name](a) if kind == "u" else _BINARY[name](a, b))
    # Several nodes feed the loss, so interior tensors are reused.
    loss = nodes[-1].sum()
    for k, node in enumerate(nodes[len(leaves) + 1 :: 2]):
        loss = loss + (node * float(k + 1)).sum()
    loss.backward()
    return [leaf.grad for leaf in leaves], nodes[len(leaves)].grad


_op = st.one_of(
    st.tuples(st.just("u"), st.sampled_from(sorted(_UNARY)), st.integers(0, 30), st.just(0)),
    st.tuples(
        st.just("b"), st.sampled_from(sorted(_BINARY)), st.integers(0, 30), st.integers(0, 30)
    ),
)


@settings(deadline=None, max_examples=80)
@given(ops=st.lists(_op, min_size=1, max_size=12), seed=st.integers(0, 1000))
def test_random_dags_match_copy_always_reference_exactly(ops, seed):
    grads, const_grad = _run_dag(ops, seed)
    assert const_grad is None
    original = Tensor._accumulate
    Tensor._accumulate = _copy_always_accumulate
    try:
        expected, _ = _run_dag(ops, seed)
    finally:
        Tensor._accumulate = original
    for got, want in zip(grads, expected):
        if want is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, want)
