"""Property tests for the CSR proposal graph and its max-pool refiner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdet.gnn import (
    GraphUpdater,
    build_graph,
    join_graphs,
    update,
    update_backward,
    update_extended_forward,
    update_vanilla_forward,
)
from graphdet.scene import Box3D, BoxArray

from oracles import loop_update_backward, loop_update_forward

SEEDS = st.integers(0, 2**32 - 1)


def integer_proposals(rng, n, state_dim, spread=4):
    """Integer-valued centres and states, so neighbour rows often tie."""
    centres = rng.integers(-spread, spread + 1, size=(n, 3)).astype(float)
    states = rng.integers(-2, 3, size=(n, state_dim)).astype(float)
    return BoxArray.of([Box3D(tuple(c), (3.9, 1.6, 1.56), 0.0) for c in centres]), states


def seeded_updater(state_dim, seed, extended, rounded=True, depth=3):
    """``depth`` seeded iterations; ``rounded`` rounds every weight to a
    half, so that integer inputs give pooled values that tie exactly."""
    updater = GraphUpdater.seeded(state_dim, 6, depth, seed, extended=extended)
    if rounded:
        for stack in updater.stacks:
            stack.set_flat_params(np.round(2.0 * stack.flat_params()) / 2.0)
    return updater


def assert_matches_loop_oracle(graph, updater, extended):
    refined, cache = update(graph, updater)
    want, want_argmax = loop_update_forward(graph, updater, extended)
    assert np.array_equal(refined, want, equal_nan=True)
    assert len(cache.iterations) == len(want_argmax)
    for it, rows in zip(cache.iterations, want_argmax):
        assert np.array_equal(it.argmax_rows, rows)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 30),
    state_dim=st.integers(1, 4),
    radius=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    extended=st.booleans(),
    rounded=st.booleans(),
    seed=SEEDS,
)
def test_pooling_matches_the_per_node_loop(n, state_dim, radius, extended, rounded, seed):
    rng = np.random.default_rng(seed)
    graph = build_graph(*integer_proposals(rng, n, state_dim), radius=radius)
    updater = seeded_updater(state_dim, seed % 1000, extended, rounded)
    assert_matches_loop_oracle(graph, updater, extended)


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("poison", [np.nan, np.inf])
def test_pooling_matches_the_loop_on_non_finite_weights(extended, poison):
    # A NaN weight makes its channel NaN on every row; an infinite weight
    # on a state input gives NaN on rows where that state is zero and
    # +-inf elsewhere, so blocks mix NaN and infinities.
    rng = np.random.default_rng(21)
    graph = build_graph(*integer_proposals(rng, 24, 3, spread=3), radius=2.5)
    updater = seeded_updater(3, 5, extended)
    updater.agg_stacks[0].layers[0].weight[2, -1] = poison
    with np.errstate(invalid="ignore", over="ignore"):
        assert_matches_loop_oracle(graph, updater, extended)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 20),
    state_dim=st.integers(1, 4),
    extended=st.booleans(),
    rounded=st.booleans(),
    seed=SEEDS,
)
def test_update_runs_the_updaters_own_variant(n, state_dim, extended, rounded, seed):
    rng = np.random.default_rng(seed)
    graph = build_graph(*integer_proposals(rng, n, state_dim), radius=2.0)
    updater = seeded_updater(state_dim, seed % 1000, extended, rounded)
    twin = update_extended_forward if extended else update_vanilla_forward
    refined, cache = update(graph, updater)
    want, want_cache = twin(graph, updater)
    assert cache.extended == want_cache.extended == extended
    assert np.array_equal(refined, want)


def assert_backward_matches_loop_oracle(graph, updater, extended, grad_out):
    _, cache = update(graph, updater)
    assert cache.extended == extended
    grads, d_states = update_backward(cache, grad_out)
    want, want_states = loop_update_backward(cache, grad_out)
    assert np.array_equal(d_states, want_states, equal_nan=True)
    assert len(grads) == len(want) == len(updater.stacks)
    for got_layers, ref_layers in zip(grads, want):
        for (dw, db), (rw, rb) in zip(got_layers, ref_layers, strict=True):
            assert np.array_equal(dw, rw, equal_nan=True)
            assert np.array_equal(db, rb, equal_nan=True)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 30),
    state_dim=st.integers(1, 4),
    radius=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    extended=st.booleans(),
    rounded=st.booleans(),
    seed=SEEDS,
)
def test_backward_matches_the_add_at_loop_bit_for_bit(
    n, state_dim, radius, extended, rounded, seed
):
    rng = np.random.default_rng(seed)
    graph = build_graph(*integer_proposals(rng, n, state_dim), radius=radius)
    updater = seeded_updater(state_dim, seed % 1000, extended, rounded)
    # Integer upstream gradients make many partial sums cancel exactly.
    grad_out = rng.integers(-2, 3, size=(n, state_dim)).astype(float)
    if not rounded:
        grad_out += rng.normal(size=grad_out.shape)
    assert_backward_matches_loop_oracle(graph, updater, extended, grad_out)


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("poison", [np.nan, np.inf])
def test_backward_matches_the_add_at_loop_on_non_finite_weights(extended, poison):
    rng = np.random.default_rng(22)
    graph = build_graph(*integer_proposals(rng, 24, 3, spread=3), radius=2.5)
    updater = seeded_updater(3, 5, extended)
    updater.agg_stacks[0].layers[0].weight[2, -1] = poison
    updater.fus_stacks[1].layers[0].weight[0, 1] = poison
    grad_out = rng.normal(size=(24, 3))
    with np.errstate(invalid="ignore", over="ignore"):
        assert_backward_matches_loop_oracle(graph, updater, extended, grad_out)


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 12), min_size=1, max_size=3),
    state_dim=st.integers(1, 4),
    depth=st.integers(0, 3),
    extended=st.booleans(),
    rounded=st.booleans(),
    seed=SEEDS,
)
def test_skipping_the_state_gradient_keeps_every_stack_gradient(
    sizes, state_dim, depth, extended, rounded, seed
):
    rng = np.random.default_rng(seed)
    graphs = [build_graph(*integer_proposals(rng, n, state_dim), radius=2.0) for n in sizes]
    graph = join_graphs(graphs)
    updater = seeded_updater(state_dim, seed % 1000, extended, rounded, depth)
    _, cache = update(graph, updater)
    grad_out = rng.normal(size=graph.states.shape)
    want, d_states = update_backward(cache, grad_out)
    grads, skipped = update_backward(cache, grad_out, want_state_grad=False)
    assert skipped is None
    assert d_states.shape == graph.states.shape
    assert not np.shares_memory(d_states, grad_out)
    assert len(grads) == len(want) == len(updater.stacks)
    for got_layers, ref_layers in zip(grads, want):
        for (dw, db), (rw, rb) in zip(got_layers, ref_layers, strict=True):
            assert np.array_equal(dw, rw) and np.array_equal(db, rb)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    state_dim=st.integers(1, 4),
    depth=st.integers(1, 3),
    extended=st.booleans(),
    seed=SEEDS,
)
def test_skipping_the_state_gradient_skips_only_the_unread_input_gradients(
    n, state_dim, depth, extended, seed
):
    # Without the state gradient, the first iteration's alignment stack
    # (extended) or aggregation stack (vanilla) feeds only the skipped
    # state scatter, so it skips its own input gradient; every other
    # backward kernel still returns one.
    rng = np.random.default_rng(seed)
    graph = build_graph(*integer_proposals(rng, n, state_dim), radius=2.0)
    updater = seeded_updater(state_dim, seed % 1000, extended, depth=depth)
    _, cache = update(graph, updater)
    calls = []
    for stack in updater.stacks:
        inner = stack._backward

        def spied(*args, _stack=stack, _inner=inner):
            result = _inner(*args)
            calls.append((_stack, result[1]))
            return result

        stack._backward = spied
    update_backward(cache, rng.normal(size=graph.states.shape), want_state_grad=False)
    skipped = [stack for stack, d_input in calls if d_input is None]
    assert skipped == [updater.align_stacks[0] if extended else updater.agg_stacks[0]]
    assert len(calls) == (3 if extended else 2) * depth


def _spy(stack, method, record, which):
    """Record ``which`` ("args" or "result") of every call to the stack's
    ``method``, in call order."""
    inner = getattr(stack, method)

    def spied(*args):
        result = inner(*args)
        record.append(args if which == "args" else result)
        return result

    setattr(stack, method, spied)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 25),
    state_dim=st.integers(1, 4),
    extended=st.booleans(),
    poison=st.sampled_from([None, np.nan, np.inf]),
    seed=SEEDS,
)
def test_flat_pool_gather_and_scatter_equal_the_two_index_forms(
    n, state_dim, extended, poison, seed
):
    # The pool reads and writes its winners through flat indices
    # row * D + channel; each must give what indexing by (row, channel)
    # gives at the loop oracle's winning rows.  A NaN or infinite weight
    # puts NaN or infinities into the second iteration's pool inputs.
    rng = np.random.default_rng(seed)
    graph = build_graph(*integer_proposals(rng, n, state_dim), radius=2.0)
    updater = seeded_updater(state_dim, seed % 1000, extended)
    if poison is not None:
        updater.agg_stacks[1].layers[0].weight[2, -1] = poison
    d_pooled, d_pool_in = [], []
    for k in range(updater.depth):
        _spy(updater.fus_stacks[k], "_backward", d_pooled, "result")
        _spy(updater.agg_stacks[k], "_backward", d_pool_in, "args")
    with np.errstate(invalid="ignore", over="ignore"):
        _, cache = update(graph, updater)
        _, want_rows = loop_update_forward(graph, updater, extended)
        update_backward(cache, rng.normal(size=graph.states.shape))
    # The backward runs the iterations last to first.
    d_pooled, d_pool_in = d_pooled[::-1], d_pool_in[::-1]
    for k, (it, rows) in enumerate(zip(cache.iterations, want_rows, strict=True)):
        channels = np.arange(rows.shape[1])
        assert np.array_equal(it.argmax_flat, rows * rows.shape[1] + channels)
        pooled = it.fus_cache[0][0]  # the fusion stack's input
        assert np.array_equal(pooled, it.pool_inputs[rows, channels], equal_nan=True)
        want = np.zeros(it.pool_inputs.shape)
        want[rows, channels] = d_pooled[k][1]
        assert np.array_equal(d_pool_in[k][1], want, equal_nan=True)
    if poison is not None:
        assert not np.isfinite(cache.iterations[1].pool_inputs).all()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 25),
    shift=st.tuples(*[st.integers(-500, 500)] * 3),
    seed=SEEDS,
)
def test_extended_refiner_is_translation_invariant_on_a_lattice(n, shift, seed):
    rng = np.random.default_rng(seed)
    boxes, _ = integer_proposals(rng, n, 4)
    states = rng.normal(size=(n, 4))
    base = build_graph(boxes, states, radius=2.5)
    moved_boxes = [Box3D(tuple(np.add(b.center, shift)), b.dims, b.yaw) for b in boxes]
    moved = build_graph(BoxArray.of(moved_boxes), states, radius=2.5)
    updater = GraphUpdater.seeded(4, 8, 3, seed % 1000, extended=True)
    assert moved.adjacency == base.adjacency
    assert np.array_equal(update(moved, updater)[0], update(base, updater)[0])


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 12), min_size=1, max_size=4),
    state_dim=st.integers(1, 4),
    extended=st.booleans(),
    rounded=st.booleans(),
    seed=SEEDS,
)
def test_joined_graph_is_the_disjoint_union(sizes, state_dim, extended, rounded, seed):
    rng = np.random.default_rng(seed)
    graphs = [build_graph(*integer_proposals(rng, n, state_dim), radius=2.0) for n in sizes]
    joined = join_graphs(graphs)
    first_row = np.cumsum([0] + sizes)
    first_edge = np.cumsum([0] + [len(g.indices) for g in graphs])
    owner = np.repeat(np.arange(len(graphs)), sizes)
    assert len(joined) == first_row[-1]
    assert np.array_equal(owner[joined.row_node], owner[joined.indices])  # no edge crosses
    updater = seeded_updater(state_dim, seed % 1000, extended, rounded)
    refined, _ = update(joined, updater)
    for k, graph in enumerate(graphs):
        rows = slice(first_row[k], first_row[k + 1])
        edges = slice(first_edge[k], first_edge[k + 1])
        assert np.array_equal(joined.offsets[rows.start : rows.stop + 1] - edges.start, graph.offsets)
        assert np.array_equal(joined.indices[edges] - rows.start, graph.indices)
        assert np.array_equal(joined.states[rows], graph.states)
        assert np.array_equal(joined.boxes.params[rows], graph.boxes.params)
        want, _ = update(graph, updater)
        if len(graph) == 1:
            # NumPy hands a one-row product to a matrix-vector kernel, which
            # may round the last bit unlike the union's matrix product.
            np.testing.assert_allclose(refined[rows], want, rtol=1e-12, atol=1e-12)
        else:
            assert np.array_equal(refined[rows], want)


def assert_layout_is_derived(graph):
    """The graph's derived layout equals a recomputation from its CSR
    arrays and coordinates, entry by entry."""
    n, f = graph.states.shape
    degree = [int(b - a) for a, b in zip(graph.offsets[:-1], graph.offsets[1:])]
    width = max(degree, default=0)
    assert graph.width == width
    slots, edge_vec, neigh_keys, align_keys = [], [], list(range(n * f)), []
    for i in range(n):
        for slot in range(degree[i]):
            e = int(graph.offsets[i]) + slot
            j = int(graph.indices[e])
            assert graph.row_node[e] == i
            slots.append(slot)
            edge_vec.append(graph.coords[i] - graph.coords[j])
            neigh_keys.extend(j * f + c for c in range(f))
            align_keys.extend(i * 3 + c for c in range(3))
    assert graph.slot.tolist() == slots
    assert np.array_equal(graph.edge_vec, np.reshape(edge_vec, (-1, 3)))
    assert graph.neigh_keys.tolist() == neigh_keys
    assert graph.align_keys.tolist() == align_keys
    for name in ("slot", "edge_vec", "neigh_keys", "align_keys"):
        assert not getattr(graph, name).flags.writeable


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 12), min_size=1, max_size=3),
    state_dim=st.integers(0, 3),
    radius=st.sampled_from([1.0, 2.0, 3.0]),
    seed=SEEDS,
)
def test_derived_layout_matches_a_recomputation(sizes, state_dim, radius, seed):
    rng = np.random.default_rng(seed)
    graphs = [build_graph(*integer_proposals(rng, n, state_dim), radius=radius) for n in sizes]
    for graph in graphs + [join_graphs(graphs)]:
        assert_layout_is_derived(graph)
        assert_layout_is_derived(graph.with_states(rng.normal(size=graph.states.shape)))


def test_joining_one_graph_returns_it_and_radii_must_agree():
    rng = np.random.default_rng(3)
    graph = build_graph(*integer_proposals(rng, 5, 2), radius=2.0)
    assert join_graphs([graph]) is graph
    other = build_graph(*integer_proposals(rng, 4, 2), radius=1.0)
    for bad in ([graph, other], []):
        with pytest.raises(ValueError, match="one or more graphs of one radius"):
            join_graphs(bad)
