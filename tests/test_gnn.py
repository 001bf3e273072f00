"""Radius graphs over proposals and the iterative state refinement."""

import copy
import dataclasses
import re

import numpy as np
import pytest

from graphdet.gnn import (
    GraphUpdater,
    NeighborhoodGraph,
    build_graph,
    header_backward,
    header_forward,
    header_stacks,
    refine_proposals,
    update,
    update_backward,
)
from graphdet.nnet import DenseLayer, DenseStack, bind_flat_params, flat_views
from graphdet.scene import Box3D, BoxArray

from oracles import brute_radius_graph


def make_proposals(centres, states):
    """Car-sized boxes at ``centres``, and their states: build_graph's arguments."""
    return BoxArray.of([Box3D(tuple(c), (3.9, 1.6, 1.56), 0.0) for c in centres]), states


EMPTY = BoxArray.of([])


def line_proposals(n, spacing, state_dim, seed=0):
    rng = np.random.default_rng(seed)
    centres = [(i * spacing, 0.0, 0.0) for i in range(n)]
    return make_proposals(centres, rng.normal(size=(n, state_dim)))


# ---------------------------------------------------------------------------
# graph construction


def test_single_node_gets_a_self_loop():
    graph = build_graph(*line_proposals(1, 1.0, 4), radius=2.0)
    assert graph.adjacency == ((0,),)


def test_two_nodes_connect_only_inside_radius():
    proposals = line_proposals(2, 1.0, 4)
    near = build_graph(*proposals, radius=2.0)
    assert near.adjacency == ((0, 1), (0, 1))
    far = build_graph(*proposals, radius=0.5)
    assert far.adjacency == ((0,), (1,))


def test_boundary_distance_is_excluded():
    # centres exactly one radius apart: strictly-closer means no edge
    graph = build_graph(*line_proposals(2, 1.0, 4), radius=1.0)
    assert graph.adjacency == ((0,), (1,))


def test_build_graph_validates_radius():
    with pytest.raises(ValueError, match="radius"):
        build_graph(*line_proposals(2, 1.0, 4), radius=0.0)
    with pytest.raises(ValueError, match="radius"):
        build_graph(*line_proposals(2, 1.0, 4), radius=float("nan"))


def test_build_graph_rejects_non_finite_states():
    boxes, states = line_proposals(3, 1.0, 4)
    states[1, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        build_graph(boxes, states, radius=2.0)
    states[1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        build_graph(boxes, states, radius=2.0)


def test_empty_graph():
    graph = build_graph(EMPTY, np.empty((0, 4)), radius=2.0)
    assert len(graph) == 0
    updater = GraphUpdater.seeded(4, 8, 2, seed=0)
    assert update(graph, updater)[0].size == 0
    cls = DenseStack.seeded((4, 1), 0)
    reg = DenseStack.seeded((4, 7), 1)
    assert len(refine_proposals(graph, np.empty((0, 4)), cls, reg)) == 0


def test_build_graph_matches_all_pairs_oracle():
    rng = np.random.default_rng(10)
    for trial in range(10):
        n = int(rng.integers(2, 60))
        centres = rng.uniform(-8.0, 8.0, size=(n, 3))
        radius = float(rng.uniform(0.5, 6.0))
        proposals = make_proposals(centres, rng.normal(size=(n, 3)))
        graph = build_graph(*proposals, radius=radius)
        assert list(graph.adjacency) == brute_radius_graph(centres, radius)


def csr_graph(adjacency, states=None, boxes=None):
    """A graph over ``len(adjacency)`` nodes from per-node neighbour lists."""
    n = len(adjacency)
    offsets = np.cumsum([0] + [len(a) for a in adjacency])
    indices = [j for a in adjacency for j in a]
    if states is None:
        states = np.zeros((n, 2))
    if boxes is None:
        boxes = unit_boxes(n)
    return NeighborhoodGraph(boxes, states, offsets, indices, 1.0)


def unit_boxes(n):
    return BoxArray.of([Box3D((float(i), 0.0, 0.0), (1.0, 1.0, 1.0), 0.0) for i in range(n)])


def test_graph_validation():
    assert csr_graph(((0, 1), (0, 1))).adjacency == ((0, 1), (0, 1))
    with pytest.raises(ValueError, match="self-loop"):
        csr_graph(((),))
    with pytest.raises(ValueError, match="symmetric"):
        csr_graph(((0, 1), (1,)))
    with pytest.raises(ValueError, match="references"):
        csr_graph(((0, 5),))
    with pytest.raises(ValueError, match="adjacency list per node"):
        NeighborhoodGraph(unit_boxes(2), np.zeros((2, 2)), [0, 1], [0], 1.0)
    with pytest.raises(ValueError, match="adjacency list per node"):
        # first and last offsets are right, but the middle one goes backwards
        NeighborhoodGraph(unit_boxes(3), np.zeros((3, 2)), [0, 3, 1, 3], [0, 1, 2], 1.0)
    with pytest.raises(ValueError, match="one width"):
        csr_graph(((0,), (1,)), states=np.zeros(2))
    with pytest.raises(ValueError, match="one width"):
        build_graph(*make_proposals([(0, 0, 0), (5, 0, 0)], [np.zeros(2), np.zeros(5)]))
    with pytest.raises(ValueError, match="ascending"):
        csr_graph(((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="finite"):
        csr_graph(((0,),), states=np.full((1, 2), np.nan))


def test_graph_arrays_are_read_only_copies():
    states = np.zeros((2, 2))
    graph = csr_graph(((0, 1), (0, 1)), states=states)
    states[0, 0] = 1.0
    assert graph.states[0, 0] == 0.0
    with pytest.raises(ValueError):
        graph.indices[0] = 1
    assert graph.row_node.tolist() == [0, 0, 1, 1]
    with pytest.raises(ValueError):
        graph.row_node[0] = 1


def test_with_states_equals_a_fresh_build_field_for_field():
    boxes, states = line_proposals(6, 1.5, 3, seed=4)
    graph = build_graph(boxes, states)
    new_states = np.random.default_rng(5).normal(size=states.shape)
    swapped = graph.with_states(new_states)
    fresh = build_graph(boxes, new_states)
    for f in dataclasses.fields(NeighborhoodGraph):
        got, want = getattr(swapped, f.name), getattr(fresh, f.name)
        if f.name == "boxes":
            assert np.array_equal(got.params, want.params)
        elif isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), f.name
            assert not got.flags.writeable, f.name
        else:
            assert got == want, f.name
    # The validated adjacency and its derived layout are shared, the
    # states copied; the original graph keeps its own states.
    for name in ("offsets", "indices", "row_node", "slot", "edge_vec", "scatter_keys"):
        assert getattr(swapped, name) is getattr(graph, name)
    new_states[0, 0] = 99.0
    assert swapped.states[0, 0] != 99.0
    assert np.array_equal(graph.states, states)
    updater = GraphUpdater.seeded(3, 8, 2, seed=1)
    assert np.array_equal(update(swapped, updater)[0], update(fresh, updater)[0])


def test_with_states_checks_the_new_states():
    graph = build_graph(*line_proposals(3, 1.0, 2))
    with pytest.raises(ValueError, match="one width"):
        graph.with_states([np.zeros(2), np.zeros(3), np.zeros(2)])
    with pytest.raises(ValueError, match="one width"):
        graph.with_states(np.zeros(6))
    with pytest.raises(ValueError, match="one proposal box per node"):
        graph.with_states(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="finite"):
        graph.with_states(np.full((3, 2), np.inf))
    with pytest.raises(ValueError, match="keeps the state width 2"):
        graph.with_states(np.zeros((3, 5)))
    empty = build_graph(EMPTY, np.empty((0, 4)))
    assert empty.with_states(np.empty((0, 4))).states.shape == (0, 4)


# ---------------------------------------------------------------------------
# refinement updates


def identity_stack(dim):
    return DenseStack([DenseLayer(np.eye(dim), np.zeros(dim), "none")])


def test_depth_zero_is_the_identity():
    graph = build_graph(*line_proposals(5, 1.0, 6), radius=1.5)
    for alignment in (False, True):
        updater = GraphUpdater.seeded(6, 8, 0, seed=3, alignment=alignment)
        assert np.array_equal(update(graph, updater)[0], graph.states)


@pytest.mark.parametrize("alignment", [False, True])
def test_backward_without_iterations_gives_zero_stack_gradients(alignment):
    # An empty graph runs none of its updater's two iterations; a depth-0
    # updater has no stacks at all.  Either way the gradient passes through.
    cases = [
        (
            build_graph(EMPTY, np.empty((0, 4)), radius=2.0),
            GraphUpdater.seeded(4, 8, 2, 0, alignment),
        ),
        (
            build_graph(*line_proposals(5, 1.0, 6), radius=1.5),
            GraphUpdater.seeded(6, 8, 0, 3, alignment),
        ),
    ]
    for graph, updater in cases:
        refined, cache = update(graph, updater)
        grad_out = np.ones_like(refined)
        grads, d_states = update_backward(cache, grad_out)
        assert np.array_equal(d_states, grad_out)
        assert len(grads) == len(updater.stacks) == updater.depth * (3 if alignment else 2)
        for stack, layer_grads in zip(updater.stacks, grads):
            for layer, (dw, db) in zip(stack.layers, layer_grads, strict=True):
                assert dw.shape == layer.weight.shape and not dw.any()
                assert db.shape == layer.bias.shape and not db.any()
            stack.sgd_step(layer_grads, 0.1)


def test_zeroed_fusion_leaves_states_untouched():
    graph = build_graph(*line_proposals(6, 1.0, 5, seed=1), radius=1.5)
    updater = GraphUpdater.seeded(5, 8, 3, seed=4)
    bind_flat_params(updater.fus_stacks)[:] = 0.0
    assert np.array_equal(update(graph, updater)[0], graph.states)


def test_vanilla_update_hand_unrolled_on_a_path():
    """Two iterations without alignment stacks over a 3-node path, checked
    against integers: the rows keep the unaligned offsets x_i - x_j."""
    proposals = make_proposals(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)],
        [[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]],
    )
    graph = build_graph(*proposals, radius=1.5)
    assert graph.adjacency == ((0, 1), (0, 1, 2), (1, 2))
    # rows are [dx, dy, dz, s0, s1]; the fusion adds the pooled dx to s0
    weight = np.array([[1.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]])
    fuse = DenseStack([DenseLayer(weight, np.zeros(2), "relu")])
    updater = GraphUpdater(
        [identity_stack(5), identity_stack(5)], [copy.deepcopy(fuse), copy.deepcopy(fuse)]
    )
    refined, _ = update(graph, updater)
    # pooled dx per node: 0 (node 0), 1 (node 1), 1 (node 2)
    # iteration 1: pooled states [[1,2],[3,2],[3,2]] -> h = [[2,2],[4,4],[7,3]]
    # iteration 2: pooled states [[4,4],[7,4],[7,4]] -> h = [[6,6],[12,8],[15,7]]
    assert np.array_equal(refined, [[6.0, 6.0], [12.0, 8.0], [15.0, 7.0]])


def test_extended_update_hand_unrolled_two_nodes():
    proposals = make_proposals(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], [[1.0], [5.0]]
    )
    graph = build_graph(*proposals, radius=2.0)
    agg = identity_stack(4)  # rows are [dx, dy, dz, state]
    fus = DenseStack([DenseLayer(np.array([[1.0, 0.0, 0.0, 1.0]]), np.zeros(1), "relu")])
    align = DenseStack.zeros((1, 3), ["none"])  # no alignment: offsets stay x_i - x_j
    updater = GraphUpdater([agg], [fus], [align])
    refined, _ = update(graph, updater)
    # node 0 rows: [0,0,0,1], [-1,0,0,5] -> pooled [0,0,0,5] -> relu(5) = 5
    # node 1 rows: [0,0,0,5], [1,0,0,1]  -> pooled [1,0,0,5] -> relu(6) = 6
    assert np.array_equal(refined, [[6.0], [11.0]])


def test_alignment_offset_shifts_a_single_node():
    """With only a self-loop the relative offset reduces to minus the
    predicted alignment."""
    proposals = make_proposals([(0.0, 0.0, 0.0)], [[-2.0]])
    graph = build_graph(*proposals, radius=1.0)
    align = DenseStack([DenseLayer(np.array([[1.0], [2.0], [3.0]]), np.zeros(3), "none")])
    fus = DenseStack([DenseLayer(np.array([[1.0, 1.0, 1.0, 0.0]]), np.zeros(1), "relu")])
    updater = GraphUpdater([identity_stack(4)], [fus], [align])
    refined, _ = update(graph, updater)
    # dx = (-2, -4, -6); row = [2, 4, 6, -2]; fused = relu(12) = 12
    assert np.array_equal(refined, [[10.0]])


def test_updates_are_synchronous():
    """Iteration k must read only k-1 states: on a path, information moves
    one hop per iteration, never further."""
    boxes, states = line_proposals(5, 1.0, 4, seed=2)
    graph = build_graph(boxes, states, radius=1.5)
    updater = GraphUpdater.seeded(4, 8, 2, seed=5, alignment=False)
    base, _ = update(graph, updater)

    bumped = states.copy()
    bumped[4] += 10.0
    moved, _ = update(build_graph(boxes, bumped, radius=1.5), updater)
    # nodes 0 and 1 sit more than two hops from node 4: bitwise untouched
    assert np.array_equal(moved[0], base[0])
    assert np.array_equal(moved[1], base[1])
    assert not np.array_equal(moved, base)


def test_extended_update_is_translation_invariant():
    # Every update reads the edges' offsets, with or without alignment.
    rng = np.random.default_rng(6)
    n = 12
    lattice = rng.integers(-40, 40, size=(n, 3)) * 0.25
    states = rng.normal(size=(n, 5))
    base_graph = build_graph(*make_proposals(lattice, states), radius=3.0)
    shifted = lattice + np.array([7.0, -3.0, 12.0])
    shift_graph = build_graph(*make_proposals(shifted, states), radius=3.0)
    assert base_graph.adjacency == shift_graph.adjacency
    for alignment in (False, True):
        updater = GraphUpdater.seeded(5, 8, 3, seed=7, alignment=alignment)
        assert np.array_equal(
            update(base_graph, updater)[0], update(shift_graph, updater)[0]
        )


def test_refined_states_track_node_permutation():
    rng = np.random.default_rng(8)
    n = 15
    centres = rng.uniform(-4, 4, size=(n, 3))
    states = rng.normal(size=(n, 4))
    boxes, _ = make_proposals(centres, states)
    updater = GraphUpdater.seeded(4, 8, 2, seed=9)
    base, _ = update(build_graph(boxes, states, radius=2.5), updater)
    perm = rng.permutation(n)
    out, _ = update(build_graph(boxes.take(perm), states[perm], radius=2.5), updater)
    for m, p in enumerate(perm):
        assert np.array_equal(out[m], base[p])


def test_updater_validation():
    with pytest.raises(ValueError, match="pair up"):
        GraphUpdater([DenseStack.seeded((4, 4), 0)], [])
    with pytest.raises(ValueError, match="pair with"):
        GraphUpdater(
            [DenseStack.seeded((4, 4), 0)], [DenseStack.seeded((4, 4), 1)], []
        )
    with pytest.raises(ValueError, match="non-negative"):
        GraphUpdater.seeded(4, 8, -1, seed=0)

    graph = build_graph(*line_proposals(3, 1.0, 4), radius=1.5)
    for alignment in (False, True):
        wrong_width = GraphUpdater.seeded(5, 8, 1, seed=0, alignment=alignment)
        with pytest.raises(ValueError, match="aggregation input"):
            update(graph, wrong_width)


_GRAPH = build_graph(*line_proposals(3, 1.0, 4), radius=1.5)
_AGG, _FUS = DenseStack.seeded((7, 8), 0, ["none"]), DenseStack.seeded((8, 4), 1, ["relu"])


def _header_call(width, cls_dims, reg_dims):
    """header_forward on two rows of ``width`` states and zero stacks."""
    states = np.zeros((2, width))
    return lambda: header_forward(states, DenseStack.zeros(cls_dims), DenseStack.zeros(reg_dims))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: update(_GRAPH, GraphUpdater.seeded(5, 8, 1, seed=0, alignment=False)),
            "iteration 0: aggregation input 8 != expected 7",
        ),
        (
            lambda: update(_GRAPH, GraphUpdater([_AGG], [DenseStack.seeded((6, 4), 2)])),
            "iteration 0: fusion widths 6->4 do not chain",
        ),
        (
            lambda: update(
                _GRAPH,
                GraphUpdater(
                    [DenseStack.seeded((7, 8), 0)], [_FUS], [DenseStack.seeded((4, 2), 3)]
                ),
            ),
            "iteration 0: alignment widths 4->2",
        ),
        (_header_call(4, (4, 2), (4, 7)), "classification stack must end in one unit"),
        (_header_call(4, (4, 1), (4, 6)), "regression stack must end in seven units"),
        (_header_call(5, (4, 1), (4, 7)), "input of shape (2, 5) is not (rows, stack width 4)"),
        (_header_call(4, (4, 1), (5, 7)), "input of shape (2, 4) is not (rows, stack width 5)"),
        (
            lambda: DenseStack.zeros((4, 2)).forward(np.zeros(4)),
            "input of shape (4,) is not (rows, stack width 4)",
        ),
        (
            lambda: DenseStack.zeros((4, 2)).forward(np.zeros((3, 5))),
            "input of shape (3, 5) is not (rows, stack width 4)",
        ),
    ],
    ids=[
        "update-aggregation",
        "update-fusion",
        "update-alignment",
        "header-classification-width",
        "header-regression-width",
        "header-classification-input",
        "header-regression-input",
        "stack-vector-input",
        "stack-input-width",
    ],
)
def test_checked_entry_points_raise_every_message(call, message):
    # Training checks its models once and then calls the kernels behind
    # these entry points; each entry point still runs every check itself.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_stacks_list_aggregation_then_fusion_then_alignment():
    for alignment in (False, True):
        updater = GraphUpdater.seeded(4, 8, 3, seed=0, alignment=alignment)
        want = updater.agg_stacks + updater.fus_stacks + (updater.align_stacks or [])
        assert len(updater.stacks) == len(want) == (9 if alignment else 6)
        assert all(got is stack for got, stack in zip(updater.stacks, want))


@pytest.mark.parametrize("alignment", [False, True])
@pytest.mark.parametrize("depth, n", [(0, 5), (3, 5), (3, 0)])
def test_backward_gives_one_gradient_per_stack_in_stack_order(alignment, depth, n):
    graph = build_graph(*line_proposals(n, 1.0, 4, seed=2), radius=1.5)
    updater = GraphUpdater.seeded(4, 8, depth, seed=6, alignment=alignment)
    refined, cache = update(graph, updater)
    grads, _ = update_backward(cache, np.ones_like(refined))
    assert len(grads) == len(updater.stacks)
    for stack, layer_grads in zip(updater.stacks, grads):
        for layer, (dw, db) in zip(stack.layers, layer_grads, strict=True):
            assert dw.shape == layer.weight.shape and db.shape == layer.bias.shape


@pytest.mark.parametrize("forward", ["own", "unaligned"])
@pytest.mark.parametrize("depth, n", [(0, 5), (3, 5), (3, 0)])
def test_backward_into_gradient_views_equals_the_allocating_form(forward, depth, n):
    # Every entry of the views is written, every stack with zeros when no
    # iteration runs, and the views are what it returns.  "own" is the
    # seeded updater with its alignment stacks, "unaligned" one without.
    graph = build_graph(*line_proposals(n, 1.0, 4, seed=2), radius=1.5)
    updater = GraphUpdater.seeded(4, 8, depth, seed=6, alignment=forward == "own")
    refined, cache = update(graph, updater)
    grad_out = np.random.default_rng(1).normal(size=refined.shape)
    for want_state_grad in (True, False):
        want, want_states = update_backward(cache, grad_out, want_state_grad)
        vector = np.full(sum(stack.flat_params().size for stack in updater.stacks), 7.0)
        views = flat_views(vector, updater.stacks)
        grads, d_states = update_backward(cache, grad_out, want_state_grad, out=views)
        assert len(grads) == len(views) and all(g is v for g, v in zip(grads, views))
        want_vector = [a.ravel() for stack in want for pair in stack for a in pair]
        assert np.array_equal(vector, np.concatenate([np.empty(0), *want_vector]))
        if want_state_grad:
            assert np.array_equal(d_states, want_states)
        else:
            assert d_states is want_states is None


def test_update_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    n, dim = 6, 4
    centres = rng.uniform(-3, 3, size=(n, 3))
    states = rng.normal(size=(n, dim))
    target = rng.normal(size=(n, dim))

    def loss_for(updater, state_matrix):
        graph = build_graph(*make_proposals(centres, state_matrix), radius=3.0)
        out, cache = update(graph, updater)
        return 0.5 * float(((out - target) ** 2).sum()), cache, out

    for alignment in (False, True):
        updater = GraphUpdater.seeded(dim, 6, 2, seed=12, alignment=alignment)
        _, cache, out = loss_for(updater, states)
        grads, d_states = update_backward(cache, out - target)

        # input gradient
        h = 1e-6
        for idx in np.ndindex(3, dim):
            hi, lo = states.copy(), states.copy()
            hi[idx] += h
            lo[idx] -= h
            fd = (loss_for(updater, hi)[0] - loss_for(updater, lo)[0]) / (2 * h)
            assert d_states[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)

        # a sample of parameter gradients from each stack family, moved
        # through the parameter vector the stacks are bound to
        params = bind_flat_params(updater.stacks)
        flat_grad = np.concatenate([a.ravel() for g in grads for pair in g for a in pair])
        starts = np.cumsum([0] + [stack.flat_params().size for stack in updater.stacks])
        stacks = [("agg", updater.agg_stacks[0]), ("fus", updater.fus_stacks[1])]
        if alignment:
            stacks.append(("align", updater.align_stacks[0]))
        for name, stack in stacks:
            k = updater.stacks.index(stack)
            size = starts[k + 1] - starts[k]
            for i in range(starts[k], starts[k + 1], max(1, size // 5)):
                orig = params[i]
                params[i] = orig + h
                up = loss_for(updater, states)[0]
                params[i] = orig - h
                down = loss_for(updater, states)[0]
                params[i] = orig
                fd = (up - down) / (2 * h)
                assert flat_grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7), name


# ---------------------------------------------------------------------------
# detection header


def test_header_stacks_are_zero_or_seeded():
    cls, reg = header_stacks(5, 8, None)
    assert [l.weight.shape for l in cls.layers + reg.layers] == [(1, 5), (7, 5)]
    assert not cls.flat_params().any() and not reg.flat_params().any()
    cls, reg = header_stacks(5, 8, (3, 4))
    assert [l.weight.shape for l in cls.layers] == [(8, 5), (1, 8)]
    assert [l.weight.shape for l in reg.layers] == [(8, 5), (7, 8)]
    assert np.array_equal(cls.flat_params(), DenseStack.seeded((5, 8, 1), 3).flat_params())
    assert np.array_equal(reg.flat_params(), DenseStack.seeded((5, 8, 7), 4).flat_params())


def test_header_zero_stacks_score_half_and_keep_boxes():
    dim = 5
    graph = build_graph(*line_proposals(4, 2.0, dim, seed=3), radius=3.0)
    cls = DenseStack.zeros((dim, 1))
    reg = DenseStack.zeros((dim, 7))
    scores, residuals, _ = header_forward(graph.states, cls, reg)
    assert np.array_equal(scores, np.full(4, 0.5))
    assert np.array_equal(residuals, np.zeros((4, 7)))
    refined = refine_proposals(graph, graph.states, cls, reg)
    for proposal, box in zip(graph.boxes, refined):
        assert box.center == pytest.approx(proposal.center)
        assert box.dims == pytest.approx(proposal.dims)
        assert box.yaw == pytest.approx(proposal.yaw)
        assert box.score == 0.5


def test_header_rejects_wrong_output_widths():
    with pytest.raises(ValueError, match="one unit"):
        header_forward(np.zeros((2, 4)), DenseStack.zeros((4, 2)), DenseStack.zeros((4, 7)))
    with pytest.raises(ValueError, match="seven units"):
        header_forward(np.zeros((2, 4)), DenseStack.zeros((4, 1)), DenseStack.zeros((4, 6)))


def test_header_backward_matches_finite_differences():
    rng = np.random.default_rng(16)
    states = rng.normal(size=(3, 5))
    cls = DenseStack.seeded((5, 1), 17)
    reg = DenseStack.seeded((5, 7), 18)
    a = rng.normal(size=3)
    b = rng.normal(size=(3, 7))

    def loss(z):
        scores, residuals, _ = header_forward(z, cls, reg)
        return float((scores * a).sum() + (residuals * b).sum())

    _, _, cache = header_forward(states, cls, reg)
    _, _, dz = header_backward(cache, cls, reg, a, b)
    h = 1e-6
    for idx in np.ndindex(*states.shape):
        hi, lo = states.copy(), states.copy()
        hi[idx] += h
        lo[idx] -= h
        fd = (loss(hi) - loss(lo)) / (2 * h)
        assert dz[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_refine_requires_proposal_boxes():
    # the graph refuses to exist without one proposal box per node, so
    # refine_proposals never meets a node without a box
    with pytest.raises(ValueError, match="proposal box per node"):
        csr_graph(((0,),), boxes=unit_boxes(2))
    with pytest.raises(ValueError, match="proposal box per node"):
        csr_graph(((0,),), boxes=EMPTY)
