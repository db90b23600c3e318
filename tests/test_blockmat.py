import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_random_matrix, named_poset, random_poset, structured_random_matrix
from posetsys import _linalg as la
from posetsys.blockmat import (
    BlockMatrix,
    Partition,
    block_identity,
    compress,
    compressed_product,
    embed,
    is_incident,
    incidence_violations,
    project,
    structured_inverse,
    structured_multiply,
)
from posetsys.errors import (
    DownSetNotContained,
    IncompatibleShapes,
    PartitionMismatch,
    ShapeMismatch,
    SingularMatrix,
)
from posetsys.poset import build_poset, derived_set


def test_partition_basics():
    part = Partition((2, 0, 3))
    assert part.total == 5
    assert part.block_range(3) == range(2, 5)
    assert part.restrict({1, 3}) == Partition((2, 0, 3))
    assert part.restrict({2}) == Partition((0, 0, 0))
    with pytest.raises(PartitionMismatch):
        Partition((1, -1))


def test_partition_sizes_must_be_integers():
    for bad in ([1.7, True], ["2"], [True], [1.0], [None]):
        with pytest.raises(PartitionMismatch):
            Partition(bad)
    sizes = Partition((np.int64(2), 0)).sizes
    assert sizes == (2, 0) and all(type(s) is int for s in sizes)


def test_partition_equality_and_hash_read_the_sizes_alone():
    part = Partition((2, 0, 3))
    restricted = Partition((2, 1, 3)).restrict({1, 3})
    assert restricted == part and hash(restricted) == hash(part)
    assert restricted.starts == part.starts == (0, 2, 2, 5)
    object.__setattr__(restricted, "starts", (9,))  # a stale cache must not change equality
    assert restricted == part and hash(restricted) == hash(part)
    assert Partition((2, 3)) != part and repr(part) == "Partition(sizes=(2, 0, 3))"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 4), max_size=6), st.sets(st.integers(1, 6)))
def test_partition_prefix_sums_match_summing_the_sizes(sizes, nodes):
    part = Partition(sizes)
    nodes = {j for j in nodes if j <= len(sizes)}
    assert part.total == sum(sizes)
    for j in range(1, len(sizes) + 1):
        start = sum(sizes[: j - 1])
        assert part.starts[j - 1] == start
        assert part.block_range(j) == range(start, start + sizes[j - 1])
    assert part.indices(nodes) == [
        k for j in sorted(nodes) for k in range(sum(sizes[: j - 1]), sum(sizes[:j]))
    ]
    restricted = part.restrict(nodes)
    assert restricted == Partition(s if j + 1 in nodes else 0 for j, s in enumerate(sizes))
    assert restricted.starts == Partition(restricted.sizes).starts
    assert all(type(s) is int for s in restricted.sizes)


def test_partition_indices():
    part = Partition((2, 0, 3, 1))
    assert part.indices((3, 1)) == [0, 1, 2, 3, 4]
    assert part.indices([4, 4, 2]) == [5]
    assert part.indices({2}) == []
    assert part.indices(()) == []
    assert part.indices(range(1, 5)) == list(range(part.total))
    assert Partition((0, 0)).indices((1, 2)) == []
    assert part.nonempty == (1, 3, 4) and Partition((0, 0)).nonempty == ()
    assert part.indices(part.restrict((2, 3)).nonempty) == part.indices((2, 3))
    with pytest.raises(PartitionMismatch):
        part.indices((1, 5))
    with pytest.raises(PartitionMismatch):
        part.indices((0,))


def test_block_matrix_shape_check():
    with pytest.raises(ShapeMismatch):
        BlockMatrix(la.eye(3), Partition((2,)), Partition((2,)))


def test_block_matrix_refuses_floats_and_makes_integer_arrays_exact():
    one = Partition((1,))
    with pytest.raises(TypeError, match="exact rational"):
        BlockMatrix(np.array([[0.1]]), one, one)
    with pytest.raises(TypeError, match="exact rational"):
        BlockMatrix([[0.1]], one, one)
    m = BlockMatrix(np.array([[3]]), one, one)
    assert m.entries.dtype == object and type(m.entries[0, 0]) is la.F
    empty = BlockMatrix(np.zeros((0, 2)), Partition((0,)), Partition((2,)))
    assert empty.shape == (0, 2) and empty.entries.dtype == object


def test_block_matrix_refuses_boolean_entries():
    one = Partition((1,))
    for bad in ([[True]], np.array([[True]])):
        with pytest.raises(TypeError, match="exact rational"):
            BlockMatrix(bad, one, one)


def test_block_matrix_refuses_floats_and_bools_inside_object_arrays():
    one = Partition((1,))
    for bad in (0.5, True, np.float64(1.0)):
        with pytest.raises(TypeError, match="exact rational"):
            BlockMatrix(np.array([[bad]], dtype=object), one, one)


def test_is_incident_tree_patterns():
    # mirrored-tree pattern: nonzero first row of blocks plus the diagonal
    p3 = named_poset("p3")
    sizes = (1, 1, 1)
    ok = BlockMatrix(la.fmat([[1, 2, 3], [0, 4, 0], [0, 0, 5]]), Partition(sizes), Partition(sizes))
    assert is_incident(ok, p3)
    bad = BlockMatrix(la.fmat([[1, 2, 3], [1, 4, 0], [0, 0, 5]]), Partition(sizes), Partition(sizes))
    assert incidence_violations(bad, p3) == [(2, 1)]


def test_is_incident_diamond_pattern():
    p5 = named_poset("p5")
    sizes = (1, 1, 1, 1)
    m = BlockMatrix(
        la.fmat([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [1, 1, 0, 1]]),
        Partition(sizes),
        Partition(sizes),
    )
    assert is_incident(m, p5)


def test_is_incident_trivial_cases():
    poset = named_poset("p5")
    part = Partition((1, 2, 1, 1))
    assert is_incident(BlockMatrix(la.zeros(5, 5), part, part), poset)
    assert is_incident(block_identity(part), poset)
    with pytest.raises(PartitionMismatch):
        is_incident(BlockMatrix(la.zeros(2, 2), Partition((1, 1)), Partition((1, 1))), poset)


def test_compress_column_stack():
    # blocks stay addressable by their global index after compression
    p5 = named_poset("p5")
    sizes = [1, 2, 1, 2]
    rng = __import__("random").Random(3)
    h = BlockMatrix(structured_random_matrix(rng, p5, sizes, sizes), Partition(sizes), Partition(sizes))
    down1 = derived_set(p5, {1}, "down")
    assert down1 == {1, 3, 4}
    col = compress(h, down1, {1})
    assert col.row_partition == Partition((1, 0, 1, 2))
    assert col.col_partition == Partition((1, 0, 0, 0))
    expected = np.vstack([h.block(1, 1), h.block(3, 1), h.block(4, 1)])
    assert np.array_equal(col.entries, expected)
    assert np.array_equal(col.block(3, 1), h.block(3, 1))


def test_compress_full_and_empty():
    part = Partition((2, 1))
    m = BlockMatrix(la.fmat([[1, 2, 3], [4, 5, 6], [7, 8, 9]]), part, part)
    assert compress(m, {1, 2}, {1, 2}).equals(m)
    empty = compress(m, set(), {1})
    assert empty.shape == (0, 2)
    corner = compress(m, {2}, {1})
    assert not corner.entries.flags.writeable and not np.shares_memory(corner.entries, m.entries)
    assert all(type(x) is la.F for x in corner.entries.flat)


def test_compress_composes(rng):
    poset = random_poset(rng, 4)
    sizes = [rng.randint(0, 2) for _ in range(4)]
    m = BlockMatrix(
        structured_random_matrix(rng, poset, sizes, sizes), Partition(sizes), Partition(sizes)
    )
    r1, s1 = {1, 2, 3}, {2, 3, 4}
    r2, s2 = {2, 3}, {1, 3}
    twice = compress(compress(m, r1, s1), r2, s2)
    once = compress(m, r1 & r2, s1 & s2)
    assert twice.equals(once)


def test_structured_multiply_closure_and_oracle(rng):
    for _ in range(30):
        poset = random_poset(rng, rng.randint(1, 6))
        rs = [rng.randint(0, 3) for _ in range(poset.p)]
        ns = [rng.randint(0, 3) for _ in range(poset.p)]
        ms = [rng.randint(0, 3) for _ in range(poset.p)]
        g = BlockMatrix(structured_random_matrix(rng, poset, rs, ns), Partition(rs), Partition(ns))
        h = BlockMatrix(structured_random_matrix(rng, poset, ns, ms), Partition(ns), Partition(ms))
        out = structured_multiply(g, h, poset)
        assert np.array_equal(out.entries, la.mdot(g.entries, h.entries))
        assert is_incident(out, poset)


def test_structured_multiply_identity():
    poset = named_poset("p1")
    part = Partition((1, 2, 1))
    rng = __import__("random").Random(11)
    g = BlockMatrix(structured_random_matrix(rng, poset, part.sizes, part.sizes), part, part)
    assert structured_multiply(g, block_identity(part), poset).equals(g)


def test_structured_multiply_shape_error():
    poset = named_poset("p1")
    a = block_identity(Partition((1, 1, 1)))
    b = block_identity(Partition((2, 1, 1)))
    with pytest.raises(IncompatibleShapes):
        structured_multiply(a, b, poset)


def test_structured_inverse_closure(rng):
    # the lower-left inverse block of a two-level pattern has the closed form
    # -K22^-1 K21 K11^-1; check it and the randomized closure property
    poset = named_poset("p1")
    part = Partition((1, 1, 1))
    k = BlockMatrix(la.fmat([[2, 0, 0], [3, 4, 0], [5, 0, 6]]), part, part)
    inv = structured_inverse(k, poset)
    assert inv.block(2, 1)[0, 0] == -la.F(1, 4) * 3 * la.F(1, 2)
    assert np.array_equal(la.mdot(k.entries, inv.entries), la.eye(3))

    count = 0
    while count < 15:
        poset = random_poset(rng, rng.randint(1, 5))
        sizes = [rng.randint(0, 3) for _ in range(poset.p)]
        k = BlockMatrix(
            structured_random_matrix(rng, poset, sizes, sizes), Partition(sizes), Partition(sizes)
        )
        try:
            inv = structured_inverse(k, poset)
        except SingularMatrix:
            continue
        count += 1
        assert np.array_equal(la.mdot(k.entries, inv.entries), la.eye(sum(sizes)))
        assert is_incident(inv, poset)


def test_structured_inverse_identity():
    part = Partition((2, 1))
    poset = build_poset(2, [(1, 2)])
    assert structured_inverse(block_identity(part), poset).equals(block_identity(part))


def _dense_block_select(m, row_sizes, col_sizes, rows, cols):
    """Oracle: select block rows/cols by raw index arithmetic."""
    roff = [sum(row_sizes[:k]) for k in range(len(row_sizes) + 1)]
    coff = [sum(col_sizes[:k]) for k in range(len(col_sizes) + 1)]
    ridx = [k for i in sorted(rows) for k in range(roff[i - 1], roff[i])]
    cidx = [k for j in sorted(cols) for k in range(coff[j - 1], coff[j])]
    out = la.zeros(len(ridx), len(cidx))
    for a, rr in enumerate(ridx):
        for b, cc in enumerate(cidx):
            out[a, b] = m[rr, cc]
    return out


def test_compressed_product_matches_dense_oracle(rng):
    for _ in range(25):
        poset = random_poset(rng, rng.randint(1, 6))
        p = poset.p
        rs = [rng.randint(0, 2) for _ in range(p)]
        ns = [rng.randint(0, 2) for _ in range(p)]
        ms = [rng.randint(0, 2) for _ in range(p)]
        g = dense_random_matrix(rng, sum(rs), sum(ns))
        gb = BlockMatrix(g, Partition(rs), Partition(ns))
        h = BlockMatrix(structured_random_matrix(rng, poset, ns, ms), Partition(ns), Partition(ms))
        q = {j for j in poset.nodes if rng.random() < 0.6}
        s = {j for j in poset.nodes if rng.random() < 0.6}
        down = derived_set(poset, s, "down")
        extra = down | {j for j in poset.nodes if rng.random() < 0.3}
        dense = la.mdot(g, h.entries)
        want = _dense_block_select(dense, rs, ms, q, s)
        for mid in (None, extra, set(poset.nodes)):
            got = compressed_product(gb, h, poset, q, s, through=mid)
            assert np.array_equal(got.entries, want)


def test_compressed_product_requires_down_set():
    poset = build_poset(2, [(1, 2)])
    part = Partition((1, 1))
    ident = block_identity(part)
    with pytest.raises(DownSetNotContained):
        compressed_product(ident, ident, poset, {1, 2}, {1}, through={1})


def test_compressed_product_recovers_diagonal_block():
    # multiplying the projection row of the identity into a structured matrix
    # compressed to a down-set recovers exactly the diagonal block
    poset = named_poset("p5")
    sizes = [2, 1, 1, 2]
    rng = __import__("random").Random(9)
    b = BlockMatrix(structured_random_matrix(rng, poset, sizes, sizes), Partition(sizes), Partition(sizes))
    ident = block_identity(Partition(sizes))
    for i in poset.nodes:
        down = derived_set(poset, {i}, "down")
        got = compressed_product(ident, b, poset, {i}, {i}, through=down)
        assert np.array_equal(got.entries, b.block(i, i))


def test_embed_project_identities(rng):
    part = Partition((2, 1, 0, 2))
    nodes = {1, 4}
    e = embed(part, nodes)
    p = project(part, nodes)
    assert np.array_equal(la.mdot(p.entries, e.entries), la.eye(4))
    proj = la.mdot(e.entries, p.entries)
    assert np.array_equal(la.mdot(proj, proj), proj)
    assert embed(part, {1, 2, 3, 4}).equals(block_identity(part))


def test_invariance_of_coordinate_blocks(rng):
    # structured H maps the coordinate space of a down-set into itself
    for _ in range(20):
        poset = random_poset(rng, rng.randint(1, 6))
        sizes = [rng.randint(0, 3) for _ in range(poset.p)]
        h = BlockMatrix(
            structured_random_matrix(rng, poset, sizes, sizes), Partition(sizes), Partition(sizes)
        )
        s = {j for j in poset.nodes if rng.random() < 0.5}
        down = derived_set(poset, s, "down")
        lhs = compress(h, poset.nodes, down)
        rhs = structured_multiply(
            BlockMatrix(embed(Partition(sizes), down).entries,
                        Partition(sizes), Partition(sizes).restrict(down)),
            compress(h, down, down),
            poset,
        )
        assert np.array_equal(lhs.entries, rhs.entries)
