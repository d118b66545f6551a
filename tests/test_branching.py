from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_under_python_o
from spinhom.branching import (
    ExtremalResult,
    boundary_nodes,
    branch_multiset,
    dn,
    eps_hat,
    eps_i,
    extremal,
    ladder_obstruction,
    normal_extremal,
    phi_hat,
    phi_i,
    signature,
    tilde_e,
    tilde_f,
)
from spinhom.ladders import residue
from spinhom.partitions import (
    PartitionError,
    is_odd_partition,
    is_p_strict,
    is_restricted,
    is_strict,
    p_strict_partitions_of,
    restricted_partitions_of,
    strict_partitions_of,
)


def _valid(lam, p, mode):
    return is_strict(lam) if mode == "strict" else is_p_strict(lam, p)


def _oracle_boundary(lam, i, p, mode):
    """Brute force over all joint i-node changes, rows free to move by
    up to four cells and up to two fresh rows (wider than anything the
    theory allows, so nothing is assumed)."""
    n_rows = len(lam)
    add_choices = []
    for r in range(1, n_rows + 3):
        base = lam[r - 1] if r <= n_rows else 0
        opts = [0]
        for j in range(1, 5):
            if residue(r, base + j, p) != i:
                break
            opts.append(j)
        add_choices.append(opts)
    addable = set()
    for combo in product(*add_choices):
        raw = tuple(
            (lam[r - 1] if r <= n_rows else 0) + combo[r - 1] for r in range(1, n_rows + 3)
        )
        if any(raw[k] < raw[k + 1] for k in range(len(raw) - 1)):
            continue  # not weakly decreasing with its zeros in place
        if not _valid(tuple(a for a in raw if a > 0), p, mode):
            continue
        for r, e in enumerate(combo, 1):
            base = lam[r - 1] if r <= n_rows else 0
            for j in range(1, e + 1):
                addable.add((r, base + j))
    rem_choices = []
    for r in range(1, n_rows + 1):
        base = lam[r - 1]
        opts = [0]
        for j in range(1, 5):
            c = base - j + 1
            if c < 1 or residue(r, c, p) != i:
                break
            opts.append(j)
        rem_choices.append(opts)
    removable = set()
    for combo in product(*rem_choices):
        raw = tuple(lam[r - 1] - combo[r - 1] for r in range(1, n_rows + 1))
        if any(a < 0 for a in raw):
            continue
        if any(raw[k] < raw[k + 1] for k in range(len(raw) - 1)):
            continue  # an emptied row above a surviving one, or disorder
        if not _valid(tuple(a for a in raw if a > 0), p, mode):
            continue
        for r, e in enumerate(combo, 1):
            for j in range(1, e + 1):
                removable.add((r, lam[r - 1] - j + 1))
    return addable, removable


@pytest.mark.parametrize("p,max_n", [(3, 9), (5, 9)])
def test_boundary_nodes_match_oracle(p, max_n):
    for n in range(max_n + 1):
        for lam in p_strict_partitions_of(n, p):
            for mode in ("strict", "pstrict"):
                if mode == "strict" and not is_strict(lam):
                    continue
                for i in range((p - 1) // 2 + 1):
                    adds, rems = boundary_nodes(lam, i, p, mode)
                    want_add, want_rem = _oracle_boundary(lam, i, p, mode)
                    assert set(adds) == want_add, (lam, i, mode)
                    assert set(rems) == want_rem, (lam, i, mode)


def _setbased_boundary(lam, i, p, mode):
    """Reference: the set-based forward/backward sweep over per-row
    amounts that boundary_nodes replaced by one carried bound per pass."""

    def pair_ok(a, b):
        return a > b or a == b and (a % p == 0 if mode == "pstrict" else a == 0)

    def levels(direction):
        bases = list(lam) + [0] if direction > 0 else list(lam)
        options = []
        for r, base in enumerate(bases, 1):
            opts = [0]
            for j in (1, 2):
                c = base + j if direction > 0 else base - j + 1
                if c < 1 or residue(r, c, p) != i:
                    break
                opts.append(direction * j)
            options.append(opts)
        m = len(bases)
        forward = [set(options[0])] if m else []
        for r in range(1, m):
            forward.append(
                {e for e in options[r] if any(pair_ok(bases[r - 1] + f, bases[r] + e) for f in forward[r - 1])}
            )
        backward = [set() for _ in range(m)]
        if m:
            backward[-1] = set(options[-1])
        for r in range(m - 2, -1, -1):
            backward[r] = {
                e for e in options[r] if any(pair_ok(bases[r] + e, bases[r + 1] + b) for b in backward[r + 1])
            }
        return [(base, forward[r] & backward[r]) for r, base in enumerate(bases)]

    adds = [(r, base + j) for r, (base, lv) in enumerate(levels(+1), 1) for j in range(1, max(lv) + 1)]
    rems = [(r, base - j + 1) for r, (base, lv) in enumerate(levels(-1), 1) for j in range(1, 1 - min(lv))]
    return tuple(sorted(adds, key=lambda rc: rc[1])), tuple(sorted(rems, key=lambda rc: rc[1]))


@pytest.mark.parametrize("p,max_n", [(3, 24), (5, 18), (7, 14)])
def test_boundary_nodes_match_setbased_sweep(p, max_n):
    for n in range(max_n + 1):
        for lam in p_strict_partitions_of(n, p):
            for mode in ("strict", "pstrict"):
                if mode == "strict" and not is_strict(lam):
                    continue
                for i in range((p - 1) // 2 + 1):
                    got = boundary_nodes.__wrapped__(lam, i, p, mode)
                    assert got == _setbased_boundary(lam, i, p, mode), (lam, i, mode)


def test_boundary_examples():
    adds, rems = boundary_nodes((5, 4, 3, 2, 1), 0, 3, "pstrict")
    assert set(adds) == {(1, 6), (1, 7), (4, 3)}
    assert set(rems) == {(2, 4), (5, 1)}
    adds, rems = boundary_nodes((9, 5, 4, 2), 0, 3, "strict")
    assert len(adds) == 5 and len(rems) == 2
    adds, rems = boundary_nodes((), 0, 3, "pstrict")
    assert adds == ((1, 1),) and rems == ()
    adds, rems = boundary_nodes((), 1, 3, "pstrict")
    assert adds == () and rems == ()



def test_a_large_p_costs_no_more_memory_than_the_partition():
    import tracemalloc

    p = 1000003
    boundary_nodes.cache_clear()
    tracemalloc.start()
    try:
        got = boundary_nodes((5, 4), 0, p, "strict")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert got == (((3, 1),), ())

@pytest.mark.parametrize("p", [3, 5])
def test_boundary_nodes_memo_is_transparent(p):
    # cold (cleared memo), warm (the same call again) and unmemoised agree
    for n in range(15):
        for lam in p_strict_partitions_of(n, p):
            for mode in ("strict", "pstrict"):
                if mode == "strict" and not is_strict(lam):
                    continue
                for i in range((p - 1) // 2 + 1):
                    boundary_nodes.cache_clear()
                    cold = boundary_nodes(lam, i, p, mode)
                    warm = boundary_nodes(lam, i, p, mode)
                    assert warm is cold and boundary_nodes.cache_info().hits == 1
                    assert cold == boundary_nodes.__wrapped__(lam, i, p, mode), (lam, i, mode)
                    assert all(isinstance(nodes, tuple) for nodes in cold)


@pytest.mark.parametrize("p", [3, 5])
def test_signature_memo_is_transparent(p):
    # cold (cleared memo), warm (the same call again) and unmemoised agree
    for n in range(15):
        for mu in p_strict_partitions_of(n, p):
            if not is_restricted(mu, p):
                continue
            for i in range((p - 1) // 2 + 1):
                signature.cache_clear()
                cold = signature(mu, i, p)
                warm = signature(mu, i, p)
                assert warm is cold and signature.cache_info().hits == 1
                assert cold == signature.__wrapped__(mu, i, p), (mu, i)


def test_signature_never_stores_a_failure():
    signature.cache_clear()
    for _ in range(2):
        with pytest.raises(PartitionError):
            signature((5,), 0, 3)  # 3-strict but not restricted
        with pytest.raises(PartitionError):
            signature((2, 2), 0, 3)  # not 3-strict
        with pytest.raises(PartitionError):
            signature((2, 1), 2, 3)  # residue out of range
    assert signature.cache_info().currsize == 0


@pytest.mark.parametrize("i", [-1, 2, 9])
def test_branch_multiset_rejects_residue_out_of_range(i):
    # the same range check as boundary_nodes, in both directions
    for direction in ("down", "up"):
        with pytest.raises(PartitionError, match=rf"^residue {i} out of range for p=3$"):
            branch_multiset((5, 4), i, 3, direction)
        with pytest.raises(PartitionError, match=rf"^residue {i} out of range for p=3$"):
            extremal((5, 4), i, 3, direction)
    assert branch_multiset((3,), 2, 5, "down") == [((2,), 1)]  # in range at p = 5


def test_boundary_nodes_never_stores_a_failure():
    boundary_nodes.cache_clear()
    for _ in range(2):
        with pytest.raises(PartitionError):
            boundary_nodes((2, 2), 0, 3, "pstrict")
        with pytest.raises(PartitionError):
            boundary_nodes((3, 3), 0, 3, "strict")
        with pytest.raises(PartitionError):
            boundary_nodes((2, 1), 2, 3, "pstrict")
    assert boundary_nodes.cache_info().currsize == 0


@pytest.mark.parametrize("op,mu", [(tilde_e, (1,)), (tilde_f, ())])
def test_output_guards_raise_runtime_error(monkeypatch, op, mu):
    # the input passes the restricted check, the output is made to fail it
    import spinhom.branching as branching

    monkeypatch.setattr(branching, "is_restricted", lambda lam, p: lam == mu)
    with pytest.raises(RuntimeError, match="not restricted 3-strict"):
        op(mu, 0, 3)


def test_boundary_column_guard_raises_runtime_error(monkeypatch):
    # passes forced to put an addable node at (2, 2) and a removable one at (1, 2) of (2, 1)
    import spinhom.branching as branching

    monkeypatch.setattr(branching, "_boundary_pass", lambda lam, i, p, mode, direction: [(2, 2)] if direction > 0 else [(1, 2)])
    boundary_nodes.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=r"boundary 0-nodes of \(2, 1\) share a column \(p=3, mode=strict\)"):
            boundary_nodes((2, 1), 0, 3, "strict")
    finally:
        boundary_nodes.cache_clear()


@pytest.mark.parametrize("direction", [+1, -1])
def test_boundary_order_guard_raises_runtime_error(monkeypatch, direction):
    # (5, 4, 3, 2, 1) has three addable and two removable 0-nodes at p = 3;
    # one pass is made to list its nodes by descending column
    import spinhom.branching as branching

    real = branching._boundary_pass

    def reversed_pass(lam, i, p, mode, d):
        nodes = real(lam, i, p, mode, d)
        return nodes[::-1] if d == direction else nodes

    monkeypatch.setattr(branching, "_boundary_pass", reversed_pass)
    boundary_nodes.cache_clear()
    try:
        message = r"boundary 0-nodes of \(5, 4, 3, 2, 1\) are not in column order \(p=3, mode=pstrict\)"
        with pytest.raises(RuntimeError, match=message):
            boundary_nodes((5, 4, 3, 2, 1), 0, 3, "pstrict")
        # two nodes of one list in one column are out of order too
        monkeypatch.setattr(branching, "_boundary_pass", lambda lam, i, p, mode, d: [(1, 5), (2, 5)] if d == direction else [])
        with pytest.raises(RuntimeError, match=message):
            boundary_nodes((5, 4, 3, 2, 1), 0, 3, "pstrict")
        assert boundary_nodes.cache_info().currsize == 0
    finally:
        boundary_nodes.cache_clear()


# the corruptions of the two boundary guard tests above, for a -O interpreter
_BOUNDARY_CORRUPTED_UNDER_O = """
from spinhom import branching
def show(lam, mode):
    branching.boundary_nodes.cache_clear()
    try:
        print(branching.boundary_nodes(lam, 0, 3, mode))
    except RuntimeError as exc:
        print(type(exc).__name__, exc)
real = branching._boundary_pass
branching._boundary_pass = lambda lam, i, p, mode, d: real(lam, i, p, mode, d)[::-1]
show((5, 4, 3, 2, 1), "pstrict")
branching._boundary_pass = lambda lam, i, p, mode, d: [(2, 2)] if d > 0 else [(1, 2)]
show((2, 1), "strict")
"""


def test_boundary_guards_fire_under_python_o():
    # the guards are raises, not asserts, so -O keeps them
    proc = run_under_python_o(_BOUNDARY_CORRUPTED_UNDER_O)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "RuntimeError boundary 0-nodes of (5, 4, 3, 2, 1) are not in column order (p=3, mode=pstrict)",
        "RuntimeError boundary 0-nodes of (2, 1) share a column (p=3, mode=strict)",
    ]


def test_signature_example():
    sig = signature((5, 4, 3, 2, 1), 0, 3)
    assert sig.raw == "-+-++"
    assert sig.reduced == "-++"
    assert sig.normals == ((5, 1),)
    assert sig.conormals == ((1, 6), (1, 7))
    assert (sig.eps, sig.phi) == (1, 2)
    assert signature((), 0, 3).raw == "+"


def test_tilde_examples():
    assert tilde_e((5, 4, 3, 2, 1), 0, 3) == (5, 4, 3, 2)
    assert tilde_f((5, 4, 3, 2, 1), 0, 3) == (6, 4, 3, 2, 1)
    with pytest.raises(PartitionError):
        tilde_e((2, 1), 1, 3)  # no normal 1-node: (2,2) is not removable


@st.composite
def _restricted(draw, p, max_n=60):
    """A restricted p-strict partition of at most max_n, built upwards from its gaps."""
    parts: list[int] = []
    for gap in draw(st.lists(st.integers(0, p), max_size=14)):
        a = (parts[-1] if parts else 0) + gap
        if a == 0 or sum(parts) + a > max_n:
            continue
        if gap == 0 and a % p or gap == p and a % p == 0:
            continue  # a repeat needs a multiple of p; a gap of p must not end on one
        parts.append(a)
    return tuple(reversed(parts))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((3, 5)).flatmap(lambda p: st.tuples(st.just(p), _restricted(p))))
def test_tilde_f_inverts_tilde_e_where_defined(case):
    p, mu = case
    assert is_restricted(mu, p)
    for i in range((p - 1) // 2 + 1):
        if eps_i(mu, i, p):
            assert tilde_f(tilde_e(mu, i, p), i, p) == mu, (mu, i)


def test_extremal_examples():
    lam = (9, 5, 4, 2)
    assert extremal(lam, 0, 3, "down") == ExtremalResult((8, 5, 3, 2), 2)
    assert extremal(lam, 0, 3, "up") == ExtremalResult((10, 7, 4, 3, 1), 5)
    assert eps_hat(lam, 0, 3) == 2 and phi_hat(lam, 0, 3) == 5


def test_normal_extremal():
    assert normal_extremal((5, 4, 3, 2, 1), 0, 3, "down") == (5, 4, 3, 2)
    assert normal_extremal((5, 4, 3, 2, 1), 0, 3, "up") == (7, 4, 3, 2, 1)
    # no normal 1-node on (4, 1): zero iterations allowed
    assert eps_i((4, 1), 1, 3) == 0
    assert normal_extremal((4, 1), 1, 3, "down") == (4, 1)


def _iterated_normal_extremal(mu, i, p, direction):
    """Reference: tilde_e / tilde_f applied one node at a time, a fresh
    signature at every step."""
    out = mu
    if direction == "down":
        for _ in range(eps_i(mu, i, p)):
            out = tilde_e(out, i, p)
    else:
        for _ in range(phi_i(mu, i, p)):
            out = tilde_f(out, i, p)
    return out


@pytest.mark.parametrize("p,max_n", [(3, 36), (5, 28), (7, 22)])
def test_normal_extremal_matches_iterated_tilde(p, max_n):
    for n in range(max_n + 1):
        for mu in restricted_partitions_of(n, p):
            for i in range((p - 1) // 2 + 1):
                for direction in ("down", "up"):
                    want = _iterated_normal_extremal(mu, i, p, direction)
                    assert normal_extremal(mu, i, p, direction) == want, (mu, i, direction)


def test_normal_extremal_reads_one_signature():
    assert eps_i((4, 1), 0, 3) == 3
    signature.cache_clear()
    assert normal_extremal((4, 1), 0, 3, "down") == (2,)
    assert signature.cache_info().misses == 1


def test_branch_multiset():
    assert branch_multiset((2, 1), 0, 3, "down") == [((2,), 1)]
    assert branch_multiset((), 0, 3, "up") == [((1,), 1)]
    up = dict(branch_multiset((6,), 0, 3, "up"))
    assert up == {(7,): 2, (6, 1): 1}
    # coefficient 2 exactly on parity flips odd -> even
    for n in range(1, 13):
        for lam in strict_partitions_of(n):
            for i in (0, 1):
                for direction in ("down", "up"):
                    for mu, coeff in branch_multiset(lam, i, 3, direction):
                        flip = is_odd_partition(lam) and not is_odd_partition(mu)
                        assert coeff == (2 if flip else 1)
                        assert abs(sum(mu) - n) == 1


def test_branch_multiset_dimension_identity():
    # restriction preserves dimension, so the weighted neighbour sums
    # must reproduce the bar-length dimension exactly; this pins the
    # doubled coefficient to precisely the odd-to-even moves
    from spinhom.dimensions import spin_dim

    for p in (3, 5):
        for n in range(1, 13):
            for lam in strict_partitions_of(n):
                total = 0
                for i in range((p - 1) // 2 + 1):
                    for mu, coeff in branch_multiset(lam, i, p, "down"):
                        total += coeff * spin_dim(mu).dim
                assert total == spin_dim(lam).dim, (p, lam)


def test_branch_multiset_covers_all_single_moves():
    for n in range(1, 12):
        for lam in strict_partitions_of(n):
            downs = {mu for i in (0, 1) for mu, _ in branch_multiset(lam, i, 3, "down")}
            want = set()
            for r in range(len(lam)):
                rows = list(lam)
                rows[r] -= 1
                mu = tuple(a for a in rows if a > 0)
                if is_strict(mu) and sum(mu) == n - 1 and len(mu) in (len(lam) - 1, len(lam)):
                    if sorted(rows, reverse=True) == rows:
                        want.add(mu)
            assert downs == want, lam


def test_ladder_obstruction_case_witness():
    # adding all addable 1-nodes to (12,8,7,4,3,1) leaves removable
    # 0-nodes in ladder 8 strictly below addable ones in ladder 12
    lam = (12, 8, 7, 4, 3, 1)
    up = extremal(lam, 1, 3, "up").result
    assert up == (12, 8, 7, 5, 3, 2)
    assert ladder_obstruction(up, 0, 3)
    assert dn(up, 0, 3)


def test_ladder_obstruction_and_dn():
    assert not ladder_obstruction((6,), 0, 3)
