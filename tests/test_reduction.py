import random
from collections import Counter
from math import ceil, log2

import pytest

from mfskit import (
    CnfFormula,
    LabeledDigraph,
    Limits,
    ReductionError,
    ReductionOutput,
    ReductionParams,
    WalkLengthVerdict,
    brute_force_sat,
    build_leaf_tree,
    check_maximal_walks,
    enumerate_walk_sequences,
    extract_assignment,
    make_poulidor,
    most_frequent_sequence,
    reduce_sat_to_mfs,
    satisfies,
    validate_binary_instance,
    verify_reduction,
)
from conftest import random_cnf


def role_adjacency(r):
    """Out-edges translated to role names for readable assertions."""
    return {
        r.roles[v]: {r.roles[w] for w in r.graph.out_edges[v]}
        for v in range(r.graph.vertex_count)
    }


# -- leaf tree ---------------------------------------------------------------------


def test_leaf_tree_single_clause():
    roles, out, leaves = build_leaf_tree(1)
    assert roles == ["c_1"]
    assert leaves == [0]


def test_leaf_tree_three_leaves():
    roles, out, leaves = build_leaf_tree(3)
    assert roles[0] == "root"
    assert [roles[v] for v in leaves] == ["c_1", "c_2", "c_3"]
    # depth 2, the right branch prunes to a single chain
    adj = {roles[v]: sorted(roles[w] for w in out[v]) for v in range(len(roles))}
    assert adj["root"] == ["t_1", "t_2"]
    assert adj["t_1"] == ["c_1", "c_2"]
    assert adj["t_2"] == ["c_3"]


def test_leaf_tree_power_of_two_is_complete():
    roles, out, leaves = build_leaf_tree(4)
    assert len(leaves) == 4
    assert len(roles) == 7
    assert all(len(out[v]) in (0, 2) for v in range(len(roles)))


def test_leaf_tree_needs_a_leaf():
    with pytest.raises(ValueError, match="need at least one leaf"):
        build_leaf_tree(0)


@pytest.mark.parametrize("m", range(1, 9))
def test_leaf_tree_leaves_at_equal_depth(m):
    roles, out, leaves = build_leaf_tree(m)
    depth = ceil(log2(m)) if m > 1 else 0
    dist = {0: 0}
    order = [0]
    for v in order:
        for w in out[v]:
            dist[w] = dist[v] + 1
            order.append(w)
    assert [roles[v] for v in leaves] == [f"c_{i}" for i in range(1, m + 1)]
    assert all(dist[v] == depth for v in leaves)
    assert all(len(out[v]) <= 2 for v in range(len(roles)))


def spec_successors(f):
    """Successor roles of every role, in row order and in vertex-id order,
    from the wiring rules in the reduction module docstring."""
    n, m = f.variable_count, f.clause_count
    depth = ceil(log2(m)) if m > 1 else 0
    # the complete tree of that depth keeps the nodes above the first m leaves
    names = {}
    for k in range(depth + 1):
        for i in range(2**k):
            if i * 2 ** (depth - k) < m:
                names[k, i] = (f"c_{i + 1}" if k == depth
                               else f"t_{len(names)}" if k else "root")
    succ = {name: [names[k + 1, c] for c in (2 * i, 2 * i + 1) if (k + 1, c) in names]
            for (k, i), name in names.items()}
    for j in range(2, n + 1):
        for kind in "uv":
            succ[f"{kind}_0^{j}"] = [f"u_0^{j + 1}", f"v_0^{j + 1}"] if j < n else []
    for i, clause in enumerate(f.clauses, 1):
        succ[f"c_{i}"] = [f"u_{i}^1", f"v_{i}^1"]
        for j in range(1, n):
            for kind, lit in (("u", j), ("v", -j)):
                if lit in clause:
                    row = [f"u_0^{j + 1}", f"v_0^{j + 1}"]
                elif j < n - 1:
                    row = [f"u_{i}^{j + 1}", f"v_{i}^{j + 1}"]
                else:
                    row = [f"{k}_0^{n}" for k, hook in (("u", n), ("v", -n))
                           if hook in clause]
                succ[f"{kind}_{i}^{j}"] = row
    return succ


def test_gadget_rows_follow_the_wiring_rules():
    rng = random.Random(2718)
    for _ in range(150):
        f = random_cnf(rng, max_vars=9, max_clauses=20)
        r = reduce_sat_to_mfs(f)
        expected = spec_successors(f)
        got = {role: [r.roles[w] for w in r.graph.out_edges[v]]
               for v, role in enumerate(r.roles)}
        assert len(got) == len(r.roles)
        assert list(got) == list(expected)
        assert got == expected
        assert r.graph.names == r.roles
        assert r.graph.labels == tuple(
            "0" if role.startswith("v_") else "1" for role in r.roles)


# -- the worked reduction -----------------------------------------------------------


def test_example_reduction_transcription(example_formula):
    r = reduce_sat_to_mfs(example_formula)
    assert r.params.variable_count == 3
    assert r.params.clause_count == 3
    assert r.params.tree_depth == 2
    assert r.params.target_length == 6
    assert r.graph.vertex_count == 22
    assert validate_binary_instance(r.graph).ok

    adj = role_adjacency(r)
    assert adj["root"] == {"t_1", "t_2"}
    assert adj["t_1"] == {"c_1", "c_2"}
    assert adj["t_2"] == {"c_3"}
    for i in (1, 2, 3):
        assert adj[f"c_{i}"] == {f"u_{i}^1", f"v_{i}^1"}
    # clause 1 = (x1 | -x2): the u-side jumps at 1, the v-side at 2
    assert adj["u_1^1"] == {"u_0^2", "v_0^2"}
    assert adj["v_1^1"] == {"u_1^2", "v_1^2"}
    assert adj["u_1^2"] == set()
    assert adj["v_1^2"] == {"u_0^3", "v_0^3"}
    # clause 2 = (x2 | -x3): lane passes position 1, u jumps at 2,
    # and the last-variable hook adds v_0^3 to both lane ends
    assert adj["u_2^1"] == {"u_2^2", "v_2^2"}
    assert adj["v_2^1"] == {"u_2^2", "v_2^2"}
    assert adj["u_2^2"] == {"u_0^3", "v_0^3"}
    assert adj["v_2^2"] == {"v_0^3"}
    # clause 3 = (-x1 | -x2 | -x3): v jumps at 1 and 2, hooks add v_0^3
    assert adj["u_3^1"] == {"u_3^2", "v_3^2"}
    assert adj["v_3^1"] == {"u_0^2", "v_0^2"}
    assert adj["u_3^2"] == {"v_0^3"}
    assert adj["v_3^2"] == {"u_0^3", "v_0^3"}
    # shared backbone is completely chained and ends the walks
    assert adj["u_0^2"] == {"u_0^3", "v_0^3"}
    assert adj["v_0^2"] == {"u_0^3", "v_0^3"}
    assert adj["u_0^3"] == set()
    assert adj["v_0^3"] == set()

    for v in range(r.graph.vertex_count):
        expected = "0" if r.roles[v].startswith("v_") else "1"
        assert r.graph.labels[v] == expected


def test_example_reduction_mfs(example_formula):
    r = reduce_sat_to_mfs(example_formula)
    result = most_frequent_sequence(r.graph, 0, r.params.target_length)
    assert result.count == 3
    assignment = extract_assignment(r, result.sequence)
    assert satisfies(example_formula, assignment)


def test_single_clause_two_variables():
    f = CnfFormula(2, ((1, 2),))
    r = reduce_sat_to_mfs(f)
    assert r.params.tree_depth == 0
    assert r.params.target_length == 3
    adj = role_adjacency(r)
    assert adj["c_1"] == {"u_1^1", "v_1^1"}
    assert adj["u_1^1"] == {"u_0^2", "v_0^2"}  # x1 satisfies at position 1
    assert adj["v_1^1"] == {"u_0^2"}  # x2 hook only
    verdict = check_maximal_walks(r)
    assert verdict.ok
    result = most_frequent_sequence(r.graph, 0, 3)
    assert result.count == 1
    assert satisfies(f, extract_assignment(r, result.sequence))


def test_clause_without_last_variable_dead_ends():
    f = CnfFormula(3, ((1,),))
    r = reduce_sat_to_mfs(f)
    verdict = check_maximal_walks(r)
    assert verdict.ok
    assert verdict.dead_end_walks > 0  # never-jumping lane stops a step short
    assert verdict.full_walks > 0


def test_walk_lengths_on_example(example_formula):
    r = reduce_sat_to_mfs(example_formula)
    verdict = check_maximal_walks(r)
    assert verdict.ok
    assert verdict.full_walks > 0 and verdict.dead_end_walks > 0


def maximal_walk_ends(r):
    """(edges, end role) of every maximal walk from the root, one at a time."""
    ends = Counter()
    stack = [(0, 0)]
    while stack:
        v, length = stack.pop()
        if not r.graph.out_edges[v]:
            ends[length, r.roles[v]] += 1
        stack += [(w, length + 1) for w in r.graph.out_edges[v]]
    return ends


def test_maximal_walk_counts_match_per_walk_oracle():
    rng = random.Random(4242)
    for _ in range(30):
        r = reduce_sat_to_mfs(random_cnf(rng))
        g = r.graph
        # also cut the out-edges of a few vertices, so that offenders appear
        cut = set(rng.sample(range(1, g.vertex_count), rng.randint(0, 3)))
        out = tuple(() if v in cut else row for v, row in enumerate(g.out_edges))
        broken = LabeledDigraph(g.alphabet, g.labels, out, None, g.names)
        for case in (r, ReductionOutput(broken, r.roles, r.params)):
            ends = maximal_walk_ends(case)
            full_len = r.params.variable_count + r.params.tree_depth
            tail = {f"u_0^{r.params.variable_count}", f"v_0^{r.params.variable_count}"}
            verdict = check_maximal_walks(case)
            assert verdict.full_walks == sum(
                c for (n, role), c in ends.items() if n == full_len and role in tail)
            assert verdict.dead_end_walks == sum(
                c for (n, role), c in ends.items() if n == full_len - 1 and role not in tail)
            expected = [
                f"walks of {n} edges ending at {role}: {c}"
                for (n, role), c in ends.items()
                if not (n == full_len and role in tail)
                and not (n == full_len - 1 and role not in tail)
            ]
            if verdict.full_walks == 0:
                expected.append("no full-length walk reaches the backbone tail")
            assert sorted(verdict.offenders) == sorted(expected)
            assert verdict.ok == (not expected)


def test_maximal_walks_on_a_cycle_are_bounded():
    # no walk on a Poulidor ring ever ends: the check stops one edge past
    # the full length of 2 edges and counts the 8 walks still going there
    ring = make_poulidor(3, seed=0)
    r = ReductionOutput(ring, tuple(f"p_{v}" for v in range(6)),
                        ReductionParams(2, 1, 0, 3))
    over = "walks of more than 2 edges reaching p_{}: {}".format
    assert check_maximal_walks(r) == WalkLengthVerdict(
        False, 0, 0,
        (over(3, 1), over(4, 3), over(5, 3), over(0, 1),
         "no full-length walk reaches the backbone tail"))


def test_maximal_walks_past_any_walk_limit_are_counted():
    # 2^27 walks go one edge past a full length of 26 edges on a 24-vertex
    # ring; they are counted per end vertex, not listed, and nothing refuses
    ring = make_poulidor(12, seed=0)
    r = ReductionOutput(ring, tuple(f"p_{v}" for v in range(24)),
                        ReductionParams(26, 1, 0, 27))
    verdict = check_maximal_walks(r)
    assert (verdict.ok, verdict.full_walks, verdict.dead_end_walks) == (False, 0, 0)
    *over, last = verdict.offenders
    assert last == "no full-length walk reaches the backbone tail"
    assert len(over) == ring.vertex_count
    prefix = "walks of more than 26 edges reaching p_"
    assert all(line.startswith(prefix) for line in over)
    assert sum(int(line.rpartition(": ")[2]) for line in over) == 2**27
    assert 2**27 > Limits().max_walks


def test_determinism(example_formula):
    a = reduce_sat_to_mfs(example_formula)
    b = reduce_sat_to_mfs(example_formula)
    assert a.graph == b.graph and a.roles == b.roles


def test_role_lookup(example_formula):
    r = reduce_sat_to_mfs(example_formula)
    assert r.vertex("root") == 0
    assert r.roles[r.vertex("u_2^1")] == "u_2^1"
    assert r.role_map[0] == "root"
    with pytest.raises(KeyError):
        r.vertex("u_9^9")


def test_size_is_polynomial_and_instances_are_binary():
    rng = random.Random(5150)
    for _ in range(30):
        f = random_cnf(rng)
        r = reduce_sat_to_mfs(f)
        n, m = f.variable_count, f.clause_count
        depth = ceil(log2(m)) if m > 1 else 0
        assert r.graph.vertex_count <= 2 * m * n + 2 * (n - 1) + 2 * m + depth + 1
        assert validate_binary_instance(r.graph).ok


def test_clause_mentioning_only_last_variable():
    f = CnfFormula(3, ((3,),))
    r = reduce_sat_to_mfs(f)
    adj = role_adjacency(r)
    # the lane passes through untouched and only the final hook exits
    assert adj["u_1^1"] == {"u_1^2", "v_1^2"}
    assert adj["v_1^1"] == {"u_1^2", "v_1^2"}
    assert adj["u_1^2"] == {"u_0^3"}
    assert adj["v_1^2"] == {"u_0^3"}
    assert check_maximal_walks(r).ok
    verdict = verify_reduction(f)
    assert verdict.ok and verdict.satisfiable and verdict.assignment[2] is True


def test_occurrence_ceiling_is_clause_count(example_formula):
    rng = random.Random(616)
    formulas = [example_formula] + [random_cnf(rng) for _ in range(25)]
    for f in formulas:
        r = reduce_sat_to_mfs(f)
        seqs = enumerate_walk_sequences(r.graph, 0, r.params.target_length)
        assert all(mult <= f.clause_count for mult in seqs.values())


def test_equivalence_on_random_instances():
    rng = random.Random(90125)
    for _ in range(40):
        f = random_cnf(rng)
        verdict = verify_reduction(f)
        assert verdict.ok, verdict.detail
        assert check_maximal_walks(reduce_sat_to_mfs(f)).ok


def test_unsatisfiable_instance_scores_below_clause_count():
    f = CnfFormula(2, ((1,), (-1,)))
    assert brute_force_sat(f) is None
    verdict = verify_reduction(f)
    assert verdict.ok
    assert not verdict.satisfiable
    assert verdict.mfs_count < verdict.clause_count


def test_verify_against_another_formulas_gadget():
    # the other gadget's maximizer occurs 3 times, as often as this formula
    # has clauses, but decodes to an assignment this formula refuses
    f = CnfFormula(3, ((1, 2), (-1, 3), (2, -3)))
    other = reduce_sat_to_mfs(CnfFormula(3, ((1,), (-1,), (2, 3), (-2, 3))))
    verdict = verify_reduction(f, reduction=other)
    assert not verdict.ok
    assert (verdict.mfs_count, verdict.assignment) == (3, (False, False, True))
    assert "decoded assignment (False, False, True) does not satisfy" in verdict.detail


# -- assignment extraction -----------------------------------------------------------


def test_extract_assignment_direct(example_formula):
    r = reduce_sat_to_mfs(example_formula)
    assert extract_assignment(r, "111101") == (True, False, True)


def test_extract_assignment_checks_prefix(example_formula):
    r = reduce_sat_to_mfs(example_formula)
    with pytest.raises(ReductionError, match="must be '1'"):
        extract_assignment(r, "110101")
    with pytest.raises(ReductionError, match="expected 6"):
        extract_assignment(r, "1111")


def test_extract_assignment_single_clause_prefix():
    r = reduce_sat_to_mfs(CnfFormula(2, ((1, 2),)))
    # depth 0: the prefix is the single root symbol
    assert extract_assignment(r, "101") == (False, True)
