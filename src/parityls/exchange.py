"""Constructive exchange machinery for matroid k-parity.

Two pieces: the Greene-Magnanti base partition (given independent sets
S, T of one size and a partition of S, find a matching partition of T so
every one-part swap stays independent), and, built on it, the per-edge
exchange-witness sets N_b used by the run verifier. Neither is called by
the solver itself.
"""


def greene_magnanti(matroid, base_s, base_t, s_parts):
    """Partition T into pieces T_i, one per part S_i of S, so that every
    (S \\ S_i) | T_i is independent with |T_i| = |S_i|.

    S and T are independent sets of equal size; parts may be empty and
    then receive nothing. T_i must be independent in the matroid
    M / (S \\ S_i) truncated to |S_i|, so this is a matroid partition of
    T, solved by augmenting paths (Edmonds 1965, Knuth 1973): each
    element of T, in ascending id order, enters along a path that ends
    in a part with room, every element on the path moving into the part
    of the element it displaces. The exchange lemma behind a path swap
    needs the path free of shortcuts (no arc from one node to a later,
    non-adjacent one). A node's predecessor is fixed when the node is
    first discovered, so every search-tree path is shortcut-free; the
    search is breadth first, giving shortest paths, but a depth-first
    order would be as correct.

    A valid partition always exists for genuine matroids (Greene and
    Magnanti 1975), so a missing path signals a broken independence
    oracle and raises.
    """
    base_s = frozenset(base_s)
    base_t = frozenset(base_t)
    s_parts = [frozenset(p) for p in s_parts]
    for name, b in (("S", base_s), ("T", base_t)):
        if not matroid.is_independent(b):
            raise ValueError(f"{name} is not independent")
    if len(base_s) != len(base_t):
        raise ValueError("S and T differ in size")
    covered = frozenset().union(*s_parts) if s_parts else frozenset()
    if covered != base_s or sum(len(p) for p in s_parts) != len(base_s):
        raise ValueError("parts must partition S")

    rest = [base_s - p for p in s_parts]
    pieces = [set() for _ in s_parts]

    def fits(i, add, drop=None):
        """Whether piece i, with ``add`` in and ``drop`` out, stays within
        |S_i| and independent in M / rest[i], where rest[i] are loops."""
        if add in rest[i] or len(pieces[i]) + (drop is None) > len(s_parts[i]):
            return False
        return matroid.is_independent(rest[i] | (pieces[i] - {drop}) | {add})

    for t in sorted(base_t):
        # z: (y, i), y enters part i in place of z; set once, when z is first
        # found, so no path the walk back follows holds a shortcut arc
        came_from = {t: None}
        queue = [t]
        for y in queue:  # breadth first; the queue grows as it is read
            outside = [i for i, piece in enumerate(pieces) if y not in piece]
            i = next((j for j in outside if fits(j, y)), None)
            if i is not None:
                break
            for j in outside:
                for z in sorted(pieces[j] - came_from.keys()):
                    if fits(j, y, z):
                        came_from[z] = (y, j)
                        queue.append(z)
        else:
            raise RuntimeError(
                "no valid base partition exists; independence oracle violates the matroid axioms"
            )
        while True:  # y enters part i; walk the path back to t
            pieces[i].add(y)
            if came_from[y] is None:
                break
            z = y
            y, i = came_from[z]
            pieces[i].remove(z)

    for r, piece in zip(rest, pieces):
        if not matroid.is_independent(r | piece):
            raise RuntimeError(
                "augmenting path broke a part; independence oracle violates the matroid axioms"
            )
    return [frozenset(p) for p in pieces]


def exchange_structure(cons, set_a, set_b):
    """Witness sets {N_b <= A | b in B} for two feasible edge sets of the
    k-parity constraint ``cons``.

    Construction, all in one contraction of ``cons.matroid``: with C the
    vertices of the shared edges and V_A, V_B those of the edges only A
    or only B has, pad the smaller of V_A, V_B with the first greedy
    picks from the larger in M / (C | smaller) until both have one size,
    contract C and the padding, split V_B along the vertex sets of A's
    own edges (``greene_magnanti``), and let N_b collect the edges of A
    whose piece touches b's vertices. Shared edges get N_b = {b}.

    The output satisfies, for every genuine matroid:
      1. N_b = {b} on A & B, and N_b <= A \\ B off it;
      2. A plus every b with empty N_b stays feasible;
      3. swapping any single a for {b : N_b = {a}} stays feasible;
      4. each a appears in at most k witness sets.
    """
    a_ids = frozenset(set_a)
    b_ids = frozenset(set_b)
    for name, s in (("A", a_ids), ("B", b_ids)):
        if not cons.feasible(s):
            raise ValueError(f"{name} is not feasible")

    common = cons.vertices_of(a_ids & b_ids)
    a_own = sorted(a_ids - b_ids)
    va = cons.vertices_of(a_own)
    vb = cons.vertices_of(b_ids - a_ids)
    small, large = (va, vb) if len(va) <= len(vb) else (vb, va)
    # common | small is the vertex set of A or of B, so it is independent
    count = len(large) - len(small)
    grown = sorted(cons.matroid.contract(common | small).max_independent_subset(large))
    if len(grown) < count:
        raise RuntimeError("augmentation failed; independence oracle violates the matroid axioms")
    padding = frozenset(grown[:count])

    parts = [cons.edges[a].vertices - padding for a in a_own]
    pieces = greene_magnanti(
        cons.matroid.contract(common | padding), va - padding, vb - padding, parts
    )
    out = {b: frozenset({b}) for b in a_ids & b_ids}
    for b in b_ids - a_ids:
        bv = cons.edges[b].vertices
        out[b] = frozenset(a for a, piece in zip(a_own, pieces) if piece & bv)
    return out


def exchange_claim_violations(cons, set_a, set_b, witness):
    """Check the four witness-set properties; returns human-readable
    violation strings (empty when all hold)."""
    a_ids = frozenset(set_a)
    b_ids = frozenset(set_b)
    problems = []

    if set(witness) != set(b_ids):
        problems.append("witness map keys differ from B")
        return problems

    for b in sorted(b_ids):
        nb = witness[b]
        if b in a_ids:
            if nb != frozenset({b}):
                problems.append(f"claim 1: N_{b} != {{{b}}} for shared edge")
        elif not nb <= a_ids - b_ids:
            problems.append(f"claim 1: N_{b} not inside A \\ B")

    free = {b for b in b_ids if not witness[b]}
    if not cons.feasible(a_ids | free):
        problems.append("claim 2: A plus unwitnessed edges infeasible")

    for a in sorted(a_ids):
        swapped = (a_ids - {a}) | {b for b in b_ids if witness[b] == frozenset({a})}
        if not cons.feasible(swapped):
            problems.append(f"claim 3: swap through {a} infeasible")

    for a in sorted(a_ids):
        hits = sum(1 for b in b_ids if a in witness[b])
        if hits > cons.k:
            problems.append(f"claim 4: edge {a} witnesses {hits} > k edges")

    return problems
