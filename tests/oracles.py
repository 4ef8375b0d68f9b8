"""Independent reference implementations used only by the tests.

Everything here recomputes results by the most literal method available —
full subset scans, union-find closures, permutation searches — so that the
production code is checked against a second route rather than against
itself.  Nothing in this module imports from the production algorithms it
is meant to validate beyond plain data accessors.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def brute_events(ts):
    """Event member-sets by direct per-test subset enumeration."""
    seen = set()
    for test in ts.tests:
        members = sorted(test)
        for r in range(len(members) + 1):
            for combo in itertools.combinations(members, r):
                seen.add(frozenset(combo))
    return seen


def complement_sets(ts, members):
    """Events complementary to the given one: the rest of each host test."""
    members = frozenset(members)
    return {t - members for t in ts.tests if members <= t}


def complementary_oracle(ts, a, b):
    a, b = frozenset(a), frozenset(b)
    return not (a & b) and (a | b) in set(ts.tests)


def perspective_oracle(ts, a, b):
    return bool(complement_sets(ts, a) & complement_sets(ts, b))


def _sort_key(members):
    return (len(members), tuple(sorted(members)))


def perspectivity_classes(ts):
    """Partition of all events by the transitive closure of perspectivity."""
    events = sorted(brute_events(ts), key=_sort_key)
    index = {m: i for i, m in enumerate(events)}
    parent = list(range(len(events)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    comps = {m: complement_sets(ts, m) for m in events}
    for a, b in itertools.combinations(events, 2):
        if comps[a] & comps[b]:
            ra, rb = find(index[a]), find(index[b])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, set] = {}
    for m in events:
        groups.setdefault(find(index[m]), set()).add(m)
    return sorted(
        (frozenset(g) for g in groups.values()),
        key=lambda g: min(_sort_key(m) for m in g),
    )


def algebraic_oracle(ts):
    """Triple scan of the defining implication; returns (ok, witness)."""
    events = sorted(brute_events(ts), key=_sort_key)
    for a in events:
        for b in events:
            if a == b or not perspective_oracle(ts, a, b):
                continue
            for c in events:
                if complementary_oracle(ts, b, c) and not complementary_oracle(ts, a, c):
                    return False, (a, b, c)
    return True, None


def sum_table_oracle(ts):
    """Partial sum over the closure-oracle classes: {(i, j): k} from every
    pair of disjoint events whose union is again an event."""
    classes = perspectivity_classes(ts)
    class_of = {m: i for i, g in enumerate(classes) for m in g}
    events = brute_events(ts)
    table = {}
    for a in events:
        for b in events:
            if not (a & b) and (a | b) in events:
                table[(class_of[a], class_of[b])] = class_of[a | b]
    return table


def _symmetric_sums(elements, zero, triples):
    """{(p, q): r} from the triples, closed under symmetry and p + 0 = p;
    None when two sums disagree."""
    table = {}
    for p, q, r in [*triples, *((p, zero, p) for p in elements)]:
        for key in ((p, q), (q, p)):
            if table.setdefault(key, r) != r:
                return None
    return table


def orthoalgebra_oracle(elements, zero, one, triples):
    """Do the sum triples define an orthoalgebra?  Literal axiom scan:
    commutative by closure, zero the identity, only zero summable with
    itself, associative with definedness, and one complement each."""
    s = _symmetric_sums(elements, zero, triples)
    if s is None:
        return False
    for p in elements:
        if p != zero and (p, p) in s:
            return False
        if len([q for q in elements if s.get((p, q)) == one]) != 1:
            return False
    for p in elements:
        for q in elements:
            for r in elements:
                qr, pq = s.get((q, r)), s.get((p, q))
                left = None if qr is None else s.get((p, qr))
                right = None if pq is None else s.get((pq, r))
                if left != right:
                    return False
    return True


def prop04_oracle(elements, zero, one, triples):
    """(orthocoherent, osum_is_join, omp) of a sum table, by brute force.

    The order is closed transitively from p <= p + q, and joins and meets
    are found by scanning all upper and lower bounds.
    """
    s = _symmetric_sums(elements, zero, triples)
    els = list(elements)
    leq = {(p, r) for (p, _q), r in s.items()}
    for q in els:
        for p in els:
            for r in els:
                if (p, q) in leq and (q, r) in leq:
                    leq.add((p, r))
    oc = {p: next(q for q in els if s.get((p, q)) == one) for p in els}

    def least(bounds, le):
        found = [u for u in bounds if all(le(u, v) for v in bounds)]
        return found[0] if len(found) == 1 else None

    def join(p, q):
        ups = [u for u in els if (p, u) in leq and (q, u) in leq]
        return least(ups, lambda u, v: (u, v) in leq)

    def meet(p, q):
        downs = [d for d in els if (d, p) in leq and (d, q) in leq]
        return least(downs, lambda u, v: (v, u) in leq)

    orthocoherent = all(
        (s[(p, q)], r) in s
        for p, q in s
        for r in els
        if (p, r) in s and (q, r) in s
    )
    osum_is_join = all(join(p, q) == r for (p, q), r in s.items())
    omp = (
        all(oc[oc[p]] == p for p in els)
        and all((oc[q], oc[p]) in leq for p, q in leq)
        and all(meet(p, oc[p]) == zero and join(p, oc[p]) == one for p in els)
        and all(join(p, q) is not None for p in els for q in els if (p, oc[q]) in leq)
        and all(meet(q, oc[p]) is not None and join(p, meet(q, oc[p])) == q for p, q in leq)
    )
    return orthocoherent, osum_is_join, omp


def df_states_oracle(ts):
    """Supports of all dispersion-free states, by scanning 2^|X| assignments."""
    outs = ts.outcomes
    found = []
    for bits in itertools.product((0, 1), repeat=len(outs)):
        value = dict(zip(outs, bits))
        if all(sum(value[x] for x in t) == 1 for t in ts.tests):
            found.append(frozenset(x for x in outs if value[x]))
    return sorted(found, key=lambda s: tuple(sorted(s)))


def certificate_refutes(ts, cert):
    """Does the per-test weight vector rule out every state?  Exact check."""
    total = sum(Fraction(cert[i]) for i in range(len(ts.tests)))
    if total <= 0:
        return False
    for x in ts.outcomes:
        s = sum(Fraction(cert[i]) for i, t in enumerate(ts.tests) if x in t)
        if s > 0:
            return False
    return True


def oa_isomorphic(oa1, oa2):
    """A sum-preserving bijection found by backtracking, or None.

    Candidates are pruned by the obvious invariants (zero, one, number of
    defined sums) before the exhaustive consistency search.
    """
    if oa1.size != oa2.size:
        return None
    e1, e2 = oa1.elements, oa2.elements

    def degree(oa, p):
        return sum(1 for q in oa.elements if oa.osum_of(p, q) is not None)

    deg1 = {p: degree(oa1, p) for p in e1}
    deg2 = {u: degree(oa2, u) for u in e2}
    if sorted(deg1.values()) != sorted(deg2.values()):
        return None
    order = sorted(e1, key=lambda p: (-deg1[p], p))
    assign: dict[str, str] = {}
    used: set[str] = set()

    def compatible(p, u):
        if (p == oa1.zero) != (u == oa2.zero):
            return False
        if (p == oa1.one) != (u == oa2.one):
            return False
        if deg1[p] != deg2[u]:
            return False
        for q, v in assign.items():
            r = oa1.osum_of(p, q)
            s = oa2.osum_of(u, v)
            if (r is None) != (s is None):
                return False
            if r is not None and r in assign and assign[r] != s:
                return False
        return True

    def backtrack(k):
        if k == len(order):
            # full consistency sweep, including sums landing on later images
            for p in e1:
                for q in e1:
                    r = oa1.osum_of(p, q)
                    s = oa2.osum_of(assign[p], assign[q])
                    if (r is None) != (s is None):
                        return False
                    if r is not None and assign[r] != s:
                        return False
            return True
        p = order[k]
        for u in e2:
            if u in used or not compatible(p, u):
                continue
            assign[p] = u
            used.add(u)
            if backtrack(k + 1):
                return True
            del assign[p]
            used.discard(u)
        return False

    return dict(assign) if backtrack(0) else None


def hausdorff_oracle(a, b):
    """Plain double-loop Hausdorff distance over coordinate rows."""
    a = [tuple(p) for p in a]
    b = [tuple(p) for p in b]
    forward = max(min(math.dist(p, q) for q in b) for p in a)
    backward = max(min(math.dist(p, q) for p in a) for q in b)
    return max(forward, backward)


def bottleneck_oracle(a, b):
    """Best-bijection bottleneck over all permutations."""
    a = [tuple(p) for p in a]
    b = [tuple(p) for p in b]
    best = math.inf
    for perm in itertools.permutations(range(len(b))):
        worst = max(math.dist(a[i], b[j]) for i, j in enumerate(perm))
        best = min(best, worst)
    return best


def orthogonal_subsets_capped(points, threshold, size_cap):
    """Merge orthogonal pairs exhaustively into larger mutually orthogonal
    index sets, stopping once any set exceeds size_cap; returns the largest
    size reached.

    `points` is an (n, d) array of unit vectors; orthogonality means
    |inner product| <= threshold.
    """
    import numpy as np

    pts = np.asarray(points)
    n = len(pts)
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    block = max(1, int(2e7) // max(n, 1))
    for s in range(0, n, block):
        g = pts[s : s + block] @ pts.T
        ii, jj = np.nonzero(np.abs(g) <= threshold)
        for i, j in zip(ii + s, jj):
            if i != j:
                adj[int(i)].add(int(j))
    best = 1 if n else 0
    frontier = [frozenset((i, j)) for i in range(n) for j in adj[i] if j > i]
    if frontier:
        best = 2
    seen = set(frontier)
    while frontier and best <= size_cap:
        nxt = []
        for group in frontier:
            common = None
            for i in group:
                common = adj[i] if common is None else common & adj[i]
            for k in common or ():
                if k > max(group):
                    bigger = group | {k}
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.append(bigger)
        if nxt:
            best += 1
        frontier = nxt
    return best
