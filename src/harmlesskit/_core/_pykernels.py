"""The search kernels: brute-force branch and bound, the packing solver and
the walk over the vertex-cover guesses.

They take the lists the solvers in ``harmlesskit.solvers`` already hold:
adjacency rows, thresholds, and one row of capacity positions per class.
Every search is deterministic, including its tie-breaking.
"""

from __future__ import annotations


def max_harmless(adj, thresholds, candidates):
    """Branch-and-bound maximum harmless set over the given candidates.

    ``adj[v]`` lists the neighbours of each of the n vertices; the candidate
    sequence must hold distinct vertices whose selection can ever be feasible
    (the caller passes the solution core, in visit order).  Returns ``(size,
    sorted vertex list)``.

    Depth-first without recursion: one level per candidate, and ``stack``
    holds each level's state, recording whether its candidate is in ``cur``.
    A level first tries to include its candidate (when no neighbour's budget
    is spent), then excludes it.  Improvement is strict, so the first optimum
    in this order is kept.

    A node is cut when ``len(cur) + live - excess`` cannot beat the
    incumbent.  ``live`` counts the undecided candidates that no spent
    budget blocks: budgets only fall deeper in the search, so a blocked
    candidate stays blocked in the whole subtree.  ``excess`` charges the
    budgets of a family of vertices w fixed before the search, whose
    live-candidate neighbourhoods are pairwise disjoint: at most budget[w]
    of w's live undecided neighbours L(w) can still be taken, so
    sum(max(0, L(w) - budget[w])) of the live candidates are lost.  The
    family is picked greedily, largest initial excess first.  Both terms
    are kept up to date as candidates are decided and budgets spent.

    The bound never exceeds the plain count of the remaining candidates,
    and it is never below the best set a subtree holds.  So the search
    visits the nodes of the plain-count search in the same order, minus
    subtrees that cannot improve, and finds the same incumbents and the same
    witness.
    """
    n = len(thresholds)
    ncand = len(candidates)
    budget = [t - 1 for t in thresholds]
    pos = [-1] * n  # candidate position; candidate x is undecided at depth i iff pos[x] >= i
    for p, c in enumerate(candidates):
        pos[c] = p
    # spent[x]: neighbours of x with no budget left; x can be taken iff it is 0
    spent = [0] * n
    for w in range(n):
        if budget[w] <= 0:
            for x in adj[w]:
                spent[x] += 1
    live = sum(1 for c in candidates if not spent[c])

    # owner[x]: the family member whose budget covers live candidate x;
    # L[w]: w's live undecided neighbours (0 outside the family)
    owner = [-1] * n
    L = [0] * n
    excess = 0
    over = []
    for w in range(n):
        nb = [x for x in adj[w] if pos[x] >= 0 and not spent[x]]
        if nb and len(nb) > budget[w]:  # a live neighbour means budget[w] >= 1
            over.append((budget[w] - len(nb), w, nb))
    for minus_excess, w, nb in sorted(over):
        if all(owner[x] < 0 for x in nb):
            for x in nb:
                owner[x] = w
            L[w] = len(nb)
            excess -= minus_excess

    best = -1
    best_set: list[int] = []
    cur: list[int] = []
    # per level: (state, live, excess at the level's entry); state 2 while
    # the candidate is in cur, 1 once it is excluded after that, 0 when it
    # was blocked
    stack: list[tuple[int, int, int]] = []
    i = 0  # depth of the node being entered: len(stack)
    while True:
        if len(cur) > best:
            best = len(cur)
            best_set = cur.copy()
        if i < ncand and len(cur) + live - excess > best:
            c = candidates[i]
            if spent[c]:
                stack.append((0, live, excess))
            else:
                stack.append((2, live, excess))
                # c leaves the undecided candidates...
                live -= 1
                o = owner[c]
                if o >= 0:
                    L[o] -= 1
                    if L[o] >= budget[o]:
                        excess -= 1
                # ...and spends a unit of each neighbour's budget
                for w in adj[c]:
                    b = budget[w] - 1
                    budget[w] = b
                    if L[w] > b:
                        excess += 1
                    if not b:  # w's neighbours are blocked from here on
                        for x in adj[w]:
                            s = spent[x]
                            spent[x] = s + 1
                            if not s and pos[x] > i:
                                live -= 1
                                o = owner[x]
                                if o >= 0:
                                    L[o] -= 1
                                    if L[o] >= budget[o]:
                                        excess -= 1
                cur.append(c)
            i += 1
            continue
        # pop finished levels until one whose candidate can still be excluded
        while stack:
            i -= 1
            state, live, excess = stack.pop()
            c = candidates[i]
            if state == 2:
                cur.pop()
                for w in adj[c]:
                    if not budget[w]:
                        for x in adj[w]:
                            s = spent[x] - 1
                            spent[x] = s
                            if not s and pos[x] > i and owner[x] >= 0:
                                L[owner[x]] += 1
                    budget[w] += 1
                stack.append((1, live, excess))
                # c stays decided, now excluded
                live -= 1
                o = owner[c]
                if o >= 0 and L[o] >= budget[o]:
                    excess -= 1
                i += 1
                break
            if state == 1 and owner[c] >= 0:
                L[owner[c]] += 1
        else:
            return best, sorted(best_set)


def max_packing(class_size, rows, caps):
    """Exact packing: maximise sum(x_j) with 0 <= x_j <= class_size[j] and,
    for every capacity c, the x_j of the classes listing c (``rows[j]``
    holds class j's capacity positions) summing to at most caps[c].

    Depth-first branch and bound without recursion: the partial assignment
    is the stack, one level per class, and each level counts its value down
    from the class limit clipped by the current capacities to 0.  A node is
    cut when the optimistic bound (every remaining class filled to its
    clipped limit) cannot beat the incumbent.  Improvement is strict, so the
    first optimum in this order is kept.  ``caps`` is restored before
    returning.  Returns ``(value, assignment)``.
    """
    nclasses = len(class_size)

    def limit(j):
        lim = class_size[j]
        for c in rows[j]:
            if caps[c] < lim:
                lim = caps[c]
        return lim

    def take(j, x):
        for c in rows[j]:
            caps[c] -= x

    best = 0
    best_assign = [0] * nclasses
    assign = [0] * nclasses  # levels at or below the current node are 0
    acc = 0
    i = 0  # depth of the node being entered
    while True:
        if acc > best:
            best = acc
            best_assign = assign.copy()
        if i < nclasses and acc + sum(limit(j) for j in range(i, nclasses)) > best:
            x = limit(i)  # first child: the largest value
        else:
            # pop finished levels until one still has a smaller value to try
            while i:
                i -= 1
                x = assign[i]
                take(i, -x)
                acc -= x
                if x:
                    x -= 1
                    break
            else:
                return best, best_assign
        assign[i] = x
        take(i, x)
        acc += x
        i += 1


def vc_scan(x_rows, x_thresh, class_rows, class_size, class_min_t):
    """Walk the harmless cover guesses and fold the best total.

    Bit b of a guess stands for cover position b.  A guess S is harmless
    when every cover vertex i has fewer than ``x_thresh[i]`` neighbours in S
    (the positions in ``x_rows[i]``) and every class j fewer than
    ``class_min_t[j]`` roots in S (the positions in ``class_rows[j]``).
    For each harmless guess the residual packing program over the
    neighbourhood classes is solved exactly.  Returns ``(best_total,
    best_mask, best_assign)``: the largest total, ties favouring the smaller
    mask (guesses are visited in ascending order and improvement is
    strict), and the ``max_packing`` assignment of that guess, one value per
    class; or ``(-1, 0, [])`` when no guess is harmless.

    The walk steps from one harmless guess to the next as in binary
    counting: it clears the trailing set bits and sets the lowest clear bit
    that keeps every budget it touches non-negative.  A bit that would break
    a budget is skipped, and every guess holding it with the same higher
    bits too: harmlessness is closed under taking subsets.  Cover vertex i
    has budget row i and class j row nx + j: a class limits a guess exactly
    as one more cover vertex would.  The residual budgets are updated as
    bits are set and restored as they are cleared.
    """
    nx = len(x_rows)
    nclasses = len(class_rows)
    # caps[r]: how many more guessed neighbours (roots) budget row r takes;
    # a negative value means no guess is harmless.  max_packing reads only
    # the cover rows, positions below nx.
    caps = [t - 1 for t in x_thresh] + [t - 1 for t in class_min_t]
    best_total, best_mask, best_assign = -1, 0, []
    if min(caps, default=0) < 0:
        return best_total, best_mask, best_assign
    # bit b of a guess uses up budget of these rows
    hit = [[] for _ in range(nx)]
    for r, row in enumerate([*x_rows, *class_rows]):
        for b in row:
            hit[b].append(r)

    mask = 0  # a harmless guess, caps holding its residual budgets
    while True:
        base = mask.bit_count()
        # optimistic bound: every class filled to its individual limit
        ub = base
        for j in range(nclasses):
            lim = class_size[j]
            for c in class_rows[j]:
                if caps[c] < lim:
                    lim = caps[c]
            ub += lim
        if ub > best_total:
            packed, assign = max_packing(class_size, class_rows, caps)
            if base + packed > best_total:
                best_total, best_mask, best_assign = base + packed, mask, assign
        # the next harmless guess: carry past the set bits and the clear
        # bits that would break a budget, then set the bit found
        b = 0
        while True:
            if b == nx:
                return best_total, best_mask, best_assign
            if mask >> b & 1:
                mask ^= 1 << b
                for r in hit[b]:
                    caps[r] += 1
            elif all(caps[r] > 0 for r in hit[b]):
                break
            b += 1
        mask |= 1 << b
        for r in hit[b]:
            caps[r] -= 1
