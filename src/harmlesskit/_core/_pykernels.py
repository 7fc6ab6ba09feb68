"""The search kernels: brute-force branch and bound, and the packing search
that also solves the vertex-cover program, its cover guesses as 0/1
variables.

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


def max_packing(class_size, rows, caps, *, guesses=0):
    """Exact packing: maximise sum(x_j) with 0 <= x_j <= class_size[j] and,
    for every capacity c, the x_j of the variables listing c (``rows[j]``
    holds variable j's capacity positions) summing to at most caps[c].

    Depth-first branch and bound without recursion: the partial assignment
    is the stack, one level per variable.  Each level counts its value down
    from the variable's limit clipped by the current capacities to 0, except
    the first ``guesses`` levels, 0/1 variables that try 0 before 1.  A node
    is cut when the optimistic bound (every remaining variable filled to its
    clipped limit) cannot beat the incumbent.  Improvement is strict, so the
    first optimum in this order is kept.  ``caps`` is restored before
    returning.  Returns ``(value, assignment)``.
    """
    nvars = len(class_size)

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
    best_assign = [0] * nvars
    assign = [0] * nvars  # levels at or below the current node are 0
    acc = 0
    i = 0  # depth of the node being entered
    while True:
        if acc > best:
            best = acc
            best_assign = assign.copy()
        # optimistic bound: every remaining variable filled to its clipped
        # limit.  Limits are never negative, so summing stops once the bound
        # beats the incumbent (inlined: this is the search's hot loop)
        ub = acc
        j = i
        while ub <= best and j < nvars:
            lim = class_size[j]
            for c in rows[j]:
                if caps[c] < lim:
                    lim = caps[c]
            ub += lim
            j += 1
        if ub > best:
            x = 0 if i < guesses else limit(i)  # first child
        else:
            # pop finished levels until one still has another value to try
            while i:
                i -= 1
                x = assign[i]
                take(i, -x)
                acc -= x
                if i < guesses:
                    if not x and limit(i):
                        x = 1
                        break
                    assign[i] = 0
                elif x:
                    x -= 1
                    break
            else:
                return best, best_assign
        assign[i] = x
        take(i, x)
        acc += x
        i += 1


def vc_scan(x_rows, x_thresh, class_rows, class_size, class_min_t):
    """Solve the cover program: the best harmless cover guess and packing.

    Bit b of a guess stands for cover position b.  A guess S is harmless
    when every cover vertex i has fewer than ``x_thresh[i]`` neighbours in S
    (the positions in ``x_rows[i]``) and every class j fewer than
    ``class_min_t[j]`` roots in S (the positions in ``class_rows[j]``).
    Returns ``(best_total, best_mask, best_assign)``: the largest |S| plus
    the packing over the neighbourhood classes left by S, ties favouring the
    smaller mask, and the packed value of each class; or ``(-1, 0, [])``
    when a budget is negative from the start, so that no guess is harmless.

    The guesses are 0/1 variables of the one ``max_packing`` search, listed
    highest bit first and tried clear before set, so guesses are visited in
    ascending mask order.  Cover vertex i has budget row i and class j row
    nx + j: bit b uses up a unit of every row that lists it, and a class
    limits a guess exactly as one more cover vertex would.  Class j's
    variable uses up the cover rows ``class_rows[j]``.
    """
    nx = len(x_rows)
    # caps[r]: how many more guessed neighbours (roots) budget row r takes;
    # a negative value means no guess is harmless
    caps = [t - 1 for t in x_thresh] + [t - 1 for t in class_min_t]
    if min(caps, default=0) < 0:
        return -1, 0, []
    # bit b of a guess uses up budget of these rows
    hit = [[] for _ in range(nx)]
    for r, row in enumerate([*x_rows, *class_rows]):
        for b in row:
            hit[b].append(r)
    best_total, assign = max_packing(
        [1] * nx + class_size, hit[::-1] + class_rows, caps, guesses=nx
    )
    best_mask = 0
    for x in assign[:nx]:
        best_mask = best_mask << 1 | x
    return best_total, best_mask, assign[nx:]
