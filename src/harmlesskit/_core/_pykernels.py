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
    candidate stays blocked in the whole subtree.  ``excess`` charges
    budgets over groups fixed before the search: they partition the owned
    live candidates, and each lies inside the neighbourhood of its owner w.
    At most budget[w] of w's live undecided group members L(w) can still
    be taken, so sum(max(0, L(w) - budget[w])) of the live candidates are
    lost.  The owners are the vertices whose live-candidate neighbours
    outnumber their budget, largest initial excess first: first a greedy
    family with pairwise disjoint neighbourhoods, each member owning all its
    live neighbours, then every other such vertex owning its still-unowned
    live neighbours when they outnumber its budget.  Both terms are kept up
    to date as candidates are decided and budgets spent.

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

    # owner[x]: the vertex whose budget covers live candidate x's group;
    # L[w]: the live undecided members of w's group (0 if w owns none)
    owner = [-1] * n
    L = [0] * n
    excess = 0
    over = []
    for w in range(n):
        nb = [x for x in adj[w] if pos[x] >= 0 and not spent[x]]
        if nb and len(nb) > budget[w]:  # a live neighbour means budget[w] >= 1
            over.append((budget[w] - len(nb), w, nb))
    over.sort()
    for minus_excess, w, nb in over:
        if all(owner[x] < 0 for x in nb):
            for x in nb:
                owner[x] = w
            L[w] = len(nb)
            excess -= minus_excess
    # then each other vertex takes its still-unowned live neighbours, if they
    # outnumber its budget (a family member has none left, so it takes none)
    for _, w, nb in over:
        group = [x for x in nb if owner[x] < 0]
        if len(group) > budget[w]:
            for x in group:
                owner[x] = w
            L[w] = len(group)
            excess += len(group) - budget[w]

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
    holds variable j's distinct capacity positions) summing to at most
    caps[c], every caps[c] non-negative.

    Depth-first branch and bound without recursion: the partial assignment
    is the stack, one level per variable.  Each level counts its value down
    from the variable's limit clipped by the current capacities to 0, except
    the first ``guesses`` levels, 0/1 variables that try 0 before 1.  A node
    is cut when ``acc + rest - excess`` cannot beat the incumbent.
    Improvement is strict, so the first optimum in this order is kept.
    ``caps`` is restored before returning.  Returns ``(value, assignment)``.

    ``acc`` is the value of the decided levels, ``lim[j]`` variable j's
    clipped limit and ``rest`` the sum of the undecided ones: every
    remaining variable filled to its limit.  A take only lowers the
    capacities its variable lists, so each later variable listing one of
    them gets ``min(lim[j], cap)``, which is exact; the old limit goes on a
    trail.  ``excess`` charges the capacity rows for groups fixed before the
    search: they partition the owned variables, and each lies inside one row
    c, its owner.  The undecided members of c's group can still take at most
    caps[c] in all, so with G[c] the sum of their limits, sum(max(0, G[c] -
    caps[c])) of ``rest`` cannot be filled.  Rows claim their groups in
    order of initial excess (the limits of the row's variables less its
    capacity), largest first and ties to the lower row; each takes its
    still-unowned variables when their limits sum above its capacity.
    Takes, trailed limits and decided levels keep G and ``excess`` up to
    date.  Backtracking a level restores its capacities, pops the trail back
    to the level's mark (giving the lowered limits back to G), returns the
    level's own limit to G, and resets ``rest`` and ``excess`` to their
    values at the level's entry.

    The bound never exceeds ``acc + rest``, and it is never below the best
    value a subtree holds.  So the search visits the nodes of the plain
    bound's search in the same order, minus subtrees that cannot improve,
    and finds the same incumbents and the same assignment.
    """
    nvars = len(class_size)
    users = [[] for _ in caps]  # users[c]: the variables listing c, last first
    for j in range(nvars - 1, -1, -1):
        for c in rows[j]:
            users[c].append(j)
    lim = [min([class_size[j], *(caps[c] for c in rows[j])]) for j in range(nvars)]
    rest = sum(lim)

    # owner[j]: the row whose group holds variable j (-1 for none); G[c]: the
    # limits of row c's undecided group members (0 if c owns none)
    owner = [-1] * nvars
    G = [0] * len(caps)
    excess = 0
    over = sorted((caps[c] - sum(lim[j] for j in users[c]), c) for c in range(len(caps)))
    for minus_excess, c in over:
        if minus_excess >= 0:
            break
        group = [j for j in users[c] if owner[j] < 0]
        g = sum(lim[j] for j in group)
        if g > caps[c]:
            for j in group:
                owner[j] = c
            G[c] = g
            excess += g - caps[c]

    trail: list[tuple[int, int]] = []  # (j, lim[j] before a take lowered it)
    mark = [0] * nvars  # per level: trail length at its entry
    entry_rest = [0] * nvars  # per level: rest at its entry
    entry_excess = [0] * nvars  # per level: excess at its entry

    best = 0
    best_assign = [0] * nvars
    assign = [0] * nvars  # levels at or below the current node are 0
    acc = 0
    i = 0  # depth of the node being entered
    while True:
        if acc > best:
            best = acc
            best_assign = assign.copy()
        if acc + rest - excess > best:
            x = 0 if i < guesses else lim[i]  # first child
            mark[i] = len(trail)
            entry_rest[i] = rest
            entry_excess[i] = excess
        else:
            # pop finished levels until one still has another value to try
            while i:
                i -= 1
                x = assign[i]
                if x:
                    acc -= x
                    for c in rows[i]:
                        caps[c] += x
                    t = mark[i]
                    while len(trail) > t:
                        j, old = trail.pop()
                        o = owner[j]
                        if o >= 0:
                            G[o] += old - lim[j]
                        lim[j] = old
                o = owner[i]  # variable i is undecided again
                if o >= 0:
                    G[o] += lim[i]
                if i < guesses:
                    if not x and lim[i]:
                        x = 1
                        break
                    assign[i] = 0
                elif x:
                    x -= 1
                    break
            else:
                return best, best_assign
            rest = entry_rest[i]
            excess = entry_excess[i]
        # take x of variable i (inlined: this is the search's hot loop); each
        # change to G[o] or caps[o] moves excess by the change in
        # max(0, G[o] - caps[o])
        assign[i] = x
        li = lim[i]
        rest -= li
        o = owner[i]
        if o >= 0:
            g = G[o]
            G[o] = g - li
            d = g - caps[o]
            if d > 0:
                excess -= li if li < d else d
        if x:
            acc += x
            for c in rows[i]:
                cap = caps[c] - x
                caps[c] = cap
                d = G[c] - cap
                if d > 0:
                    excess += x if x < d else d
                for j in users[c]:
                    if j <= i:
                        break
                    lj = lim[j]
                    if lj > cap:
                        trail.append((j, lj))
                        rest -= lj - cap
                        lim[j] = cap
                        o = owner[j]
                        if o >= 0:
                            g = G[o]
                            G[o] = g - lj + cap
                            d = g - caps[o]
                            if d > 0:
                                excess -= lj - cap if lj - cap < d else d
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
