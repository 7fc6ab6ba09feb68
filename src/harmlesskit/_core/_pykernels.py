"""The search kernels: one packing branch and bound, ``max_packing``, and
the two programs the solvers give it.  ``max_harmless`` is the packing
program of a graph, its candidates as variables of size 1 over the
vertices' budget rows; ``vc_scan`` is the vertex-cover program, its cover
guesses as 0/1 variables.

The search cuts a node on the undecided variables filled to their clipped
limits, less what the over-full rows cannot hold.  Before the search each
variable is given to at most one row, its owner, in two passes over the
rows of positive initial excess, largest excess first: first a family of
rows with disjoint groups, each taking all its variables of positive limit,
then every row taking its still-unowned variables when their limits sum
above its capacity.

They take the lists the solvers in ``harmlesskit.solvers`` already hold:
adjacency rows, thresholds, and one row of capacity positions per class.
Every search is deterministic, including its tie-breaking.
"""

from __future__ import annotations


def max_harmless(adj, thresholds, candidates):
    """Maximum harmless set over the given candidates, by the packing search.

    ``adj[v]`` lists the neighbours of each of the n vertices, every
    threshold is at least 1, and the candidate sequence holds distinct
    vertices (the caller passes the solution core, in visit order).  Returns
    ``(size, sorted vertex list)``.

    A harmless set is the packing program of the graph: each candidate c is
    a variable of size 1 whose row is ``adj[c]``, and vertex w's capacity is
    t(w) - 1, indexed by w.  The search tries 1 before 0, so the first
    optimum it keeps is the include-first witness.
    """
    best, assign = max_packing(
        [1] * len(candidates), [adj[c] for c in candidates], [t - 1 for t in thresholds]
    )
    return best, sorted(c for c, x in zip(candidates, assign) if x)


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
    caps[c])) of ``rest`` cannot be filled.  The rows of positive initial
    excess (the limits of the row's variables less its capacity) claim their
    groups in two passes, each largest excess first and ties to the lower
    row.  First a row takes all its variables of positive limit when none of
    them is owned yet, so these groups are disjoint and each is charged in
    full; then each row takes its still-unowned variables when their limits
    sum above its capacity.  Takes, trailed limits and decided levels keep G
    and ``excess`` up to date.  Backtracking a level restores its
    capacities, pops the trail back to the level's mark (giving the lowered
    limits back to G), returns the level's own limit to G, and resets
    ``rest`` and ``excess`` to their values at the level's entry.

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
    # only a row that some variable lists can be over-full; a graph's
    # program has a row for every vertex, most of them unused
    over = sorted(
        (caps[c] - sum(lim[j] for j in users[c]), c) for c in range(len(caps)) if users[c]
    )
    over = [c for minus_excess, c in over if minus_excess < 0]
    # first a family of rows whose groups are disjoint: each takes all its
    # users of positive limit, when none of them is owned yet
    for c in over:
        group = [j for j in users[c] if lim[j]]
        if all(owner[j] < 0 for j in group):
            for j in group:
                owner[j] = c
            G[c] = sum(lim[j] for j in group)
            excess += G[c] - caps[c]
    # then each row takes its still-unowned users when their limits sum
    # above its capacity (a family row has none of positive limit left)
    for c in over:
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
