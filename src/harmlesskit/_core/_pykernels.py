"""The search kernels: brute-force branch and bound, the packing solver and
the vertex-cover guess scan.

They work on flat integer lists (CSR adjacency, bit masks) so the solvers in
``harmlesskit.solvers`` can hand them plain data, also across process
boundaries.  Every search is deterministic, including its tie-breaking.
"""

from __future__ import annotations


def max_harmless(indptr, indices, thresholds, candidates):
    """Branch-and-bound maximum harmless set over the given candidates.

    ``indptr``/``indices`` is CSR adjacency over all n vertices; candidates
    must be vertices whose selection can ever be feasible (the caller passes
    the solution core).  Returns ``(size, sorted vertex list)``.

    Depth-first without recursion: one level per candidate, and ``taken``
    is the stack, recording whether each level's candidate is in ``cur``.
    A level first tries to include its candidate (when no neighbour's
    budget is spent), then excludes it.  A node is cut when even taking
    every remaining candidate cannot beat the incumbent; improvement is
    strict, so the first optimum in this order is kept.
    """
    indptr = list(indptr)
    indices = list(indices)
    cand = list(candidates)
    n = len(thresholds)
    budget = [thresholds[v] - 1 for v in range(n)]
    adj = [indices[indptr[v] : indptr[v + 1]] for v in range(n)]
    ncand = len(cand)

    best = -1
    best_set: list[int] = []
    cur: list[int] = []
    taken: list[bool] = []
    i = 0  # depth of the node being entered: len(taken)
    while True:
        if len(cur) > best:
            best = len(cur)
            best_set = cur.copy()
        if i < ncand and len(cur) + (ncand - i) > best:
            nbrs = adj[cand[i]]
            include = all(budget[w] >= 1 for w in nbrs)
            if include:
                for w in nbrs:
                    budget[w] -= 1
                cur.append(cand[i])
            taken.append(include)
            i += 1
            continue
        # pop finished levels until one whose candidate can still be excluded
        while taken:
            i -= 1
            if taken.pop():
                cur.pop()
                for w in adj[cand[i]]:
                    budget[w] += 1
                taken.append(False)
                i += 1
                break
        else:
            return best, sorted(best_set)


def max_packing(class_size, cm_indptr, cm_idx, caps):
    """Exact packing: maximise sum(x_j) with 0 <= x_j <= class_size[j] and,
    for every capacity c, the x_j of the classes listing c (CSR rows
    ``cm_idx[cm_indptr[j]:cm_indptr[j + 1]]``) summing to at most caps[c].

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
        for p in range(cm_indptr[j], cm_indptr[j + 1]):
            c = caps[cm_idx[p]]
            if c < lim:
                lim = c
        return lim

    def take(j, x):
        for p in range(cm_indptr[j], cm_indptr[j + 1]):
            caps[cm_idx[p]] -= x

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


def vc_scan(
    xnbr_mask,
    x_thresh,
    class_mask,
    class_size,
    class_min_t,
    cm_indptr,
    cm_idx,
    mask_lo,
    mask_hi,
    best_total=-1,
    best_mask=0,
):
    """Scan cover guesses ``mask_lo <= S < mask_hi`` and fold the best total.

    For each harmless guess S the residual packing program over the
    neighbourhood classes is solved exactly.  Returns ``(best_total,
    best_mask)`` where ties favour the smaller mask (scan order is
    ascending and improvement is strict).
    """
    xnbr_mask = list(xnbr_mask)
    x_thresh = list(x_thresh)
    class_mask = list(class_mask)
    class_size = list(class_size)
    class_min_t = list(class_min_t)
    cm_indptr = list(cm_indptr)
    cm_idx = list(cm_idx)
    nx = len(xnbr_mask)
    nclasses = len(class_mask)
    caps = [0] * nx

    for mask in range(mask_lo, mask_hi):
        ok = True
        for i in range(nx):
            used = (xnbr_mask[i] & mask).bit_count()
            if used >= x_thresh[i]:
                ok = False
                break
            caps[i] = x_thresh[i] - 1 - used
        if not ok:
            continue
        for j in range(nclasses):
            if (class_mask[j] & mask).bit_count() >= class_min_t[j]:
                ok = False
                break
        if not ok:
            continue
        base = mask.bit_count()
        # optimistic bound: every class filled to its individual limit
        ub = base
        for j in range(nclasses):
            lim = class_size[j]
            for p in range(cm_indptr[j], cm_indptr[j + 1]):
                c = caps[cm_idx[p]]
                if c < lim:
                    lim = c
            ub += lim
        if ub <= best_total:
            continue
        total = base + max_packing(class_size, cm_indptr, cm_idx, caps)[0]
        if total > best_total:
            best_total = total
            best_mask = mask
    return best_total, best_mask
