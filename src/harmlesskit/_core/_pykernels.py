"""Pure-Python implementations of the two search kernels.

These mirror the compiled versions in ``_ckernels.pyx`` exactly: same
arguments, same deterministic tie-breaking, same results.  They exist so the
package works without a C toolchain and as a cross-check oracle for the
compiled code (see tests/test_backends.py).
"""

from __future__ import annotations

BACKEND = "pure"


def max_harmless(indptr, indices, thresholds, candidates):
    """Branch-and-bound maximum harmless set over the given candidates.

    ``indptr``/``indices`` is CSR adjacency over all n vertices; candidates
    must be vertices whose selection can ever be feasible (the caller passes
    the solution core).  Returns ``(size, sorted vertex list)``.
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

    def dfs(i: int) -> None:
        nonlocal best, best_set
        if len(cur) > best:
            best = len(cur)
            best_set = cur.copy()
        if i == ncand or len(cur) + (ncand - i) <= best:
            return
        u = cand[i]
        if all(budget[w] >= 1 for w in adj[u]):
            for w in adj[u]:
                budget[w] -= 1
            cur.append(u)
            dfs(i + 1)
            cur.pop()
            for w in adj[u]:
                budget[w] += 1
        dfs(i + 1)

    dfs(0)
    return best, sorted(best_set)


def _ilp_max(nclasses, class_size, cm_indptr, cm_idx, caps):
    """Exact max of sum(x_j), 0 <= x_j <= size_j, sum over classes hitting a
    cover vertex bounded by its capacity.  Depth-first with a per-node
    optimistic bound; explores larger x first so ties resolve greedily."""
    best = 0

    def upper(i):
        s = 0
        for j in range(i, nclasses):
            lim = class_size[j]
            for p in range(cm_indptr[j], cm_indptr[j + 1]):
                c = caps[cm_idx[p]]
                if c < lim:
                    lim = c
            s += lim
        return s

    def dfs(i, acc):
        nonlocal best
        if acc > best:
            best = acc
        if i == nclasses or acc + upper(i) <= best:
            return
        lim = class_size[i]
        for p in range(cm_indptr[i], cm_indptr[i + 1]):
            c = caps[cm_idx[p]]
            if c < lim:
                lim = c
        for x in range(lim, -1, -1):
            if x:
                for p in range(cm_indptr[i], cm_indptr[i + 1]):
                    caps[cm_idx[p]] -= x
            dfs(i + 1, acc + x)
            if x:
                for p in range(cm_indptr[i], cm_indptr[i + 1]):
                    caps[cm_idx[p]] += x
    dfs(0, 0)
    return best


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
        total = base + _ilp_max(nclasses, class_size, cm_indptr, cm_idx, caps)
        if total > best_total:
            best_total = total
            best_mask = mask
    return best_total, best_mask
