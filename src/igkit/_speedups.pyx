# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled twin of igkit._expand_py (same contract, same ordering)."""

IMPLEMENTATION = "compiled"


def expand(tuple form, tuple by_var, tuple prods, long long nv,
           list pool_top, list pool_rest, list pool_depth, dict intern,
           long long max_width, long long max_stack, long long max_terms,
           bint drop_terminals, bint leftmost, long long depths):
    cdef Py_ssize_t n = len(form)
    cdef Py_ssize_t i, j
    cdef long long item, vid, sid, s2, c, d, base
    cdef long long nd = depths if depths > 0 else 1
    cdef long long width = 0, nterms, top = 0, ntop = 0, child
    cdef long long kind, lhs_idx, push_var, push_idx, rhs_nvars, rhs_nterms
    cdef list out = []
    cdef list mid
    cdef tuple head, tail, rhs, prod
    cdef object key, cached

    for i in range(n):
        item = <long long> form[i]
        if item >= 0:
            width += 1
            if depths > 0:
                d = (item // nv) % nd
                if d > top:
                    top = d
                    ntop = 1
                elif d == top:
                    ntop += 1
    child = top + 1 if ntop > 1 else top
    nterms = n - width

    for i in range(n):
        item = <long long> form[i]
        if item < 0:
            continue
        vid = item % nv
        sid = item // nv
        if depths > 0:
            if sid % nd != top:
                continue
            sid = sid // nd
        head = form[:i]
        tail = form[i + 1:]
        for pid in by_var[vid]:
            prod = prods[pid]
            kind = <long long> prod[0]
            if kind == 1:
                push_var = <long long> prod[3]
                push_idx = <long long> prod[4]
                if max_stack >= 0 and <long long> pool_depth[sid] + 1 > max_stack:
                    continue
                key = (push_idx, sid)
                cached = intern.get(key)
                if cached is None:
                    s2 = len(pool_top)
                    pool_top.append(push_idx)
                    pool_rest.append(sid)
                    pool_depth.append(<long long> pool_depth[sid] + 1)
                    intern[key] = s2
                else:
                    s2 = <long long> cached
                out.append((i, pid, head + ((s2 * nd + child) * nv + push_var,) + tail))
                continue
            if kind == 2:
                lhs_idx = <long long> prod[1]
                if sid == 0 or <long long> pool_top[sid] != lhs_idx:
                    continue
                s2 = <long long> pool_rest[sid]
            else:
                s2 = sid
            rhs_nvars = <long long> prod[5]
            rhs_nterms = <long long> prod[6]
            if max_width >= 0 and width - 1 + rhs_nvars > max_width:
                continue
            if max_terms >= 0 and nterms + rhs_nterms > max_terms:
                continue
            rhs = prod[2]
            base = (s2 * nd + child) * nv
            mid = []
            for j in range(len(rhs)):
                c = <long long> rhs[j]
                if c < 0:
                    if not drop_terminals:
                        mid.append(c)
                else:
                    mid.append(base + c)
            out.append((i, pid, head + tuple(mid) + tail))
        if leftmost:
            break
    return out
