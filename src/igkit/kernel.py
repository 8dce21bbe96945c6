"""The expansion kernel of the derivation search: the one-step successors of
an encoded sentential form.

Forms are tuples of ints: a terminal item is -(terminal_id + 2) (see
`CompiledGrammar`); a variable occurrence is stack_id * nv + var_id where
stack_id interns an index stack in the cons pool (pool_top / pool_rest /
pool_depth, entry 0 = empty stack). In subtree order (`depths` > 0) a
variable occurrence also carries the depth of its sibling group:
(stack_id * depths + depth) * nv + var_id.
"""

IMPLEMENTATION = "pure"


def expand(c, form, max_width, max_stack, max_terms, depths):
    """All one-step successors of an encoded form, position-major, under the
    tables and the stack pool of the CompiledGrammar `c`.

    c.prods[pid] = (kind, lhs_index_id, rhs, push_var, push_index, rhs_nvars,
    rhs_nterms) with kind 0=plain, 1=push, 2=consume; rhs items use the same
    encoding as forms except that variable entries hold the bare var id.
    Caps are -1 when absent; successors violating a cap are dropped. Without
    a width cap only the first variable occurrence is rewritten (leftmost
    order). `depths` > 0 gives subtree order: only the variables of the
    deepest sibling group are rewritten, and the children of a rewrite form a
    new group one deeper, or take the rewritten variable's depth when it was
    the last of its group. Depths stay below `depths`.
    """
    by_var, prods, nv = c.by_var, c.prods, c.nv
    pool_top, pool_rest, pool_depth = c.pool_top, c.pool_rest, c.pool_depth
    nd = depths or 1
    width = 0
    top = ntop = 0  # the deepest group's depth and size
    for it in form:
        if it >= 0:
            width += 1
            if depths:
                d = it // nv % nd
                if d > top:
                    top, ntop = d, 1
                elif d == top:
                    ntop += 1
    child = top + 1 if ntop > 1 else top
    nterms = len(form) - width
    out = []
    for i, item in enumerate(form):
        if item < 0:
            continue
        vid = item % nv
        sid = item // nv
        if depths:
            if sid % nd != top:
                continue
            sid //= nd
        head = form[:i]
        tail = form[i + 1:]
        for pid in by_var[vid]:
            kind, lhs_idx, rhs, push_var, push_idx, rhs_nvars, rhs_nterms = prods[pid]
            if kind == 1:
                if max_stack >= 0 and pool_depth[sid] + 1 > max_stack:
                    continue
                s2 = c.push(push_idx, sid)
                out.append((i, pid, head + ((s2 * nd + child) * nv + push_var,) + tail))
                continue
            if kind == 2:
                if sid == 0 or pool_top[sid] != lhs_idx:
                    continue
                s2 = pool_rest[sid]
            else:
                s2 = sid
            if max_width >= 0 and width - 1 + rhs_nvars > max_width:
                continue
            if max_terms >= 0 and nterms + rhs_nterms > max_terms:
                continue
            base = (s2 * nd + child) * nv
            mid = tuple(x if x < 0 else base + x for x in rhs)
            out.append((i, pid, head + mid + tail))
        if max_width < 0:
            break
    return out
