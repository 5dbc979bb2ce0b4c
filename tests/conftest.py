import itertools

import cayleyclass as cc

PRODUCT_DESCRIPTORS = (
    "product:cyclic:2,cyclic:2",
    "product:cyclic:4,cyclic:2",
    "product:cyclic:2,product:cyclic:2,cyclic:2",
    "product:cyclic:3,product:cyclic:2,cyclic:2",
)

PERM_DESCRIPTORS = (
    "perm:3:(1,2,3);(1,2)",
    "perm:4:(1,2,3);(2,4,3)",
    "perm:4:(1,2);(1,2,3,4)",
)


def coxeter_sn(n, square="{}^2"):
    """Coxeter presentation of S_n on s1..s(n-1), the involution relators
    spelled by ``square``."""
    gens = [f"s{i}" for i in range(1, n)]
    rels = [square.format(s) for s in gens]
    rels += [f"({gens[i]}*{gens[i + 1]})^3" for i in range(len(gens) - 1)]
    rels += [f"({gens[i]}*{gens[j]})^2" for i in range(len(gens)) for j in range(i + 2, len(gens))]
    return f"<{','.join(gens)} | {', '.join(rels)}>"


def builtin_groups(max_order, min_order=1):
    """The built-in families instantiated up to a given order."""
    out = [cc.cyclic(n) for n in range(1, max_order + 1)]
    out += [cc.dihedral(n) for n in range(3, max_order // 2 + 1)]
    out += [cc.dicyclic(n) for n in range(2, max_order // 4 + 1)]
    out += [cc.from_descriptor(d) for d in PRODUCT_DESCRIPTORS]
    out += [cc.from_descriptor(d) for d in PERM_DESCRIPTORS]
    return [g for g in out if min_order <= g.order <= max_order]


def all_automorphisms(group):
    """Every automorphism of the group as an element map, by brute force
    over the image tuples of its declared generators (small groups only).

    An image tuple fixes at most one map: breadth-first from f(e) = e,
    f(v*g) = f(v)*t for each generator g and its image t.  The tuple is
    kept when that map is a bijection and f(p*q) = f(p)*f(q) holds on the
    whole multiplication table.  Images keep the generators' orders.
    """
    group.ensure_table()  # the callers' own checks multiply in the group too
    elements = list(group.elements())
    table = [[group.mul(p, q) for q in elements] for p in elements]
    orders = [cc.element_order(group, g) for g in elements]
    declared = [g for _, g in group.generators]
    pools = [[t for t in elements if orders[t] == orders[g]] for g in declared]
    found = []
    for images in itertools.product(*pools):
        f = {group.identity: group.identity}
        queue = [group.identity]
        for v in queue:
            for g, t in zip(declared, images):
                w = table[v][g]
                if w not in f:
                    f[w] = table[f[v]][t]
                    queue.append(w)
        if len(f) != group.order or len(set(f.values())) != group.order:
            continue
        m = [f[g] for g in elements]
        # row p of the table: f(p*q) = f(p)*f(q) for every q
        if all([m[v] for v in table[p]] == [table[m[p]][w] for w in m] for p in elements):
            found.append(tuple(m))
    return sorted(found)
