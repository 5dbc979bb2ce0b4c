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


def builtin_groups(max_order, min_order=1):
    """The built-in families instantiated up to a given order."""
    out = [cc.cyclic(n) for n in range(1, max_order + 1)]
    out += [cc.dihedral(n) for n in range(3, max_order // 2 + 1)]
    out += [cc.dicyclic(n) for n in range(2, max_order // 4 + 1)]
    out += [cc.from_descriptor(d) for d in PRODUCT_DESCRIPTORS]
    out += [cc.from_descriptor(d) for d in PERM_DESCRIPTORS]
    return [g for g in out if min_order <= g.order <= max_order]


def all_automorphisms(group):
    """Every automorphism of the group as an element map, closed from the
    generators that group_automorphisms returns (small groups only)."""
    identity = tuple(group.elements())
    found = {identity}
    stack = [identity]
    generators = cc.group_automorphisms(group).generators
    while stack:
        f = stack.pop()
        for m in generators:
            composed = tuple(m[f[g]] for g in group.elements())
            if composed not in found:
                found.add(composed)
                stack.append(composed)
    return sorted(found)
