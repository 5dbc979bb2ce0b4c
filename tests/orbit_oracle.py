"""Orbits of elements and of k-sets under automorphism maps, by plain
closure: the reference that the stabilizer tree of
``groups.StabilizerNode`` is checked against.
"""


def orbit_minima(count, maps, inverse=None):
    """The least element of the orbit of each id 0..count-1 under the
    automorphism maps and, when inverse is given, inversion: the orbits
    of the 1-sets under ``set_orbit``."""
    least = [-1] * count
    for g in range(count):
        if least[g] == -1:  # every smaller id is placed: g leads its orbit
            for (h,) in set_orbit((g,), maps, inverse):
                least[h] = g
    return least


def set_orbit(subset, maps, inverse=None):
    """Sorted k-sets reachable from subset under the automorphism maps
    and, when inverse is given, under inverting one element whose
    inverse is not another element of the set."""
    orbit = {subset}
    stack = [subset]
    while stack:
        current = stack.pop()
        images = [tuple(sorted(m[g] for g in current)) for m in maps]
        if inverse is not None:
            for i, g in enumerate(current):
                h = inverse[g]
                if h != g and h not in current:
                    images.append(tuple(sorted(current[:i] + (h,) + current[i + 1 :])))
        for image in images:
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    return orbit
