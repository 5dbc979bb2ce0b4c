"""Reference mutual-inverse check for tests: four checks in two groups.

``oracle_mutual_inverse`` realizes P as a concrete group with
``todd_coxeter`` and checks both maps in full: psi against P's relators
in G, phi against G's presentation in <P>, psi(phi(g)) = g in G and
phi(psi(p)) = p in <P>.  It never reads an order to decide; on success
it asserts the two orders equal, which mutually inverse morphisms force.
"""

from cayleyclass import words
from cayleyclass.presentations import check_homomorphism, todd_coxeter


def _evaluate(group, text, mapping):
    return words.evaluate(words.parse_word_ast(text), mul=group.mul, identity=group.identity,
                          inv=group.inv, resolve=mapping.get)


def oracle_mutual_inverse(group, presentation, phi, psi, group_presentation, realized=None):
    """True iff phi: G -> <P> and psi: <P> -> G are morphisms and
    inverse on generators; ``group_presentation`` is G's presentation on
    its generator names, ``realized`` P's group when already built."""
    ph = realized or todd_coxeter(presentation, max_cosets=16 * group.order)
    if list(group_presentation.generator_names) != [name for name, _ in group.generators]:
        raise ValueError("group presentation generators do not match the group's")
    psi_images = {name: _evaluate(group, psi[name], group.named_elements)
                  for name in presentation.generator_names}
    if not check_homomorphism(presentation, group, psi_images):
        return False
    phi_images = {name: _evaluate(ph, phi[name], ph.named_elements)
                  for name, _ in group.generators}
    if not check_homomorphism(group_presentation, ph, phi_images):
        return False
    if any(_evaluate(group, phi[name], psi_images) != g for name, g in group.generators):
        return False
    if any(_evaluate(ph, psi[name], phi_images) != ph.named_elements[name]
           for name in presentation.generator_names):
        return False
    if group.order != ph.order:
        raise AssertionError("mutually inverse morphisms forced equal orders")
    return True
