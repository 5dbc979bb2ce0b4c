"""Reference coset enumeration for tests: the plain two-column HLT loop.

Every generator gets a column for itself and one for its inverse
(column 2i and 2i+1), every relator is scanned at every coset, and the
closed table is a dict-renumbered list of rows.  Elements are named by
breadth-first words over the generator columns, spelled with
``words.syllables_text``.  It shares no code with ``todd_coxeter``
beyond the presentation types and the word helpers.
"""

from cayleyclass import words
from cayleyclass.presentations import CosetLimitExceeded


class _Enumeration:
    """HLT coset enumeration state over the trivial subgroup."""

    def __init__(self, ngens, max_cosets):
        self.ncols = 2 * ngens  # column 2i is generator i, 2i+1 its inverse
        self.max_cosets = max_cosets
        self.table = [[None] * self.ncols]
        self.p = [0]  # union-find, p[i] <= i

    def rep(self, k):
        root = k
        while self.p[root] != root:
            root = self.p[root]
        while self.p[k] != root:
            self.p[k], k = root, self.p[k]
        return root

    def define(self, alpha, col):
        if len(self.table) >= self.max_cosets:
            raise CosetLimitExceeded(self.max_cosets)
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.table[alpha][col] = beta
        self.table[beta][col ^ 1] = alpha

    def _merge(self, a, b, queue):
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        self.p[hi] = lo
        queue.append(hi)

    def coincidence(self, a, b):
        queue = []
        self._merge(a, b, queue)
        head = 0
        while head < len(queue):
            gamma = queue[head]
            head += 1
            row = self.table[gamma]
            for col in range(self.ncols):
                delta = row[col]
                if delta is None:
                    continue
                self.table[delta][col ^ 1] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                existing = self.table[mu][col]
                if existing is not None:
                    self._merge(nu, existing, queue)
                elif self.table[nu][col ^ 1] is not None:
                    self._merge(mu, self.table[nu][col ^ 1], queue)
                else:
                    self.table[mu][col] = nu
                    self.table[nu][col ^ 1] = mu

    def scan_and_fill(self, alpha, word_cols):
        f, i = alpha, 0
        b, j = alpha, len(word_cols) - 1
        while True:
            table = self.table
            while i <= j and table[f][word_cols[i]] is not None:
                f = table[f][word_cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and table[b][word_cols[j] ^ 1] is not None:
                b = table[b][word_cols[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                table[f][word_cols[i]] = b
                table[b][word_cols[i] ^ 1] = f
                return
            self.define(f, word_cols[i])


def oracle_enumerate(presentation, max_cosets=65536):
    """(names, action) of the presentation's group: ``names`` lists the
    element names by closed-table row, ``action`` maps each generator
    name to the row list of x*g."""
    ngens = len(presentation.generator_names)
    relator_cols = [
        [2 * g if s > 0 else 2 * g + 1 for g, s in r.letters()]
        for r in presentation.relators
        if r.syllables
    ]
    enum = _Enumeration(ngens, max_cosets)
    alpha = 0
    while alpha < len(enum.table):
        if enum.p[alpha] == alpha:
            for cols in relator_cols:
                enum.scan_and_fill(alpha, cols)
                if enum.p[alpha] != alpha:
                    break
            if enum.p[alpha] == alpha:
                for col in range(enum.ncols):
                    if enum.table[alpha][col] is None:
                        enum.define(alpha, col)
        alpha += 1

    live = [k for k in range(len(enum.table)) if enum.p[k] == k]
    renumber = {old: new for new, old in enumerate(live)}
    table = [
        [renumber[enum.rep(enum.table[old][col])] for col in range(enum.ncols)]
        for old in live
    ]
    order = len(live)
    for c in range(order):
        for col in range(enum.ncols):
            if table[table[c][col]][col ^ 1] != c:
                raise RuntimeError("oracle table is not closed under inverses")
    for cols in relator_cols:
        for c in range(order):
            cursor = c
            for col in cols:
                cursor = table[cursor][col]
            if cursor != c:
                raise RuntimeError("oracle table fails a relator trace")

    coset_words = [None] * order
    coset_words[0] = ()
    queue = [0]
    for c in queue:
        for g in range(ngens):
            d = table[c][2 * g]
            if coset_words[d] is None:
                coset_words[d] = coset_words[c] + (g,)
                queue.append(d)
    if any(w is None for w in coset_words):
        raise RuntimeError("oracle table is not transitive")
    names = [
        words.syllables_text(
            words.letters_to_syllables([(g, 1) for g in w]), presentation.generator_names
        )
        for w in coset_words
    ]
    action = {
        name: [table[c][2 * g] for c in range(order)]
        for g, name in enumerate(presentation.generator_names)
    }
    return names, action
