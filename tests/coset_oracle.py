"""Reference coset enumerations for tests: plain HLT loops that skip
no scan at any live coset.

``oracle_enumerate`` is the two-column loop: every generator gets a
column for itself and one for its inverse (column 2i and 2i+1).  With
``share_involutions`` it is the one-column loop: a generator with a
relator that cyclically reduces to g^2 or g^-2 has one column for g and
g^-1, and that relator is not scanned, so it defines the same cosets as
``todd_coxeter``, which skips only scans that cannot change the table.
The closed table is a dict-renumbered list of rows.  Elements are named
by breadth-first words over the generator columns, spelled with
``words.syllables_text``.  It shares no code with ``todd_coxeter``
beyond the presentation types and the word helpers.
"""

from cayleyclass import words
from cayleyclass.presentations import CosetLimitExceeded


class _Enumeration:
    """HLT coset enumeration state over the trivial subgroup; ``inv[col]``
    is the column of the inverse letter."""

    def __init__(self, inv, max_cosets):
        self.inv = inv
        self.ncols = len(inv)
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
        self.table[beta][self.inv[col]] = alpha

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
                back = self.inv[col]
                self.table[delta][back] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                existing = self.table[mu][col]
                if existing is not None:
                    self._merge(nu, existing, queue)
                elif self.table[nu][back] is not None:
                    self._merge(mu, self.table[nu][back], queue)
                else:
                    self.table[mu][col] = nu
                    self.table[nu][back] = mu

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
            while j >= i and table[b][self.inv[word_cols[j]]] is not None:
                b = table[b][self.inv[word_cols[j]]]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                table[f][word_cols[i]] = b
                table[b][self.inv[word_cols[i]]] = f
                return
            self.define(f, word_cols[i])


def _square_of(relator):
    """The generator g if the relator cyclically reduces to g^2 or g^-2."""
    letters = words.cyclically_reduce(relator.letters())
    if len(letters) == 2 and letters[0] == letters[1]:
        return letters[0][0]
    return None


def oracle_enumerate(presentation, max_cosets=65536, share_involutions=False):
    """(names, action) of the presentation's group: ``names`` lists the
    element names by closed-table row, ``action`` maps each generator
    name to the row list of x*g."""
    relators = [r for r in presentation.relators if r.syllables]
    squares = [_square_of(r) if share_involutions else None for r in relators]
    letter_col, inv = [], []  # letter 2g is generator g, 2g+1 its inverse
    for g in range(len(presentation.generator_names)):
        col = len(inv)
        if g in squares:
            letter_col += [col, col]
            inv.append(col)
        else:
            letter_col += [col, col + 1]
            inv += [col + 1, col]
    relator_cols = [
        [letter_col[2 * g if s > 0 else 2 * g + 1] for g, s in r.letters()] for r in relators
    ]
    scanned = [cols for cols, square in zip(relator_cols, squares) if square is None]
    enum = _Enumeration(inv, max_cosets)
    alpha = 0
    while alpha < len(enum.table):
        if enum.p[alpha] == alpha:
            for cols in scanned:
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
            if table[table[c][col]][inv[col]] != c:
                raise RuntimeError("oracle table is not closed under inverses")
    for cols in relator_cols:
        for c in range(order):
            cursor = c
            for col in cols:
                cursor = table[cursor][col]
            if cursor != c:
                raise RuntimeError("oracle table fails a relator trace")

    ngens = len(presentation.generator_names)
    coset_words = [None] * order
    coset_words[0] = ()
    queue = [0]
    for c in queue:
        for g in range(ngens):
            d = table[c][letter_col[2 * g]]
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
        name: [table[c][letter_col[2 * g]] for c in range(order)]
        for g, name in enumerate(presentation.generator_names)
    }
    return names, action
