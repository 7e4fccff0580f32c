"""Test oracle: the recursive isomorphism search.

This is the ``instances_isomorphic`` catdb used before the one in
``catdb.instance``, which searches on an explicit stack and checks edge
cells and the atom bijection at each assignment.  This one recurses once
per row and checks every edge cell and the whole atom renaming only at
the leaves.  It is slow but simple, so the tests compare the two.  Nothing
under ``src/`` imports it.
"""

from __future__ import annotations

from collections import Counter

from catdb.instance import SaturatedInstance
from catdb.kernel import App, Term, Var, term_key
from catdb.typeside import map_value_atoms, opaque_atom


def instances_isomorphic(a: SaturatedInstance, b: SaturatedInstance,
                         entity_names: dict | None = None,
                         column_names: dict | None = None) -> bool:
    """Row-bijection comparison of two saturated instances, cell for cell.

    Entities and columns are matched by name unless correspondences are
    given.  Ground cells must be equal; indeterminate cells must agree up
    to a single consistent one-to-one renaming of atoms.  A row is an
    (entity, term) pair, as a term may be a row of two entities."""
    ea = {e.name: e for e in a.schema.entities}
    eb = {e.name: e for e in b.schema.entities}
    emap = entity_names or {n: n for n in ea}
    if set(emap) != set(ea) or set(emap.values()) != set(eb):
        return False
    cols_a = {s.name: s for s in a.schema.edges + a.schema.attributes}
    cols_b = {s.name: s for s in b.schema.edges + b.schema.attributes}
    cmap = column_names or {n: n for n in cols_a}
    if set(cmap) != set(cols_a) or set(cmap.values()) != set(cols_b):
        return False

    def atom_sort(at, alg):
        if isinstance(at, App):
            return at.symbol.cod
        for n, s in alg.nulls.bindings:
            if n == at.name:
                return s
        return at.sort if hasattr(at, "sort") else None

    def shape_and_atoms(v, alg):
        atoms = sorted(v.atoms(), key=term_key)
        ph = {at: opaque_atom(Var(f"@{i}"), atom_sort(at, alg))
              for i, at in enumerate(atoms)}
        return map_value_atoms(v, lambda at: ph[at]), atoms

    # attribute cells by (column of a, row), as (shape, atoms in key order)
    attr_pairs = [(att, cols_b[cmap[att.name]]) for att in a.schema.attributes]
    cells_a = {(att, r): shape_and_atoms(a.attr_cols[att][r], a.typealg)
               for att, _ in attr_pairs for r in a.rows(att.dom[0])}
    cells_b = {(att, r): shape_and_atoms(b.attr_cols[att_b][r], b.typealg)
               for att, att_b in attr_pairs for r in b.rows(att_b.dom[0])}

    # Each row of a may only map to a row of b whose attribute cells have
    # the same shapes, which consistent() needs anyway.
    pairs = []  # ((entity, a row), candidate b rows in table order)
    for name, e in ea.items():
        e2 = eb[emap[name]]
        if len(a.rows(e)) != len(b.rows(e2)):
            return False
        atts = [att for att, _ in attr_pairs if att.dom[0] == e]
        shapes_a = [tuple(cells_a[att, r][0] for att in atts)
                    for r in a.rows(e)]
        shapes_b = [tuple(cells_b[att, r][0] for att in atts)
                    for r in b.rows(e2)]
        if Counter(shapes_a) != Counter(shapes_b):
            return False
        by_shape: dict[tuple, list[Term]] = {}
        for r, k in zip(b.rows(e2), shapes_b):
            by_shape.setdefault(k, []).append(r)
        pairs += [((e, r), by_shape[k]) for r, k in zip(a.rows(e), shapes_a)]

    def consistent(rowmap):
        for f in a.schema.edges:
            fb = cols_b[cmap[f.name]]
            for r in a.rows(f.dom[0]):
                if rowmap[f.cod, a.edge_cols[f][r]] \
                        != b.edge_cols[fb][rowmap[f.dom[0], r]]:
                    return False
        # the atom renaming must be a bijection
        atom_map: dict = {}
        inverse: dict = {}
        for att, _ in attr_pairs:
            for r in a.rows(att.dom[0]):
                for x, y in zip(cells_a[att, r][1],
                                cells_b[att, rowmap[att.dom[0], r]][1]):
                    if atom_map.setdefault(x, y) != y \
                            or inverse.setdefault(y, x) != x:
                        return False
        return True

    def search(i, rowmap, used):
        if i == len(pairs):
            return consistent(rowmap)
        r, cands = pairs[i]
        for cand in cands:
            if (r[0], cand) in used:
                continue
            rowmap[r] = cand
            if search(i + 1, rowmap, used | {(r[0], cand)}):
                return True
            del rowmap[r]
        return False

    return search(0, {}, frozenset())
