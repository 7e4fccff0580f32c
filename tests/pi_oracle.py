"""The right pushforward as first written: each result row's attribute
cells are rebuilt by resolving every atom of the representable's value
through a hand-written resolver (an attribute of a retained row, an atom
the type algebra defines as one, or one side of an unoriented rewrite),
then `map_value_atoms`.  Kept as the reference that `catdb.migration.pi`
is compared with.  `gamma_oracle` is `catdb.migration.gamma` as first
written: the whole pushforward along the collage's target inclusion,
then the pullback along its source inclusion."""

from __future__ import annotations

from catdb.instance import (
    DomainDependence, SaturatedInstance, canonical_form,
    enumerate_transforms, representable_instance, rows_by_assignment,
    saturate,
)
from catdb.kernel import App, Sort, Term, Var, app, render_term, subst_map
from catdb import migration
from catdb.migration import MigrationError, delta
from catdb.rewrite import DEFAULT_BUDGET, Budget
from catdb.schema import SchemaMapping
from catdb.typeside import CanonicalValue, _bare_atom, map_value_atoms


def pi(F: SchemaMapping, I: SaturatedInstance,
       budget: Budget = DEFAULT_BUDGET) -> SaturatedInstance:
    """Right pushforward: a row at target entity t is a transform from the
    canonical presentation of delta(F, saturate(y(t))) into I; edges act
    by path precomposition, attributes by evaluating their value in the
    representable's type algebra under the transform."""
    tgt = F.target
    per: dict[Sort, dict] = {}
    for t in tgt.entities:
        sat = saturate(representable_instance(tgt, t), budget)
        dI = delta(F, sat)
        cp, _, names = canonical_form(dI)  # names by (entity, row)
        alphas = enumerate_transforms(cp, I)
        # the atoms the algebra defines as another bare atom, by that atom
        defined_as: dict[Term, list[Term]] = {}
        for key, val in sat.typealg._subst.items():
            bare = _bare_atom(val)
            if bare is not None:
                defined_as.setdefault(bare, []).append(key)
        per[t] = {"sat": sat, "names": names, "alphas": alphas,
                  "defined_as": defined_as,
                  "rows": [Var(f"{t.name.lower()}{i + 1}")
                           for i in range(len(alphas))]}

    row_list = {t: list(per[t]["rows"]) for t in tgt.entities}
    alpha_of = {t: dict(zip(per[t]["rows"], per[t]["alphas"]))
                for t in tgt.entities}
    row_of = {t: rows_by_assignment(per[t]["rows"], per[t]["alphas"])
              for t in tgt.entities}

    # the attributes of I's schema that F sends to a target attribute
    # alone, by that attribute: F3 sends both a and b to n
    preimages: dict = {}
    for a in F.source.attributes:
        img = F.on_attr(a)
        if isinstance(img, App) and img.args == (Var("x"),):
            preimages.setdefault(img.symbol, []).append(a)

    def resolve_atom_fn(t, alpha):
        names = per[t]["names"]
        assign = alpha.row_assignment()
        alg = per[t]["sat"].typealg
        defined_as = per[t]["defined_as"]

        def direct(atom: Term) -> CanonicalValue | None:
            # a target attribute at a row, read through the first attribute
            # of I's schema that F sends to it at one of the row's entities
            if isinstance(atom, App) and atom.args:
                for a in preimages.get(atom.symbol, ()):
                    key = a.dom[0], atom.args[0]
                    if key in names:
                        return I.attr_cols[a][assign[names[key]]]
            return None

        def fn(atom: Term, _seen=None) -> CanonicalValue:
            v = direct(atom)
            if v is not None:
                return v
            # the algebra may know this atom as the definition of a
            # resolvable one (e.g. a pulled-back copy of the same cell)
            for key in defined_as.get(atom, ()):
                v = direct(key)
                if v is not None:
                    return v
            # or relate it to an expressible value in an unoriented way
            seen = _seen or frozenset()
            if atom not in seen:
                for big, small in alg._residual.items():
                    for this, other in ((big, small), (small, big)):
                        if _bare_atom(this) == atom:
                            try:
                                return I.typealg.simplify(map_value_atoms(
                                    other,
                                    lambda a: fn(a, seen | {atom})))
                            except DomainDependence:
                                continue
            raise DomainDependence(
                f"attribute cell depends on a value outside the image: "
                f"{render_term(atom)}")
        return fn

    edge_cols = {}
    for h in tgt.edges:
        t, t1 = h.dom[0], h.cod
        names_t, names_t1 = per[t]["names"], per[t1]["names"]
        sat_t = per[t]["sat"]
        rows = per[t]["rows"]
        # (generator of y(t1), generator of y(t) it lands on when its row,
        # a path term over x:t1, is precomposed with h), once for all rows
        pre = []
        if rows:
            x_t = {"x": sat_t.gen_env["x"]}
            for (s, r1), g1 in names_t1.items():
                r_in_t = sat_t.eval_entity(
                    subst_map(r1, {"x": app(h, Var("x"))}), x_t)
                pre.append((g1, names_t[s, r_in_t]))
        col = {}
        for row in rows:
            assign = alpha_of[t][row].row_assignment()
            beta = {g1: assign[g] for g1, g in pre if g in assign}
            hits = row_of[t1].get(frozenset(beta.items()), [])
            if len(hits) != 1:
                raise MigrationError("edge precomposition did not land on "
                                     "a unique row")
            col[row] = hits[0]
        edge_cols[h] = col

    attr_cols = {}
    resolvers: dict = {}  # (t, row) -> its atom resolver, built once
    for a in tgt.attributes:
        t = a.dom[0]
        rows = per[t]["rows"]
        col = {}
        if rows:
            sat_t = per[t]["sat"]
            v0 = sat_t.eval_type(app(a, Var("x")), {"x": sat_t.gen_env["x"]})
        for row in rows:
            fn = resolvers.get((t, row))
            if fn is None:
                fn = resolvers[t, row] = resolve_atom_fn(t, alpha_of[t][row])
            col[row] = I.typealg.simplify(map_value_atoms(v0, fn))
        attr_cols[a] = col

    out = SaturatedInstance(tgt, row_list, edge_cols, attr_cols,
                            I.typealg, {})
    out.pi_details = per
    return out


def gamma_oracle(M: migration.BimodulePresentation, J: SaturatedInstance,
                 budget: Budget = DEFAULT_BUDGET) -> SaturatedInstance:
    """delta(incl_src, pi(incl_dst, J)) with the library's pi: the tables
    of every collage entity are built, and all but the source's dropped."""
    col = migration.collage_of_bimodule(M, budget)
    return delta(col.incl_src, migration.pi(col.incl_dst, J, budget))
