"""Test oracle: the nested-loop transform search.

This is the transform enumeration catdb used before the indexed one in
``catdb.instance``: every search node re-runs propagation over every
equation and re-evaluates both sides of each, and a generator is branched
on over all rows of its sort.  It is slow but simple, so the tests compare
the indexed search against it.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from catdb.instance import (
    DomainDependence, InstanceError, InstancePresentation, SaturatedInstance,
    Transform,
)
from catdb.kernel import Term, Var, term_vars
from catdb.rewrite import EqResult
from catdb.typeside import decide_values


def enumerate_transforms(src: InstancePresentation,
                         dst: SaturatedInstance) -> list[Transform]:
    """All generator assignments into dst's rows satisfying src's
    equations, in deterministic order (generators by declaration, rows by
    table order).  Type-sorted generators must be forced by equations."""
    if src.schema.presentation != dst.schema.presentation:
        raise InstanceError("transform endpoints live on different schemas")
    is_ent = src.schema.is_entity
    ent_gens = src.entity_generators()
    type_gen_names = [n for n, _ in src.type_generators()]
    gens = src.generators

    def side_vars(t: Term):
        return term_vars(t)

    eq_info = []
    for eq in src.equations:
        vs = side_vars(eq.lhs) | side_vars(eq.rhs)
        ent_vs = {v for v in vs if v in gens and is_ent(gens.sort_of(v))}
        typ_vs = {v for v in vs if v in gens and not is_ent(gens.sort_of(v))}
        eq_info.append((eq, ent_vs, typ_vs))

    results: list[Transform] = []

    def propagate(env: dict[str, Term], vals: dict) -> bool:
        changed = True
        while changed:
            changed = False
            for eq, ent_vs, typ_vs in eq_info:
                if not ent_vs <= env.keys():
                    # try forcing a bare entity generator from the other side
                    for bare, other in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
                        if (is_ent(eq.sort) and isinstance(bare, Var)
                                and bare.name not in env
                                and bare.name in {n for n, _ in ent_gens}
                                and side_vars(other) <= env.keys()):
                            env[bare.name] = dst.eval_entity(other, env)
                            changed = True
                            break
                    continue
                if is_ent(eq.sort):
                    if dst.eval_entity(eq.lhs, env) != dst.eval_entity(eq.rhs, env):
                        return False
                    continue
                missing = typ_vs - vals.keys()
                if not missing:
                    if decide_values(dst.eval_type(eq.lhs, env, vals),
                                     dst.eval_type(eq.rhs, env, vals)) \
                            != EqResult.Equal:
                        return False
                    continue
                for bare, other in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
                    if (isinstance(bare, Var) and bare.name in missing
                            and not side_vars(other) & missing):
                        vals[bare.name] = dst.eval_type(other, env, vals)
                        changed = True
                        break
        return True

    def search(env: dict[str, Term], vals: dict):
        env, vals = dict(env), dict(vals)
        if not propagate(env, vals):
            return
        pending = [(n, s) for n, s in ent_gens if n not in env]
        if not pending:
            unforced = [n for n in type_gen_names if n not in vals]
            if unforced:
                raise DomainDependence(
                    "type-sorted generators not determined by equations: "
                    + ", ".join(unforced))
            results.append(Transform(
                src, dst,
                tuple((n, env[n]) for n, _ in ent_gens),
                tuple((n, vals[n]) for n in type_gen_names)))
            return
        name, sort = pending[0]
        for row in dst.rows(sort):
            env[name] = row
            search(env, vals)

    search({}, {})
    return results
