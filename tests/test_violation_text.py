"""Pinned axiom-violation text for small corrupted algebras.

The order, witnesses and wording of the violation list reach users through
``str(ValidationError)`` and ``dgbr validate``; these cases freeze all three.
"""
import pytest

from dgbr.catalog import dual_numbers, mat2_inner
from dgbr.dg import DgAlgebra, tensor_product
from dgbr.errors import ValidationError
from dgbr.fields import GF, QQ

FIELDS = {"QQ": QQ, "GF(10007)": GF(10007)}


def base(name, field):
    if name == "mat2-inner":
        return mat2_inner(field)
    D = dual_numbers(field)
    return tensor_product(D, D)


def corrupt(A, kind):
    """Structure data of A with one defect: a doubled unit, one product
    coefficient raised by 1 on the last basis element, the last basis
    element as the product of the first pair whose product was zero, or
    d(e0) given an extra e0 term."""
    f = A.field
    unit = dict(A.unit)
    table = {k: dict(v) for k, v in A.table.items()}
    diff = {k: dict(v) for k, v in A.dcols.items()}
    if kind == "doubled-unit":
        unit = {i: f.add(c, c) for i, c in unit.items()}
    elif kind == "product-entry":
        key, m = min(table), A.dim - 1
        table[key][m] = f.add(table[key].get(m, f.zero), f.one)
    elif kind == "new-product":
        n = A.dim
        key = min((i, j) for i in range(n) for j in range(n) if (i, j) not in table)
        table[key] = {n - 1: f.one}
    else:
        i = min(diff)
        diff[i][i] = f.add(diff[i].get(i, f.zero), f.one)
    return unit, table, diff


PINNED = {
    ('mat2-inner', 'doubled-unit', 'QQ'): (
        ('8 axiom violation(s): unit-law fails at (0,): 1*e differs from e; '
         'unit-law fails at (0,): e*1 differs from e; '
         'unit-law fails at (1,): 1*e differs from e; '
         'unit-law fails at (1,): e*1 differs from e (+4 more)'),
        [
            ('unit-law', (0,),
             '1*e differs from e'),
            ('unit-law', (0,),
             'e*1 differs from e'),
            ('unit-law', (1,),
             '1*e differs from e'),
            ('unit-law', (1,),
             'e*1 differs from e'),
            ('unit-law', (2,),
             '1*e differs from e'),
            ('unit-law', (2,),
             'e*1 differs from e'),
            ('unit-law', (3,),
             '1*e differs from e'),
            ('unit-law', (3,),
             'e*1 differs from e'),
        ],
    ),
    ('mat2-inner', 'product-entry', 'QQ'): (
        ('9 axiom violation(s): degree-additivity fails at (0, 1): product hits degree 1, expected -1; '
         'unit-law fails at (0,): e*1 differs from e; '
         'associativity fails at (0, 0, 1): (e0*e0)*e1 = 0 but e0*(e0*e1) = 1*e22; '
         'associativity fails at (0, 1, 0): (e0*e1)*e0 = 1*e11 but e0*(e1*e0) = 0 (+5 more)'),
        [
            ('degree-additivity', (0, 1),
             'product hits degree 1, expected -1'),
            ('unit-law', (0,),
             'e*1 differs from e'),
            ('associativity', (0, 0, 1),
             '(e0*e0)*e1 = 0 but e0*(e0*e1) = 1*e22'),
            ('associativity', (0, 1, 0),
             '(e0*e1)*e0 = 1*e11 but e0*(e1*e0) = 0'),
            ('associativity', (0, 1, 2),
             '(e0*e1)*e2 = 1*e12 but e0*(e1*e2) = 0'),
            ('associativity', (0, 3, 0),
             '(e0*e3)*e0 = 1*e21 but e0*(e3*e0) = 1*e21 + 1*e12'),
            ('associativity', (1, 0, 1),
             '(e1*e0)*e1 = 0 but e1*(e0*e1) = 1*e12'),
            ('associativity', (2, 0, 1),
             '(e2*e0)*e1 = 1*e21 + 1*e12 but e2*(e0*e1) = 1*e21'),
            ('leibniz', (0, 0),
             'd(e0*e0) = 0 but the rule gives -1*e12'),
        ],
    ),
    ('mat2-inner', 'd-column', 'QQ'): (
        ('4 axiom violation(s): d-degree fails at (0,): d hits degree -1 from degree -1; '
         'd-squared fails at (0,): d(d(e0)) = 1*e21 + 1*e11 + 1*e22; '
         'leibniz fails at (0, 3): d(e0*e3) = 1*e12 but the rule gives 1*e22 + 1*e12; '
         'leibniz fails at (3, 0): d(e3*e0) = -1*e12 but the rule gives -1*e11 + -1*e12'),
        [
            ('d-degree', (0,),
             'd hits degree -1 from degree -1'),
            ('d-squared', (0,),
             'd(d(e0)) = 1*e21 + 1*e11 + 1*e22'),
            ('leibniz', (0, 3),
             'd(e0*e3) = 1*e12 but the rule gives 1*e22 + 1*e12'),
            ('leibniz', (3, 0),
             'd(e3*e0) = -1*e12 but the rule gives -1*e11 + -1*e12'),
        ],
    ),
    ('dual@dual', 'doubled-unit', 'QQ'): (
        ('8 axiom violation(s): unit-law fails at (0,): 1*e differs from e; '
         'unit-law fails at (0,): e*1 differs from e; '
         'unit-law fails at (1,): 1*e differs from e; '
         'unit-law fails at (1,): e*1 differs from e (+4 more)'),
        [
            ('unit-law', (0,),
             '1*e differs from e'),
            ('unit-law', (0,),
             'e*1 differs from e'),
            ('unit-law', (1,),
             '1*e differs from e'),
            ('unit-law', (1,),
             'e*1 differs from e'),
            ('unit-law', (2,),
             '1*e differs from e'),
            ('unit-law', (2,),
             'e*1 differs from e'),
            ('unit-law', (3,),
             '1*e differs from e'),
            ('unit-law', (3,),
             'e*1 differs from e'),
        ],
    ),
    ('dual@dual', 'product-entry', 'QQ'): (
        ('13 axiom violation(s): degree-additivity fails at (0, 3): product hits degree 0, expected -2; '
         'unit-law fails at (0,): e*1 differs from e; '
         'associativity fails at (0, 0, 3): (e0*e0)*e3 = 0 but e0*(e0*e3) = 1*X@X + 1*1@1; '
         'associativity fails at (0, 3, 0): (e0*e3)*e0 = 1*X@X but e0*(e3*e0) = 0 (+9 more)'),
        [
            ('degree-additivity', (0, 3),
             'product hits degree 0, expected -2'),
            ('unit-law', (0,),
             'e*1 differs from e'),
            ('associativity', (0, 0, 3),
             '(e0*e0)*e3 = 0 but e0*(e0*e3) = 1*X@X + 1*1@1'),
            ('associativity', (0, 3, 0),
             '(e0*e3)*e0 = 1*X@X but e0*(e3*e0) = 0'),
            ('associativity', (0, 3, 1),
             '(e0*e3)*e1 = 1*X@1 but e0*(e3*e1) = 0'),
            ('associativity', (0, 3, 2),
             '(e0*e3)*e2 = 1*1@X but e0*(e3*e2) = 0'),
            ('associativity', (0, 3, 3),
             '(e0*e3)*e3 = 1*X@X + 2*1@1 but e0*(e3*e3) = 1*X@X + 1*1@1'),
            ('associativity', (1, 0, 3),
             '(e1*e0)*e3 = 0 but e1*(e0*e3) = 1*X@1'),
            ('associativity', (1, 2, 3),
             '(e1*e2)*e3 = 1*X@X + 1*1@1 but e1*(e2*e3) = 1*X@X'),
            ('associativity', (2, 0, 3),
             '(e2*e0)*e3 = 0 but e2*(e0*e3) = 1*1@X'),
            ('associativity', (2, 1, 3),
             '(e2*e1)*e3 = -1*X@X + -1*1@1 but e2*(e1*e3) = -1*X@X'),
            ('leibniz', (0, 1),
             'd(e0*e1) = 0 but the rule gives 1*1@1'),
            ('leibniz', (0, 2),
             'd(e0*e2) = 0 but the rule gives 1*1@1'),
        ],
    ),
    ('dual@dual', 'd-column', 'QQ'): (
        ('4 axiom violation(s): d-degree fails at (0,): d hits degree -2 from degree -2; '
         'd-squared fails at (0,): d(d(e0)) = 1*X@X + -1*X@1 + 1*1@X; '
         'leibniz fails at (1, 2): d(e1*e2) = 1*X@X + -1*X@1 + 1*1@X but the rule gives -1*X@1 + 1*1@X; '
         'leibniz fails at (2, 1): d(e2*e1) = -1*X@X + 1*X@1 + -1*1@X but the rule gives 1*X@1 + -1*1@X'),
        [
            ('d-degree', (0,),
             'd hits degree -2 from degree -2'),
            ('d-squared', (0,),
             'd(d(e0)) = 1*X@X + -1*X@1 + 1*1@X'),
            ('leibniz', (1, 2),
             'd(e1*e2) = 1*X@X + -1*X@1 + 1*1@X but the rule gives -1*X@1 + 1*1@X'),
            ('leibniz', (2, 1),
             'd(e2*e1) = -1*X@X + 1*X@1 + -1*1@X but the rule gives 1*X@1 + -1*1@X'),
        ],
    ),
    ('mat2-inner', 'doubled-unit', 'GF(10007)'): (
        ('8 axiom violation(s): unit-law fails at (0,): 1*e differs from e; '
         'unit-law fails at (0,): e*1 differs from e; '
         'unit-law fails at (1,): 1*e differs from e; '
         'unit-law fails at (1,): e*1 differs from e (+4 more)'),
        [
            ('unit-law', (0,),
             '1*e differs from e'),
            ('unit-law', (0,),
             'e*1 differs from e'),
            ('unit-law', (1,),
             '1*e differs from e'),
            ('unit-law', (1,),
             'e*1 differs from e'),
            ('unit-law', (2,),
             '1*e differs from e'),
            ('unit-law', (2,),
             'e*1 differs from e'),
            ('unit-law', (3,),
             '1*e differs from e'),
            ('unit-law', (3,),
             'e*1 differs from e'),
        ],
    ),
    ('mat2-inner', 'product-entry', 'GF(10007)'): (
        ('9 axiom violation(s): degree-additivity fails at (0, 1): product hits degree 1, expected -1; '
         'unit-law fails at (0,): e*1 differs from e; '
         'associativity fails at (0, 0, 1): (e0*e0)*e1 = 0 but e0*(e0*e1) = 1*e22; '
         'associativity fails at (0, 1, 0): (e0*e1)*e0 = 1*e11 but e0*(e1*e0) = 0 (+5 more)'),
        [
            ('degree-additivity', (0, 1),
             'product hits degree 1, expected -1'),
            ('unit-law', (0,),
             'e*1 differs from e'),
            ('associativity', (0, 0, 1),
             '(e0*e0)*e1 = 0 but e0*(e0*e1) = 1*e22'),
            ('associativity', (0, 1, 0),
             '(e0*e1)*e0 = 1*e11 but e0*(e1*e0) = 0'),
            ('associativity', (0, 1, 2),
             '(e0*e1)*e2 = 1*e12 but e0*(e1*e2) = 0'),
            ('associativity', (0, 3, 0),
             '(e0*e3)*e0 = 1*e21 but e0*(e3*e0) = 1*e21 + 1*e12'),
            ('associativity', (1, 0, 1),
             '(e1*e0)*e1 = 0 but e1*(e0*e1) = 1*e12'),
            ('associativity', (2, 0, 1),
             '(e2*e0)*e1 = 1*e21 + 1*e12 but e2*(e0*e1) = 1*e21'),
            ('leibniz', (0, 0),
             'd(e0*e0) = 0 but the rule gives 10006*e12'),
        ],
    ),
    ('mat2-inner', 'd-column', 'GF(10007)'): (
        ('4 axiom violation(s): d-degree fails at (0,): d hits degree -1 from degree -1; '
         'd-squared fails at (0,): d(d(e0)) = 1*e21 + 1*e11 + 1*e22; '
         'leibniz fails at (0, 3): d(e0*e3) = 1*e12 but the rule gives 1*e22 + 1*e12; '
         'leibniz fails at (3, 0): d(e3*e0) = 10006*e12 but the rule gives 10006*e11 + 10006*e12'),
        [
            ('d-degree', (0,),
             'd hits degree -1 from degree -1'),
            ('d-squared', (0,),
             'd(d(e0)) = 1*e21 + 1*e11 + 1*e22'),
            ('leibniz', (0, 3),
             'd(e0*e3) = 1*e12 but the rule gives 1*e22 + 1*e12'),
            ('leibniz', (3, 0),
             'd(e3*e0) = 10006*e12 but the rule gives 10006*e11 + 10006*e12'),
        ],
    ),
    ('dual@dual', 'doubled-unit', 'GF(10007)'): (
        ('8 axiom violation(s): unit-law fails at (0,): 1*e differs from e; '
         'unit-law fails at (0,): e*1 differs from e; '
         'unit-law fails at (1,): 1*e differs from e; '
         'unit-law fails at (1,): e*1 differs from e (+4 more)'),
        [
            ('unit-law', (0,),
             '1*e differs from e'),
            ('unit-law', (0,),
             'e*1 differs from e'),
            ('unit-law', (1,),
             '1*e differs from e'),
            ('unit-law', (1,),
             'e*1 differs from e'),
            ('unit-law', (2,),
             '1*e differs from e'),
            ('unit-law', (2,),
             'e*1 differs from e'),
            ('unit-law', (3,),
             '1*e differs from e'),
            ('unit-law', (3,),
             'e*1 differs from e'),
        ],
    ),
    ('dual@dual', 'product-entry', 'GF(10007)'): (
        ('13 axiom violation(s): degree-additivity fails at (0, 3): product hits degree 0, expected -2; '
         'unit-law fails at (0,): e*1 differs from e; '
         'associativity fails at (0, 0, 3): (e0*e0)*e3 = 0 but e0*(e0*e3) = 1*X@X + 1*1@1; '
         'associativity fails at (0, 3, 0): (e0*e3)*e0 = 1*X@X but e0*(e3*e0) = 0 (+9 more)'),
        [
            ('degree-additivity', (0, 3),
             'product hits degree 0, expected -2'),
            ('unit-law', (0,),
             'e*1 differs from e'),
            ('associativity', (0, 0, 3),
             '(e0*e0)*e3 = 0 but e0*(e0*e3) = 1*X@X + 1*1@1'),
            ('associativity', (0, 3, 0),
             '(e0*e3)*e0 = 1*X@X but e0*(e3*e0) = 0'),
            ('associativity', (0, 3, 1),
             '(e0*e3)*e1 = 1*X@1 but e0*(e3*e1) = 0'),
            ('associativity', (0, 3, 2),
             '(e0*e3)*e2 = 1*1@X but e0*(e3*e2) = 0'),
            ('associativity', (0, 3, 3),
             '(e0*e3)*e3 = 1*X@X + 2*1@1 but e0*(e3*e3) = 1*X@X + 1*1@1'),
            ('associativity', (1, 0, 3),
             '(e1*e0)*e3 = 0 but e1*(e0*e3) = 1*X@1'),
            ('associativity', (1, 2, 3),
             '(e1*e2)*e3 = 1*X@X + 1*1@1 but e1*(e2*e3) = 1*X@X'),
            ('associativity', (2, 0, 3),
             '(e2*e0)*e3 = 0 but e2*(e0*e3) = 1*1@X'),
            ('associativity', (2, 1, 3),
             '(e2*e1)*e3 = 10006*X@X + 10006*1@1 but e2*(e1*e3) = 10006*X@X'),
            ('leibniz', (0, 1),
             'd(e0*e1) = 0 but the rule gives 1*1@1'),
            ('leibniz', (0, 2),
             'd(e0*e2) = 0 but the rule gives 1*1@1'),
        ],
    ),
    ('dual@dual', 'd-column', 'GF(10007)'): (
        ('4 axiom violation(s): d-degree fails at (0,): d hits degree -2 from degree -2; '
         'd-squared fails at (0,): d(d(e0)) = 1*X@X + 10006*X@1 + 1*1@X; '
         'leibniz fails at (1, 2): d(e1*e2) = 1*X@X + 10006*X@1 + 1*1@X but the rule gives 10006*X@1 + 1*1@X; '
         'leibniz fails at (2, 1): d(e2*e1) = 10006*X@X + 1*X@1 + 10006*1@X but the rule gives 1*X@1 + 10006*1@X'),
        [
            ('d-degree', (0,),
             'd hits degree -2 from degree -2'),
            ('d-squared', (0,),
             'd(d(e0)) = 1*X@X + 10006*X@1 + 1*1@X'),
            ('leibniz', (1, 2),
             'd(e1*e2) = 1*X@X + 10006*X@1 + 1*1@X but the rule gives 10006*X@1 + 1*1@X'),
            ('leibniz', (2, 1),
             'd(e2*e1) = 10006*X@X + 1*X@1 + 10006*1@X but the rule gives 1*X@1 + 10006*1@X'),
        ],
    ),
    ('mat2-inner', 'new-product', 'QQ'): (
        ('8 axiom violation(s): degree-additivity fails at (0, 0): product hits degree 1, expected -2; '
         'associativity fails at (0, 0, 0): (e0*e0)*e0 = 1*e11 but e0*(e0*e0) = 1*e22; '
         'associativity fails at (0, 0, 1): (e0*e0)*e1 = 0 but e0*(e0*e1) = 1*e12; '
         'associativity fails at (0, 0, 2): (e0*e0)*e2 = 1*e12 but e0*(e0*e2) = 0 (+4 more)'),
        [
            ('degree-additivity', (0, 0),
             'product hits degree 1, expected -2'),
            ('associativity', (0, 0, 0),
             '(e0*e0)*e0 = 1*e11 but e0*(e0*e0) = 1*e22'),
            ('associativity', (0, 0, 1),
             '(e0*e0)*e1 = 0 but e0*(e0*e1) = 1*e12'),
            ('associativity', (0, 0, 2),
             '(e0*e0)*e2 = 1*e12 but e0*(e0*e2) = 0'),
            ('associativity', (0, 1, 0),
             '(e0*e1)*e0 = 1*e12 but e0*(e1*e0) = 0'),
            ('associativity', (0, 2, 0),
             '(e0*e2)*e0 = 0 but e0*(e2*e0) = 1*e12'),
            ('associativity', (1, 0, 0),
             '(e1*e0)*e0 = 0 but e1*(e0*e0) = 1*e12'),
            ('associativity', (2, 0, 0),
             '(e2*e0)*e0 = 1*e12 but e2*(e0*e0) = 0'),
        ],
    ),
    ('dual@dual', 'new-product', 'QQ'): (
        ('9 axiom violation(s): degree-additivity fails at (0, 0): product hits degree 0, expected -4; '
         'associativity fails at (0, 0, 1): (e0*e0)*e1 = 1*X@1 but e0*(e0*e1) = 0; '
         'associativity fails at (0, 0, 2): (e0*e0)*e2 = 1*1@X but e0*(e0*e2) = 0; '
         'associativity fails at (0, 1, 2): (e0*e1)*e2 = 0 but e0*(e1*e2) = 1*1@1 (+5 more)'),
        [
            ('degree-additivity', (0, 0),
             'product hits degree 0, expected -4'),
            ('associativity', (0, 0, 1),
             '(e0*e0)*e1 = 1*X@1 but e0*(e0*e1) = 0'),
            ('associativity', (0, 0, 2),
             '(e0*e0)*e2 = 1*1@X but e0*(e0*e2) = 0'),
            ('associativity', (0, 1, 2),
             '(e0*e1)*e2 = 0 but e0*(e1*e2) = 1*1@1'),
            ('associativity', (0, 2, 1),
             '(e0*e2)*e1 = 0 but e0*(e2*e1) = -1*1@1'),
            ('associativity', (1, 0, 0),
             '(e1*e0)*e0 = 0 but e1*(e0*e0) = 1*X@1'),
            ('associativity', (1, 2, 0),
             '(e1*e2)*e0 = 1*1@1 but e1*(e2*e0) = 0'),
            ('associativity', (2, 0, 0),
             '(e2*e0)*e0 = 0 but e2*(e0*e0) = 1*1@X'),
            ('associativity', (2, 1, 0),
             '(e2*e1)*e0 = -1*1@1 but e2*(e1*e0) = 0'),
        ],
    ),
    ('mat2-inner', 'new-product', 'GF(10007)'): (
        ('8 axiom violation(s): degree-additivity fails at (0, 0): product hits degree 1, expected -2; '
         'associativity fails at (0, 0, 0): (e0*e0)*e0 = 1*e11 but e0*(e0*e0) = 1*e22; '
         'associativity fails at (0, 0, 1): (e0*e0)*e1 = 0 but e0*(e0*e1) = 1*e12; '
         'associativity fails at (0, 0, 2): (e0*e0)*e2 = 1*e12 but e0*(e0*e2) = 0 (+4 more)'),
        [
            ('degree-additivity', (0, 0),
             'product hits degree 1, expected -2'),
            ('associativity', (0, 0, 0),
             '(e0*e0)*e0 = 1*e11 but e0*(e0*e0) = 1*e22'),
            ('associativity', (0, 0, 1),
             '(e0*e0)*e1 = 0 but e0*(e0*e1) = 1*e12'),
            ('associativity', (0, 0, 2),
             '(e0*e0)*e2 = 1*e12 but e0*(e0*e2) = 0'),
            ('associativity', (0, 1, 0),
             '(e0*e1)*e0 = 1*e12 but e0*(e1*e0) = 0'),
            ('associativity', (0, 2, 0),
             '(e0*e2)*e0 = 0 but e0*(e2*e0) = 1*e12'),
            ('associativity', (1, 0, 0),
             '(e1*e0)*e0 = 0 but e1*(e0*e0) = 1*e12'),
            ('associativity', (2, 0, 0),
             '(e2*e0)*e0 = 1*e12 but e2*(e0*e0) = 0'),
        ],
    ),
    ('dual@dual', 'new-product', 'GF(10007)'): (
        ('9 axiom violation(s): degree-additivity fails at (0, 0): product hits degree 0, expected -4; '
         'associativity fails at (0, 0, 1): (e0*e0)*e1 = 1*X@1 but e0*(e0*e1) = 0; '
         'associativity fails at (0, 0, 2): (e0*e0)*e2 = 1*1@X but e0*(e0*e2) = 0; '
         'associativity fails at (0, 1, 2): (e0*e1)*e2 = 0 but e0*(e1*e2) = 1*1@1 (+5 more)'),
        [
            ('degree-additivity', (0, 0),
             'product hits degree 0, expected -4'),
            ('associativity', (0, 0, 1),
             '(e0*e0)*e1 = 1*X@1 but e0*(e0*e1) = 0'),
            ('associativity', (0, 0, 2),
             '(e0*e0)*e2 = 1*1@X but e0*(e0*e2) = 0'),
            ('associativity', (0, 1, 2),
             '(e0*e1)*e2 = 0 but e0*(e1*e2) = 1*1@1'),
            ('associativity', (0, 2, 1),
             '(e0*e2)*e1 = 0 but e0*(e2*e1) = 10006*1@1'),
            ('associativity', (1, 0, 0),
             '(e1*e0)*e0 = 0 but e1*(e0*e0) = 1*X@1'),
            ('associativity', (1, 2, 0),
             '(e1*e2)*e0 = 1*1@1 but e1*(e2*e0) = 0'),
            ('associativity', (2, 0, 0),
             '(e2*e0)*e0 = 0 but e2*(e0*e0) = 1*1@X'),
            ('associativity', (2, 1, 0),
             '(e2*e1)*e0 = 10006*1@1 but e2*(e1*e0) = 0'),
        ],
    ),
}


@pytest.mark.parametrize("name,kind,fld", sorted(PINNED))
def test_violation_list_and_text_are_pinned(name, kind, fld):
    field = FIELDS[fld]
    A = base(name, field)
    unit, table, diff = corrupt(A, kind)
    with pytest.raises(ValidationError) as ei:
        DgAlgebra.build(field, A.space, unit, table, diff)
    text, expected = PINNED[(name, kind, fld)]
    assert [(v.axiom, v.witness, v.detail) for v in ei.value.violations] == expected
    assert str(ei.value) == text
