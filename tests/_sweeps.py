"""Helpers on the package's sweep kernels, shared by the tests and by
calibration/template_charpoly.py: one sweep read both as its report and
as its per-point records, the Berkowitz charpoly of a chunk's lane
matrix and the closed-form one put back together from its unit parts."""

from gustrata._linalg import (_berkowitz, _blocks, _restrict, poly_mul,
                              sparse_transpose, twisted_product)
from gustrata.displayzoo import _template_charpoly
from gustrata.strata import reduce_records, sweep


def report_and_records(n, p, d, **kwargs):
    """(StrataReport, list of PointRecords) of one sweep: the records are
    drawn once, and the report is reduced from that same list."""
    mode_doc, ctx, stream = sweep(n, p, d, **kwargs)
    records = list(stream)
    return reduce_records(n, mode_doc, ctx, records), records


def berkowitz_charpoly(lops, factors, n):
    """det(yI - M), low degree first, for the lane matrix M with the given
    factors, by Berkowitz as lane_slope_pairs runs it: on each block of M
    transposed, in Tarjan's order (a plain order costs ten times more at
    n = 128), and the blocks' charpolys multiplied."""
    srows = twisted_product(lops, factors)
    mat = sparse_transpose(srows, n)
    g = [lops.one]
    for block in _blocks(srows):
        poly = _berkowitz(lops, _restrict(mat, block))
        g = poly_mul(lops, g, poly, len(g) + len(poly) - 1)
    return g[::-1]


def closed_form_charpoly(ctx, n, rows):
    """(lops, g) for the unit parts u_k of displayzoo._template_charpoly
    at ctx: the lane coefficients of g = det(yI - M), low degree first,
    c_0 = 1, c_n = p^n and c_k = p^(k-1) u_k mod p^N."""
    lops, units = _template_charpoly(ctx, n, rows)
    ops, p = lops.base, ctx.p

    def times_p(c, e):
        return tuple([lops.pack(ops.scale(p ** e, lops.unpack(x)))
                      for x in c])

    return lops, ([times_p(lops.one, n)]
                  + [times_p(units[k - 1], k - 1) for k in range(n - 1, 0, -1)]
                  + [lops.one])
