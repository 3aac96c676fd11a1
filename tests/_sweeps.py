"""One sweep, read both as its report and as its per-point records."""

from gustrata.strata import reduce_records, sweep


def report_and_records(n, p, d, **kwargs):
    """(StrataReport, list of PointRecords) of one sweep: the records are
    drawn once, and the report is reduced from that same list."""
    mode_doc, ctx, stream = sweep(n, p, d, **kwargs)
    records = list(stream)
    return reduce_records(n, mode_doc, ctx, records), records
