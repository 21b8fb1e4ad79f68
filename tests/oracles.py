"""Reference implementations shared by several test modules."""

from __future__ import annotations


def chain_sum(ev, cts, values, outputs, cache_key):
    """The oracle for ``Evaluator.multiply_values_rescale_sum``: the
    sequential ``multiply_values_rescale`` / ``add`` chain it fuses.

    Takes the evaluator first, so it can also be patched in as the method.
    """
    out = []
    for j in range(outputs):
        acc = None
        for i, ct in enumerate(cts):
            term = ev.multiply_values_rescale(
                ct, lambda j=j, i=i: values(j, i),
                cache_key=(*cache_key, j, i),
            )
            acc = term if acc is None else ev.add(acc, term)
        out.append(acc)
    return out
