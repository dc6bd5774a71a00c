"""Full-space oracles for the tests.

`uqsd.pair_disc` builds each party's measurement in the two-dimensional span
of its pair, as a 2 x 2 POVM and a 4 x 4 dilation unitary, and never forms
an operator on the whole system.  The tests check those small operators
against the whole system in two ways, both kept here:

- embedding: `span_basis` gives the span's basis vectors as dim-sized
  columns, and `embed` lifts a 2 x 2 operator to the whole system through
  them (`embedded_povm`, `embedded_unitary`, `evolve_with_ancilla`);
- an independent construction: `full_povm_probs` and `full_neumark_probs`
  build the measurement on the whole system from outer products of the
  state vectors and two complete QR factorizations, without the span, and
  return its Born probabilities.

Two scalar readings of one Monte Carlo trial check the sampler of
`uqsd.montecarlo`, whose block b of trials draws one (rows, 2) uniform
matrix from the stream seeded (seed, b), one row per trial:

- `stop_cell_trial` builds the stop cells with plain loops and picks one
  from the same two uniforms as `uqsd.montecarlo._sample`, so the two must
  agree uniform for uniform;
- `sample_trial` walks the steps one at a time, one uniform per step, as the
  protocol does; the stop-cell sampler must have its law.

Two references check the closed form and the protocol without its code:

- `decimal_protocol` runs the sequential protocol again in 50-digit
  `decimal` arithmetic, closed form, failure posterior and bookkeeping;
- `zero_error_optimum` maximizes one party's success over zero-error POVMs
  built from the pair's state vectors, by a grid search, with no closed form.
"""

import decimal
import itertools
import math

import numpy as np


def unit_orthogonal(keep, drop):
    """The unit part of the vector `keep` orthogonal to the unit vector `drop`."""
    resid = keep - drop * np.vdot(drop, keep)
    return resid / np.linalg.norm(resid)


def span_basis(pair):
    """The (dim, 2) array whose columns are |b0> = |p> and |b1>, the unit part
    of |q> orthogonal to |p>: the span basis of `uqsd.pair_disc`."""
    p, q = pair.p.amplitudes, pair.q.amplitudes
    return np.column_stack([p, unit_orthogonal(q, p)])


def embed(pair, op, complement):
    """The dim x dim operator that acts as the 2 x 2 `op` on the pair's span
    and as `complement` times the identity on its orthogonal complement."""
    b = span_basis(pair)
    b_dag = b.conj().T
    return b @ op @ b_dag + complement * (np.eye(len(b)) - b @ b_dag)


def embedded_povm(pair, elements):
    """e_p, e_q and e_fail, the (3, 2, 2) `elements` of a POVM in the span
    basis, as dim x dim matrices on the whole system."""
    e_p, e_q, e_fail = elements
    return embed(pair, e_p, 0.0), embed(pair, e_q, 0.0), embed(pair, e_fail, 1.0)


def embedded_unitary(pair, unitary):
    """The 4 x 4 dilation `unitary` on ancilla (x) span as a (2 dim) x (2 dim)
    unitary on the whole system, ancilla first."""
    blocks = unitary.reshape(2, 2, 2, 2)  # out ancilla, out k, in ancilla, in k
    return np.block(
        [[embed(pair, blocks[a, :, b, :], float(a == b)) for b in (0, 1)] for a in (0, 1)]
    )


def evolve_with_ancilla(pair, unitary, state):
    """(ancilla 0) (x) |state> after the 4 x 4 dilation `unitary`, on the
    whole system; the first dim entries are the conclusive branch."""
    return embedded_unitary(pair, unitary)[:, : state.dim] @ state.amplitudes


def full_povm_probs(pair, strat):
    """Born probabilities [[P(e_p), P(e_q), P(e_fail)] given p, given q] of
    the POVM built from outer products of the state vectors."""
    c, p, q = pair.overlap_c, pair.p.amplitudes, pair.q.amplitudes
    if c == 0.0:
        e_p = (1.0 - strat.fail_p) * np.outer(p, p.conj())
        e_q = (1.0 - strat.fail_q) * np.outer(q, q.conj())
    else:
        not_q, not_p = unit_orthogonal(p, q), unit_orthogonal(q, p)
        e_p = (1.0 - strat.fail_p) / (1.0 - c * c) * np.outer(not_q, not_q.conj())
        e_q = (1.0 - strat.fail_q) / (1.0 - c * c) * np.outer(not_p, not_p.conj())
    e_fail = np.eye(len(p)) - e_p - e_q
    return [[np.real(np.vdot(x, e @ x)) for e in (e_p, e_q, e_fail)] for x in (p, q)]


def full_neumark_probs(pair, strat):
    """Probabilities of identifying p, identifying q and failing, given p
    and given q, from a (2 dim)^2 dilation unitary completed by QR."""
    c, dim = pair.overlap_c, pair.p.dim
    overlap = np.vdot(pair.p.amplitudes, pair.q.amplitudes)
    phase = overlap / c if c > 0.0 else 1.0
    x1, x2, y1, y2 = np.zeros((4, 2 * dim), dtype=complex)
    x1[:dim], x2[:dim] = pair.p.amplitudes, pair.q.amplitudes
    y1[0], y1[dim] = math.sqrt(1.0 - strat.fail_p), math.sqrt(strat.fail_p)
    y2[1], y2[dim] = math.sqrt(1.0 - strat.fail_q), math.sqrt(strat.fail_q) * phase

    def complete(first, second):
        given = np.column_stack([first, unit_orthogonal(second, first)])
        q, _ = np.linalg.qr(given, mode="complete")
        return np.column_stack([given, q[:, 2:]])

    unitary = complete(y1, y2) @ complete(x1, x2).conj().T
    probs = []
    for x in (x1, x2):
        evolved = unitary @ x
        weights = np.abs(evolved) ** 2
        probs.append([weights[0], weights[1], weights[dim:].sum()])
    return probs


def sample_trial(table, prior_r, row):
    """(truth, conclusion, measurements used) of one trial, the slow way.

    `row[0]` prepares p below `prior_r`, else q; then each step k in turn
    identifies p when `row[1 + k]` is below P(id p | truth), q when it is
    below P(id p | truth) + P(id q | truth), and otherwise fails and passes
    on.  The conclusion 2 means every step failed."""
    truth = 0 if row[0] < prior_r else 1
    for k, outcomes in enumerate(table):
        id_p, id_q, _ = (float(x) for x in outcomes[truth])
        if row[1 + k] < id_p:
            return truth, 0, k + 1
        if row[1 + k] < id_p + id_q:
            return truth, 1, k + 1
    return truth, 2, len(table)


def stop_cell_trial(table, prior_r, pair):
    """(truth, stop cell) of one trial from two uniforms, the slow way.

    `pair[0]` prepares p below `prior_r`, else q.  The truth's stop cells are
    "step k identifies p" (cell 2k), "step k identifies q" (cell 2k + 1), each
    weighted by the chance that every earlier step failed, and last "every
    step failed".  `pair[1]`, scaled by their total, picks the first cell
    whose running sum exceeds it."""
    truth = 0 if pair[0] < prior_r else 1
    cells, reach = [], 1.0
    for outcomes in table:
        id_p, id_q, fail = (float(x) for x in outcomes[truth])
        cells += [reach * id_p, reach * id_q]
        reach *= fail
    cells.append(reach)
    bounds = list(itertools.accumulate(cells))
    target = pair[1] * bounds[-1]
    return truth, next(j for j, upper in enumerate(bounds) if target < upper)


_DIGITS50 = decimal.Context(prec=50)


def decimal_protocol(overlaps, r, s):
    """(p_success, p_inconclusive) of the protocol over parties of these
    overlaps, visited in turn from priors (r, s), as 50-digit Decimals.

    Every float input is taken exactly.  Each step relabels the priors so
    that big >= small and fails on the big-prior state with c sqrt(small/big)
    and on the other with c sqrt(big/small) when sqrt(small/big) >= c, else
    with c^2 and 1; its posterior is each prior times its failure
    probability over p_fail.  p_success sums each step's conclusive
    probability times the probability of reaching it, apart from
    p_inconclusive, the product of the p_fail.  A party of overlap 1 is
    skipped."""
    with decimal.localcontext(_DIGITS50):
        r, s = decimal.Decimal(r), decimal.Decimal(s)
        success, reach = decimal.Decimal(0), decimal.Decimal(1)
        for c in map(decimal.Decimal, overlaps):
            if c == 1:
                continue
            big, small = max(r, s), min(r, s)
            ratio = (small / big).sqrt()
            fail_big, fail_small = (c * ratio, c / ratio) if ratio >= c else (c * c, 1)
            p_fail = big * fail_big + small * fail_small
            success += reach * (1 - p_fail)
            reach *= p_fail
            if p_fail > 0:
                post_big, post_small = big * fail_big / p_fail, small * fail_small / p_fail
                r, s = (post_big, post_small) if r >= s else (post_small, post_big)
        return success, reach


def zero_error_optimum(pair, r, s):
    """The largest r <p|e_p|p> + s <q|e_q|q> over zero-error POVMs on `pair`.

    A zero-error e_p is a |q'><q'| and e_q is b |p'><p'|, where q' and p' are
    the unit vectors of the pair's span orthogonal to |q> and to |p>; the
    POVM exists when I - e_p - e_q >= 0.  For a < 1, I - a |q'><q'| is
    invertible, its inverse is I + a / (1 - a) |q'><q'|, and the largest
    feasible b is 1 / <p'|(I - a |q'><q'|)^-1|p'>, its Schur complement.  The
    success is concave in a, so a grid over a in [0, 1) is refined around
    its best point until its spacing is at most 1e-15.  The pair must not be
    degenerate."""
    p, q = pair.p.amplitudes, pair.q.amplitudes
    not_q, not_p = unit_orthogonal(p, q), unit_orthogonal(q, p)
    gain_p, gain_q = abs(np.vdot(p, not_q)) ** 2, abs(np.vdot(q, not_p)) ** 2
    cross = abs(np.vdot(not_q, not_p)) ** 2
    lo, hi = 0.0, np.nextafter(1.0, 0.0)
    while True:
        a = np.linspace(lo, hi, 64)
        b = 1.0 / (1.0 + a / (1.0 - a) * cross)
        scores = r * a * gain_p + s * b * gain_q
        k = int(np.argmax(scores))
        step = (hi - lo) / 63
        if step <= 1e-15:
            return float(scores[k])
        lo, hi = max(0.0, a[k] - step), min(hi, a[k] + step)
