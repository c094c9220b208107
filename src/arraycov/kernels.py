"""The fused synthesize-and-maximize kernel.

The only loop that dominates runtime in this package is the reduction
"synthesize every weight vector and keep the per-direction running
maximum power" (full-scale workload: 2048 realizations x 6446
directions). :func:`synth_max_accumulate` finds each direction's winner
in two steps:

1. **Select.** Summed over both polarizations, the power of weight
   vector w at direction d is the Hermitian form ``w^H R_d w`` with
   ``R_d[m, n] = sum_pol g_m conj(g_n)``. That is one real GEMM,
   ``F (n_w x N^2) @ A (N^2 x n_dir)``, with no complex fields and no
   magnitudes to take. It runs in float32 on F and A scaled so that
   each direction's form is at most 1, and so is only approximate. It
   shortlists, per direction, the rows whose form lies within a
   rounding margin of the maximum.
2. **Recompute.** The shortlisted rows' fields are synthesized exactly
   as the chunked reference computes them (same rows per zgemm call,
   same ``|f0|**2 + |f1|**2``), each call on only the directions its
   rows need, and only those exact powers decide.

So the result is bit for bit that of synthesizing every weight in
chunks of ``_CHUNK`` rows and folding in each chunk's argmax. Ties are
broken toward the lowest realization index.
"""

import functools

import numpy as np

# rows per select block and per exact synthesis call; the exact calls
# must keep this shape (see _exact_powers)
_CHUNK = 128

# the select's bound on a carried best power, in units of its norm
_CLIP = 2.0**64


def synthesize_fields(elem_gains, phasors):
    """Coherently combine element fields for a block of weight vectors.

    elem_gains: complex (n_elements, n_directions, 2), phasors: complex
    (n_weights, n_elements) including the amplitude factor. Returns
    complex (n_weights, n_directions, 2).
    """
    n_el, n_dir, _ = elem_gains.shape
    out = phasors @ elem_gains.reshape(n_el, n_dir * 2)
    return out.reshape(phasors.shape[0], n_dir, 2)


def _form_factors(elem_gains, phasors):
    """F (n_w, N^2) and A (N^2, n_dir) with (F @ A)[k, d] = P(w_k, d).

    With c_mn = w_m conj(w_n), P = sum_m |w_m|^2 R_mm
    + sum_{m<n} (Re c_mn 2 Re R_mn - Im c_mn 2 Im R_mn).
    """
    m, n = np.triu_indices(phasors.shape[1], k=1)
    cross_w = phasors[:, m] * phasors[:, n].conj()
    factors = np.concatenate(
        [phasors.real**2 + phasors.imag**2, cross_w.real, cross_w.imag], axis=1
    )
    diag = (elem_gains.real**2 + elem_gains.imag**2).sum(axis=2)
    cross_r = (elem_gains[m] * elem_gains[n].conj()).sum(axis=2)
    form = np.concatenate([diag, 2.0 * cross_r.real, -2.0 * cross_r.imag])
    return factors, np.ascontiguousarray(form), diag


def _shortlist(factors, form, best_power, margin):
    """(row, direction) pairs whose form is within 2*margin of the maximum.

    The first pass keeps each block's per-direction maximum where it
    is near the running one. The second evaluates the form again only
    in the blocks and directions still near the final maximum, which
    is about one block's worth in all.
    """
    top = np.full(form.shape[1], -np.inf, dtype=form.dtype)
    near_blocks = []
    for start in range(0, factors.shape[0], _CHUNK):
        block_max = (factors[start : start + _CHUNK] @ form).max(axis=0)
        np.maximum(top, block_max, out=top)
        (near,) = np.nonzero(block_max >= np.maximum(top, best_power) - 2.0 * margin)
        near_blocks.append((start, near, block_max[near]))
    floor = np.maximum(top, best_power) - 2.0 * margin
    rows, dirs = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for start, near, block_max in near_blocks:
        near = near[block_max >= floor[near]]
        if near.size:
            q = factors[start : start + _CHUNK] @ form[:, near]
            r, c = np.nonzero(q >= floor[near])
            rows.append(start + r)
            dirs.append(near[c])
    return np.concatenate(rows), np.concatenate(dirs)


@functools.cache
def _narrowing_is_exact(n_el):
    """Whether a call on a subset of directions keeps the full call's bits.

    The BLAS picks its kernel for the CPU at run time, so this is checked
    once per element count on a small deterministic block. An even-width
    subset of an even and of an odd full call, and an odd-width subset
    that ends in the odd call's last direction (its 2-column tail), must
    match the full calls bit for bit.
    """
    t = np.arange(n_el * 45 * 2.0).reshape(n_el, 45, 2)
    gains = np.exp(1j * t) * (1.5 + np.sin(0.7 * t))
    phasors = np.exp(1j * np.arange(_CHUNK * n_el).reshape(_CHUNK, n_el) / 3.0)
    for n_dir, cols in (
        (44, np.arange(1, 44, 2)),
        (45, np.arange(0, 44, 2)),
        (45, np.arange(2, 45, 3)),
    ):
        full = synthesize_fields(gains[:, :n_dir], phasors)[:, cols]
        part = synthesize_fields(gains[:, cols], phasors)
        if not np.array_equal(full.view(np.int64), part.view(np.int64)):
            return False
    return True


def _call_columns(needed, n_dir):
    """The sorted directions one exact call synthesizes.

    needed is sorted and unique; each of its directions gets the bits of
    the full-width call. A call of even width has no 2-column tail.
    Where the full call has one (odd n_dir) and a needed direction lies
    in it, the call has odd width and ends in that direction too.
    Padding takes the lowest directions not needed; no call is one
    direction wide, and where padding cannot reach the width, the call
    takes every direction.
    """
    tail = n_dir % 2 == 1 and needed[-1] == n_dir - 1
    width = max(needed.size + (needed.size + tail) % 2, 2 + tail)
    if width >= n_dir:
        return np.arange(n_dir)
    take = np.zeros(n_dir, dtype=bool)
    take[needed] = True
    take[np.flatnonzero(~take[:width])[: width - needed.size]] = True
    return np.flatnonzero(take)


def _exact_powers(elem_gains, phasors, rows, dirs):
    """The chunked reference's power bits at each (row, direction) pair.

    A zgemm output element depends on its row of the left operand, the
    whole right operand and the call shape, but not on the row's
    position in the call. So rows of full chunks are synthesized 128 to
    a call (the last call padded by repeating rows), and rows of a
    trailing partial chunk in the one call of that chunk's size.

    Nor does it depend on the other directions, outside a 2-column tail
    (see _call_columns), so each call synthesizes only the directions
    its rows need, unless the probe finds otherwise. A one-row call is a
    gemv, whose bits depend on where BLAS threads split the columns, so
    it takes every direction.
    """
    n_w = phasors.shape[0]
    n_el, n_dir, _ = elem_gains.shape
    narrow = _narrowing_is_exact(n_el)
    n_full = n_w // _CHUNK * _CHUNK
    packed = np.unique(rows[rows < n_full])
    calls = [(packed[s : s + _CHUNK], _CHUNK) for s in range(0, packed.size, _CHUNK)]
    if (rows >= n_full).any():
        calls.append((np.arange(n_full, n_w), n_w - n_full))
    power = np.empty(rows.size)
    slot = np.empty(n_w, dtype=np.intp)
    for take, size in calls:
        slot.fill(-1)
        slot[take] = np.arange(take.size)
        pos = slot[rows]
        hit = pos >= 0
        if narrow and size > 1:
            cols = _call_columns(np.unique(dirs[hit]), n_dir)
        else:
            cols = np.arange(n_dir)
        # bind only the gathered pairs, so one call's fields are alive at a time
        pair = synthesize_fields(elem_gains[:, cols], phasors[np.resize(take, size)])[
            pos[hit], np.searchsorted(cols, dirs[hit])
        ]
        power[hit] = np.abs(pair[:, 0]) ** 2 + np.abs(pair[:, 1]) ** 2
    return power


def synth_max_accumulate(elem_gains, phasors, best_power, best_index, index_offset):
    """Fold one sub-array's weight enumeration into the running maximum.

    Updates best_power (float64, n_directions) and best_index (int64,
    n_directions) in place; indices are offset by index_offset so that
    several sub-arrays accumulate into one global realization numbering.
    """
    elem_gains = np.ascontiguousarray(elem_gains, dtype=np.complex128)
    phasors = np.ascontiguousarray(phasors, dtype=np.complex128)
    n_w, n_el = phasors.shape
    if not n_w:
        return
    # where every gain is zero, every power is exactly 0 and row 0 wins;
    # settled here, as all n_w rows would tie there on the shortlist
    dead = ~elem_gains.any(axis=(0, 2))
    settle = dead & (best_power < 0.0)
    best_power[settle] = 0.0
    best_index[settle] = index_offset
    (live,) = np.nonzero(~dead)

    factors, form, diag = _form_factors(elem_gains[:, live], phasors)
    # Rounding margin, absolute per direction. Let s = max|w| * sum_m
    # sqrt(R_mm). The absolute values of the form's N^2 terms sum to at
    # most s^2, and so do the squared magnitude sums of the two fields
    # (Cauchy-Schwarz, Minkowski). So in any summation order the form is
    # within about (N^2 + 14) u s^2 of w^H R w, and the exact power
    # within about (3 N + 10) u s^2 (u = eps / 2): 16 N^2 eps s^2 bounds
    # |form - power| for every N >= 1. The tiny term covers results below
    # the normal range, where each operation may be off by u * tiny
    # absolute, scaled by up to max|w|^2. The winner's power is the
    # largest, so its form is at most 2 * margin below the largest form.
    w_max = np.abs(phasors).max()
    gain_sum = np.sqrt(diag).sum(axis=0)
    scale = w_max * gain_sum
    fp = np.finfo(np.float64)
    margin = 16.0 * n_el**2 * fp.eps * (scale**2 + fp.tiny * (1.0 + w_max**2))
    # The select runs in float32, on F divided by max|w|^2 and each column
    # of A by (sum_m sqrt(R_mm))^2: per direction, everything is divided by
    # norm = s^2, raised to at least tiny, so the absolute values of the
    # N^2 terms sum to at most 1. In these units the margin is margin /
    # norm plus float32's own rounding: converting F and A (2 u32 per
    # term), the GEMM's products and sums in any order (N^2 u32) and the
    # floor's subtraction stay within (N^2 + 3) u32, which 16 N^2 eps32
    # covers twice over. Below float32's normal range each term may be
    # off by up to 3 u32 tiny32 more, hence the tiny32 term. Best powers
    # are clipped to +-2^64 in these units, beyond any form, so that none
    # overflows float32; a lower floor only keeps more rows.
    w2 = max(w_max**2, fp.tiny)
    col = np.maximum(gain_sum**2, fp.tiny / w2)
    norm = w2 * col
    f32 = np.finfo(np.float32)
    margin32 = margin / norm + 16.0 * n_el**2 * f32.eps * (1.0 + f32.tiny)
    best = np.clip(best_power[live], -_CLIP * norm, _CLIP * norm) / norm
    rows, dirs = _shortlist(
        (factors / w2).astype(np.float32),
        (form / col).astype(np.float32),
        best.astype(np.float32),
        margin32.astype(np.float32),
    )
    dirs = live[dirs]
    power = _exact_powers(elem_gains, phasors, rows, dirs)
    # per direction: the largest exact power, lowest row among equals
    order = np.lexsort((rows, -power, dirs))
    first = np.ones(order.size, dtype=bool)
    first[1:] = dirs[order[1:]] != dirs[order[:-1]]
    win = order[first]
    better = power[win] > best_power[dirs[win]]
    win = win[better]
    best_power[dirs[win]] = power[win]
    best_index[dirs[win]] = index_offset + rows[win]
