"""The fused synthesize-and-maximize kernel.

The only loop that dominates runtime in this package is the reduction
"synthesize every weight vector and keep the per-direction running
maximum power" (full-scale workload: 2048 realizations x 6446
directions). :func:`synth_max_accumulate` first drops the directions
where ``power_cap`` puts every row below the running best or the
caller's floor, then finds each other direction's winner in two steps:

1. **Select.** Summed over both polarizations, the power of weight
   vector w at direction d is the Hermitian form ``w^H R_d w`` with
   ``R_d[m, n] = sum_pol g_m conj(g_n)``. That is one real GEMM,
   ``F (n_w x N^2) @ A (N^2 x n_dir)``, with no complex fields and no
   magnitudes to take. It runs in float32 on F and A scaled so that
   each direction's form is at most 1, and so is only approximate. It
   shortlists, per direction, the rows whose form lies within a
   rounding margin of the maximum. A first pass bounds the form of each
   phase group (rows that share all but the last phasor), so that the
   GEMM runs only on the 128-row blocks whose bound reaches the
   maximum.
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

# group bounds the select's first pass computes at once, and forms its
# later passes compute at once
_TILE = 2**15

# directions per narrowed exact call; even, so that only an odd call's
# last tile has a 2-column tail (see _tiles)
_EXACT_TILE = 256


def synthesize_fields(elem_gains, phasors):
    """Coherently combine element fields for a block of weight vectors.

    elem_gains: complex (n_elements, n_directions, 2), phasors: complex
    (n_weights, n_elements) including the amplitude factor. Returns
    complex (n_weights, n_directions, 2).
    """
    n_el, n_dir, _ = elem_gains.shape
    out = phasors @ elem_gains.reshape(n_el, n_dir * 2)
    return out.reshape(phasors.shape[0], n_dir, 2)


def power_cap(elem_gains, w_max):
    """Per direction, max|w|^2 (A^2 + B^2), A and B the sums of |g_m| over
    the theta and the phi gains, which no weight vector's power exceeds;
    and whether every gain there is zero (A + B = 0, which cannot
    underflow as the cap can)."""
    amp = np.zeros((elem_gains.shape[1], 2))
    for g in elem_gains:
        amp += np.abs(g)
    return w_max**2 * (amp[:, 0] ** 2 + amp[:, 1] ** 2), amp[:, 0] + amp[:, 1] == 0.0


def _form_factors(elem_gains, phasors, cols):
    """F (n_w, N^2) and A (N^2, n_cols) with (F @ A)[k, c] = P(w_k, d_c),
    d_c being the directions that cols indexes.

    With c_mn = w_m conj(w_n), P = sum_m |w_m|^2 R_mm
    + sum_{m<n} (Re c_mn 2 Re R_mn - Im c_mn 2 Im R_mn). The pairs go
    in order of n, each with its Re and Im terms side by side, so the
    last 2 (N - 1) terms are those of the last element's pairs.
    """
    n_el = elem_gains.shape[0]
    n, m = np.tril_indices(n_el, k=-1)
    factors = np.empty((phasors.shape[0], n_el**2))
    np.add(phasors.real**2, phasors.imag**2, out=factors[:, :n_el])
    # a complex view of the pair columns puts each Re beside its Im
    np.multiply(phasors[:, m], phasors[:, n].conj(), out=factors[:, n_el:].view(np.complex128))
    # one element or pair at a time, so that no (N, n_dir, 2) temporary is
    # alive. Each sum over the two polarizations keeps the bits of numpy's
    # sum over them, which starts from +0: no square is -0, but a product's
    # part can be, and +0 + -0 is +0.
    form = np.empty((n_el**2, cols.size))
    for i, g in enumerate(elem_gains):
        g = np.take(g, cols, axis=0)
        g0, g1 = g[:, 0], g[:, 1]
        np.add(g0.real**2 + g0.imag**2, g1.real**2 + g1.imag**2, out=form[i])
    for k, (i, j) in enumerate(zip(m, n)):
        g, h = np.take(elem_gains[i], cols, axis=0), np.take(elem_gains[j], cols, axis=0)
        cross = g[:, 0] * h[:, 0].conj()
        cross += 0.0
        cross += g[:, 1] * h[:, 1].conj()
        np.multiply(cross.real, 2.0, out=form[n_el + 2 * k])
        np.multiply(cross.imag, -2.0, out=form[n_el + 2 * k + 1])
    return factors, form


def _group_size(phasors):
    """Rows per phase group: a run of rows that share all but the last phasor.

    Every run must have one length, and it must divide _CHUNK, so that
    no group crosses a select block; otherwise each row is its own group.
    """
    head = phasors[:, :-1]
    (ends,) = np.nonzero((head[1:] != head[:-1]).any(axis=1))
    runs = np.diff(np.concatenate([[0], ends + 1, [phasors.shape[0]]]))
    if np.all(runs == runs[0]) and _CHUNK % runs[0] == 0:
        return int(runs[0])
    return 1


def _shortlist(factors, form, lead, group, best_power, margin):
    """(row, direction) pairs whose form is within 2*margin of the maximum.

    Rows come in phase groups of `group` rows that share every phasor but
    the last, w_L; lead (complex) holds each group's shared phasors. With
    u = sum_{m<L} w_m R_mL, a row's form is Q + |w_L|^2 R_LL
    + 2 Re(conj(w_L) u), where Q is the form of the shared phasors
    alone. So Q + a^2 R_LL + 2 a |u|, with a the group's largest |w_L|,
    bounds the form of every row of the group.

    The first pass takes, per direction, each block's largest bound. The
    rows of the block with the best bound give a cut 2*margin below
    their largest form or best_power, the running maximum or the
    caller's floor, whichever is higher. The second pass
    evaluates the form only in the blocks whose bound reaches 2*margin
    below the cut, and keeps the rows whose form reaches the cut.
    """
    n_w, n_terms = factors.shape
    n_el = lead.shape[1] + 1
    n_dir = form.shape[1]
    own = n_terms - 2 * (n_el - 1)  # w_L's pair terms come last (see _form_factors)
    # per group: the shared phasors' form terms, with a^2 in |w_L|^2's column
    shared = factors[::group, :own].copy()
    shared[:, n_el - 1] = factors[:, n_el - 1].reshape(-1, group).max(axis=1)
    # per group: a * w_m for m < L, as float32 Re/Im pairs. Against 2 R_mL and
    # 1j * 2 R_mL read the same way, one real GEMM gives 2 a u as complex; a
    # complex64 GEMM would page in about 0.4 MiB of BLAS code.
    lead = (lead * np.sqrt(shared[:, n_el - 1 : n_el])).view(np.float32)
    n_groups = shared.shape[0]
    per_block = _CHUNK // group
    n_full = n_groups // per_block
    n_blocks = -(-n_w // _CHUNK)
    bound = np.empty((n_blocks, n_dir), dtype=form.dtype)
    best_block = np.empty(n_dir, dtype=np.intp)
    width = max(1, _TILE // n_groups)
    for start in range(0, n_dir, width):
        cols = slice(start, start + width)
        tile = shared @ form[:own, cols]
        cross = np.repeat(form[own::2, cols] - 1j * form[own + 1 :: 2, cols], 2, axis=0)
        cross[1::2] *= 1j
        tile += np.abs((lead @ cross.view(np.float32)).view(np.complex64))
        full = tile[: n_full * per_block]
        bound[:n_full, cols] = full.reshape(n_full, per_block, tile.shape[1]).max(axis=1)
        if n_full < n_blocks:
            bound[n_full, cols] = tile[n_full * per_block :].max(axis=0)
        # per tile, as an argmax over the first axis copies its input
        best_block[cols] = bound[:, cols].argmax(axis=0)

    top = np.empty(n_dir, dtype=form.dtype)
    for block in np.flatnonzero(np.bincount(best_block)):
        for cols, q in _block_forms(factors, form, block, best_block == block):
            top[cols] = q.max(axis=0)
    cut = np.maximum(top, best_power) - 2.0 * margin
    below = cut - 2.0 * margin
    rows, dirs = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for block, block_bound in enumerate(bound):
        for cols, q in _block_forms(factors, form, block, block_bound >= below):
            r, c = np.nonzero(q >= cut[cols])
            rows.append(block * _CHUNK + r)
            dirs.append(cols[c])
    return np.concatenate(rows), np.concatenate(dirs)


def _block_forms(factors, form, block, mask):
    """(cols, forms) of a block's rows where mask holds, _TILE // _CHUNK at a time."""
    (near,) = np.nonzero(mask)
    rows = factors[block * _CHUNK : (block + 1) * _CHUNK]
    width = _TILE // _CHUNK
    for lo in range(0, near.size, width):
        cols = near[lo : lo + width]
        yield cols, rows @ form[:, cols]


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


def _call_columns(take):
    """The sorted directions one exact call synthesizes.

    take marks the needed directions of all n_dir (bool, at least one)
    and is padded in place; each needed direction gets the bits of the
    full-width call. A call of even width has no 2-column tail. Where the
    full call has one (odd n_dir) and a needed direction lies in it, the
    call has odd width and ends in that direction too. Padding takes the
    lowest directions not needed; no call is one direction wide, and
    where padding cannot reach the width, the call takes every direction.
    """
    n_dir = take.size
    needed = np.count_nonzero(take)
    tail = int(n_dir % 2 == 1 and take[-1])
    width = max(needed + (needed + tail) % 2, 2 + tail)
    if width >= n_dir:
        return np.arange(n_dir)
    take[np.flatnonzero(~take[:width])[: width - needed]] = True
    return np.flatnonzero(take)


def _tiles(width):
    """Slices of a narrowed call's columns, each one call of its own.

    Tiles are _EXACT_TILE wide but the last; an odd width's last tile is
    odd, at least 3 wide, and ends in the call's last direction. So each
    tile is a narrowed call as _call_columns makes them, and keeps the
    full call's bits where the probe does.
    """
    cuts = list(range(_EXACT_TILE, width - 1, _EXACT_TILE))
    return [slice(lo, hi) for lo, hi in zip([0] + cuts, cuts + [width])]


def _exact_powers(elem_gains, phasors, rows, dirs):
    """The chunked reference's power bits at each (row, direction) pair.

    A zgemm output element depends on its row of the left operand, the
    whole right operand and the call shape, but not on the row's
    position in the call. So rows of full chunks are synthesized 128 to
    a call (the last call padded by repeating rows), and rows of a
    trailing partial chunk in the one call of that chunk's size.

    Nor does it depend on the other directions, outside a 2-column tail
    (see _call_columns), so each call synthesizes only the directions
    its rows need, in tiles of at most about _EXACT_TILE directions,
    unless the probe finds otherwise. A one-row call is a gemv, whose
    bits depend on where BLAS threads split the columns, so it takes
    every direction at once.
    """
    n_w = phasors.shape[0]
    n_el, n_dir, _ = elem_gains.shape
    narrow = _narrowing_is_exact(n_el)
    n_full = n_w // _CHUNK * _CHUNK
    seen = np.zeros(n_w, dtype=bool)
    seen[rows] = True
    packed = np.flatnonzero(seen[:n_full])
    calls = [(packed[s : s + _CHUNK], _CHUNK) for s in range(0, packed.size, _CHUNK)]
    if seen[n_full:].any():
        calls.append((np.arange(n_full, n_w), n_w - n_full))
    power = np.empty(rows.size)
    slot = np.empty(n_w, dtype=np.intp)
    for take, size in calls:
        slot.fill(-1)
        slot[take] = np.arange(take.size)
        pos = slot[rows]
        hit = pos >= 0
        r, d = pos[hit], dirs[hit]
        if narrow and size > 1:
            need = np.zeros(n_dir, dtype=bool)
            need[d] = True
            cols = _call_columns(need)
            tiles = _tiles(cols.size)
        else:
            cols, tiles = np.arange(n_dir), [slice(0, n_dir)]
        c = np.searchsorted(cols, d)
        block = phasors[np.resize(take, size)]
        own = np.empty(r.size)
        for tile in tiles:
            sel = (c >= tile.start) & (c < tile.stop)
            # bind only the gathered pairs, so one tile's fields are alive at a time
            pair = synthesize_fields(elem_gains[:, cols[tile]], block)[
                r[sel], c[sel] - tile.start
            ]
            own[sel] = np.abs(pair[:, 0]) ** 2 + np.abs(pair[:, 1]) ** 2
        power[hit] = own
    return power


def synth_max_accumulate(elem_gains, phasors, best_power, best_index, index_offset, floor=None):
    """Fold one sub-array's weight enumeration into the running maximum.

    Updates best_power (float64, n_directions) and best_index (int64,
    n_directions) in place; indices are offset by index_offset so that
    several sub-arrays accumulate into one global realization numbering.

    floor (float64, n_directions), if given, is at most the power the
    chunked reference computes for each direction's final winner over
    all these calls; rows and directions below it are skipped. It is
    never stored, so only the last call leaves the reference's state.
    """
    elem_gains = np.ascontiguousarray(elem_gains, dtype=np.complex128)
    phasors = np.ascontiguousarray(phasors, dtype=np.complex128)
    n_el = phasors.shape[1]
    w_max = np.abs(phasors).max()
    cap, dead = power_cap(elem_gains, w_max)
    # where every gain is zero, every power is exactly 0 and row 0 wins;
    # settled here and kept off the shortlist, where all n_w rows would tie
    settle = dead & (best_power < 0.0)
    best_power[settle] = 0.0
    best_index[settle] = index_offset

    fp = np.finfo(np.float64)
    # Cap, per direction. |sum_m w_m g_m| <= max|w| sum_m |g_m| in each
    # polarization, so no row's power exceeds power_cap's. All its terms
    # are non-negative, so the computed cap is within about (2 N + 8) u
    # of it, relative. As sqrt(a^2 + b^2) <= a + b and
    # (A + B)^2 <= 2 (A^2 + B^2), s^2 <= 2 cap (s as in the margin below),
    # so a computed power exceeds its exact value by at most
    # (3 N + 10) u s^2 <= (6 N + 20) u cap. So every computed power is at
    # most the computed cap times 1 + (8 N + 28) u, up to terms in u^2;
    # 8 (N + 4) eps, that is (16 N + 64) u, covers that and the bound's
    # own rounding. The tiny term is the margin's below. A direction
    # whose cap so raised is below the floor, or below the carried best,
    # which a row must exceed, cannot change the result: it leaves the
    # form, the select and the recompute.
    cap *= 1.0 + 8.0 * (n_el + 4) * fp.eps
    cap += 16.0 * n_el**2 * fp.eps * fp.tiny * (1.0 + w_max**2)
    level = best_power if floor is None else np.maximum(best_power, floor)
    live = (cap >= level) & ~dead
    del cap
    cols = np.flatnonzero(live)
    level = level[cols]
    factors, form = _form_factors(elem_gains, phasors, cols)
    del cols
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
    # The winner of the whole plan has a power of at least the floor, so
    # its form is at least the floor less one margin.
    gain_sum = np.sqrt(form[:n_el]).sum(axis=0)
    scale = w_max * gain_sum
    margin = 16.0 * n_el**2 * fp.eps * (scale**2 + fp.tiny * (1.0 + w_max**2))
    # The select runs in float32, on F divided by max|w|^2 and each column
    # of A by (sum_m sqrt(R_mm))^2: per direction, everything is divided by
    # norm = s^2, raised to at least tiny, so the absolute values of the
    # N^2 terms sum to at most 1. In these units the margin is margin /
    # norm plus float32's own rounding: converting F and A (2 u32 per
    # term), the GEMM's products and sums in any order (N^2 u32) and the
    # cut's subtraction stay within (N^2 + 3) u32. 16 N^2 eps32, that is
    # 32 N^2 u32, covers that 8 times over at N = 1 and nearly 32 times
    # as N grows. Below float32's normal range each term may be
    # off by up to 3 u32 tiny32 more, hence the tiny32 term. Best powers
    # are clipped to +-2^64 in these units, beyond any form, so that none
    # overflows float32; a lower cut only keeps more rows.
    # The group bound of _shortlist, Q + a^2 R_LL + 2 a |u|, is no sum of
    # form terms, but by the same Cauchy-Schwarz step its terms' absolute
    # values sum to at most s^2, so to at most 1 in these units. Its
    # float32 rounding (converting its inputs, a as the root of the
    # largest |w_L|^2, a w_m, GEMMs over (N-1)^2 + 1 and 2 (N-1) terms,
    # the magnitude |2 a u| and the last sum) stays within about
    # (N^2 + 9) u32. The winner's computed form is at least the cut, so
    # its group's computed bound is at least the cut less (N^2 + 3) u32
    # for the form, (N^2 + 9) u32 for the bound and 1 u32 for the
    # threshold's subtraction: (2 N^2 + 13) u32, within the second
    # 2 * margin32 the threshold takes off the cut; tiny32 terms as above.
    w2 = max(w_max**2, fp.tiny)
    col = np.maximum(gain_sum**2, fp.tiny / w2)
    norm = w2 * col
    f32 = np.finfo(np.float32)
    margin32 = margin / norm + 16.0 * n_el**2 * f32.eps * (1.0 + f32.tiny)
    np.clip(level, -_CLIP * norm, _CLIP * norm, out=level)
    level /= norm
    # only the float32 copies stay alive through the select
    factors /= w2
    factors = factors.astype(np.float32)
    form /= col
    form = form.astype(np.float32)
    group = _group_size(phasors)
    lead = phasors[::group, :-1] / np.sqrt(w2)
    rows, dirs = _shortlist(
        factors,
        form,
        lead.astype(np.complex64),
        group,
        level.astype(np.float32),
        margin32.astype(np.float32),
    )
    dirs = np.flatnonzero(live)[dirs]
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
