"""Vectorized fading samplers, bit-identical to the scalar hot path.

:class:`~repro.net.channel.WirelessChannel` normally walks a Python loop
over a transmission's audible receivers, drawing one fading gain per
pair from ``random.Random``.  At mesh sizes in the thousands that loop
dominates the run; this module replaces it with one numpy batch per
transmission *without changing a single bit of any result*.

The bit-identity contract and how each piece honors it:

* **Uniform stream** -- :class:`MtUniformStream` clones the scalar
  path's ``random.Random`` Mersenne-Twister state into a
  ``numpy.random.RandomState``.  Both generators implement MT19937 and
  derive doubles with the same 53-bit recipe, so ``uniforms(n)``
  returns exactly the floats ``n`` successive ``rng.random()`` calls
  would have (verified by tests down to the last ulp).  The clone is
  taken before the first draw and advanced only by the batched path, so
  a vectorized run consumes the stream in lock-step with a scalar one.
* **Blocks** -- a sampler does not touch the stream once per
  transmission.  It draws :data:`BLOCK_DRAWS` standard variates at a
  time (exponentials for Rayleigh, Box-Muller pairs otherwise), lazily
  at its first ``gains`` call, and hands out consecutive slices in
  stream order; a batch that outruns the block continues into the next
  one.  The ``k``-th link drawn in the run therefore gets the ``k``-th
  variate of the stream whatever the block size, so blocking changes
  only how often numpy is called, never a bit.
* **Transcendentals** -- numpy's ``log``/``exp`` use SIMD polynomial
  kernels that differ from libm by an ulp on some inputs, which would
  silently break golden results.  ``log`` therefore runs through
  ``math.log``, mapped over each block's uniforms once per refill, and
  the AR(1) decay ``exp`` through ``math.exp``; numpy batches only the
  operations it computes bit-identically (``cos``/``sin``/``sqrt`` and
  IEEE arithmetic).
* **Operation order** -- every sampler replays CPython's own formulas
  operation for operation: ``expovariate(1.0)`` is ``-log(1.0 - u)``
  and ``gauss(mu, sigma)`` is the Box-Muller pair ``mu + (cos(u1 *
  2pi) * sqrt(-2 log(1 - u2))) * sigma`` with the ``sin`` mate returned
  by the *second* call of each pair (all repo fading models consume
  gaussians strictly in real/imag pairs, so the ``gauss_next`` cache is
  always empty at batch boundaries).
* **Draw order** -- links draw in audible-list order, and links that
  would not draw in the scalar path (inactive receiver, zero AR(1)
  innovation) are masked out of the batch, so stream consumption is
  position-for-position identical.

Samplers exist for the three stochastic fading models; a custom
:class:`~repro.phy.fading.FadingModel` subclass gets no sampler and the
channel falls back to the scalar loop (``build_sampler`` returns
``None``).  ``NoFading`` needs no sampler at all -- the channel's
deterministic path already skips sampling.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - exercised only sans numpy
    raise ImportError(
        "repro.phy.vectorized requires numpy, a hard dependency of the "
        "vectorized PHY reception path (declared in pyproject.toml). "
        "Install it with `pip install numpy`, or force the pure-Python "
        "path with NetworkConfig(phy_backend='scalar')."
    ) from exc

from repro.phy.fading import (
    CorrelatedRayleighFading,
    FadingModel,
    RayleighFading,
    RicianFading,
)

TWOPI = 2.0 * math.pi  # random.gauss's angle scale

#: Variates (exponentials, or Box-Muller pairs) drawn per block refill.
#: Any size gives the same bits; this one amortizes numpy's per-call
#: cost over about fifty paper-mesh transmissions per refill.
BLOCK_DRAWS = 2048


class MtUniformStream:
    """Batched uniforms, bit-identical to ``random.Random.random()``.

    Clones the Mersenne-Twister state of a ``random.Random`` into numpy's
    legacy ``RandomState``; ``uniforms(n)`` then yields exactly the next
    ``n`` doubles the Python generator would produce.  The source rng
    must not be advanced afterwards -- the clone owns the stream from
    the moment it is taken.
    """

    __slots__ = ("_state",)

    def __init__(self, py_rng: random.Random) -> None:
        version, internal, _gauss_next = py_rng.getstate()
        if version != 3:
            raise ValueError(
                f"unsupported random.Random state version {version}; "
                "the vectorized stream clone assumes the MT19937 layout"
            )
        state = np.random.RandomState()
        state.set_state(
            ("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1])
        )
        self._state = state

    def uniforms(self, n: int) -> "np.ndarray":
        """The next ``n`` doubles in [0, 1), as ``random()`` would draw."""
        return self._state.random_sample(n)


class _Blocks:
    """Standard variates from a uniform stream, drawn a block at a time.

    ``take(n)`` returns the next ``n`` variates along the last axis, in
    stream order.  Slices already handed out are never handed out
    again, so a caller may keep or mutate them freely.
    """

    __slots__ = ("_stream", "_block", "_pos", "_size")

    def __init__(self, stream: MtUniformStream) -> None:
        self._stream = stream
        self._block = self._draw(0)  # empty, in the block's shape
        self._pos = 0
        self._size = 0

    def _draw(self, size: int) -> "np.ndarray":
        raise NotImplementedError

    def take(self, n: int) -> "np.ndarray":
        pos = self._pos
        stop = pos + n
        if stop <= self._size:
            self._pos = stop
            return self._block[..., pos:stop]
        parts = [self._block[..., pos:]]
        need = stop - self._size
        while True:
            size = BLOCK_DRAWS
            self._block = self._draw(size)
            self._size = size
            if need <= size:
                self._pos = need
                parts.append(self._block[..., :need])
                return np.concatenate(parts, axis=-1)
            parts.append(self._block)
            need -= size


class _Exponentials(_Blocks):
    """``rng.expovariate(1.0)`` draws: ``-log(1.0 - u)`` per uniform."""

    __slots__ = ()

    def _draw(self, size):
        u = self._stream.uniforms(size)
        return -np.fromiter(map(math.log, (1.0 - u).tolist()), float, size)


class _GaussPairs(_Blocks):
    """Box-Muller pairs matching paired ``rng.gauss(0, 1)``, as ``(2, n)``.

    Column ``j`` holds the standard normals the scalar path's first and
    second ``gauss`` call of pair ``j`` would produce.
    """

    __slots__ = ()

    def _draw(self, size):
        u = self._stream.uniforms(2 * size)
        x2pi = u[0::2] * TWOPI
        g2rad = np.sqrt(
            -2.0 * np.fromiter(
                map(math.log, (1.0 - u[1::2]).tolist()), float, size
            )
        )
        z = np.empty((2, size))
        np.multiply(np.cos(x2pi), g2rad, out=z[0])
        np.multiply(np.sin(x2pi), g2rad, out=z[1])
        return z


class VectorizedSampler:
    """Per-transmission batch of fading gains for one sender's links.

    ``gains(slot, count, sel, now)`` returns the power gains for the
    sender's audible links -- all ``count`` of them when ``sel`` is
    ``None``, else exactly the (ascending) positions in ``sel``.  The
    result aligns element-for-element with the queried links.

    ``new_slot`` allocates whatever per-sender state the model keeps
    (only the correlated model keeps any), and ``new_slots`` does so for
    every sender at once; ``dump_state``/``load_state`` let the channel
    migrate that state across re-finalizes.
    """

    def new_slot(self, count: int) -> Optional[object]:
        return None

    def new_slots(self, counts: Sequence[int]) -> List[Optional[object]]:
        """One slot per entry of ``counts``, for a whole mesh at once."""
        return [self.new_slot(count) for count in counts]

    def dump_state(self, slot: Optional[object]) -> List[Optional[tuple]]:
        return []

    def load_state(
        self, slot: Optional[object], position: int, entry: tuple
    ) -> None:
        raise NotImplementedError("sampler keeps no per-link state")

    def gains(
        self,
        slot: Optional[object],
        count: int,
        sel: Optional[Sequence[int]],
        now: float,
    ) -> "np.ndarray":
        raise NotImplementedError


class RayleighSampler(VectorizedSampler):
    """i.i.d. exponential power gains; mirrors ``rng.expovariate(1.0)``."""

    def __init__(self, stream: MtUniformStream) -> None:
        self._draws = _Exponentials(stream)

    def gains(self, slot, count, sel, now):
        return self._draws.take(count if sel is None else len(sel))


class RicianSampler(VectorizedSampler):
    """i.i.d. Rician power gains; mirrors the paired-``gauss`` scalar."""

    def __init__(
        self,
        stream: MtUniformStream,
        los_amplitude: float,
        scatter_sigma: float,
    ) -> None:
        self._pairs = _GaussPairs(stream)
        self._los = los_amplitude
        self._sigma = scatter_sigma

    def gains(self, slot, count, sel, now):
        h = self._pairs.take(count if sel is None else len(sel)) * self._sigma
        h += 0.0  # gauss(0.0, sigma) is 0.0 + z * sigma: -0.0 becomes 0.0
        h[0] += self._los
        h *= h
        return h[0] + h[1]


class _CorrelatedSlot:
    """AR(1) state for one sender's audible links.

    ``h`` holds the real and imaginary parts as one ``(2, count)``
    array.  The arrays may be views into mesh-wide arrays (see
    ``new_slots``); ``gains`` only ever writes through them in place.

    ``since`` is the time of the last update when it covered every link
    of the slot, else ``None``.  While it is set, ``t`` and ``has`` may
    lag behind (every link holds state and was last updated at
    ``since``); ``_settle`` writes them out before anything reads them.
    """

    __slots__ = ("t", "h", "has", "since")

    def __init__(self, t, h, has) -> None:
        self.t = t
        self.h = h
        self.has = has
        self.since: Optional[float] = None


class CorrelatedRayleighSampler(VectorizedSampler):
    """Gauss-Markov fading; replays the scalar AR(1) update exactly.

    Fast path: after a transmission that updated every link of a slot,
    all its links share one last-update time (the slot's ``since``), so
    ``rho`` and the innovation are a single scalar ``exp``/``sqrt`` and
    the update is a handful of in-place array operations -- same
    doubles, computed once.  Partial batches (inactive receivers) and
    migrated state take the general per-link path.
    """

    def __init__(
        self, stream: MtUniformStream, coherence_time_s: float
    ) -> None:
        self._pairs = _GaussPairs(stream)
        self._T = coherence_time_s
        self._sigma = math.sqrt(0.5)

    def new_slot(self, count):
        return self.new_slots([count])[0]

    def new_slots(self, counts):
        # Three allocations for the whole mesh instead of three per
        # sender; each slot holds views into its own stretch.
        total = sum(counts)
        t, h = np.zeros(total), np.zeros((2, total))
        has = np.zeros(total, dtype=bool)
        slots = []
        start = 0
        for count in counts:
            end = start + count
            slots.append(
                _CorrelatedSlot(t[start:end], h[:, start:end], has[start:end])
            )
            start = end
        return slots

    @staticmethod
    def _settle(slot):
        if slot.since is not None:
            slot.t[:] = slot.since
            slot.has[:] = True

    def dump_state(self, slot):
        if slot is None:
            return []
        self._settle(slot)
        t = slot.t.tolist()
        re, im = slot.h.tolist()
        return [
            (t[k], re[k], im[k]) if has else None
            for k, has in enumerate(slot.has.tolist())
        ]

    def load_state(self, slot, position, entry):
        self._settle(slot)
        slot.since = None
        slot.t[position], slot.h[0, position], slot.h[1, position] = entry
        slot.has[position] = True

    def gains(self, slot, count, sel, now):
        since = slot.since
        if sel is not None or since is None:
            return self._general(slot, count, sel, now)
        rho = math.exp(-(now - since) / self._T)
        innovation = self._sigma * math.sqrt(max(0.0, 1.0 - rho * rho))
        h = slot.h
        h *= rho
        if innovation:
            w = self._pairs.take(count) * innovation
            w += 0.0  # as gauss(0.0, innovation) adds its mu
            h += w
        slot.since = now
        power = h * h
        return power[0] + power[1]

    def _general(self, slot, count, sel, now):
        """Per-link AR(1) update for links with differing histories."""
        sigma = self._sigma
        self._settle(slot)
        slot.since = None
        if sel is None:
            idx: object = slice(None)
            m = count
        else:
            idx = np.asarray(sel, dtype=np.intp)
            m = len(sel)
        has = slot.has[idx]
        t_old = slot.t[idx]
        h_old = slot.h[:, idx]

        rho_arr = np.empty(m)
        innov_arr = np.zeros(m)
        stale = np.nonzero(has)[0]
        if stale.size:
            dt = now - t_old[stale]
            exp = math.exp
            rho_s = np.array([exp(v) for v in (-dt / self._T).tolist()])
            innov_s = sigma * np.sqrt(np.maximum(0.0, 1.0 - rho_s * rho_s))
            rho_arr[stale] = rho_s
            innov_arr[stale] = innov_s
        # Links that consume a gaussian pair, in audible order: fresh
        # links always, stale links only when the innovation is
        # non-zero (the scalar path's `if innovation:` branch).
        need = ~has
        if stale.size:
            need[stale] = innov_s != 0.0
        z = pair_pos = None
        draws = int(need.sum())
        if draws:
            z = self._pairs.take(draws)
            pair_pos = np.cumsum(need) - 1
        h_new = np.empty((2, m))
        fresh = ~has
        if fresh.any():
            h_new[:, fresh] = 0.0 + z[:, pair_pos[fresh]] * sigma
        if stale.size:
            drew = innov_s != 0.0
            upd = stale[drew]
            if upd.size:
                h_new[:, upd] = rho_arr[upd] * h_old[:, upd] + (
                    0.0 + z[:, pair_pos[upd]] * innov_arr[upd]
                )
            hold = stale[~drew]
            if hold.size:
                h_new[:, hold] = rho_arr[hold] * h_old[:, hold]

        slot.t[idx] = now
        slot.h[:, idx] = h_new
        slot.has[idx] = True
        if sel is None:
            slot.since = now
        power = h_new * h_new
        return power[0] + power[1]


def build_sampler(
    fading: FadingModel, py_rng: random.Random
) -> Optional[VectorizedSampler]:
    """A batched sampler mirroring ``fading``, or ``None`` if unsupported.

    Matches on exact type -- a subclass may override the sampling math,
    and silently vectorizing it with the parent's formulas would break
    bit-identity.  Clones ``py_rng``'s stream; the caller must stop
    drawing from it once a sampler is built.
    """
    kind = type(fading)
    if kind is RayleighFading:
        return RayleighSampler(MtUniformStream(py_rng))
    if kind is RicianFading:
        return RicianSampler(
            MtUniformStream(py_rng),
            fading._los_amplitude,
            fading._scatter_sigma,
        )
    if kind is CorrelatedRayleighFading:
        return CorrelatedRayleighSampler(
            MtUniformStream(py_rng), fading.coherence_time_s
        )
    return None
