"""Forward-SDE Monte Carlo engine for single mode amplitudes.

Integrates dq = v_plus(q) dtau + dw with Euler-Maruyama, where the noise
increment satisfies <dw> = 0 and <dw dw> = 2 nu_n dtau. Trajectory j is
driven by the counter-based Philox stream keyed by (seed, j) from counter 0,
so runs are bit-identical regardless of chunking or execution order. The
stream's first draws give q_0; for the stationary ground state the stream's
first normal is q_0's, drawn in one call with the first noise block. Each
stream's whole Philox state is a row of one table, from its key to its
last draw. One ``Generator`` serves a whole ``simulate`` call: it is set
to a trajectory's row before each block of draws, which yields exactly the
draws of ``Generator(Philox(key=[seed, j]))`` without building one per
trajectory, and the row takes the state back when another block follows,
so the noise drawn ahead is bounded however large ``steps`` is. A run is
split into the fewest equal chunks that bound allows, and its noise is
sized to the widest chunk it really has, not to the cap. A large block on
a machine with two CPUs is drawn by two processes: a helper forked for
the run fills the lower half of each block's tiles in shared memory while
the run's own process fills the upper half, and a byte on a pipe each way
brackets every block. Every tile is a function of (seed, trajectory)
alone, so the block, and every sample, counter and artifact, is the same
bit for bit as a one-process run's; the Euler steps, the drift and the
observers stay in the run's own process. An observer passed to
``simulate`` sees the amplitudes after every step, so a check such as
``RateBins`` can bin a run without storing it.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import mmap
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import MAX_FLOATS, ModeStateSpec, StringParams, ValidationError, write_artifact
from .drift import StationaryModeState

InitSampler = Callable[[np.random.Generator, int], np.ndarray]
# (t, column): the amplitudes of one trajectory chunk after t Euler steps
Observer = Callable[[int, np.ndarray], None]

_CHUNK = 4096
# float64 noise values drawn ahead per trajectory chunk (32 MiB): blocks of
# _NOISE_VALUES // _CHUNK steps, whatever ``steps`` is
_NOISE_VALUES = 2**22
# trajectories whose noise rows are drawn into one tile, then transposed
_TILE = 64
# noise values of a block from which a forked helper draws half its tiles
_SHARED_VALUES = 2**20


class NonFiniteSampleError(RuntimeError):
    """A trajectory produced a non-finite amplitude."""

    def __init__(self, trajectory: int, step: int):
        self.trajectory = trajectory
        self.step = step
        super().__init__(
            f"non-finite sample in trajectory {trajectory} at step {step}"
        )


class InsufficientSamplesError(RuntimeError):
    """A probe bin holds too few samples for a conditional estimate."""


@dataclass
class Ensemble:
    """Monte Carlo ensemble of trajectories of one mode state.

    ``samples[j, t]`` is trajectory j at recorded index t; recorded indices
    are ``record_stride`` integration steps apart. ``clamp_events`` counts
    drift evaluations limited by ``drift._DRIFT_CAP``; ``node_crossings``
    counts (trajectory, step) pairs whose amplitude moved across a node of
    the stationary density between consecutive integration steps (the
    continuous diffusion never does; the discrete integrator can).
    """

    state: StationaryModeState
    d_tau: float
    steps: int
    record_stride: int
    samples: np.ndarray
    clamp_events: int = 0
    node_crossings: int = 0

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    @property
    def recorded_steps(self) -> int:
        return self.samples.shape[1] - 1

    def recorded_taus(self) -> np.ndarray:
        return self.d_tau * self.record_stride * np.arange(self.samples.shape[1])

    def sample_at(self, t: int) -> np.ndarray:
        return self.samples[:, t]


# one row of the stream table: counter, key, buffer, buffer_pos, has_uint32, uinteger
_STREAM_WORDS = 13


def _key_streams(streams: np.ndarray, seed: int, start: int) -> None:
    """Set each row j of ``streams`` to the state of a freshly built
    ``Philox(key=[seed mod 2**64, start + j])``: counter 0, an empty buffer."""
    streams[:] = 0
    streams[:, 4] = seed & 0xFFFFFFFFFFFFFFFF
    streams[:, 5] = np.arange(start, start + len(streams), dtype=np.uint64)
    streams[:, 10] = 4  # buffer_pos: every buffered word used


def _save_stream(rng: np.random.Generator, row: np.ndarray) -> None:
    """Store ``rng``'s whole Philox state in ``row`` of ``_STREAM_WORDS`` uint64."""
    state = rng.bit_generator.state
    philox = state["state"]
    row[:] = (*philox["counter"].tolist(), *philox["key"].tolist(), *state["buffer"].tolist(),
              state["buffer_pos"], state["has_uint32"], state["uinteger"])


def _resume_stream(rng: np.random.Generator, row: np.ndarray) -> None:
    """Set ``rng``'s Philox state to the one stored in ``row``."""
    words = row.tolist()
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": words[:4], "key": words[4:6]},
        "buffer": words[6:10],
        "buffer_pos": words[10],
        "has_uint32": words[11],
        "uinteger": words[12],
    }


def _chunk_width(count: int, held: int = 1) -> int:
    """Trajectories per chunk of a run of ``count``: the fewest chunks that
    ``min(_CHUNK, _NOISE_VALUES // held)`` allows, made equal, so only the
    last may be narrower."""
    chunks = -(-count // min(_CHUNK, count, _NOISE_VALUES // held))
    return -(-count // chunks)


def _shared(shape, dtype=float) -> np.ndarray:
    """A zeroed array in anonymous shared memory: what a forked process writes
    into it, its parent reads."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, int(np.prod(shape)) * dtype.itemsize), dtype).reshape(shape)


def _await_helper(helper: int, replies: int) -> None:
    """Wait for the noise helper ``helper`` to report its tiles of a block
    on ``replies``: return when they are drawn, raise what it raised."""
    reply = os.read(replies, 1)
    if reply == b".":
        return
    if not reply:
        raise RuntimeError(f"the noise helper (process {helper}) ended before drawing its tiles")
    pickled = b""
    while more := os.read(replies, 1 << 16):
        pickled += more
    raise pickle.loads(pickled)


def _noise_blocks(seed: int, count: int, steps: int, held: int, scale: float,
                  initial: Callable[[np.random.Generator], float] | tuple[float, float]):
    """Lay out the scaled noise of a run of ``count`` trajectories and yield
    ``(start, q0, first, block)`` over it, chunk by chunk and block by block.

    Trajectories run in as few chunks as a cap of ``_CHUNK`` allows,
    narrowed so that an observer holding ``held`` columns of its chunk
    (``LagProducts``' lag ring) keeps at most ``_NOISE_VALUES`` values;
    ``held`` must not exceed ``_NOISE_VALUES``. The chunks are equal, the
    last perhaps narrower (``_chunk_width``), and the noise block, tile and
    stream table are sized to that width, so a run of 6000 holds two chunks
    of 3000 rather than room for 4096. Trajectory j's Philox stream, keyed
    by (seed, j), first gives q_0 and then its noise in order, one block of
    ``_NOISE_VALUES // _CHUNK`` steps at a time, so the noise drawn ahead is
    at most ``_NOISE_VALUES`` values (32 MiB) however large ``steps`` is.
    ``fill`` draws a block's tiles: each stream fills one row of a tile of
    ``_TILE`` trajectories, which is scaled and transposed into a step-major
    block, so that step t reads ``block[t]`` contiguously. Every stream's
    state is a row of one ``(chunk, _STREAM_WORDS)`` table: keyed afresh for
    each chunk, set into the one ``Generator`` before each block and saved
    back if another block follows. ``q0`` is a new array of the chunk's
    trajectories from ``start``, filled with its first block
    (``first == 0``): ``initial(rng)`` per trajectory before its noise, or
    for a pair ``(loc, sigma)`` as loc + sigma * z_0, z_0 drawn in the same
    ``standard_normal`` call as the first block, one tile column ahead of
    the noise. ``block[t]`` is the noise of step ``first + t`` and is
    overwritten by the next block.

    A block of two tiles or more and at least ``_SHARED_VALUES`` values, on
    a process allowed two CPUs, is drawn by two processes. The noise block,
    stream table and q_0 then live in shared memory (``_shared``), each of
    the size of the private array it replaces, and one helper is forked for
    the run, with its own tile and ``Generator``. For each block the parent
    keys the streams (a chunk's first block), writes one byte on a pipe and
    fills the upper half of the chunk's tiles while the helper fills the
    lower half; the helper writes one byte back, and only then is the block
    yielded. Each tile is a function of (seed, trajectory) alone, so the
    block is the one the parent alone would draw, bit for bit. An error in
    the helper's tiles (from ``initial``) is pickled back and raised with
    its type and message (one that its pickle cannot rebuild, as a
    ``RuntimeError`` naming its type); it comes first, as its tiles do in a
    one-process fill. A helper that dies raises a ``RuntimeError`` naming it. The
    helper ends when the generator does, and is reaped then, so the caller
    closes the generator before it returns or raises.
    """
    chunk = _chunk_width(count, held)
    block_steps = min(steps, _NOISE_VALUES // _CHUNK)
    tile_rows = min(_TILE, chunk)
    # a (loc, sigma) start reads z_0 from one leading tile column of the first block
    merged = isinstance(initial, tuple)
    split = (chunk > tile_rows and chunk * block_steps >= _SHARED_VALUES
             and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2)
    new = _shared if split else np.empty
    noise = new(chunk * block_steps)
    table = new((chunk, _STREAM_WORDS), np.uint64)
    q0 = new(chunk)
    if split:
        (orders, order), (replies, reply) = os.pipe(), os.pipe()
        try:
            helper = os.fork()
        except OSError:
            for fd in (orders, order, replies, reply):
                os.close(fd)
            raise
    tile = np.empty(tile_rows * (block_steps + 1 if merged else block_steps))
    rng = np.random.Generator(np.random.Philox())

    def fill(start: int, first: int, tiles: range) -> np.ndarray:
        """Draw the tiles whose first rows are ``tiles`` into the block of
        steps from ``first`` of the chunk from ``start``; return the block."""
        width = min(chunk, count - start)
        length = min(block_steps, steps - first)
        more = first + length < steps
        block = noise[: length * width].reshape(length, width)
        lead = int(merged and first == 0)
        for top in tiles:
            rows = min(tile_rows, width - top)
            drawn = tile[: rows * (lead + length)].reshape(rows, lead + length)
            for j, row, stream in zip(range(top, top + rows), drawn, table[top:]):
                _resume_stream(rng, stream)
                if first == 0 and not merged:
                    q0[j] = initial(rng)
                rng.standard_normal(out=row)
                if more:
                    _save_stream(rng, stream)
            if lead:
                loc, sigma = initial
                np.add(loc, sigma * drawn[:, 0], out=q0[top : top + rows])
            np.multiply(drawn[:, lead:].T, scale, out=block[:, top : top + rows])
        return block

    blocks = itertools.product(range(0, count, chunk), range(0, steps, block_steps))
    if split and helper == 0:
        # the helper: the lower half of each block's tiles, one block per byte read
        try:
            os.close(order)
            os.close(replies)
            for start, first in blocks:
                if not os.read(orders, 1):
                    break
                tiles = range(0, min(chunk, count - start), tile_rows)
                try:
                    fill(start, first, tiles[: len(tiles) // 2])
                except Exception as exc:
                    try:
                        pickled = pickle.dumps(exc)
                        pickle.loads(pickled)
                    except Exception:
                        pickled = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
                    with os.fdopen(reply, "wb") as out:
                        out.write(b"!" + pickled)
                    break
                os.write(reply, b".")
        finally:
            os._exit(0)
    try:
        if split:
            os.close(orders)
            os.close(reply)
        for start, first in blocks:
            width = min(chunk, count - start)
            if first == 0:
                _key_streams(table[:width], seed, start)
            tiles = range(0, width, tile_rows)
            if split:
                os.write(order, b".")
                try:
                    block = fill(start, first, tiles[len(tiles) // 2 :])
                except Exception:
                    # an error in the helper's tiles comes first, as they do
                    _await_helper(helper, replies)
                    raise
                _await_helper(helper, replies)
            else:
                block = fill(start, first, tiles)
            if first == 0:
                chunk_q0 = q0[:width].copy()
            yield start, chunk_q0, first, block
    finally:
        if split:
            os.close(order)
            os.close(replies)
            os.wait4(helper, 0)


def spawn_seed(seed: int, n: int, i: int) -> int:
    """Derive a per-(mode, direction) sub-seed from a master seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(n, i))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _resolve_state(
    params: StringParams, state: ModeStateSpec, n: int, i: int
) -> StationaryModeState:
    state.validate(params)
    if not 0 <= n <= params.mode_cutoff:
        raise ValidationError(f"mode n = {n} outside 0..mode_cutoff {params.mode_cutoff}")
    if not 1 <= i <= params.transverse_count:
        raise ValidationError(f"direction = {i} outside 1..{params.transverse_count}")
    if n == 0:
        return StationaryModeState(params, 0, momentum=state.momentum_component(i))
    return StationaryModeState(params, n, k=state.occupation(n, i))


def simulate(
    params: StringParams,
    state: ModeStateSpec,
    n: int,
    i: int,
    *,
    init: str | float | InitSampler = "stationary",
    d_tau: float = 1.0e-3,
    steps: int = 1000,
    count: int = 1000,
    seed: int = 0,
    record_stride: int = 1,
    observe: Observer | None = None,
) -> Ensemble:
    """Euler-Maruyama ensemble for mode ``n``, transverse direction ``i``.

    ``init`` is either the string ``"stationary"`` (draw q_0 from the
    stationary density of the state), a number (all trajectories start
    there), or a callable ``(rng, size) -> array``. Each trajectory consumes
    its own Philox stream keyed by (seed, trajectory index): the first draws
    initialize q_0, the rest drive the noise, so results do not depend on
    chunk boundaries or on which process draws a trajectory's noise. So a
    callable ``init`` must be a pure function of the ``rng`` it is given:
    it may be called in a forked helper process, whose changes to any other
    state the run never sees. The noise scale is the mode's diffusion constant
    nu_n, fixed by alpha'. Mode ``n`` must lie in 0..mode_cutoff and the
    direction ``i`` in 1..D-2.

    Only every ``record_stride``-th step is stored. ``observe``, if given,
    is called as ``observe(t, column)`` with every full-resolution column
    of each trajectory chunk, t = 0..steps, whatever ``record_stride`` is;
    a column is never modified after the call. An observer's ``d_tau``, if
    it has one, must be the run's, and its ``held_columns``, if it has
    them, at most ``_NOISE_VALUES``. With ``record_stride = steps`` and an
    observer, memory is bounded by ``count`` however large ``steps`` is:
    ``_noise_blocks`` lays out the chunks, noise blocks and stream table.
    A noise helper it forks has ended by the time ``simulate`` returns or
    raises.
    """
    params.validate()
    if not 0 < d_tau < math.inf:
        raise ValidationError(f"d_tau must be finite and positive, got {d_tau}")
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    if record_stride < 1:
        raise ValidationError(f"record_stride must be >= 1, got {record_stride}")
    if steps % record_stride != 0:
        raise ValidationError("record_stride must divide steps")
    mode_state = _resolve_state(params, state, n, i)
    # what an observer declares: the step its rates divide by, and the
    # columns of its chunk it keeps (a lag ring)
    observed_d_tau = getattr(observe, "d_tau", d_tau)
    if observed_d_tau != d_tau:
        raise ValidationError(
            f"run d_tau = {d_tau} differs from the observer's d_tau = {observed_d_tau}"
        )
    held = getattr(observe, "held_columns", 1)
    if held > _NOISE_VALUES:
        raise ValidationError(
            f"observer holds over {_NOISE_VALUES} columns of each trajectory, more than a "
            "chunk may hold; for a correlator, lower dtau_lag / recorded spacing + 1"
        )

    initial = _initial_sampler(mode_state, init)
    nodes = mode_state.nodes()
    n_recorded = steps // record_stride + 1
    if count * n_recorded > MAX_FLOATS:
        raise MemoryError(f"{count} x {n_recorded} samples are more floats than any machine holds")
    samples = np.empty((count, n_recorded), dtype=float)
    clamp_events = 0
    node_crossings = 0

    scale = math.sqrt(2.0 * mode_state.nu * d_tau)
    # closed here, not when collected, so that a noise helper never outlives the call
    blocks = _noise_blocks(seed, count, steps, held, scale, initial)
    with contextlib.closing(blocks):
        for start, q0, first, noise in blocks:
            stop = start + len(q0)
            if first == 0:
                q = q0
                _check_initial_drift(nodes, q, start)
                samples[start:stop, 0] = q
                if observe is not None:
                    observe(0, q)
                if nodes.size:
                    domain = np.searchsorted(nodes, q)
            # finiteness is checked explicitly each step; let overflows reach it
            with np.errstate(over="ignore", invalid="ignore"):
                for t, dw in enumerate(noise, first + 1):
                    drift, clamped = mode_state.forward_drift_array(q)
                    clamp_events += clamped
                    # q + drift * d_tau + dw, built in the fresh drift array;
                    # the column an observer kept is never written again
                    drift *= d_tau
                    drift += q
                    drift += dw
                    q = drift
                    if not np.isfinite(q).all():
                        j = int(np.argmax(~np.isfinite(q)))
                        raise NonFiniteSampleError(start + j, t)
                    if nodes.size:
                        next_domain = np.searchsorted(nodes, q)
                        node_crossings += int(np.count_nonzero(next_domain != domain))
                        domain = next_domain
                    if t % record_stride == 0:
                        samples[start:stop, t // record_stride] = q
                    if observe is not None:
                        observe(t, q)

    return Ensemble(
        state=mode_state,
        d_tau=d_tau,
        steps=steps,
        record_stride=record_stride,
        samples=samples,
        clamp_events=clamp_events,
        node_crossings=node_crossings,
    )


def _initial_sampler(
    mode_state: StationaryModeState, init
) -> Callable[[np.random.Generator], float] | tuple[float, float]:
    """How each trajectory's q_0 is drawn, with ``init`` dispatched once:
    ``rng -> q_0``, or for the stationary ground state the pair
    ``(loc, sigma)`` of q_0 = loc + sigma * z_0, z_0 the stream's first normal."""
    if isinstance(init, str):
        if init != "stationary":
            raise ValidationError(f"unknown init mode {init!r}")
        if mode_state.n == 0:
            raise ValidationError(
                "zero mode has no stationary density; give a numeric init"
            )
        if mode_state.k == 0:
            # the draw sample_stationary makes for the ground state, rng.normal(0.0, sigma)
            return 0.0, mode_state.sigma
        return lambda rng: float(mode_state.sample_stationary(rng, 1)[0])
    if callable(init):
        return lambda rng: float(np.asarray(init(rng, 1)).reshape(-1)[0])
    q0 = float(init)
    return lambda rng: q0


def _check_initial_drift(nodes: np.ndarray, q0: np.ndarray, offset: int) -> None:
    bad = ~np.isfinite(q0)
    if bad.any():
        j = int(np.argmax(bad))
        raise ValidationError(f"init gives non-finite q_0={q0[j]}, trajectory {offset + j}")
    on_node = np.isin(q0, nodes)
    if on_node.any():
        j = int(np.argmax(on_node))
        raise ValidationError(
            f"drift undefined at q_0={q0[j]} (density node), trajectory {offset + j}"
        )


class RateBins:
    """Conditional transport rates of ``F`` on a probe, binned one column at a time.

    An observer for ``simulate``: ``bins(t, column)`` takes the amplitudes
    of one trajectory chunk after t steps of ``d_tau``, t = 0, 1, ...
    Forward: E[(F(q_{t+1}) - F(q_t)) / d_tau | q_t in bin].
    Backward (if asked): E[(F(q_t) - F(q_{t-1})) / d_tau | q_t in bin].
    Each column is binned once and ``F`` evaluated once on it: its bin
    index conditions the forward rate of the step leaving it and the
    backward rate of the step entering it. Bin j holds the samples within
    ``bin_half_width`` of ``probe[j]``, the higher one where two overlap.
    Samples outside every bin, or with a non-finite rate, go to the
    overflow bin ``len(probe)``, dropped at the end.
    """

    def __init__(self, F, probe: np.ndarray, bin_half_width: float, d_tau: float,
                 backward: bool = False):
        n = len(probe)
        # a sample's bin index counts the n + 1 edges at or below it in int16
        if n + 1 > np.iinfo(np.int16).max:
            raise ValidationError(
                f"probe of {n} points has more bin edges than int16 counts "
                f"(at most {np.iinfo(np.int16).max - 1} points)"
            )
        self.F = F
        self.d_tau = d_tau
        self.bin_half_width = bin_half_width
        self.edges = np.concatenate((probe - bin_half_width, [probe[-1] + bin_half_width]))
        # bin indices -1 and n both read an infinite centre: never within reach
        self.centres = np.append(probe, np.inf)
        directions = 2 if backward else 1
        self.rate_sums = np.zeros((directions, n))
        self.pos_sums = np.zeros((directions, n))
        self.counts = np.zeros((directions, n), dtype=np.int64)

    def __call__(self, t: int, col: np.ndarray) -> None:
        n = len(self.centres) - 1
        # the last edge at or below each value, as searchsorted(side="right") - 1
        # finds it; NaN finds none (-1, not n), so it still reaches overflow
        above = (col >= self.edges[:, None]).view(np.int8)
        idx = np.add.reduce(above, axis=0, dtype=np.int16) - 1
        # an intp overflow index makes the bins intp, which bincount reads uncast
        near = np.abs(col - self.centres.take(idx)) <= self.bin_half_width
        bins = np.where(near, idx, np.intp(n))
        values = self.F(col)
        if t:
            last_col, last_bins, last_values = self._last
            rate = (values - last_values) / self.d_tau
            conditions = ((last_col, last_bins), (col, bins))[: len(self.counts)]
            finite = np.isfinite(rate)
            if not finite.all():
                conditions = [(cond, np.where(finite, b, n)) for cond, b in conditions]
            for d, (cond, cond_bins) in enumerate(conditions):
                self.rate_sums[d] += np.bincount(cond_bins, weights=rate, minlength=n + 1)[:n]
                self.pos_sums[d] += np.bincount(cond_bins, weights=cond, minlength=n + 1)[:n]
                self.counts[d] += np.bincount(cond_bins, minlength=n + 1)[:n]
        self._last = col, bins, values

    def rates(self, min_occupancy: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per direction (rates, bin means, counts); every bin needs ``min_occupancy``.

        Comparing analytics at the bin means rather than the probe points
        removes the first-order binning skew under a sloped density.
        """
        if np.any(self.counts < min_occupancy):
            raise InsufficientSamplesError(
                f"probe bin occupancy {int(self.counts.min())} below required {min_occupancy}"
            )
        return [(r / c, x / c, c) for r, x, c in zip(self.rate_sums, self.pos_sums, self.counts)]


def transport_bins(
    state: StationaryModeState, F: Callable[[np.ndarray], np.ndarray], d_tau: float
) -> RateBins:
    """Forward-rate bins of ``F`` on the transport probe of ``state``.

    7 probe points span +-1.5 sigma (+-1.5 for the zero mode); each bin is
    half the probe spacing wide.
    """
    w = 1.5 * (state.sigma if state.n >= 1 else 1.0)
    probe = np.linspace(-w, w, 7)
    return RateBins(F, probe, 0.5 * (probe[1] - probe[0]), d_tau)


def transport_deviation(
    bins: RateBins,
    state: StationaryModeState,
    dF: Callable[[np.ndarray], np.ndarray],
    d2F: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Largest |binned D_plus F - (v_plus F' + nu F'')| at the bin means.

    ``dF`` and ``d2F`` are the exact derivatives of the binned ``F``.
    Every probe bin must hold at least 30 samples.
    """
    ((est, at, _),) = bins.rates(30)
    drift, _ = state.forward_drift_array(at)
    analytic = drift * dF(at) + state.nu * d2F(at)
    return float(np.max(np.abs(est - analytic)))


def transport_derivative_check(
    ensemble: Ensemble,
    F: Callable[[np.ndarray], np.ndarray],
    dF: Callable[[np.ndarray], np.ndarray],
    d2F: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Max deviation of the empirical forward transport derivative of a stored run.

    Bins one full-resolution ensemble with ``transport_bins`` and returns
    ``transport_deviation``: the largest absolute deviation of the
    conditional forward difference estimate of D_plus F from
    v_plus F' + nu F''. ``dF`` and ``d2F`` are the exact derivatives of
    ``F``. The stored columns are binned over the trajectory chunks
    ``simulate`` runs, so streaming ``transport_bins`` through
    ``simulate(observe=...)`` gives the same value bit for bit without
    storing the ensemble.
    """
    if ensemble.record_stride != 1:
        raise ValidationError("transport derivatives need record_stride == 1")
    bins = transport_bins(ensemble.state, F, ensemble.d_tau)
    chunk = _chunk_width(ensemble.count)
    for start in range(0, ensemble.count, chunk):
        # one transposed copy per chunk, so that each column binned is contiguous
        for t, col in enumerate(ensemble.samples[start : start + chunk].T.copy()):
            bins(t, col)
    return transport_deviation(bins, ensemble.state, dF, d2F)


def _second_law_probe(state: StationaryModeState) -> np.ndarray:
    """Points +-0.4..2 sigma where the stochastic acceleration is compared."""
    if state.n < 1:
        raise ValidationError("stochastic acceleration check targets n >= 1 modes")
    if state.k != 0:
        # its cubic fits cannot follow the drift's poles at the density's nodes
        raise ValidationError(
            f"stochastic acceleration check supports only the ground state, got k = {state.k}"
        )
    return np.concatenate((np.linspace(-2, -0.4, 5), np.linspace(0.4, 2, 5))) * state.sigma


def second_law_bins(state: StationaryModeState, d_tau: float) -> RateBins:
    """Forward and backward rate bins of q for ``second_law_check``.

    21 bins, 0.15 sigma half-wide, on a fit grid 1.2 times as wide as
    the probe of the check, so every probe point sits in the
    well-constrained interior of the polynomial fits. Fill them by
    streaming one or more runs of ``state`` at step ``d_tau`` through
    ``simulate(observe=...)``.
    """
    probe = _second_law_probe(state)
    fit_grid = np.linspace(1.2 * probe.min(), 1.2 * probe.max(), 21)
    return RateBins(lambda x: x, fit_grid, 0.15 * state.sigma, d_tau, backward=True)


def second_law_check(
    bins: RateBins, state: StationaryModeState
) -> tuple[float, np.ndarray, np.ndarray]:
    """Empirical mean stochastic acceleration (D+D- + D-D+)q / 2.

    The forward and backward velocities v_+(x), v_-(x) are the conditional
    increment rates in ``bins`` (from ``second_law_bins``, every bin
    holding at least 200 samples), smoothed by cubic fits; the outer
    transport derivatives then follow from their defining form
    D_(+/-) G = v_(+/-) G' +/- nu G'' with the engine's known diffusion
    constant. Returns (max relative deviation from -n^2 x, probe grid,
    acceleration estimates). Memory is that of the bins, however many
    runs filled them.
    """
    probe = _second_law_probe(state)
    v_plus, v_minus = (
        np.polynomial.Polynomial.fit(at, rates, 3, w=np.sqrt(counts))
        for rates, at, counts in bins.rates(200)
    )
    nu = state.nu
    d_plus_of_vminus = v_plus(probe) * v_minus.deriv()(probe) + nu * v_minus.deriv(2)(probe)
    d_minus_of_vplus = v_minus(probe) * v_plus.deriv()(probe) - nu * v_plus.deriv(2)(probe)
    acceleration = 0.5 * (d_plus_of_vminus + d_minus_of_vplus)
    expected = -state.n**2 * probe
    deviation = float(np.max(np.abs(acceleration - expected) / np.abs(expected)))
    return deviation, probe, acceleration


def export_ensemble(ensemble: Ensemble, path: str | Path, header_lines: Sequence[str] = ()) -> None:
    """Write the ensemble as columnar text: trajectory_id, step, tau, q."""
    stride = ensemble.record_stride
    # one row template per run, "\0" standing for the trajectory id: each
    # trajectory is one % format, so repr is the only work left per value
    template = "".join(
        f"\0 {t * stride} {tau!r} %r\n" for t, tau in enumerate(ensemble.recorded_taus().tolist())
    )
    # one trajectory at a time: converting the whole ensemble to Python
    # floats at once would hold every sample as an object
    rows = (
        template.replace("\0", str(j)) % tuple(ensemble.samples[j].tolist())
        for j in range(ensemble.count)
    )
    write_artifact(path, header_lines, itertools.chain(["trajectory_id step tau q\n"], rows))
