#!/usr/bin/env python
"""Watch data waves propagate through a balanced netlist (Fig. 4, live).

Simulates a 4x4 array multiplier under the three-phase regeneration clock:

* on the wave-pipelined (balanced, fan-out restricted) netlist, a new
  product streams out every 3 phases, and every wave matches the golden
  functional model;
* on the raw (unbalanced) netlist, waves interfere — the simulator reports
  exactly where adjacent waves collide, demonstrating why the paper's
  buffer insertion is necessary;
* the bit-packed batched engine (``engine="packed"``) reproduces the
  scalar model bit-for-bit while simulating a long wave stream orders of
  magnitude faster, 64 waves per uint64 word;
* on *balanced* netlists the clocking discipline makes interference
  provably impossible, so the packed engine skips the clock entirely:
  its functional pass (``repro.core.wavepipe.kernels``) evaluates each
  wave's outputs one MAJ level at a time.  Forcing the phase-accurate
  step loop (``track=True``) returns the same report, bit for bit;
* ``simulate_streams`` batches many independent wave streams (think: one
  request per stream) through the netlist in a single packed pass.
"""

import random
import time

import numpy as np

from repro.core.wavepipe import (
    WaveNetlist,
    describe_packed_run,
    golden_outputs,
    random_vectors,
    simulate_streams,
    simulate_waves,
    simulate_waves_packed,
    wave_pipeline,
)
from repro.suite.circuits import array_multiplier


def to_int(bits) -> int:
    return sum(1 << i for i, bit in enumerate(bits) if bit)


def main() -> None:
    width = 4
    mig = array_multiplier(width)
    raw = WaveNetlist.from_mig(mig)
    ready = wave_pipeline(mig, fanout_limit=3).netlist
    print(f"multiplier : {mig}")
    print(f"raw        : {raw}")
    print(f"wave-ready : {ready}")

    rng = random.Random(42)
    operands = [
        (rng.randrange(1 << width), rng.randrange(1 << width))
        for _ in range(8)
    ]
    vectors = [
        [bool((a >> i) & 1) for i in range(width)]
        + [bool((b >> i) & 1) for i in range(width)]
        for a, b in operands
    ]

    report = simulate_waves(ready, vectors)
    golden = golden_outputs(ready, vectors)
    print(
        f"\npipelined run: {report.waves_retired} waves retired in "
        f"{report.steps_run} phases "
        f"(latency {report.latency_steps} phases/wave, steady-state "
        f"throughput {report.steady_state_throughput():.3f} waves/phase, "
        f"{report.measured_throughput():.3f} end-to-end)"
    )
    for (a, b), outputs, reference in zip(operands, report.outputs, golden):
        status = "ok" if outputs == reference else "MISMATCH"
        print(f"  {a:2d} x {b:2d} = {to_int(outputs):3d}  [{status}]")
    # report.bits is the (waves, n_outputs) bool array: equal in shape
    # and in every bit to the functional model's rows
    assert report.coherent and np.array_equal(report.bits, golden)

    sequential = simulate_waves(ready, vectors, pipelined=False)
    print(
        f"\nnon-pipelined reference: {sequential.steps_run} phases for the "
        f"same {len(vectors)} operations "
        f"({report.steps_run / sequential.steps_run:.0%} of the time "
        "wave-pipelined)"
    )

    naive = simulate_waves(raw, vectors)
    print(
        f"\nunbalanced netlist, pipelined injection: "
        f"{len(naive.interference)} interference events, outputs "
        f"{'correct' if np.array_equal(naive.bits, golden_outputs(raw, vectors)) else 'CORRUPTED'}"
    )
    first = naive.interference[0]
    print(
        f"  first collision: step {first.step}, component "
        f"{first.component}, waves {first.wave_ids} arrived together"
    )

    # the packed engine: same physics, the wave stream spread across
    # bit-lanes (one uint64 word per 64 lanes, more words as it grows)
    stream = random_vectors(ready.n_inputs, 512, seed=1)
    started = time.perf_counter()
    scalar = simulate_waves(ready, stream, engine="python")
    scalar_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    packed = simulate_waves(ready, stream, engine="packed")
    packed_elapsed = time.perf_counter() - started
    assert packed == scalar  # full report: outputs, events, counters
    print(
        f"\npacked engine: {len(stream)} waves bit-identical in "
        f"{packed_elapsed * 1e3:.1f} ms vs {scalar_elapsed * 1e3:.1f} ms "
        f"scalar ({scalar_elapsed / packed_elapsed:.0f}x)"
    )

    # the two kernels: the balanced netlist lets the engine skip the
    # clock and evaluate each wave functionally (interference is
    # provably impossible); forcing the tracked step loop changes
    # nothing but the speed
    info = describe_packed_run(ready, len(stream))
    assert info["functional"]
    tracked = simulate_waves_packed(ready, stream, track=True)
    assert tracked == packed
    print(
        f"kernels: functional pass, {info['levels']} MAJ levels x "
        f"{info['words']} words; the forced step loop agrees bit-for-bit"
    )
    naive_info = describe_packed_run(raw, len(stream))
    assert not naive_info["functional"]  # unbalanced: proof fails

    # the serving scenario: many independent wave streams, one batch.
    # each report equals simulating that stream alone.
    requests = [random_vectors(ready.n_inputs, 32, seed=s) for s in range(40)]
    started = time.perf_counter()
    batched = simulate_streams(ready, requests)
    batch_elapsed = time.perf_counter() - started
    assert all(r.coherent for r in batched)
    assert batched[7] == simulate_waves(ready, requests[7], engine="packed")
    total = sum(r.waves_retired for r in batched)
    print(
        f"batched streams: {len(requests)} independent requests "
        f"({total} waves) in {batch_elapsed * 1e3:.1f} ms, each report "
        "bit-identical to a solo run"
    )


if __name__ == "__main__":
    main()
