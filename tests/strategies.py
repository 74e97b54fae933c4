"""Shared Hypothesis strategies for netlists, streams, and request mixes.

One home for the generators that used to be duplicated across
``test_batch_engine.py``, ``test_kernels.py``, and ``test_serving.py``
(and that the chaos suite now reuses): random netlists (raw/unbalanced
or wave-pipelined), per-stream wave-count lists, and serving request
mixes.  Keeping them here means every property suite draws from the
same structural distribution — a shrunk counterexample from one suite
reproduces directly in the others.
"""

from hypothesis import strategies as st

from repro.core.wavepipe import WaveNetlist, wave_pipeline

from helpers import build_random_mig


@st.composite
def random_migs(
    draw,
    min_gates: int = 5,
    max_gates: int = 40,
    min_pis: int = 3,
    max_pis: int = 6,
):
    """Seeded random MIG (see ``helpers.build_random_mig``)."""
    n_gates = draw(st.integers(min_gates, max_gates))
    seed = draw(st.integers(0, 2**16))
    return build_random_mig(
        n_pis=draw(st.integers(min_pis, max_pis)), n_gates=n_gates,
        seed=seed,
    )


@st.composite
def netlists(
    draw,
    min_gates: int = 5,
    max_gates: int = 40,
    min_pis: int = 3,
    max_pis: int = 6,
    wave_ready=None,
):
    """Random netlist: raw (usually unbalanced) or wave-ready.

    *wave_ready* ``None`` draws the flavour too (the historical
    ``test_batch_engine`` distribution); ``True``/``False`` pins it.
    Raw netlists come straight off a random MIG and usually interfere;
    wave-ready ones went through the FOx+BUF flow and are balanced.
    """
    mig = draw(random_migs(min_gates, max_gates, min_pis, max_pis))
    ready = draw(st.booleans()) if wave_ready is None else wave_ready
    if ready:
        return wave_pipeline(mig, fanout_limit=3, verify=False).netlist
    return WaveNetlist.from_mig(mig)


def raw_netlists(**kwargs):
    """Unpipelined netlists (usually unbalanced — interference cases)."""
    return netlists(wave_ready=False, **kwargs)


def wave_ready_netlists(**kwargs):
    """Netlists that went through the full FOx+BUF flow (balanced)."""
    return netlists(wave_ready=True, **kwargs)


def stream_lengths(
    max_streams: int = 5, max_waves: int = 70
) -> st.SearchStrategy:
    """Per-stream wave counts of one ``simulate_streams`` batch.

    Zero-length streams are deliberately included: empty requests must
    flow through batching untouched.
    """
    return st.lists(
        st.integers(0, max_waves), min_size=1, max_size=max_streams
    )


def session_schedules(
    max_feeds: int = 6, max_waves_per_feed: int = 24
) -> st.SearchStrategy:
    """Chunked feed schedules of one streaming session.

    Each drawn list is the per-``feed()`` wave count of a
    :class:`~repro.core.wavepipe.batch.PackedSession` stream — i.e. the
    split-point vector of the differential property: the concatenation
    of the chunks is the solo run, the chunks are the resumed one.
    Zero-length feeds are deliberately included (an empty feed must
    resolve with an empty report without disturbing the stream), and
    the distribution straddles the lane width so shrunk examples cover
    both sub-lane and multi-slot packings.  Shared between
    ``test_streaming.py`` and the chaos suites so a counterexample from
    one reproduces in the others.
    """
    return st.lists(
        st.integers(0, max_waves_per_feed),
        min_size=1,
        max_size=max_feeds,
    )


def request_mixes(
    n_netlists: int = 2,
    max_requests: int = 20,
    max_waves: int = 12,
    max_seed: int = 9,
) -> st.SearchStrategy:
    """Serving request mixes: ``(netlist index, n_waves, seed)`` tuples.

    The serving property suites pair each tuple with a module-level
    netlist table and a seeded ``random_vectors`` payload, so one drawn
    mix fully determines a reproducible request schedule.
    """
    return st.lists(
        st.tuples(
            st.integers(0, n_netlists - 1),
            st.integers(0, max_waves),
            st.integers(0, max_seed),
        ),
        min_size=1,
        max_size=max_requests,
    )
