/**
 * @file
 * The L1I, ITLB, L1D and DTLB outcome tracks of one instruction
 * stream, one per geometry, for every design row that replays it.
 *
 * With the repeat rule of BlockLookup, what each of the four
 * structures does on its non-repeat accesses is fixed by the stream
 * and its own geometry:
 *  - L1I: the fetch-block changes of the pc, in program order;
 *  - ITLB: the page changes of the pc. Every page change is also a
 *    fetch-block change while the L1I block is no larger than a page,
 *    so the L1I geometry is not part of the ITLB's key;
 *  - L1D and DTLB: the block (page) changes among loads and stores,
 *    in program order. The core asks its ExecutionHook only about
 *    non-memory operations, so every load and store reaches them.
 *
 * A re-fetch after a redirect (a mispredict, or a taken branch into
 * the same block) re-accesses the last block, and is a repeat.
 * The L2 is not here: it sees the L1 misses at timed cycles and stays
 * live, as do the BTB, predictor and RAS.
 */

#ifndef RIGOR_SIM_L1_TRACKS_HH
#define RIGOR_SIM_L1_TRACKS_HH

#include <deque>
#include <span>
#include <utility>

#include "sim/block_lookup.hh"
#include "sim/config.hh"
#include "trace/instruction.hh"

namespace rigor::sim
{

/** The tracks one run replays; a null track leaves its structure
 *  live. */
struct L1Tracks
{
    const OutcomeTrack *l1i = nullptr;
    const OutcomeTrack *itlb = nullptr;
    const OutcomeTrack *l1d = nullptr;
    const OutcomeTrack *dtlb = nullptr;
};

/**
 * The tracks of one stream, keyed by geometry without latency: a cache
 * by size, associativity and block size, a TLB by entries,
 * associativity and page size. Each track is built whole by a
 * pre-pass of a fresh Cache or Tlb over the stream, so an exception
 * elsewhere never leaves a partial one.
 */
class StreamTracks
{
  public:
    /**
     * The tracks a fresh core of @p config replays over the whole of
     * @p stream, building the ones not yet held. Every call until the
     * next clear() must pass the same stream. The ITLB stays live for
     * a config whose L1I block is larger than its page.
     */
    L1Tracks tracksFor(const ProcessorConfig &config,
                       std::span<const trace::Instruction> stream);

    /** Drop every track, e.g. when the stream changes. */
    void clear();

  private:
    /** A deque, so that a track built later moves no earlier one. */
    template <class Geometry>
    using Tracks = std::deque<std::pair<Geometry, OutcomeTrack>>;

    Tracks<CacheGeometry> _l1i;
    Tracks<TlbGeometry> _itlb;
    Tracks<CacheGeometry> _l1d;
    Tracks<TlbGeometry> _dtlb;
};

} // namespace rigor::sim

#endif // RIGOR_SIM_L1_TRACKS_HH
