/**
 * @file
 * The tag lookup the caches and TLBs share, and the outcome tracks it
 * can replay instead of looking tags up.
 *
 * A cache and a TLB both map an address to a block (a cache line or a
 * page) and ask an LRU tag store whether the block is present. An
 * access to the block accessed last is a hit that changes no LRU
 * order: that block is already its set's most recently used way. So
 * BlockLookup answers such a repeat without touching the tag store,
 * and the store sees only the block changes of the address stream.
 *
 * Those block changes depend on the address stream alone, never on
 * timing, and the core's L1 caches and TLBs see address streams fixed
 * by the instruction stream. So one pass of a fresh lookup over a
 * stream (record()) yields the outcome of every non-repeat access,
 * and any later run of the same geometry over the same stream can
 * replay that OutcomeTrack instead of simulating the tag store.
 */

#ifndef RIGOR_SIM_BLOCK_LOOKUP_HH
#define RIGOR_SIM_BLOCK_LOOKUP_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/replacement.hh"

namespace rigor::sim
{

/** What one non-repeat access found and did. */
struct Outcome
{
    /** The block was present. */
    bool hit;
    /** A miss replaced a valid block. */
    bool evicted;

    bool operator==(const Outcome &) const = default;
};

/**
 * The outcomes of one lookup's non-repeat accesses over one stream,
 * in order, packed at 2 bits each (bit 0 hit, bit 1 evicted).
 */
class OutcomeTrack
{
  public:
    void
    push(Outcome outcome)
    {
        const unsigned shift = 2 * (_size % perWord);
        if (shift == 0)
            _words.push_back(0);
        _words.back() |=
            (std::uint64_t{outcome.hit} | std::uint64_t{outcome.evicted}
                                              << 1)
            << shift;
        ++_size;
    }

    /** @throws std::logic_error when @p i is not below size(): the
     *  replaying run is longer than the recorded stream */
    Outcome
    at(std::size_t i) const
    {
        if (i >= _size)
            throw std::logic_error(
                "OutcomeTrack: replay ran past the recorded stream");
        const std::uint64_t bits =
            _words[i / perWord] >> (2 * (i % perWord));
        return {(bits & 1) != 0, (bits & 2) != 0};
    }

    std::size_t size() const { return _size; }

  private:
    static constexpr std::size_t perWord = 32;

    std::vector<std::uint64_t> _words;
    std::size_t _size = 0;
};

/**
 * Set-associative LRU lookup of blocks of 2^blockShift bytes, with the
 * repeat rule above. Each non-repeat access takes its outcome from the
 * tag store, or, while a track is attached, from the track (the tag
 * store is then left untouched).
 */
class BlockLookup
{
  public:
    /** Take on a geometry and flush(). See TagStore::reshape. */
    void reshape(std::uint32_t num_sets, std::uint32_t assoc,
                 std::uint32_t block_shift);

    /** Invalidate every block and detach any track. O(1). */
    void flush();

    /**
     * Take the outcomes of the non-repeat accesses from @p track, from
     * its start, until the next flush() or reshape(). The track must
     * be what record() gave for this geometry over the address stream
     * that follows, and must outlive the replay.
     */
    void
    replay(const OutcomeTrack &track)
    {
        _track = &track;
        _trackPos = 0;
    }

    /** Access the block containing @p addr; a repeat is a hit. */
    Outcome
    access(std::uint64_t addr)
    {
        const std::uint64_t block = addr >> _blockShift;
        if (repeats(block))
            return {true, false};
        return _track ? _track->at(_trackPos++) : lookup(block);
    }

    /** Is the block containing @p addr present? Live state only: a
     *  replay leaves the tag store as the last flush left it. */
    bool
    probe(std::uint64_t addr) const
    {
        const std::uint64_t block = addr >> _blockShift;
        return _tags.probe(static_cast<std::uint32_t>(block & _setMask),
                           block >> _setBits);
    }

    /**
     * The track this lookup, freshly reshaped, records over
     * @p addrs: one outcome per non-repeat access. Leaves the lookup
     * in the state the accesses put it in.
     */
    template <class Addresses>
    OutcomeTrack
    record(Addresses &&addrs)
    {
        OutcomeTrack track;
        for (const std::uint64_t addr : addrs) {
            const std::uint64_t block = addr >> _blockShift;
            if (!repeats(block))
                track.push(lookup(block));
        }
        return track;
    }

  private:
    TagStore _tags{false};
    std::uint32_t _blockShift = 0;
    std::uint32_t _setBits = 0;
    std::uint64_t _setMask = 0;
    std::uint64_t _lastBlock = 0;
    bool _haveLast = false;
    const OutcomeTrack *_track = nullptr;
    std::size_t _trackPos = 0;

    /** Is @p block the last one accessed? Makes it so. */
    bool
    repeats(std::uint64_t block)
    {
        if (block == _lastBlock && _haveLast)
            return true;
        _lastBlock = block;
        _haveLast = true;
        return false;
    }

    /** The tag store's outcome for @p block. */
    Outcome lookup(std::uint64_t block);
};

} // namespace rigor::sim

#endif // RIGOR_SIM_BLOCK_LOOKUP_HH
