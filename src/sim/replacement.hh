/**
 * @file
 * Set-associative LRU tag store.
 *
 * Shared by the caches, the TLBs, and the BTB: each is a set of sets
 * of (tag, payload) ways with least-recently-used victim selection,
 * the policy Table 8 gives every cache.
 */

#ifndef RIGOR_SIM_REPLACEMENT_HH
#define RIGOR_SIM_REPLACEMENT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rigor::sim
{

/**
 * Tag store of numSets x assoc ways. A store built with payloads keeps
 * a single uint64 per way (the BTB stores a branch target there);
 * caches and TLBs build theirs without.
 *
 * A way is 16 B: its tag and the tick of its last fill or hit, side by
 * side, so a direct-mapped or 4-way set is one host cache line. The
 * tick never restarts. flush() records the current tick, and a way is
 * valid only when its stamp is later than the last flush, so flushing
 * and reshaping are O(1) in the store's size. The stamps of valid ways
 * keep the order a fresh store would give them, which is all LRU
 * compares, so a flushed or reshaped store picks the same victims as
 * a freshly constructed one.
 */
class TagStore
{
  public:
    /** What access() found and did. */
    struct Access
    {
        /** The tag was present (and is now the set's MRU way). */
        bool hit;
        /** A miss replaced a valid way. */
        bool evicted;
        /** On a hit, the way's payload before this access (0 in a
         *  store without payloads or on a miss). */
        std::uint64_t payload;
    };

    /** An empty store (no sets); reshape() it before use. */
    explicit TagStore(bool with_payload = true);

    /**
     * @param num_sets number of sets (power of two)
     * @param assoc ways per set (already resolved; not 0)
     * @param with_payload keep a payload per way; a store without
     *        ignores the payload it is given and reads back 0
     */
    TagStore(std::uint32_t num_sets, std::uint32_t assoc,
             bool with_payload = true);

    std::uint32_t numSets() const { return _numSets; }
    std::uint32_t assoc() const { return _assoc; }

    /**
     * Look up @p tag in @p set and make it the set's most recently
     * used way: on a miss it fills the victim way, which is the first
     * invalid way, else the first least recently used one. The hit
     * check and the victim choice share one pass over the set.
     *
     * @param payload stored in the way on a hit or a fill
     * @throws std::out_of_range when @p set is not below numSets()
     */
    Access access(std::uint32_t set, std::uint64_t tag,
                  std::uint64_t payload = 0);

    /** Probe without updating the LRU order. */
    bool probe(std::uint32_t set, std::uint64_t tag) const;

    /**
     * Invalidate everything. A flushed store behaves bit-identically
     * to a freshly constructed one. O(1).
     */
    void flush();

    /**
     * Change the geometry, then flush(). The way buffer is kept and
     * grows only when @p num_sets x @p assoc exceeds every geometry
     * this store has held before.
     */
    void reshape(std::uint32_t num_sets, std::uint32_t assoc);

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        /** Tick of the last fill or hit; valid when later than
         *  _flushTick. */
        std::uint64_t stamp = 0;
    };

    std::uint32_t _numSets = 0;
    std::uint32_t _assoc = 0;
    bool _withPayload;
    std::uint64_t _tick = 0;
    std::uint64_t _flushTick = 0;
    std::vector<Way> _ways;
    /** Parallel to _ways; empty unless _withPayload. */
    std::vector<std::uint64_t> _payloads;

    std::size_t setBase(std::uint32_t set) const;
    bool valid(const Way &way) const { return way.stamp > _flushTick; }
};

} // namespace rigor::sim

#endif // RIGOR_SIM_REPLACEMENT_HH
