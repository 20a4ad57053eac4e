/**
 * @file
 * A binary buddy allocator modeling the Linux physical-page allocator.
 *
 * The paper's key observation (Section 3.3) is that the buddy allocator
 * "optimizes for allocation speed, allocating pages on demand in first
 * available slots", so page-table node frames end up scattered and
 * uncorrelated with the virtual pages they map. This model reproduces
 * that mechanically: demand paging interleaves data-frame and PT-frame
 * allocations, and an optional churn pass emulates a long-running
 * multi-tenant machine whose free lists are fragmented.
 *
 * The ASAP OS extension additionally needs two primitives:
 *  - reserveContiguous(n): a contiguous run for a per-VMA PT region;
 *  - reserveRange(start, n): in-place extension of an existing region
 *    when the VMA grows (Section 3.7.2) — succeeds only if the frames
 *    adjacent to the region are free.
 *
 * Free lists are bitmap-encoded: one state byte per frame says whether
 * the frame is allocated (0), free inside a block (1), or the head of a
 * free block of order k (k + 2). Each order keeps a LIFO stack of block
 * heads and a live count. Removing a block from its list (coalescing, a
 * range reservation) only rewrites its head byte; the stack entry goes
 * stale and popFree skips it, because a stack entry is live exactly
 * when its frame's byte still says it heads a block of that order. So
 * allocating, freeing and coalescing touch no hash table and make no
 * heap allocation beyond amortized stack growth.
 */

#ifndef ASAP_OS_BUDDY_ALLOCATOR_HH
#define ASAP_OS_BUDDY_ALLOCATOR_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace asap
{

class BuddyAllocator
{
  public:
    static constexpr unsigned defaultMaxOrder = 18;  ///< 1GB blocks

    /**
     * @param totalFrames physical memory size in 4KB frames.
     * @param maxOrder    largest block order managed (2^maxOrder frames).
     */
    explicit BuddyAllocator(std::uint64_t totalFrames,
                            unsigned maxOrder = defaultMaxOrder);

    /** Allocate a 2^order-frame aligned block; invalidPfn on failure. */
    Pfn allocBlock(unsigned order);

    /** Free a block previously returned by allocBlock/reserve*. */
    void freeBlock(Pfn pfn, unsigned order);

    /** Single-frame convenience wrappers. */
    Pfn allocFrame() { return allocBlock(0); }
    void freeFrame(Pfn pfn) { freeBlock(pfn, 0); }

    /**
     * Reserve @p nFrames physically-contiguous frames (not necessarily a
     * power of two). Used by the ASAP PT allocator for per-VMA PT-level
     * regions. @return the first frame, or invalidPfn if no sufficiently
     * large block exists (fragmentation).
     */
    Pfn reserveContiguous(std::uint64_t nFrames);

    /**
     * Reserve the *specific* frame range [start, start+n) if every frame
     * in it is currently free. Models in-place extension of a reserved PT
     * region when its VMA grows. @return true on success.
     */
    bool reserveRange(Pfn start, std::uint64_t nFrames);

    /** Free an arbitrary (non-power-of-two) contiguous run. */
    void freeRange(Pfn start, std::uint64_t nFrames);

    /** True iff @p pfn is currently free. */
    bool isFree(Pfn pfn) const;

    /**
     * Fragment the allocator by performing @p ops random allocations of
     * random orders up to @p maxChurnOrder, keeping roughly
     * @p holdFraction of them live forever (long-lived co-tenant data).
     * Models a machine that has been up for a while (Section 2.5:
     * "contiguity characteristics can vary greatly across runs").
     */
    void churn(Rng &rng, std::uint64_t ops, unsigned maxChurnOrder = 4,
               double holdFraction = 0.5);

    /**
     * Return churn-held blocks to the free lists: the co-tenant whose
     * long-lived data churn() modeled departs mid-run (dyn subsystem).
     * Releases the most recently held ceil(fraction * held) blocks
     * (LIFO — the youngest tenant leaves first) and coalesces them.
     * @return the number of frames freed.
     */
    std::uint64_t releaseChurn(double fraction = 1.0);

    /** Blocks currently held by churn(). */
    std::uint64_t churnHeldBlocks() const { return churnHeld_.size(); }

    std::uint64_t totalFrames() const { return totalFrames_; }
    std::uint64_t freeFrames() const { return freeFrames_; }
    std::uint64_t allocatedFrames() const
    { return totalFrames_ - freeFrames_; }

    /** Order of the largest free block (fragmentation diagnostic). */
    int largestFreeOrder() const;

    /**
     * Free-list fragmentation score: per-mille of free frames *not*
     * usable for a contiguous 2^@p order-frame allocation (Linux's
     * "unusable free space index", scaled to integers). 0 = every
     * free frame sits in a block of at least that size; 1000 = no
     * such block exists. Computed from the per-order free-block
     * counts — deterministic integer arithmetic, read-only. Default order 9 =
     * a 2MB region, the contiguity grain ASAP PT reservations and
     * huge pages both care about.
     */
    std::uint64_t fragmentationPermille(unsigned order = 9) const;

    /**
     * Internal consistency check (tests): every free frame lies in
     * exactly one aligned free block, the per-order counts match the
     * block heads, and the free-frame total matches the bitmap.
     */
    bool checkConsistency() const;

  private:
    void pushFree(Pfn pfn, unsigned order);
    void eraseFree(Pfn pfn, unsigned order);
    /** Pop one valid block start from the order's stack; invalidPfn if
     *  empty. */
    Pfn popFree(unsigned order);
    /** Mark [start, +count) allocated (0) or free non-head (1). */
    void markFrames(Pfn start, std::uint64_t count, bool free);
    /** True iff @p pfn heads a free block of @p order. */
    bool isFreeHead(Pfn pfn, unsigned order) const
    { return freeBitmap_[pfn] == headState(order); }
    static std::uint8_t headState(unsigned order)
    { return static_cast<std::uint8_t>(order + 2); }
    /**
     * Find the free block containing @p pfn; returns its order or -1.
     * @p blockStart receives the block's first frame.
     */
    int findFreeBlockContaining(Pfn pfn, Pfn &blockStart) const;
    /**
     * Re-insert the parts of free block [blockStart, +2^order) that fall
     * outside [lo, hi) back into the free structures.
     */
    void carve(Pfn blockStart, unsigned order, Pfn lo, Pfn hi);

    std::uint64_t totalFrames_;
    unsigned maxOrder_;
    std::uint64_t freeFrames_ = 0;

    /** Per-order LIFO stacks of block heads (may hold stale entries)
     *  and the number of live blocks in each. */
    std::vector<std::vector<Pfn>> freeStacks_;
    std::vector<std::uint64_t> freeBlocks_;

    /** Per-frame state byte: 0 allocated, 1 free, order + 2 free block
     *  head. Authoritative for membership and range queries. */
    std::vector<std::uint8_t> freeBitmap_;

    /** Blocks held live by churn() until releaseChurn() returns them. */
    std::vector<std::pair<Pfn, unsigned>> churnHeld_;
};

} // namespace asap

#endif // ASAP_OS_BUDDY_ALLOCATOR_HH
