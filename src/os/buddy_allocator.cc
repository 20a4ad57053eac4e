#include "os/buddy_allocator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace asap
{

BuddyAllocator::BuddyAllocator(std::uint64_t totalFrames, unsigned maxOrder)
    : totalFrames_(totalFrames), maxOrder_(maxOrder)
{
    fatal_if(totalFrames == 0, "empty physical memory");
    fatal_if(maxOrder >= 40, "absurd max order %u", maxOrder);
    freeStacks_.resize(maxOrder_ + 1);
    freeBlocks_.assign(maxOrder_ + 1, 0);
    freeBitmap_.assign(totalFrames_, 0);

    // Cover [0, totalFrames) with maximal aligned blocks.
    Pfn pfn = 0;
    while (pfn < totalFrames_) {
        unsigned order = maxOrder_;
        while (order > 0 &&
               ((pfn & ((std::uint64_t{1} << order) - 1)) != 0 ||
                pfn + (std::uint64_t{1} << order) > totalFrames_)) {
            --order;
        }
        markFrames(pfn, std::uint64_t{1} << order, true);
        pushFree(pfn, order);
        pfn += std::uint64_t{1} << order;
    }
}

void
BuddyAllocator::pushFree(Pfn pfn, unsigned order)
{
    freeBitmap_[pfn] = headState(order);
    ++freeBlocks_[order];
    freeStacks_[order].push_back(pfn);
}

void
BuddyAllocator::eraseFree(Pfn pfn, unsigned order)
{
    freeBitmap_[pfn] = 1;
    --freeBlocks_[order];
    // The stack entry becomes stale and is skipped when popped.
}

Pfn
BuddyAllocator::popFree(unsigned order)
{
    auto &stack = freeStacks_[order];
    while (!stack.empty()) {
        const Pfn pfn = stack.back();
        stack.pop_back();
        if (isFreeHead(pfn, order)) {
            eraseFree(pfn, order);
            return pfn;
        }
        // stale entry: removed by eraseFree/coalescing, skip
    }
    return invalidPfn;
}

void
BuddyAllocator::markFrames(Pfn start, std::uint64_t count, bool free)
{
    panic_if(start + count > totalFrames_,
             "frame range [%#lx,+%lu) out of bounds", start, count);
    const std::uint8_t value = free ? 1 : 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        panic_if((freeBitmap_[start + i] != 0) == free,
                 "frame %#lx double-%s", start + i,
                 free ? "free" : "alloc");
        freeBitmap_[start + i] = value;
    }
    if (free)
        freeFrames_ += count;
    else
        freeFrames_ -= count;
}

Pfn
BuddyAllocator::allocBlock(unsigned order)
{
    panic_if(order > maxOrder_, "allocBlock order %u > max %u", order,
             maxOrder_);
    unsigned from = order;
    while (from <= maxOrder_ && freeBlocks_[from] == 0)
        ++from;
    if (from > maxOrder_)
        return invalidPfn;

    Pfn pfn = popFree(from);
    panic_if(pfn == invalidPfn, "free count/stack inconsistency");
    // Split down, returning upper halves to the free lists.
    while (from > order) {
        --from;
        pushFree(pfn + (std::uint64_t{1} << from), from);
    }
    markFrames(pfn, std::uint64_t{1} << order, false);
    return pfn;
}

void
BuddyAllocator::freeBlock(Pfn pfn, unsigned order)
{
    panic_if(order > maxOrder_, "freeBlock order %u", order);
    panic_if((pfn & ((std::uint64_t{1} << order) - 1)) != 0,
             "freeBlock misaligned: %#lx order %u", pfn, order);
    markFrames(pfn, std::uint64_t{1} << order, true);
    // Coalesce with free buddies as far as possible.
    while (order < maxOrder_) {
        const Pfn buddy = pfn ^ (std::uint64_t{1} << order);
        if (buddy + (std::uint64_t{1} << order) > totalFrames_ ||
            !isFreeHead(buddy, order)) {
            break;
        }
        eraseFree(buddy, order);
        pfn = std::min(pfn, buddy);
        ++order;
    }
    pushFree(pfn, order);
}

Pfn
BuddyAllocator::reserveContiguous(std::uint64_t nFrames)
{
    panic_if(nFrames == 0, "reserveContiguous(0)");
    unsigned order = 0;
    while ((std::uint64_t{1} << order) < nFrames)
        ++order;
    if (order > maxOrder_)
        return invalidPfn;
    const Pfn pfn = allocBlock(order);
    if (pfn == invalidPfn)
        return invalidPfn;
    // Return the tail beyond nFrames to the allocator.
    const std::uint64_t blockFrames = std::uint64_t{1} << order;
    if (blockFrames > nFrames)
        freeRange(pfn + nFrames, blockFrames - nFrames);
    return pfn;
}

int
BuddyAllocator::findFreeBlockContaining(Pfn pfn, Pfn &blockStart) const
{
    for (unsigned order = 0; order <= maxOrder_; ++order) {
        const Pfn start = pfn & ~((std::uint64_t{1} << order) - 1);
        if (isFreeHead(start, order)) {
            blockStart = start;
            return static_cast<int>(order);
        }
    }
    return -1;
}

void
BuddyAllocator::carve(Pfn blockStart, unsigned order, Pfn lo, Pfn hi)
{
    const Pfn blockEnd = blockStart + (std::uint64_t{1} << order);
    if (blockEnd <= lo || blockStart >= hi) {
        // Entirely outside the reserved range: stays free.
        pushFree(blockStart, order);
        return;
    }
    if (blockStart >= lo && blockEnd <= hi) {
        // Entirely inside: consumed by the reservation.
        return;
    }
    panic_if(order == 0, "carve: order-0 block must be inside or outside");
    const unsigned half = order - 1;
    carve(blockStart, half, lo, hi);
    carve(blockStart + (std::uint64_t{1} << half), half, lo, hi);
}

bool
BuddyAllocator::reserveRange(Pfn start, std::uint64_t nFrames)
{
    panic_if(nFrames == 0, "reserveRange(0)");
    if (start + nFrames > totalFrames_)
        return false;
    for (std::uint64_t i = 0; i < nFrames; ++i) {
        if (!freeBitmap_[start + i])
            return false;
    }
    // Remove every free block overlapping the range, re-inserting the
    // parts that stick out.
    Pfn cursor = start;
    while (cursor < start + nFrames) {
        Pfn blockStart = 0;
        const int order = findFreeBlockContaining(cursor, blockStart);
        panic_if(order < 0, "free frame %#lx not in any free block",
                 cursor);
        eraseFree(blockStart, static_cast<unsigned>(order));
        carve(blockStart, static_cast<unsigned>(order), start,
              start + nFrames);
        cursor = blockStart + (std::uint64_t{1} << order);
    }
    markFrames(start, nFrames, false);
    return true;
}

void
BuddyAllocator::freeRange(Pfn start, std::uint64_t nFrames)
{
    // Decompose the run into maximal aligned blocks and free each.
    Pfn pfn = start;
    std::uint64_t remaining = nFrames;
    while (remaining > 0) {
        unsigned order = maxOrder_;
        while (order > 0 &&
               ((pfn & ((std::uint64_t{1} << order) - 1)) != 0 ||
                (std::uint64_t{1} << order) > remaining)) {
            --order;
        }
        freeBlock(pfn, order);
        pfn += std::uint64_t{1} << order;
        remaining -= std::uint64_t{1} << order;
    }
}

bool
BuddyAllocator::isFree(Pfn pfn) const
{
    panic_if(pfn >= totalFrames_, "isFree out of range");
    return freeBitmap_[pfn] != 0;
}

void
BuddyAllocator::churn(Rng &rng, std::uint64_t ops, unsigned maxChurnOrder,
                      double holdFraction)
{
    std::vector<std::pair<Pfn, unsigned>> transient;
    for (std::uint64_t i = 0; i < ops; ++i) {
        const auto order =
            static_cast<unsigned>(rng.below(maxChurnOrder + 1));
        const Pfn pfn = allocBlock(order);
        if (pfn == invalidPfn)
            continue;
        if (rng.chance(holdFraction))
            churnHeld_.emplace_back(pfn, order);
        else
            transient.emplace_back(pfn, order);
        // Occasionally release a random transient block to create holes.
        if (!transient.empty() && rng.chance(0.5)) {
            const std::size_t idx = rng.below(transient.size());
            freeBlock(transient[idx].first, transient[idx].second);
            transient[idx] = transient.back();
            transient.pop_back();
        }
    }
    for (const auto &[pfn, order] : transient)
        freeBlock(pfn, order);
}

std::uint64_t
BuddyAllocator::releaseChurn(double fraction)
{
    panic_if(fraction < 0.0 || fraction > 1.0,
             "releaseChurn fraction %f out of [0, 1]", fraction);
    const auto release = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(churnHeld_.size()),
                         std::ceil(fraction *
                                   static_cast<double>(churnHeld_.size()))));
    std::uint64_t frames = 0;
    for (std::size_t i = 0; i < release; ++i) {
        const auto [pfn, order] = churnHeld_.back();
        churnHeld_.pop_back();
        freeBlock(pfn, order);
        frames += std::uint64_t{1} << order;
    }
    return frames;
}

int
BuddyAllocator::largestFreeOrder() const
{
    for (int order = static_cast<int>(maxOrder_); order >= 0; --order) {
        if (freeBlocks_[static_cast<unsigned>(order)] != 0)
            return order;
    }
    return -1;
}

std::uint64_t
BuddyAllocator::fragmentationPermille(unsigned order) const
{
    if (freeFrames_ == 0)
        return 0;
    std::uint64_t usable = 0;
    for (unsigned o = order; o <= maxOrder_; ++o)
        usable += freeBlocks_[o] << o;
    return 1000 - 1000 * usable / freeFrames_;
}

bool
BuddyAllocator::checkConsistency() const
{
    // Walk the frames in order: a free frame must be the head of an
    // aligned, in-range block whose other frames are plain free.
    std::vector<std::uint64_t> blocks(maxOrder_ + 1, 0);
    std::uint64_t free = 0;
    Pfn pfn = 0;
    while (pfn < totalFrames_) {
        const std::uint8_t state = freeBitmap_[pfn];
        if (state == 0) {
            ++pfn;
            continue;
        }
        if (state == 1 || state - 2u > maxOrder_)
            return false;
        const unsigned order = state - 2u;
        const std::uint64_t count = std::uint64_t{1} << order;
        if ((pfn & (count - 1)) != 0 || pfn + count > totalFrames_)
            return false;
        for (std::uint64_t i = 1; i < count; ++i) {
            if (freeBitmap_[pfn + i] != 1)
                return false;
        }
        ++blocks[order];
        free += count;
        pfn += count;
    }
    return free == freeFrames_ && blocks == freeBlocks_;
}

} // namespace asap
