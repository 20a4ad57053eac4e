/**
 * @file
 * Unit + property tests for the buddy allocator.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hh"
#include "os/buddy_allocator.hh"

using namespace asap;

TEST(Buddy, SingleFrameAllocFree)
{
    BuddyAllocator buddy(1024);
    EXPECT_EQ(buddy.totalFrames(), 1024u);
    EXPECT_EQ(buddy.freeFrames(), 1024u);
    const Pfn f = buddy.allocFrame();
    ASSERT_NE(f, invalidPfn);
    EXPECT_EQ(buddy.freeFrames(), 1023u);
    EXPECT_FALSE(buddy.isFree(f));
    buddy.freeFrame(f);
    EXPECT_EQ(buddy.freeFrames(), 1024u);
    EXPECT_TRUE(buddy.isFree(f));
}

TEST(Buddy, BlockAlignment)
{
    BuddyAllocator buddy(1 << 12);
    for (unsigned order = 0; order <= 6; ++order) {
        const Pfn p = buddy.allocBlock(order);
        ASSERT_NE(p, invalidPfn);
        EXPECT_EQ(p & ((1u << order) - 1), 0u) << "order " << order;
    }
}

TEST(Buddy, DistinctAllocations)
{
    BuddyAllocator buddy(256);
    std::set<Pfn> seen;
    for (int i = 0; i < 256; ++i) {
        const Pfn f = buddy.allocFrame();
        ASSERT_NE(f, invalidPfn);
        EXPECT_TRUE(seen.insert(f).second) << "duplicate frame";
    }
    EXPECT_EQ(buddy.allocFrame(), invalidPfn);   // exhausted
}

TEST(Buddy, CoalescingRestoresLargeBlocks)
{
    BuddyAllocator buddy(16, 4);
    std::vector<Pfn> frames;
    for (int i = 0; i < 16; ++i)
        frames.push_back(buddy.allocFrame());
    EXPECT_EQ(buddy.largestFreeOrder(), -1);
    for (const Pfn f : frames)
        buddy.freeFrame(f);
    EXPECT_EQ(buddy.largestFreeOrder(), 4);
    EXPECT_TRUE(buddy.checkConsistency());
}

TEST(Buddy, SplitsLargerBlocksWhenNeeded)
{
    BuddyAllocator buddy(16, 4);
    const Pfn a = buddy.allocBlock(2);   // 4 frames
    const Pfn b = buddy.allocBlock(0);
    ASSERT_NE(a, invalidPfn);
    ASSERT_NE(b, invalidPfn);
    EXPECT_EQ(buddy.freeFrames(), 11u);
    EXPECT_TRUE(buddy.checkConsistency());
}

TEST(Buddy, NonPow2TotalFrames)
{
    BuddyAllocator buddy(1000, 8);
    EXPECT_EQ(buddy.freeFrames(), 1000u);
    EXPECT_TRUE(buddy.checkConsistency());
    std::uint64_t got = 0;
    while (buddy.allocFrame() != invalidPfn)
        ++got;
    EXPECT_EQ(got, 1000u);
}

TEST(Buddy, ReserveContiguousExactRun)
{
    BuddyAllocator buddy(1 << 12);
    const Pfn base = buddy.reserveContiguous(100);   // non-pow2
    ASSERT_NE(base, invalidPfn);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(buddy.isFree(base + i));
    // The tail of the 128-block was returned.
    EXPECT_EQ(buddy.freeFrames(), (1u << 12) - 100);
    EXPECT_TRUE(buddy.checkConsistency());
    buddy.freeRange(base, 100);
    EXPECT_EQ(buddy.freeFrames(), 1u << 12);
    EXPECT_TRUE(buddy.checkConsistency());
}

TEST(Buddy, ReserveContiguousFailsWhenFragmented)
{
    BuddyAllocator buddy(64, 6);
    // Allocate everything, free every other frame: max run = 1.
    std::vector<Pfn> frames;
    for (int i = 0; i < 64; ++i)
        frames.push_back(buddy.allocFrame());
    for (std::size_t i = 0; i < frames.size(); i += 2)
        buddy.freeFrame(frames[i]);
    EXPECT_EQ(buddy.reserveContiguous(4), invalidPfn);
    EXPECT_NE(buddy.reserveContiguous(1), invalidPfn);
    EXPECT_TRUE(buddy.checkConsistency());
}

TEST(Buddy, ReserveRangeSucceedsOnFreeRange)
{
    BuddyAllocator buddy(256);
    EXPECT_TRUE(buddy.reserveRange(10, 20));
    for (int i = 10; i < 30; ++i)
        EXPECT_FALSE(buddy.isFree(i));
    EXPECT_TRUE(buddy.isFree(9));
    EXPECT_TRUE(buddy.isFree(30));
    EXPECT_EQ(buddy.freeFrames(), 236u);
    EXPECT_TRUE(buddy.checkConsistency());
}

TEST(Buddy, ReserveRangeFailsOnOccupiedFrame)
{
    BuddyAllocator buddy(256);
    ASSERT_TRUE(buddy.reserveRange(15, 1));
    EXPECT_FALSE(buddy.reserveRange(10, 10));   // frame 15 busy
    // Failure must not leak state: everything else still free.
    EXPECT_EQ(buddy.freeFrames(), 255u);
    EXPECT_TRUE(buddy.checkConsistency());
}

TEST(Buddy, ReserveRangeOutOfBoundsFails)
{
    BuddyAllocator buddy(100, 6);
    EXPECT_FALSE(buddy.reserveRange(90, 20));
}

TEST(Buddy, ReserveRangeThenAllocDoesNotOverlap)
{
    BuddyAllocator buddy(64, 6);
    ASSERT_TRUE(buddy.reserveRange(8, 16));
    std::set<Pfn> got;
    for (Pfn f = buddy.allocFrame(); f != invalidPfn;
         f = buddy.allocFrame()) {
        EXPECT_TRUE(f < 8 || f >= 24) << "allocated reserved frame " << f;
        got.insert(f);
    }
    EXPECT_EQ(got.size(), 48u);
}

TEST(Buddy, FreeRangeCoalesces)
{
    BuddyAllocator buddy(256);
    ASSERT_TRUE(buddy.reserveRange(0, 256));
    EXPECT_EQ(buddy.freeFrames(), 0u);
    buddy.freeRange(0, 256);
    EXPECT_EQ(buddy.freeFrames(), 256u);
    EXPECT_EQ(buddy.largestFreeOrder(), 8);
    EXPECT_TRUE(buddy.checkConsistency());
}

TEST(Buddy, ChurnKeepsConsistency)
{
    BuddyAllocator buddy(1 << 14);
    Rng rng(99);
    buddy.churn(rng, 5000, 3, 0.5);
    EXPECT_TRUE(buddy.checkConsistency());
    EXPECT_LT(buddy.freeFrames(), std::uint64_t{1} << 14);
    // Still able to allocate.
    EXPECT_NE(buddy.allocFrame(), invalidPfn);
}

TEST(Buddy, ChurnFragmentsFreeSpace)
{
    BuddyAllocator fresh(1 << 14);
    BuddyAllocator churned(1 << 14);
    Rng rng(7);
    churned.churn(rng, 8000, 2, 0.5);
    EXPECT_EQ(fresh.largestFreeOrder(), 14);
    EXPECT_LT(churned.largestFreeOrder(), 15);
    // Fragmentation shows as scattered single-frame allocations:
    // consecutive allocFrame calls return non-adjacent frames more
    // often on the churned allocator.
    auto scatter = [](BuddyAllocator &b) {
        unsigned nonAdjacent = 0;
        Pfn prev = b.allocFrame();
        for (int i = 0; i < 200; ++i) {
            const Pfn f = b.allocFrame();
            if (f != prev + 1)
                ++nonAdjacent;
            prev = f;
        }
        return nonAdjacent;
    };
    EXPECT_GT(scatter(churned), scatter(fresh));
}

TEST(Buddy, ReleaseChurnReturnsHeldBlocks)
{
    BuddyAllocator buddy(1 << 14);
    Rng rng(42);
    buddy.churn(rng, 6000, 3, 0.5);
    const std::uint64_t heldBlocks = buddy.churnHeldBlocks();
    const std::uint64_t freeBefore = buddy.freeFrames();
    ASSERT_GT(heldBlocks, 0u);

    // Partial release: the youngest ~30% of tenants depart.
    const std::uint64_t released = buddy.releaseChurn(0.3);
    EXPECT_GT(released, 0u);
    EXPECT_EQ(buddy.freeFrames(), freeBefore + released);
    EXPECT_LT(buddy.churnHeldBlocks(), heldBlocks);
    EXPECT_TRUE(buddy.checkConsistency());

    // Full release: everything held goes back and coalesces.
    const std::uint64_t rest = buddy.releaseChurn();
    EXPECT_EQ(buddy.churnHeldBlocks(), 0u);
    EXPECT_EQ(buddy.freeFrames(), freeBefore + released + rest);
    EXPECT_EQ(buddy.freeFrames(), std::uint64_t{1} << 14);
    EXPECT_EQ(buddy.largestFreeOrder(), 14);
    EXPECT_TRUE(buddy.checkConsistency());

    // Releasing with nothing held is a no-op.
    EXPECT_EQ(buddy.releaseChurn(), 0u);
}

TEST(Buddy, ReleaseChurnUnderFreeHeavySequences)
{
    // Churn, then a free-heavy interleaving of app allocations, partial
    // churn releases and range frees — the mid-run shape the dyn
    // subsystem produces — with the consistency check after each wave.
    BuddyAllocator buddy(1 << 13, 10);
    Rng rng(7);
    buddy.churn(rng, 4000, 2, 0.6);
    std::vector<Pfn> app;
    for (int wave = 0; wave < 6; ++wave) {
        for (int i = 0; i < 300; ++i) {
            const Pfn f = buddy.allocFrame();
            if (f != invalidPfn)
                app.push_back(f);
        }
        // Free-heavy phase: most of the app pages plus some tenants.
        while (app.size() > 40) {
            buddy.freeFrame(app.back());
            app.pop_back();
        }
        buddy.releaseChurn(0.25);
        ASSERT_TRUE(buddy.checkConsistency()) << "wave " << wave;
    }
    for (const Pfn f : app)
        buddy.freeFrame(f);
    buddy.releaseChurn();
    EXPECT_EQ(buddy.freeFrames(), std::uint64_t{1} << 13);
    EXPECT_TRUE(buddy.checkConsistency());
}

/** Property test: random alloc/free interleavings preserve invariants. */
class BuddyProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(BuddyProperty, RandomOpsPreserveConsistency)
{
    BuddyAllocator buddy(1 << 12, 10);
    Rng rng(GetParam());
    std::vector<std::pair<Pfn, unsigned>> live;
    for (int i = 0; i < 3000; ++i) {
        if (live.empty() || rng.chance(0.55)) {
            const auto order = static_cast<unsigned>(rng.below(5));
            const Pfn p = buddy.allocBlock(order);
            if (p != invalidPfn)
                live.emplace_back(p, order);
        } else {
            const std::size_t idx = rng.below(live.size());
            buddy.freeBlock(live[idx].first, live[idx].second);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    EXPECT_TRUE(buddy.checkConsistency());
    // Free everything: memory must be whole again.
    for (const auto &[p, order] : live)
        buddy.freeBlock(p, order);
    EXPECT_EQ(buddy.freeFrames(), std::uint64_t{1} << 12);
    EXPECT_EQ(buddy.largestFreeOrder(), 10);
    EXPECT_TRUE(buddy.checkConsistency());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/** Property: reserveRange never hands out frames owned by others. */
class BuddyReserveProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(BuddyReserveProperty, ReservedAndAllocatedDisjoint)
{
    BuddyAllocator buddy(2048, 9);
    Rng rng(GetParam());
    std::set<Pfn> owned;
    for (int i = 0; i < 200; ++i) {
        if (rng.chance(0.5)) {
            const Pfn f = buddy.allocFrame();
            if (f != invalidPfn)
                EXPECT_TRUE(owned.insert(f).second);
        } else {
            const Pfn start = rng.below(2000);
            const std::uint64_t n = 1 + rng.below(16);
            if (buddy.reserveRange(start, n)) {
                for (std::uint64_t k = 0; k < n; ++k)
                    EXPECT_TRUE(owned.insert(start + k).second);
            }
        }
    }
    EXPECT_TRUE(buddy.checkConsistency());
    EXPECT_EQ(buddy.freeFrames(), 2048u - owned.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyReserveProperty,
                         ::testing::Values(11, 22, 33, 44));

/**
 * Allocation order is part of the model: the Goldens, recorded traces
 * and the VMA-layout reproductions all depend on which frame each call
 * returns. A seeded mix of every mutating entry point folds each result
 * into one hash pinned as a literal, so any change to the free-list
 * discipline (LIFO order, split order, coalescing) fails here directly.
 */
TEST(Buddy, AllocationOrderIsPinned)
{
    BuddyAllocator buddy(1 << 13, 10);
    Rng rng(2024);
    std::uint64_t hash = 0;
    const auto fold = [&hash](std::uint64_t value) {
        hash = mix64(hash ^ value);
    };
    std::vector<std::pair<Pfn, unsigned>> blocks;
    std::vector<std::pair<Pfn, std::uint64_t>> runs;
    for (int op = 0; op < 4000; ++op) {
        switch (rng.below(8)) {
          case 0:
          case 1: {
            const auto order = static_cast<unsigned>(rng.below(10));
            const Pfn pfn = buddy.allocBlock(order);
            fold(pfn);
            if (pfn != invalidPfn)
                blocks.emplace_back(pfn, order);
            break;
          }
          case 2:
          case 3:
            if (!blocks.empty()) {
                const std::size_t idx = rng.below(blocks.size());
                buddy.freeBlock(blocks[idx].first, blocks[idx].second);
                blocks[idx] = blocks.back();
                blocks.pop_back();
            }
            break;
          case 4: {
            const std::uint64_t n = 1 + rng.below(40);
            const Pfn pfn = buddy.reserveContiguous(n);
            fold(pfn);
            if (pfn != invalidPfn)
                runs.emplace_back(pfn, n);
            break;
          }
          case 5: {
            const Pfn start = rng.below(buddy.totalFrames() - 16);
            const std::uint64_t n = 1 + rng.below(16);
            const bool ok = buddy.reserveRange(start, n);
            fold(ok ? start : invalidPfn);
            if (ok)
                runs.emplace_back(start, n);
            break;
          }
          case 6:
            if (rng.chance(0.5)) {
                buddy.churn(rng, 40, 3, 0.5);
                fold(buddy.churnHeldBlocks());
            } else {
                fold(buddy.releaseChurn(0.3));
            }
            break;
          default:
            if (!runs.empty()) {
                const std::size_t idx = rng.below(runs.size());
                buddy.freeRange(runs[idx].first, runs[idx].second);
                runs[idx] = runs.back();
                runs.pop_back();
            }
            break;
        }
        fold(buddy.freeFrames());
        ASSERT_TRUE(buddy.checkConsistency()) << "op " << op;
    }
    fold(static_cast<std::uint64_t>(buddy.largestFreeOrder() + 1));
    fold(buddy.fragmentationPermille());
    EXPECT_EQ(hash, 0xeeab89ffeb1142feull) << std::hex << hash;
}
