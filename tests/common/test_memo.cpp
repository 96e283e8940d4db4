#include "reap/common/memo.hpp"

#include <gtest/gtest.h>

namespace reap::common {
namespace {

TEST(DirectMappedMemo, ClearLeavesNoStaleHitsAndKeepsStorage) {
  DirectMappedMemo<std::uint32_t, 64> memo;
  for (std::uint64_t k = 0; k < 200; ++k)
    memo.insert(k, static_cast<std::uint32_t>(k * 3));
  ASSERT_NE(memo.find(199), nullptr);  // the last insert always survives
  const void* storage = memo.storage();

  memo.clear();
  for (std::uint64_t k = 0; k < 200; ++k)
    EXPECT_EQ(memo.find(k), nullptr) << "stale hit for key " << k;
  EXPECT_EQ(memo.storage(), storage);

  // Usable again, still in the same allocation.
  memo.insert(5, 99);
  ASSERT_NE(memo.find(5), nullptr);
  EXPECT_EQ(*memo.find(5), 99u);
  EXPECT_EQ(memo.storage(), storage);
}

// clear() zeroes only the slots filled since the last clear while there
// are few of them, and the whole key column past that. A partial clear
// followed by a full one (and the reverse) must leave no stale hit.
TEST(DirectMappedMemo, PartialThenFullClearLeavesNoStaleHits) {
  DirectMappedMemo<std::uint32_t, 1024> memo;
  const auto fill = [&memo](std::uint64_t from, std::uint64_t to) {
    for (std::uint64_t k = from; k < to; ++k)
      memo.insert(k, static_cast<std::uint32_t>(k + 1));
  };
  const auto expect_empty = [&memo](std::uint64_t to) {
    for (std::uint64_t k = 0; k < to; ++k)
      EXPECT_EQ(memo.find(k), nullptr) << "stale hit for key " << k;
  };
  fill(0, 20);  // a few slots: the partial clear
  memo.clear();
  expect_empty(5000);
  fill(0, 5000);  // every slot, many times over: the full clear
  memo.clear();
  expect_empty(5000);
  fill(100, 110);  // and partial again, after a full one
  ASSERT_NE(memo.find(105), nullptr);
  EXPECT_EQ(*memo.find(105), 106u);
  memo.clear();
  expect_empty(5000);
  // Re-inserting a key into its own slot is not a second fill.
  for (int round = 0; round < 1000; ++round) memo.insert(7, 1);
  memo.clear();
  expect_empty(5000);
}

}  // namespace
}  // namespace reap::common
