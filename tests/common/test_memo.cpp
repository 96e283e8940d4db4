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

}  // namespace
}  // namespace reap::common
