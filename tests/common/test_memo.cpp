#include "reap/common/memo.hpp"

#include <gtest/gtest.h>

namespace reap::common {
namespace {

// find() answers exactly what the latest insert() of the key stored, or
// nothing: for a key never inserted, and for one a colliding key has since
// displaced from its slot. Key 0 is a key like any other.
TEST(DirectMappedMemo, FindReturnsTheLatestInsertOfItsKeyOrNothing) {
  DirectMappedMemo<std::uint32_t, 64> memo;
  EXPECT_EQ(memo.find(0), nullptr);  // before the first insert
  for (std::uint64_t k = 0; k < 200; ++k)
    memo.insert(k, static_cast<std::uint32_t>(k * 3));
  int hits = 0;
  for (std::uint64_t k = 0; k < 200; ++k) {
    if (const std::uint32_t* v = memo.find(k)) {
      EXPECT_EQ(*v, k * 3) << "key " << k;
      ++hits;
    }
  }
  EXPECT_GT(hits, 0);
  EXPECT_LE(hits, 64);  // 200 keys in 64 slots: collisions evicted
  ASSERT_NE(memo.find(199), nullptr);  // the last insert always survives
  for (std::uint64_t k = 200; k < 5000; ++k)
    EXPECT_EQ(memo.find(k), nullptr) << "key " << k;

  memo.insert(199, 7);
  ASSERT_NE(memo.find(199), nullptr);
  EXPECT_EQ(*memo.find(199), 7u);
}

}  // namespace
}  // namespace reap::common
