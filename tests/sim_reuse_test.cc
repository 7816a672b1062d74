// Tests for sim/reuse.h: FlatQueue keeps FIFO order through drains and
// through the compaction of a queue that never drains, and node recycling
// refills erased nodes without changing what a map holds.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "sim/reuse.h"

namespace bio::sim {
namespace {

TEST(FlatQueueTest, FifoAcrossDrainsAndCompaction) {
  FlatQueue<std::unique_ptr<int>> q;
  int next_in = 0;
  int next_out = 0;
  // Keep 10 to 20 entries queued for 1,000 pops: the head passes the
  // compaction threshold many times without the queue ever draining.
  for (int round = 0; round < 100; ++round) {
    while (q.size() < 20) q.push_back(std::make_unique<int>(next_in++));
    while (q.size() > 10) {
      ASSERT_EQ(*q.front(), next_out);
      EXPECT_EQ(*q.pop_front(), next_out++);
    }
  }
  EXPECT_EQ(*q.back(), next_in - 1);
  int expected = next_out;
  for (const std::unique_ptr<int>& v : q) EXPECT_EQ(*v, expected++);
  while (!q.empty()) EXPECT_EQ(*q.pop_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(q.size(), 0u);
  q.push_back(std::make_unique<int>(7));
  EXPECT_EQ(*q.pop_front(), 7) << "a drained queue starts over";
}

template <typename Map>
void churn_through_spare_nodes() {
  Map m;
  SpareNodes<Map> spare;
  for (int i = 0; i < 8; ++i)
    insert_reusing(m, spare, "k" + std::to_string(i), i);
  for (int i = 0; i < 8; i += 2)
    erase_keeping(m, spare, m.find("k" + std::to_string(i)));
  EXPECT_EQ(spare.size(), 4u);
  EXPECT_EQ(m.size(), 4u);
  for (int i = 8; i < 12; ++i) {
    auto it = insert_reusing(m, spare, "k" + std::to_string(i), i);
    EXPECT_EQ(it->first, "k" + std::to_string(i));
    EXPECT_EQ(it->second, i);
  }
  EXPECT_TRUE(spare.empty()) << "inserts take the spare nodes first";
  EXPECT_EQ(m.size(), 8u);
  for (int i : {1, 3, 5, 7, 8, 9, 10, 11})
    EXPECT_EQ(m.at("k" + std::to_string(i)), i);
  EXPECT_EQ(m.count("k0"), 0u);
}

TEST(NodeReuseTest, MapRefillsErasedNodes) {
  churn_through_spare_nodes<std::map<std::string, int>>();
}

TEST(NodeReuseTest, UnorderedMapRefillsErasedNodes) {
  churn_through_spare_nodes<std::unordered_map<std::string, int>>();
}

}  // namespace
}  // namespace bio::sim
