// Cross Bar unit tests: grant discipline, word-per-cycle metering and
// round-robin arbitration among granted cores.
#include "mccp/crossbar.h"

#include <gtest/gtest.h>

#include "sim/simulation.h"

namespace mccp::top {
namespace {

struct XbHarness {
  std::vector<std::unique_ptr<core::CryptoCore>> cores;
  std::unique_ptr<CrossBar> xb;
  sim::Simulation sim;

  explicit XbHarness(std::size_t n) {
    std::vector<core::CryptoCore*> raw;
    for (std::size_t i = 0; i < n; ++i) {
      cores.push_back(std::make_unique<core::CryptoCore>("c" + std::to_string(i)));
      raw.push_back(cores.back().get());
    }
    xb = std::make_unique<CrossBar>(raw);
    sim.add(xb.get());  // cores not ticked: we inspect FIFOs directly
  }
};

TEST(CrossBar, PushWithoutGrantThrows) {
  XbHarness h(2);
  EXPECT_THROW(h.xb->push_words(0, {1, 2, 3}), std::logic_error);
}

TEST(CrossBar, DeliversOneWordPerCycle) {
  XbHarness h(1);
  h.xb->open_write(0);
  h.xb->push_words(0, {10, 20, 30});
  h.sim.run(1);
  EXPECT_EQ(h.cores[0]->in_fifo().size(), 1u);
  h.sim.run(2);
  EXPECT_EQ(h.cores[0]->in_fifo().size(), 3u);
  EXPECT_EQ(h.cores[0]->in_fifo().pop(), 10u);
}

TEST(CrossBar, RoundRobinSharesWriteBandwidth) {
  XbHarness h(2);
  h.xb->open_write(0);
  h.xb->open_write(1);
  h.xb->push_words(0, std::vector<std::uint32_t>(10, 0xA));
  h.xb->push_words(1, std::vector<std::uint32_t>(10, 0xB));
  h.sim.run(10);
  // One word per cycle total, alternating between the two lanes.
  EXPECT_EQ(h.cores[0]->in_fifo().size() + h.cores[1]->in_fifo().size(), 10u);
  EXPECT_EQ(h.cores[0]->in_fifo().size(), 5u);
  EXPECT_EQ(h.cores[1]->in_fifo().size(), 5u);
}

TEST(CrossBar, ReadDrainsGrantedCoreOnly) {
  XbHarness h(2);
  for (std::uint32_t w = 0; w < 4; ++w) {
    h.cores[0]->out_fifo().push(w);
    h.cores[1]->out_fifo().push(w + 100);
  }
  h.xb->open_read(0);
  h.sim.run(8);
  EXPECT_EQ(h.xb->take_output(0).size(), 4u);
  EXPECT_TRUE(h.xb->take_output(1).empty());
  EXPECT_EQ(h.cores[1]->out_fifo().size(), 4u);  // untouched without a grant
}

TEST(CrossBar, CloseClearsBuffersAndGrants) {
  XbHarness h(1);
  h.xb->open_write(0);
  h.xb->open_read(0);
  h.xb->push_words(0, {1, 2, 3, 4, 5, 6, 7, 8});
  h.sim.run(2);
  h.xb->close(0);
  EXPECT_FALSE(h.xb->write_granted(0));
  EXPECT_FALSE(h.xb->read_granted(0));
  EXPECT_EQ(h.xb->pending_input(0), 0u);
  std::size_t delivered = h.cores[0]->in_fifo().size();
  h.sim.run(5);
  EXPECT_EQ(h.cores[0]->in_fifo().size(), delivered);  // nothing moves after close
}

TEST(CrossBar, BackpressureWhenCoreFifoFull) {
  XbHarness h(1);
  h.xb->open_write(0);
  // Fill the core FIFO completely.
  while (!h.cores[0]->in_fifo().full()) h.cores[0]->in_fifo().push(0);
  h.xb->push_words(0, {1, 2, 3});
  h.sim.run(10);
  EXPECT_EQ(h.xb->pending_input(0), 3u);  // stalled, not dropped
  h.cores[0]->in_fifo().pop();
  h.sim.run(2);
  EXPECT_EQ(h.xb->pending_input(0), 2u);  // resumed after space appeared
}

TEST(CrossBar, ThroughputCountersAdvance) {
  XbHarness h(1);
  h.xb->open_write(0);
  h.xb->open_read(0);
  h.xb->push_words(0, {1, 2});
  h.cores[0]->out_fifo().push(9);
  h.sim.run(3);
  EXPECT_EQ(h.xb->words_in(), 2u);
  EXPECT_EQ(h.xb->words_out(), 1u);
}

// One tick; returns the lane whose core FIFO received a word (-1: none).
int tick_write(XbHarness& h) {
  std::vector<std::size_t> before;
  for (auto& c : h.cores) before.push_back(c->in_fifo().size());
  h.sim.run(1);
  int served = -1;
  for (std::size_t i = 0; i < h.cores.size(); ++i)
    if (h.cores[i]->in_fifo().size() != before[i]) {
      EXPECT_EQ(served, -1) << "two lanes served in one cycle";
      served = static_cast<int>(i);
    }
  return served;
}

// One tick; returns the lane whose outbox received a word (-1: none).
int tick_read(XbHarness& h) {
  h.sim.run(1);
  int served = -1;
  for (std::size_t i = 0; i < h.cores.size(); ++i)
    if (!h.xb->take_output(i).empty()) {
      EXPECT_EQ(served, -1) << "two lanes served in one cycle";
      served = static_cast<int>(i);
    }
  return served;
}

// Three lanes — not a power of two, so the arbiter's wrap-around from the
// last lane back to lane 0 is exercised on both ports.
TEST(CrossBar, WriteArbiterRoundRobinsThreeLanesAndSkipsFullFifos) {
  XbHarness h(3);
  for (std::size_t i = 0; i < 3; ++i) h.xb->open_write(i);
  // Only lane 1 has words: it is served, and the arbiter resumes after it.
  h.xb->push_words(1, {7});
  EXPECT_EQ(tick_write(h), 1);
  for (std::size_t i = 0; i < 3; ++i) h.xb->push_words(i, {1, 2, 3});
  std::vector<int> order;
  for (int k = 0; k < 6; ++k) order.push_back(tick_write(h));
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1, 2, 0, 1}));
  // Core 2's FIFO is full: its lane is skipped, not waited on.
  while (!h.cores[2]->in_fifo().full()) h.cores[2]->in_fifo().push(0);
  order.clear();
  for (int k = 0; k < 3; ++k) order.push_back(tick_write(h));
  EXPECT_EQ(order, (std::vector<int>{0, 1, -1}));
  // Space appears: the stalled lane is next in turn and then wraps to 0.
  h.cores[2]->in_fifo().pop();
  h.xb->push_words(0, {4});
  order.clear();
  for (int k = 0; k < 2; ++k) order.push_back(tick_write(h));
  EXPECT_EQ(order, (std::vector<int>{2, 0}));
  EXPECT_EQ(h.xb->words_in(), 11u);
}

TEST(CrossBar, ReadArbiterRoundRobinsThreeLanesAndSkipsEmptyFifos) {
  XbHarness h(3);
  for (std::size_t i = 0; i < 3; ++i) h.xb->open_read(i);
  // Only lane 2 has output: after serving it the arbiter wraps to lane 0.
  h.cores[2]->out_fifo().push(9);
  EXPECT_EQ(tick_read(h), 2);
  for (std::uint32_t w = 0; w < 2; ++w)
    for (auto& c : h.cores) c->out_fifo().push(w);
  std::vector<int> order;
  for (int k = 0; k < 6; ++k) order.push_back(tick_read(h));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 1, 2}));
  // Lane 0 has nothing to read: skipped in turn.
  h.cores[1]->out_fifo().push(5);
  h.cores[2]->out_fifo().push(6);
  h.cores[1]->out_fifo().push(8);
  order.clear();
  for (int k = 0; k < 4; ++k) order.push_back(tick_read(h));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, -1}));
  EXPECT_EQ(h.xb->words_out(), 10u);
}

}  // namespace
}  // namespace mccp::top
