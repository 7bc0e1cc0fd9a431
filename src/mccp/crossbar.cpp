#include "mccp/crossbar.h"

#include <stdexcept>

namespace mccp::top {

void CrossBar::push_words(std::size_t core_idx, const std::vector<std::uint32_t>& words) {
  Lane& lane = lanes_.at(core_idx);
  if (!lane.write_granted)
    throw std::logic_error("CrossBar: push to a core without a write grant");
  lane.inbox.insert(lane.inbox.end(), words.begin(), words.end());
}

std::vector<std::uint32_t> CrossBar::take_output(std::size_t core_idx) {
  Lane& lane = lanes_.at(core_idx);
  std::vector<std::uint32_t> out(lane.outbox.begin(), lane.outbox.end());
  lane.outbox.clear();
  return out;
}

bool CrossBar::take_output_into(std::size_t core_idx, std::vector<std::uint32_t>& out) {
  Lane& lane = lanes_.at(core_idx);
  if (lane.outbox.empty()) return false;
  out.insert(out.end(), lane.outbox.begin(), lane.outbox.end());
  lane.outbox.clear();
  return true;
}

bool CrossBar::quiet() const {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& l = lanes_[i];
    if (!l.outbox.empty()) return false;
    if (l.write_granted && !l.inbox.empty() && !cores_[i]->in_fifo().full()) return false;
    if (l.read_granted && !cores_[i]->out_fifo().empty()) return false;
  }
  return true;
}

void CrossBar::tick() {
  // Round-robin from the lane after the last one served; the probe index
  // wraps by compare, not by division (up to 2n probes every cycle).
  const std::size_t n = lanes_.size();
  auto next = [n](std::size_t i) { return i + 1 == n ? 0 : i + 1; };
  // One word into one core per cycle (write port).
  for (std::size_t k = 0, i = write_rr_; k < n; ++k, i = next(i)) {
    Lane& lane = lanes_[i];
    if (lane.write_granted && !lane.inbox.empty() && !cores_[i]->in_fifo().full()) {
      cores_[i]->in_fifo().push(lane.inbox.front());
      lane.inbox.pop_front();
      ++words_in_;
      write_rr_ = next(i);
      break;
    }
  }
  // One word out of one core per cycle (read port).
  for (std::size_t k = 0, i = read_rr_; k < n; ++k, i = next(i)) {
    Lane& lane = lanes_[i];
    if (lane.read_granted && !cores_[i]->out_fifo().empty()) {
      lane.outbox.push_back(cores_[i]->out_fifo().pop());
      ++words_out_;
      read_rr_ = next(i);
      break;
    }
  }
}

}  // namespace mccp::top
