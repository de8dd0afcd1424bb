#include "gossipsub/seen_cache.h"

namespace wakurln::gossipsub {

namespace {
constexpr std::size_t kMinCapacity = 16;

/// Smallest power-of-two capacity keeping load <= 3/4 for `entries`.
std::size_t capacity_for(std::size_t entries) {
  std::size_t cap = kMinCapacity;
  while (entries * 4 > cap * 3) cap <<= 1;
  return cap;
}
}  // namespace

std::size_t SeenCache::probe(std::uint64_t fp) const {
  const std::size_t mask = fps_.size() - 1;
  std::size_t i = static_cast<std::size_t>(fp) & mask;
  while (fps_[i] != 0 && fps_[i] != fp) i = (i + 1) & mask;
  return i;
}

void SeenCache::insert(const MessageId& id, std::uint64_t at) {
  if (fps_.empty()) rehash(kMinCapacity);
  const std::uint64_t fp = fingerprint(id);
  std::size_t i = probe(fp);
  if (fps_[i] == 0) {
    if ((size_ + 1) * 4 > fps_.size() * 3) {
      rehash(fps_.size() * 2);
      i = probe(fp);
    }
    fps_[i] = fp;
    ++size_;
  }
  times_[i] = at;
}

void SeenCache::rehash(std::size_t capacity) {
  std::vector<std::uint64_t> old_fps = std::move(fps_);
  std::vector<std::uint64_t> old_times = std::move(times_);
  fps_.assign(capacity, 0);
  times_.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::size_t j = 0; j < old_fps.size(); ++j) {
    const std::uint64_t fp = old_fps[j];
    if (fp == 0) continue;
    std::size_t i = static_cast<std::size_t>(fp) & mask;
    while (fps_[i] != 0) i = (i + 1) & mask;
    fps_[i] = fp;
    times_[i] = old_times[j];
  }
}

void SeenCache::expire_older_than(std::uint64_t now, std::uint64_t ttl) {
  if (size_ == 0) return;
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < fps_.size(); ++i) {
    if (fps_[i] != 0 && now - times_[i] > ttl) {
      fps_[i] = 0;
    } else if (fps_[i] != 0) {
      ++survivors;
    }
  }
  // Nothing expired (the loop cleared no slot) and the table already has
  // the fitting capacity: the rebuild would reproduce the same contents.
  if (survivors == size_ && fps_.size() == capacity_for(size_)) return;
  size_ = survivors;
  if (survivors == 0) {
    // Back to the unallocated state a quiet node started in.
    fps_ = {};
    times_ = {};
    return;
  }
  // Tombstone-free rebuild at the smallest fitting capacity: linear
  // probing needs intact runs, and shrinking keeps the model honest after
  // a traffic burst drains.
  std::vector<std::uint64_t> live_fps;
  std::vector<std::uint64_t> live_times;
  live_fps.reserve(survivors);
  live_times.reserve(survivors);
  for (std::size_t i = 0; i < fps_.size(); ++i) {
    if (fps_[i] != 0) {
      live_fps.push_back(fps_[i]);
      live_times.push_back(times_[i]);
    }
  }
  const std::size_t cap = capacity_for(survivors);
  fps_.assign(cap, 0);
  times_.assign(cap, 0);
  // assign() never shrinks vector capacity; reallocate when the fit
  // changed so memory_bytes() tracks the live table, not its high-water
  // mark.
  if (fps_.capacity() != cap) {
    fps_.shrink_to_fit();
    times_.shrink_to_fit();
  }
  const std::size_t mask = cap - 1;
  for (std::size_t j = 0; j < live_fps.size(); ++j) {
    std::size_t i = static_cast<std::size_t>(live_fps[j]) & mask;
    while (fps_[i] != 0) i = (i + 1) & mask;
    fps_[i] = live_fps[j];
    times_[i] = live_times[j];
  }
}

}  // namespace wakurln::gossipsub
