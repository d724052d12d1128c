#include "eval/executor.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sfrv::eval {

namespace {

/// One worker's queue. A deque under a mutex is deliberately simple: tasks
/// here are whole simulation cells (milliseconds to seconds each), so queue
/// overhead is noise and the classic lock-free deque buys nothing.
struct Shard {
  std::mutex mu;
  std::deque<std::size_t> q;

  bool pop_front(std::size_t& out) {
    const std::lock_guard<std::mutex> lock(mu);
    if (q.empty()) return false;
    out = q.front();
    q.pop_front();
    return true;
  }
  bool steal_back(std::size_t& out) {
    const std::lock_guard<std::mutex> lock(mu);
    if (q.empty()) return false;
    out = q.back();
    q.pop_back();
    return true;
  }
  std::size_t size() {
    const std::lock_guard<std::mutex> lock(mu);
    return q.size();
  }
};

}  // namespace

int worker_count(std::size_t n, int shards) {
  // Never more workers than tasks: a surplus worker would only start, find
  // every deque empty, and exit.
  return static_cast<int>(std::clamp<std::size_t>(
      n, 1, static_cast<std::size_t>(std::max(1, shards))));
}

void run_sharded(std::size_t n, int shards,
                 const std::function<void(std::size_t)>& task) {
  const int w = worker_count(n, shards);
  std::vector<Shard> deques(static_cast<std::size_t>(w));
  // Round-robin deal: neighbouring cells of the expansion (same benchmark,
  // adjacent configs) land on different shards, spreading the expensive
  // benchmarks before stealing even starts.
  for (std::size_t i = 0; i < n; ++i) {
    deques[i % static_cast<std::size_t>(w)].q.push_back(i);
  }

  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto worker = [&](int self) {
    const auto us = static_cast<std::size_t>(self);
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      std::size_t i = 0;
      bool got = deques[us].pop_front(i);
      if (!got) {
        // Steal from the currently longest victim queue; the snapshot can
        // go stale between the scan and the pop, but the pop re-checks.
        std::size_t best = us, best_len = 0;
        for (std::size_t v = 0; v < deques.size(); ++v) {
          if (v == us) continue;
          const std::size_t len = deques[v].size();
          if (len > best_len) {
            best_len = len;
            best = v;
          }
        }
        if (best_len > 0) got = deques[best].steal_back(i);
        if (!got) {
          // Linear sweep fallback: the snapshot may have gone stale.
          for (std::size_t v = 0; v < deques.size() && !got; ++v) {
            if (v != us) got = deques[v].steal_back(i);
          }
        }
      }
      if (!got) return;  // every deque empty: done
      try {
        task(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (w == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(w));
    for (int t = 0; t < w; ++t) pool.emplace_back(worker, t);
    for (auto& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sfrv::eval
