// Sharded work-stealing executor for campaign cells.
//
// Replaces the PR 2 thread pool's single shared atomic cursor: tasks are
// dealt round-robin into per-shard deques, each worker drains its own deque
// from the front, and an idle worker steals from the *back* of the busiest
// victim — so stolen work is the work its owner would reach last, and two
// workers only contend when one of them is otherwise idle. Cells vary in
// cost by orders of magnitude (full-size SVM vs. an 8x8 smoke GEMM), which
// is exactly the imbalance stealing absorbs.
//
// Determinism: the executor only schedules; completion order is arbitrary,
// and callers must bank results by task index (the campaign writes
// `results[i]` and aggregates in matrix order afterwards — same contract as
// the old pool).
#pragma once

#include <cstddef>
#include <functional>

namespace sfrv::eval {

/// Worker threads run_sharded starts for `n` tasks: `shards` clamped to
/// [1, max(n, 1)].
[[nodiscard]] int worker_count(std::size_t n, int shards);

/// Run `task(0..n-1)` across worker_count(n, shards) worker threads (one
/// runs inline on the calling thread). If any task throws, remaining
/// tasks are abandoned and the first exception is rethrown after all
/// workers retire.
void run_sharded(std::size_t n, int shards,
                 const std::function<void(std::size_t)>& task);

}  // namespace sfrv::eval
