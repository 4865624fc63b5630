// The one place that spawns threads: a chunked, self-scheduling
// parallel-for over an index range, plus the definition of "auto" worker
// counts. Monte-Carlo trial blocks (mc/parallel.hpp) and chunked DTA
// characterization (timing/dta.hpp) both run through it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace sfi {

/// Resolves a requested worker count: 0 = one per CPU the calling thread
/// may run on (its sched_getaffinity mask, falling back to
/// std::thread::hardware_concurrency(); at least 1), anything else is
/// taken literally.
std::size_t resolve_thread_count(std::size_t requested);

/// Chunked self-scheduling parallel-for over trial indices [0, trials):
/// `threads` workers (the calling thread is one of them) atomically grab
/// `chunk` consecutive indices at a time from a shared counter — dynamic
/// load balancing without per-trial locking, which matters because trial
/// cost varies by ~an order of magnitude (watchdog runs are
/// `watchdog_factor`× longer than clean runs). Indices are handed out in
/// increasing order, so callers can put their most expensive work first.
/// Calls fn(worker, trial) at most once per index (exactly once when no
/// worker throws); each worker index is used by one thread only. The
/// first exception thrown by any worker is rethrown after all workers
/// stopped; a failure flag makes the surviving workers quit at their next
/// chunk boundary instead of finishing work whose results will be
/// discarded.
void for_each_trial(std::size_t trials, std::size_t threads,
                    std::size_t chunk,
                    const std::function<void(std::size_t worker,
                                             std::uint64_t trial)>& fn);

}  // namespace sfi
