#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace sfi {

std::size_t resolve_thread_count(std::size_t requested) {
    if (requested != 0) return requested;
#if defined(__linux__)
    // `taskset -c 0 ...` must get one worker, not one per host CPU all
    // contending for CPU 0.
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
        const int allowed = CPU_COUNT(&mask);
        if (allowed > 0) return static_cast<std::size_t>(allowed);
    }
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void for_each_trial(std::size_t trials, std::size_t threads,
                    std::size_t chunk,
                    const std::function<void(std::size_t, std::uint64_t)>& fn) {
    if (trials == 0) return;
    threads = std::clamp<std::size_t>(threads, 1, trials);
    chunk = std::max<std::size_t>(chunk, 1);

    if (threads == 1) {
        for (std::uint64_t trial = 0; trial < trials; ++trial) fn(0, trial);
        return;
    }

    std::atomic<std::uint64_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;
    const auto worker = [&](std::size_t index) {
        try {
            for (;;) {
                // A failed sibling poisons the whole result, so stop
                // grabbing chunks instead of burning cycles on trials
                // that will be thrown away.
                if (failed.load(std::memory_order_relaxed)) break;
                const std::uint64_t begin =
                    next.fetch_add(chunk, std::memory_order_relaxed);
                if (begin >= trials) break;
                const std::uint64_t end =
                    std::min<std::uint64_t>(begin + chunk, trials);
                for (std::uint64_t trial = begin; trial < end; ++trial)
                    fn(index, trial);
            }
        } catch (...) {
            failed.store(true, std::memory_order_relaxed);
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!error) error = std::current_exception();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (std::size_t index = 1; index < threads; ++index)
        pool.emplace_back(worker, index);
    worker(0);  // the calling thread participates
    for (std::thread& thread : pool) thread.join();
    if (error) std::rethrow_exception(error);
}

}  // namespace sfi
