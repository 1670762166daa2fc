// The one timed-phase runner (DESIGN.md §3): the E12 workload driver,
// bench/bench_common.h's run_phase and the tests' stress phases all time
// their workers through it, so the timing convention lives in one place.
#pragma once

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "util/barrier.h"

namespace llxscx {

// Runs worker(thread_index, start_line, stop) on `threads` threads. Each
// worker does its per-thread setup, calls start_line.arrive_and_wait()
// exactly once, then works until `stop` reads true. The phase lasts
// `millis` ms after the start line. Returns the phase's seconds, which
// span the start line to the stop-flag flip, NOT to the joins: each
// worker's post-stop drain (its last in-flight op, its stats snapshot)
// cannot inflate the denominator and deflate a reported ops/s.
template <class Worker>
double run_timed_phase(int threads, int millis, Worker&& worker) {
  SpinBarrier start_line(threads + 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] { worker(t, start_line, std::as_const(stop)); });
  }
  start_line.arrive_and_wait();
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(millis));
  stop.store(true);
  const auto end = std::chrono::steady_clock::now();
  for (auto& th : pool) th.join();
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace llxscx
