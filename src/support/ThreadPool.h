//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
///
/// \file
/// A reusable fixed-size worker pool, used by the compile server
/// (server/Server.cpp).
///
/// Tasks are arbitrary callables; submit() returns a std::future carrying
/// the task's result or, if it threw, its exception.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_SUPPORT_THREADPOOL_H
#define DENALI_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace denali {
namespace support {

/// A fixed-size pool of worker threads draining a FIFO task queue.
/// Destruction drains nothing: queued-but-unstarted tasks are discarded
/// (their futures are abandoned as broken promises), running tasks are
/// joined. Keep the pool alive until every future you care about is ready.
class ThreadPool {
public:
  /// Spawns \p Threads workers (at least one).
  explicit ThreadPool(unsigned Threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p Fn; the returned future delivers its result or exception.
  template <typename Fn>
  auto submit(Fn &&Work) -> std::future<std::invoke_result_t<Fn>> {
    using Ret = std::invoke_result_t<Fn>;
    auto Task =
        std::make_shared<std::packaged_task<Ret()>>(std::forward<Fn>(Work));
    std::future<Ret> Result = Task->get_future();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Queue.emplace_back([Task] { (*Task)(); });
    }
    WorkAvailable.notify_one();
    return Result;
  }

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  bool Stopping = false;
};

} // namespace support
} // namespace denali

#endif // DENALI_SUPPORT_THREADPOOL_H
