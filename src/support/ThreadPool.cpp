//===- support/ThreadPool.cpp ---------------------------------------------===//

#include "support/ThreadPool.h"

using namespace denali;
using namespace denali::support;

ThreadPool::ThreadPool(unsigned Threads) {
  if (Threads == 0)
    Threads = 1;
  Workers.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
    Queue.clear(); // Unstarted tasks become broken promises.
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Stopping && Queue.empty())
        return;
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    // packaged_task routes any exception into the future.
    Task();
  }
}
