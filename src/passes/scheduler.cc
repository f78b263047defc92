#include "passes/scheduler.h"

#include <condition_variable>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "runtime/thread_pool.h"

namespace fxcpp::passes {

fx::SplitResult split_at(fx::GraphModule& gm,
                         const std::string& boundary_node) {
  bool seen = false;
  bool found = false;
  std::unordered_map<const fx::Node*, int> part;
  for (const fx::Node* n : gm.graph().nodes()) {
    part[n] = seen ? 1 : 0;
    if (n->name() == boundary_node) {
      seen = true;
      found = true;
    }
  }
  if (!found) {
    throw std::invalid_argument("split_at: no node named '" + boundary_node +
                                "'");
  }
  return fx::split_module(gm, [&part](const fx::Node& n) { return part.at(&n); });
}

std::vector<Tensor> run_serial(fx::SplitResult& split,
                               const std::vector<Tensor>& stream) {
  std::vector<Tensor> out;
  out.reserve(stream.size());
  for (const Tensor& x : stream) out.push_back(split.parent->run(x));
  return out;
}

std::vector<Tensor> run_pipelined(fx::SplitResult& split,
                                  const std::vector<Tensor>& stream) {
  if (split.submodules.size() != 2) {
    throw std::invalid_argument("run_pipelined: expected exactly 2 stages");
  }
  auto& stage0 = *split.submodules[0];
  auto& stage1 = *split.submodules[1];

  std::queue<std::pair<std::size_t, Tensor>> handoff;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::vector<Tensor> out(stream.size());

  // Stage-1 consumer — the "asynchronous device" draining stage-0 results —
  // runs as one inter-op pool task; the TaskGroup supplies the completion
  // signal (and propagates a stage-1 exception out of this function).
  rt::TaskGroup group(rt::ThreadPool::inter_op_handle());
  group.run([&] {
    for (;;) {
      std::pair<std::size_t, Tensor> item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !handoff.empty(); });
        if (handoff.empty()) return;
        item = std::move(handoff.front());
        handoff.pop();
      }
      out[item.first] = stage1.run(item.second);
    }
  });

  try {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      Tensor mid = stage0.run(stream[i]);
      {
        std::lock_guard<std::mutex> lock(mu);
        handoff.emplace(i, std::move(mid));
      }
      cv.notify_one();
    }
  } catch (...) {
    // Unblock the consumer before the TaskGroup destructor waits on it.
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  group.wait();
  return out;
}

}  // namespace fxcpp::passes
