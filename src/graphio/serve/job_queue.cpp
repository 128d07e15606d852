#include "graphio/serve/job_queue.hpp"

#include <functional>
#include <utility>

#include "graphio/support/contracts.hpp"

namespace graphio::serve {

JobQueue::JobQueue(int workers)
    : shards_(static_cast<std::size_t>(workers)) {
  GIO_EXPECTS(workers >= 1);
}

std::size_t JobQueue::shard_of(const Job& job) const noexcept {
  return std::hash<std::string>{}(job.request.spec) % shards_.size();
}

void JobQueue::push(Job job) { push_to_shard(shard_of(job), std::move(job)); }

void JobQueue::push_to_shard(std::size_t shard, Job job) {
  GIO_EXPECTS(shard < shards_.size());
  const std::lock_guard<std::mutex> lock(shards_[shard].mutex);
  shards_[shard].jobs.push_back(std::move(job));
}

bool JobQueue::pop(std::size_t worker, Job& out) {
  GIO_EXPECTS(worker < shards_.size());
  {
    Shard& own = shards_[worker];
    const std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.jobs.empty()) {
      out = std::move(own.jobs.front());
      own.jobs.pop_front();
      return true;
    }
  }
  // Steal from the fullest other shard. Each size is read under its
  // shard's lock, one shard at a time, so the sample may be stale by the
  // time the victim is locked again; the victim is re-checked then, and
  // an emptied one only costs another pass.
  for (;;) {
    std::size_t victim = shards_.size();
    std::size_t victim_size = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (s == worker) continue;
      const std::lock_guard<std::mutex> lock(shards_[s].mutex);
      if (shards_[s].jobs.size() > victim_size) {
        victim = s;
        victim_size = shards_[s].jobs.size();
      }
    }
    if (victim == shards_.size()) return false;  // everything is empty
    const std::lock_guard<std::mutex> lock(shards_[victim].mutex);
    if (shards_[victim].jobs.empty()) continue;  // lost the race; rescan
    out = std::move(shards_[victim].jobs.back());
    shards_[victim].jobs.pop_back();
    const std::lock_guard<std::mutex> steal_lock(steals_mutex_);
    ++steals_;
    return true;
  }
}

std::int64_t JobQueue::steals() const noexcept {
  const std::lock_guard<std::mutex> lock(steals_mutex_);
  return steals_;
}

}  // namespace graphio::serve
