#include "graphio/support/jsonl_log.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "graphio/faults/fault_injection.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/telemetry/metrics.hpp"

namespace graphio {

namespace {

/// Pushes `path` to stable storage (a directory: makes a rename in it
/// durable). A fresh descriptor suffices — fsync flushes every dirty page
/// of the file, whichever descriptor wrote it. Best effort, and a no-op on
/// platforms without fsync.
void fsync_at(const std::filesystem::path& path, bool directory) {
#if defined(_WIN32)
  (void)path;
  (void)directory;
#else
  const int fd = ::open(path.c_str(), O_RDONLY | (directory ? O_DIRECTORY : 0));
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
#endif
}

}  // namespace

JsonlLog::JsonlLog(const std::filesystem::path& dir, Spec spec)
    : spec_(std::move(spec)), append_site_(spec_.site + ".append") {
  // create_directories is not required to report a pre-existing
  // non-directory on every implementation, so check both ways.
  GIO_EXPECTS_MSG(!dir.empty(), spec_.noun + " directory must not be empty");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  GIO_EXPECTS_MSG(!ec, "cannot create " + spec_.noun + " directory '" +
                           dir.string() + "': " + ec.message());
  GIO_EXPECTS_MSG(std::filesystem::is_directory(dir, ec) && !ec,
                  spec_.noun + " path '" + dir.string() +
                      "' is not a directory");
  path_ = dir / spec_.file;
  if (std::filesystem::file_size(path_, ec) > 0 && !ec) {
    std::ifstream in(path_, std::ios::binary);
    in.seekg(-1, std::ios::end);
    torn_tail_ = in.get() != '\n';
  }
  out_.open(path_, std::ios::app);
  GIO_EXPECTS_MSG(out_.good(), "cannot append to " + spec_.noun + " log '" +
                                   path_.string() + "'");
}

std::int64_t JsonlLog::replay(
    const std::function<void(const std::string& line)>& record) const {
  std::ifstream in(path_);
  GIO_EXPECTS_MSG(in.good(), "cannot read " + spec_.noun + " log '" +
                                 path_.string() + "'");
  std::int64_t corrupt = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      record(line);
    } catch (const std::exception&) {
      ++corrupt;  // torn/garbage line; keep replaying
    }
  }
  return corrupt;
}

bool JsonlLog::append(std::string_view line) {
  const std::scoped_lock lock(mutex_);
  if (demoted_) return false;
  try {
    faults::inject(append_site_);
    if (torn_tail_) out_ << '\n';
    out_ << line << '\n';
    out_.flush();
    // A failed flush (ENOSPC, short write) sets badbit; the line may be
    // torn on disk, which replay tolerates. Never keep writing into a
    // failed stream — that is how logs corrupt.
    if (!out_.good())
      throw std::runtime_error("write failed on '" + path_.string() + "'");
  } catch (const std::exception& e) {
    demote_locked(e.what());
    return false;
  }
  torn_tail_ = false;
  ++appended_;
  return true;
}

void JsonlLog::demote_locked(const std::string& why) {
  demoted_ = true;
  telemetry::MetricsRegistry::global().counter(spec_.site + ".demoted")
      .increment();
  out_.close();
  std::fprintf(stderr, "graphio: %s disabled (%s); %s\n",
               spec_.disabled.c_str(), why.c_str(), spec_.then.c_str());
}

void JsonlLog::sync() {
  const std::scoped_lock lock(mutex_);
  if (demoted_) return;
  out_.flush();
  if (!out_.good()) {
    demote_locked("flush failed on '" + path_.string() + "'");
    return;
  }
  fsync_at(path_, false);
}

std::int64_t JsonlLog::compact(
    const std::function<std::int64_t(std::ostream&)>& write) {
  const std::scoped_lock lock(mutex_);
  std::filesystem::path tmp = path_;
  tmp += ".tmp";
  std::int64_t written = 0;
  {
    std::ofstream out(tmp, std::ios::trunc);
    GIO_EXPECTS_MSG(out.good(), "cannot write compacted " + spec_.noun +
                                    " log '" + tmp.string() + "'");
    written = write(out);
    out.flush();
    GIO_EXPECTS_MSG(out.good(), "error writing compacted " + spec_.noun +
                                    " log '" + tmp.string() + "'");
  }
  out_.close();
  const std::string site = spec_.site + ".compact";
  std::error_code ec;
  const bool injected = faults::trip(site);
  if (!injected) std::filesystem::rename(tmp, path_, ec);
  if (injected || ec) {
    // The original log is untouched by a failed rename: drop the stale
    // .tmp and resume appending to the original before surfacing it.
    std::error_code rm;
    std::filesystem::remove(tmp, rm);
  } else {
    // Make the rename itself durable: without a directory fsync a crash
    // can resurface the old inode — or nothing at all.
    fsync_at(path_, false);
    fsync_at(path_.parent_path(), true);
    torn_tail_ = false;
  }
  out_.open(path_, std::ios::app);
  if (injected) throw faults::FaultInjected(site, "io", false);
  GIO_EXPECTS_MSG(!ec, "cannot replace " + spec_.noun + " log '" +
                           path_.string() + "': " + ec.message());
  GIO_EXPECTS_MSG(out_.good(), "cannot reopen " + spec_.noun + " log '" +
                                   path_.string() + "'");
  return written;
}

}  // namespace graphio
