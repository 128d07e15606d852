#pragma once

// JsonlLog — the one durable append-only JSONL log behind the artifact
// store's disk tier, the serve ResultStore and the provenance trail, so a
// fault plan, a durability fix or a torn-line repair lands once for all.
//
// Appends are flushed per line, never fsynced (sync() does that, at batch
// boundaries under `--durable`). The first write failure demotes the log
// for the rest of the process: it stops growing but is never corrupted,
// with one stderr warning and the `<site>.demoted` counter. A crash can
// leave a torn final line with no '\n'; opening such a log terminates it
// before the first append, so the fragment replays as one corrupt line
// and the next record keeps a line of its own. Thread-safe.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace graphio {

class JsonlLog {
 public:
  struct Spec {
    std::string file;  ///< file name inside the directory
    std::string noun;  ///< "cannot create <noun> directory", "<noun> log"
    /// Fault sites `<site>.append` / `<site>.compact`, counter
    /// `<site>.demoted`.
    std::string site;
    /// Demotion warning "graphio: <disabled> disabled (<why>); <then>".
    std::string disabled;
    std::string then;
  };

  /// Creates `dir` if needed and opens `dir/<file>` for append. Throws
  /// contract_error when the directory cannot be created, is not a
  /// directory, or the log cannot be opened.
  JsonlLog(const std::filesystem::path& dir, Spec spec);

  /// Feeds every non-blank line to `record`; a line whose callback throws
  /// is corrupt (torn write, garbage) and replay continues. Returns the
  /// number of corrupt lines. Owners replay once, before appending.
  std::int64_t replay(
      const std::function<void(const std::string& line)>& record) const;

  /// Appends one record line; false when nothing was written (demoted
  /// now or earlier).
  bool append(std::string_view line);

  /// Flushes and fsyncs the log (no-op when demoted).
  void sync();

  /// Rewrites the log to the lines `write` emits, via a tmp file, a
  /// rename and an fsync of the file and its directory; returns what
  /// `write` returns (its line count). A failed or injected rename fault
  /// removes the tmp file, leaves the original log intact and appendable,
  /// and throws.
  std::int64_t compact(const std::function<std::int64_t(std::ostream&)>& write);

  [[nodiscard]] bool demoted() const noexcept { return demoted_; }
  /// Lines written by this instance.
  [[nodiscard]] std::int64_t appended() const noexcept { return appended_; }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  void demote_locked(const std::string& why);

  const Spec spec_;
  const std::string append_site_;  ///< `<site>.append`
  std::filesystem::path path_;
  std::mutex mutex_;  ///< guards out_ and torn_tail_
  std::ofstream out_;
  bool torn_tail_ = false;  ///< the last byte on disk is not '\n'
  std::atomic<bool> demoted_{false};
  std::atomic<std::int64_t> appended_{0};
};

}  // namespace graphio
