#include "src/sweep/manifest.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/sweep/spec_hash.h"
#include "src/util/logging.h"

namespace ccas::sweep {

namespace {

constexpr std::string_view kHeaderPrefix = "ccas-sweep-manifest v1 salt=";

// The journal is line-oriented; failure messages are folded to one
// sanitized line (control characters would break parsing).
std::string sanitize_one_line(const std::string& s, size_t max_len = 200) {
  std::string out;
  out.reserve(s.size() < max_len ? s.size() : max_len);
  for (const char c : s) {
    if (out.size() >= max_len) break;
    out.push_back((c == '\n' || c == '\r' || c == '\t') ? ' ' : c);
  }
  return out;
}

int64_t file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size) : 0;
}

bool parse_hex16(const std::string& text, uint64_t& value) {
  if (text.size() != 16) return false;
  value = 0;
  for (const char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  return true;
}

// Parses one journaled record line into `rec`; false for torn or foreign
// lines (which replay skips — losing a torn tail costs one recompute).
bool parse_record_line(const std::string& line, ManifestRecord& rec) {
  std::istringstream fields(line);
  std::string tag, hash_text, status;
  if (!(fields >> tag >> hash_text >> status) || tag != "cell") return false;
  if (!parse_hex16(hash_text, rec.spec_hash)) return false;
  if (status == "ok") {
    rec.ok = true;
    std::string field;
    while (fields >> field) {
      if (field.rfind("attempts=", 0) == 0) {
        rec.attempts = std::atoi(field.c_str() + 9);
      } else if (field.rfind("digest=", 0) == 0) {
        uint64_t d = 0;
        if (parse_hex16(field.substr(7), d)) rec.digest = d;
      } else if (field.rfind("worker=", 0) == 0) {
        rec.worker = field.substr(7);
      } else if (field.rfind("fence=", 0) == 0) {
        rec.fence = std::strtoull(field.c_str() + 6, nullptr, 10);
      }
    }
  } else if (status == "fail") {
    rec.ok = false;
    bool have_class = false;
    std::string field;
    while (fields >> field) {
      if (field.rfind("class=", 0) == 0) {
        const auto cls = failure_class_from_name(field.substr(6));
        if (cls) {
          rec.cls = *cls;
          have_class = true;
        }
      } else if (field.rfind("attempts=", 0) == 0) {
        rec.attempts = std::atoi(field.c_str() + 9);
      } else if (field.rfind("worker=", 0) == 0) {
        rec.worker = field.substr(7);
      } else if (field.rfind("what=", 0) == 0) {
        // `what` is the final field and may contain spaces: recover the
        // rest of the line from the stream position.
        std::string rest;
        std::getline(fields, rest);
        rec.what = field.substr(5) + rest;
        break;
      }
    }
    if (!have_class) return false;
  } else {
    return false;
  }
  if (rec.attempts < 1) rec.attempts = 1;
  return true;
}

}  // namespace

SweepManifest::SweepManifest(std::string dir, std::string salt)
    : dir_(std::move(dir)), salt_(std::move(salt)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec && !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("cannot create sweep manifest dir '" + dir_ +
                             "': " + ec.message());
  }

  // The append handle is opened before the journal is parsed so a fresh
  // journal exists by the time the header decision is made; every record
  // later goes out as one O_APPEND write (concurrent fleet workers
  // interleave whole-line, never mid-line).
  fd_ = ::open(journal_path().c_str(),
               O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("cannot open sweep manifest journal " +
                             journal_path() + " for append: " +
                             std::strerror(errno));
  }

  bool have_header = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    load_journal_locked();
    have_header = saw_header_;
  }
  if (!have_header) {
    // Two fleet workers racing an empty journal may both write a header;
    // the loader tolerates duplicate identical header lines.
    const std::string header = std::string(kHeaderPrefix) + salt_ + "\n";
    if (::write(fd_, header.data(), header.size()) !=
            static_cast<ssize_t>(header.size()) ||
        ::fsync(fd_) != 0) {
      throw std::runtime_error("cannot write sweep manifest header to " +
                               journal_path());
    }
    std::lock_guard<std::mutex> lock(mu_);
    known_bytes_ += static_cast<int64_t>(header.size());
  }
}

SweepManifest::~SweepManifest() {
  if (fd_ >= 0) ::close(fd_);
}

void SweepManifest::load_journal_locked() {
  records_.clear();
  saw_header_ = false;
  // Sized before reading: bytes appended meanwhile are read now and still
  // show up as growth, which costs one spare reload, never a missed one.
  known_bytes_ = file_bytes(journal_path());
  std::ifstream in(journal_path());
  std::string line;
  int lineno = 0;
  while (in && std::getline(in, line)) {
    ++lineno;
    if (line.rfind(kHeaderPrefix, 0) == 0) {
      // Header lines are salt-checked wherever they appear (two workers
      // racing journal creation may both have appended one).
      const std::string file_salt(line.substr(kHeaderPrefix.size()));
      if (file_salt != salt_) {
        throw std::invalid_argument(
            "sweep manifest " + journal_path() + " was written under salt '" +
            file_salt + "' but this build uses salt '" + salt_ +
            "'; its journaled results were produced by different simulator "
            "code — re-run the sweep into a fresh directory");
      }
      saw_header_ = true;
      continue;
    }
    if (lineno == 1) {
      throw std::invalid_argument("sweep manifest " + journal_path() +
                                  " has an unrecognized header ('" +
                                  sanitize_one_line(line, 64) +
                                  "'); refusing to resume");
    }
    ManifestRecord rec;
    if (!parse_record_line(line, rec)) {
      log_warn("sweep manifest: skipping unparseable line %d of %s", lineno,
               journal_path().c_str());
      continue;
    }
    merge_record_locked(std::move(rec));
  }
}

void SweepManifest::merge_record_locked(ManifestRecord rec) {
  auto it = records_.find(rec.spec_hash);
  if (it == records_.end()) {
    records_.emplace(rec.spec_hash, std::move(rec));
    return;
  }
  ManifestRecord& existing = it->second;
  // A determinism violation is sticky: once two divergent digests have
  // been seen for a hash, no later duplicate can establish which side was
  // right — the cell stays failed until a human looks.
  if (!existing.ok && existing.cls == FailureClass::kDeterminism) return;
  if (rec.ok && existing.ok && rec.digest != 0 && existing.digest != 0 &&
      rec.digest != existing.digest) {
    // Two workers journaled success for the same spec hash with different
    // result digests. A cell's result is a pure function of its spec, so
    // this is either real nondeterminism or two different binaries
    // sharing a store under one salt. Not a crash: the cell becomes a
    // structured failure the sweep reports like any other.
    ManifestRecord violation;
    violation.spec_hash = rec.spec_hash;
    violation.ok = false;
    violation.cls = FailureClass::kDeterminism;
    violation.attempts = std::max(existing.attempts, rec.attempts);
    violation.what = "result digest mismatch: " + cache_key_hex(existing.digest) +
                     " (worker '" + existing.worker + "') vs " +
                     cache_key_hex(rec.digest) + " (worker '" + rec.worker + "')";
    violation.digest = existing.digest;
    log_warn("sweep manifest: determinism violation on cell %s: %s",
             cache_key_hex(rec.spec_hash).c_str(), violation.what.c_str());
    existing = std::move(violation);
    return;
  }
  // Later duplicate wins (a successful retry on resume overrides the
  // journaled failure); a digest-less legacy record never erases a known
  // digest.
  if (rec.ok && rec.digest == 0 && existing.ok) rec.digest = existing.digest;
  existing = std::move(rec);
}

const ManifestRecord* SweepManifest::find(uint64_t spec_hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(spec_hash);
  return it == records_.end() ? nullptr : &it->second;
}

std::optional<ManifestRecord> SweepManifest::lookup(uint64_t spec_hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(spec_hash);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

void SweepManifest::reload() {
  std::lock_guard<std::mutex> lock(mu_);
  load_journal_locked();
}

bool SweepManifest::grown() const {
  const int64_t on_disk = file_bytes(journal_path());
  std::lock_guard<std::mutex> lock(mu_);
  return on_disk != known_bytes_;
}

bool SweepManifest::reload_if_grown() {
  if (!grown()) return false;
  reload();
  return true;
}

std::string SweepManifest::canonical_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const ManifestRecord*> recs;
  recs.reserve(records_.size());
  for (const auto& [hash, rec] : records_) recs.push_back(&rec);
  std::sort(recs.begin(), recs.end(),
            [](const ManifestRecord* a, const ManifestRecord* b) {
              return a->spec_hash < b->spec_hash;
            });
  std::string out;
  for (const ManifestRecord* rec : recs) {
    out += "cell " + cache_key_hex(rec->spec_hash);
    if (rec->ok) {
      out += " ok";
      if (rec->digest != 0) out += " digest=" + cache_key_hex(rec->digest);
    } else {
      out += std::string(" fail class=") + failure_class_name(rec->cls);
    }
    out += "\n";
  }
  return out;
}

void SweepManifest::append_line(const std::string& line) {
  const std::string buf = line + "\n";
  // One write() per record: O_APPEND makes concurrent appends from
  // several worker processes land whole-line. A short write (ENOSPC
  // window) may tear the record's tail — replay skips it, costing one
  // recompute, and the error surfaces as transient cache I/O here.
  const ssize_t written = ::write(fd_, buf.data(), buf.size());
  const bool synced =
      written == static_cast<ssize_t>(buf.size()) && ::fsync(fd_) == 0;
  if (!synced) {
    throw CacheIoError("sweep manifest: append to " + journal_path() +
                       " failed (disk full?)");
  }
  known_bytes_ += static_cast<int64_t>(buf.size());
}

void SweepManifest::record_ok(uint64_t spec_hash, int attempts, uint64_t digest,
                              const std::string& worker, uint64_t fence) {
  std::string line = "cell " + cache_key_hex(spec_hash) +
                     " ok attempts=" + std::to_string(attempts);
  if (digest != 0) line += " digest=" + cache_key_hex(digest);
  if (!worker.empty()) line += " worker=" + worker;
  if (fence != 0) line += " fence=" + std::to_string(fence);
  std::lock_guard<std::mutex> lock(mu_);
  append_line(line);
  ManifestRecord rec;
  rec.spec_hash = spec_hash;
  rec.ok = true;
  rec.attempts = attempts;
  rec.digest = digest;
  rec.worker = worker;
  rec.fence = fence;
  merge_record_locked(std::move(rec));
}

void SweepManifest::record_failure(const CellFailure& failure,
                                   const std::string& worker) {
  std::string line = "cell " + cache_key_hex(failure.spec_hash) +
                     " fail class=" + failure_class_name(failure.cls) +
                     " attempts=" + std::to_string(failure.attempts);
  if (!worker.empty()) line += " worker=" + worker;
  line += " what=" + sanitize_one_line(failure.what);
  std::lock_guard<std::mutex> lock(mu_);
  append_line(line);
  ManifestRecord rec;
  rec.spec_hash = failure.spec_hash;
  rec.ok = false;
  rec.cls = failure.cls;
  rec.attempts = failure.attempts;
  rec.what = sanitize_one_line(failure.what);
  rec.worker = worker;
  merge_record_locked(std::move(rec));
}

}  // namespace ccas::sweep
