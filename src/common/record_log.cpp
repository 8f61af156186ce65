#include "common/record_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"

namespace gpawfd {

namespace {

/// Forward-scan window.
constexpr std::size_t kChunkBytes = 256 * 1024;

void write_all(int fd, const std::uint8_t* p, std::size_t n,
               std::uint64_t offset, const char* name) {
  while (n > 0) {
    ssize_t w = ::pwrite(fd, p, n, static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) continue;
      GPAWFD_CHECK_MSG(false, name << " write failed: "
                                   << std::strerror(errno));
    }
    p += w;
    n -= static_cast<std::size_t>(w);
    offset += static_cast<std::uint64_t>(w);
  }
}

/// Durability of a rename needs the *directory* entry flushed too;
/// best-effort (not every filesystem lets you fsync a directory).
void sync_parent_dir(const std::string& path) {
  auto slash = path.rfind('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

RecordLog::RecordLog(std::string path, const RecordFormat& format)
    : path_(std::move(path)), format_(format) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  GPAWFD_CHECK_MSG(fd_ >= 0, "cannot open " << format_.name << " " << path_
                                            << ": " << std::strerror(errno));
}

RecordLog::~RecordLog() {
  if (fd_ >= 0) ::close(fd_);
}

void RecordLog::require_recovered() const {
  GPAWFD_CHECK_MSG(recovered_, format_.name
                                   << ": recover() must run before appends "
                                      "or compaction");
}

RecordLog::Prefix RecordLog::read_valid_prefix(
    const std::function<void(const Record&)>& visit) const {
  struct stat st;
  GPAWFD_CHECK_MSG(::fstat(fd_, &st) == 0,
                   format_.name << " fstat failed: " << std::strerror(errno));
  Prefix prefix;
  // Bytes the scan may read: the size at open, cut short if the file is
  // concurrently truncated under us (the rest then counts as torn).
  prefix.available = static_cast<std::uint64_t>(st.st_size);

  // A bounded window streams through the file, so records reach `visit`
  // while later chunks are still unread.
  std::vector<std::uint8_t> buf;
  std::size_t start = 0;       // parse cursor within buf
  std::uint64_t file_pos = 0;  // next byte to pread
  // Ensure `need` unparsed bytes are buffered; false at the end.
  auto refill = [&](std::size_t need) {
    if (buf.size() - start >= need) return true;
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(start));
    start = 0;
    while (buf.size() < need && file_pos < prefix.available) {
      const std::size_t old = buf.size();
      const std::size_t want = static_cast<std::size_t>(std::min<std::uint64_t>(
          std::max(kChunkBytes, need - old), prefix.available - file_pos));
      buf.resize(old + want);
      const ssize_t r = ::pread(fd_, buf.data() + old, want,
                                static_cast<off_t>(file_pos));
      buf.resize(old + static_cast<std::size_t>(std::max<ssize_t>(r, 0)));
      if (r < 0 && errno == EINTR) continue;
      GPAWFD_CHECK_MSG(r >= 0, format_.name << " read failed: "
                                            << std::strerror(errno));
      if (r == 0) prefix.available = file_pos;
      file_pos += static_cast<std::uint64_t>(r);
    }
    return buf.size() >= need;
  };

  for (;;) {
    if (!refill(kHeaderBytes)) break;
    const std::uint8_t* h = buf.data() + start;
    if (read_u32(h) != format_.magic) break;
    if (h[4] != format_.version) break;
    if (!format_.accepts_type(h[5])) break;
    const std::optional<std::size_t> payload = format_.payload_bytes(h);
    if (!payload) break;
    const std::size_t total = kHeaderBytes + *payload;
    if (!refill(total)) break;  // torn tail: record extends past EOF
    h = buf.data() + start;     // refill may have compacted/reallocated
    std::uint32_t crc = crc32(h, kCrcOffset);
    crc = crc32(h + kHeaderBytes, *payload, crc);
    if (crc != read_u32(h + kCrcOffset)) break;
    const std::uint64_t seq = read_u64(h + 8);
    if (seq <= prefix.last_sequence) break;  // strictly increasing

    visit(Record{h, h + kHeaderBytes, *payload, seq, h[5]});
    ++prefix.records;
    prefix.last_sequence = seq;
    start += total;
    prefix.valid_end += total;
  }
  return prefix;
}

RecordLog::ScanStats RecordLog::scan(
    const std::function<void(const Record&)>& visit, bool repair) {
  const Prefix prefix = read_valid_prefix(visit);
  end_ = prefix.valid_end;
  next_sequence_ = prefix.last_sequence + 1;
  records_ = prefix.records;
  recovered_ = true;
  if (repair && prefix.valid_end < prefix.available) {
    GPAWFD_CHECK_MSG(
        ::ftruncate(fd_, static_cast<off_t>(prefix.valid_end)) == 0,
        format_.name << " truncate failed: " << std::strerror(errno));
    sync();
  }
  return {prefix.records,
          static_cast<std::int64_t>(prefix.available - prefix.valid_end)};
}

std::size_t RecordLog::begin_record(std::vector<std::uint8_t>& out,
                                    std::uint8_t type,
                                    std::uint64_t sequence) const {
  const std::size_t start = out.size();
  append_u32(out, format_.magic);
  out.push_back(format_.version);
  out.push_back(type);
  out.push_back(0);  // reserved
  out.push_back(0);
  append_u64(out, sequence);
  return start;
}

void RecordLog::end_record(
    std::vector<std::uint8_t>& out, std::size_t start,
    std::initializer_list<std::span<const std::uint8_t>> payload) const {
  GPAWFD_CHECK(out.size() == start + kCrcOffset);
  std::uint32_t crc = crc32(out.data() + start, kCrcOffset);
  for (std::span<const std::uint8_t> piece : payload)
    crc = crc32(piece.data(), piece.size(), crc);
  append_u32(out, crc);
  for (std::span<const std::uint8_t> piece : payload)
    out.insert(out.end(), piece.begin(), piece.end());
}

std::uint64_t RecordLog::append(std::span<const std::uint8_t> bytes,
                                std::int64_t records) {
  require_recovered();
  write_all(fd_, bytes.data(), bytes.size(), end_, format_.name);
  end_ += bytes.size();
  next_sequence_ += static_cast<std::uint64_t>(records);
  records_ += records;
  return end_;
}

void RecordLog::sync() {
  GPAWFD_CHECK_MSG(::fsync(fd_) == 0, format_.name << " fsync failed: "
                                                   << std::strerror(errno));
}

std::int64_t RecordLog::rewrite(
    const std::function<bool(const Record&)>& keep) {
  require_recovered();
  // The file is ours alone here: the owner's writer thread is the only
  // writer and it is the caller.
  std::vector<std::uint8_t> out;
  std::int64_t kept = 0;
  read_valid_prefix([&](const Record& r) {
    if (!keep(r)) return;
    out.insert(out.end(), r.header, r.payload + r.payload_bytes);
    ++kept;
  });
  const std::string tmp = path_ + ".compact";
  int tfd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  GPAWFD_CHECK_MSG(tfd >= 0,
                   "cannot open " << tmp << ": " << std::strerror(errno));
  write_all(tfd, out.data(), out.size(), 0, format_.name);
  GPAWFD_CHECK_MSG(::fsync(tfd) == 0,
                   "compaction fsync failed: " << std::strerror(errno));
  ::close(tfd);
  GPAWFD_CHECK_MSG(::rename(tmp.c_str(), path_.c_str()) == 0,
                   "compaction rename failed: " << std::strerror(errno));
  sync_parent_dir(path_);

  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  GPAWFD_CHECK_MSG(fd_ >= 0, "cannot reopen compacted "
                                 << path_ << ": " << std::strerror(errno));
  end_ = out.size();
  records_ = kept;
  return kept;
}

}  // namespace gpawfd
