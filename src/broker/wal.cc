#include "broker/wal.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "broker/codec.h"
#include "util/check.h"

namespace subcover {

namespace {

using wal_reader = codec::basic_byte_reader<wal_error>;
using codec::kFrameHeader;

constexpr std::uint8_t kSnapshotVersion = 1;

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw wal_error("wal: " + what + " " + path + ": " + std::strerror(errno));
}

// Writes the whole buffer through one descriptor, resuming partial writes
// (EINTR, short writes on full pipes are not expected for regular files but
// cost nothing to handle).
void write_fully(int fd, const std::uint8_t* p, std::size_t n, const std::string& path) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("write to", path);
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

void fsync_or_throw(int fd, const std::string& path) {
  if (::fsync(fd) != 0) throw_errno("fsync", path);
}

// An fd closed on every path out of scope.
struct fd_guard {
  int fd = -1;
  ~fd_guard() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

// --- record / snapshot payloads ---------------------------------------------

std::vector<std::uint8_t> encode_record(const wal_record& r) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(r.k));
  codec::put_varint(out, r.op);
  codec::put_signed(out, r.from);
  codec::put_varint(out, r.seq);
  switch (r.k) {
    case wal_record::kind::subscribe:
      codec::put_varint(out, r.id);
      codec::put_subscription(out, r.body);
      codec::put_varint(out, r.forwarded_links.size());
      for (const int link : r.forwarded_links) codec::put_signed(out, link);
      break;
    case wal_record::kind::unsubscribe:
      codec::put_varint(out, r.id);
      codec::put_varint(out, r.withdrawn_links.size());
      for (const int link : r.withdrawn_links) codec::put_signed(out, link);
      codec::put_varint(out, r.reforwards.size());
      for (const auto& [link, sub_pair] : r.reforwards) {
        codec::put_signed(out, link);
        codec::put_varint(out, sub_pair.first);
        codec::put_subscription(out, sub_pair.second);
      }
      break;
    case wal_record::kind::event_receipt:
      break;
  }
  codec::put_varint(out, r.send_base.size());
  for (const auto& [link, seq] : r.send_base) {
    codec::put_signed(out, link);
    codec::put_varint(out, seq);
  }
  return out;
}

namespace {

wal_record decode_record(const std::uint8_t* p, std::size_t n) {
  wal_reader in{p, p + n};
  wal_record r;
  const auto k = in.byte();
  if (k < 1 || k > 3) throw wal_error("wal: unknown record kind");
  r.k = static_cast<wal_record::kind>(k);
  r.op = in.varint();
  r.from = static_cast<int>(in.signed_varint());
  r.seq = in.varint();
  switch (r.k) {
    case wal_record::kind::subscribe: {
      r.id = in.varint();
      r.body = codec::read_subscription(in);
      const auto nlinks = in.varint();
      r.forwarded_links.reserve(nlinks);
      for (std::uint64_t i = 0; i < nlinks; ++i)
        r.forwarded_links.push_back(static_cast<int>(in.signed_varint()));
      break;
    }
    case wal_record::kind::unsubscribe: {
      r.id = in.varint();
      const auto nw = in.varint();
      r.withdrawn_links.reserve(nw);
      for (std::uint64_t i = 0; i < nw; ++i)
        r.withdrawn_links.push_back(static_cast<int>(in.signed_varint()));
      const auto nrf = in.varint();
      r.reforwards.reserve(nrf);
      for (std::uint64_t i = 0; i < nrf; ++i) {
        const int link = static_cast<int>(in.signed_varint());
        const sub_id id = in.varint();
        r.reforwards.push_back({link, {id, codec::read_subscription(in)}});
      }
      break;
    }
    case wal_record::kind::event_receipt:
      break;
  }
  const auto nbase = in.varint();
  for (std::uint64_t i = 0; i < nbase; ++i) {
    const int link = static_cast<int>(in.signed_varint());
    r.send_base[link] = in.varint();
  }
  if (!in.done()) throw wal_error("wal: trailing bytes in record payload");
  return r;
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const broker_snapshot& s) {
  std::vector<std::uint8_t> out;
  out.push_back(kSnapshotVersion);
  codec::put_varint(out, s.routing.size());
  for (const auto& [link, subs] : s.routing) {
    codec::put_signed(out, link);
    codec::put_id_sub_list(out, subs);
  }
  codec::put_varint(out, s.forwarded.size());
  for (const auto& [link, subs] : s.forwarded) {
    codec::put_signed(out, link);
    codec::put_id_sub_list(out, subs);
  }
  return out;
}

namespace {

broker_snapshot decode_snapshot(const std::uint8_t* p, std::size_t n) {
  wal_reader in{p, p + n};
  if (in.byte() != kSnapshotVersion) throw wal_error("wal: unknown snapshot version");
  broker_snapshot s;
  const auto nrouting = in.varint();
  for (std::uint64_t i = 0; i < nrouting; ++i) {
    const int link = static_cast<int>(in.signed_varint());
    s.routing.emplace(link, codec::read_id_sub_list(in));
  }
  const auto nforwarded = in.varint();
  for (std::uint64_t i = 0; i < nforwarded; ++i) {
    const int link = static_cast<int>(in.signed_varint());
    s.forwarded.emplace(link, codec::read_id_sub_list(in));
  }
  if (!in.done()) throw wal_error("wal: trailing bytes in snapshot payload");
  return s;
}

// Verifies one frame at `bytes + pos` (throwing `what`-specific wal_errors)
// and returns its payload span. Used for the snapshot store only — the
// snapshot is replaced atomically, so a torn frame there means store
// corruption, not a crash window.
std::pair<const std::uint8_t*, std::size_t> checked_frame(const std::vector<std::uint8_t>& bytes,
                                                          std::size_t pos, const char* what) {
  if (bytes.size() - pos < kFrameHeader)
    throw wal_error(std::string("wal: ") + what + " too short");
  const auto len = codec::read_u32le(bytes.data() + pos);
  if (bytes.size() - pos - kFrameHeader < len)
    throw wal_error(std::string("wal: ") + what + " length mismatch");
  const auto sum = codec::read_u64le(bytes.data() + pos + 4);
  const std::uint8_t* payload = bytes.data() + pos + kFrameHeader;
  if (codec::fnv1a64(payload, len) != sum)
    throw wal_error(std::string("wal: ") + what + " checksum mismatch");
  return {payload, len};
}

}  // namespace

// --- stores ------------------------------------------------------------------

void memory_wal_store::append(const std::vector<std::uint8_t>& bytes) {
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
}

void memory_wal_store::replace(const std::vector<std::uint8_t>& bytes) { bytes_ = bytes; }

std::vector<std::uint8_t> memory_wal_store::read_all() const { return bytes_; }

file_wal_store::file_wal_store(std::string path, wal_options options)
    : path_(std::move(path)), options_(options) {}

void file_wal_store::append(const std::vector<std::uint8_t>& bytes) {
  fd_guard f{::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644)};
  if (f.fd < 0) throw_errno("cannot open for append", path_);
  write_fully(f.fd, bytes.data(), bytes.size(), path_);
  if (options_.fsync_on_append) fsync_or_throw(f.fd, path_);
}

void file_wal_store::replace(const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path_ + ".tmp";
  {
    fd_guard f{::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644)};
    if (f.fd < 0) throw_errno("cannot open", tmp);
    write_fully(f.fd, bytes.data(), bytes.size(), tmp);
    // The temp file's bytes must be on stable storage BEFORE the rename
    // publishes them, or a power cut could expose a named-but-empty file.
    if (options_.fsync_on_append) fsync_or_throw(f.fd, tmp);
  }
  // rename(2) is atomic within a filesystem: readers see old or new bytes,
  // never a prefix of the new over a suffix of the old.
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) throw_errno("rename failed for", path_);
  if (options_.fsync_on_append) {
    // Persist the directory entry too — the rename itself is metadata.
    const auto dir = std::filesystem::path(path_).parent_path();
    const std::string dpath = dir.empty() ? "." : dir.string();
    fd_guard d{::open(dpath.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC)};
    if (d.fd < 0) throw_errno("cannot open directory", dpath);
    fsync_or_throw(d.fd, dpath);
  }
}

std::vector<std::uint8_t> file_wal_store::read_all() const {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return {};  // never written: an empty store
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t file_wal_store::size() const {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path_, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

// --- file_lock ---------------------------------------------------------------

file_lock& file_lock::operator=(file_lock&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

file_lock::~file_lock() {
  if (fd_ >= 0) ::close(fd_);  // closing releases the flock
}

// --- broker_wal --------------------------------------------------------------

broker_wal::broker_wal()
    : broker_wal(std::make_unique<memory_wal_store>(), std::make_unique<memory_wal_store>()) {}

broker_wal::broker_wal(std::unique_ptr<wal_store> snapshot_store,
                       std::unique_ptr<wal_store> log_store)
    : snapshot_(std::move(snapshot_store)), log_(std::move(log_store)) {
  SUBCOVER_CHECK(snapshot_ != nullptr && log_ != nullptr, "broker_wal: stores required");
}

broker_wal broker_wal::in_directory(const std::string& dir, int broker_id,
                                    wal_options options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw wal_error("wal: cannot create directory " + dir + ": " + ec.message());
  const std::string stem = dir + "/broker-" + std::to_string(broker_id);
  const std::string lock_path = stem + ".lock";
  const int fd = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("cannot open lockfile", lock_path);
  // LOCK_NB: a held lock means a live owner (flock dies with its holder's
  // descriptors, so a SIGKILLed daemon never wedges its own restart) —
  // reject instead of blocking behind it.
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    throw wal_error("wal: directory WAL locked (in use by a live process): " + lock_path);
  }
  broker_wal w{std::make_unique<file_wal_store>(stem + ".snap", options),
               std::make_unique<file_wal_store>(stem + ".log", options)};
  w.lock_ = file_lock(fd);
  return w;
}

void broker_wal::append(const wal_record& r) {
  const auto framed = codec::frame(encode_record(r));
  log_->append(framed);
  bytes_appended_ += framed.size();
  ++records_since_snapshot_;
}

void broker_wal::write_snapshot(const broker_snapshot& snap,
                                const std::vector<std::uint8_t>& aux) {
  auto framed = codec::frame(encode_snapshot(snap));
  if (!aux.empty()) {
    const auto aux_framed = codec::frame(aux);
    framed.insert(framed.end(), aux_framed.begin(), aux_framed.end());
  }
  snapshot_->replace(framed);
  log_->replace({});
  bytes_appended_ += framed.size();
  records_since_snapshot_ = 0;
}

broker_wal::recovery broker_wal::recover() const {
  recovery out;
  const auto snap_bytes = snapshot_->read_all();
  if (!snap_bytes.empty()) {
    const auto [payload, len] = checked_frame(snap_bytes, 0, "snapshot");
    out.snapshot = decode_snapshot(payload, len);
    const std::size_t after = kFrameHeader + len;
    if (after < snap_bytes.size()) {
      // A second frame: the consumer aux blob. Replaced atomically with the
      // snapshot, so anything malformed here is corruption, not a tear.
      const auto [aux_payload, aux_len] = checked_frame(snap_bytes, after, "snapshot aux");
      out.aux.assign(aux_payload, aux_payload + aux_len);
      if (after + kFrameHeader + aux_len != snap_bytes.size())
        throw wal_error("wal: trailing bytes after snapshot aux frame");
    }
  }

  const auto log_bytes = log_->read_all();
  std::size_t pos = 0;
  while (pos < log_bytes.size()) {
    // Any incomplete or checksum-failing suffix is a torn final append:
    // report and stop. (A corrupt record in the *middle* also lands here —
    // everything after it is dropped — which is the safe direction: the
    // replayed prefix is exactly a valid earlier state.)
    if (log_bytes.size() - pos < kFrameHeader) break;
    const auto len = codec::read_u32le(log_bytes.data() + pos);
    if (log_bytes.size() - pos - kFrameHeader < len) break;
    const auto sum = codec::read_u64le(log_bytes.data() + pos + 4);
    const std::uint8_t* payload = log_bytes.data() + pos + kFrameHeader;
    if (codec::fnv1a64(payload, len) != sum) break;
    out.records.push_back(decode_record(payload, len));
    pos += kFrameHeader + len;
  }
  out.torn_bytes = log_bytes.size() - pos;
  return out;
}

}  // namespace subcover
