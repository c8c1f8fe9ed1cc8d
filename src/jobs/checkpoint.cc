#include "jobs/checkpoint.h"

#include <cerrno>
#include <cstring>
#include <unordered_set>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/hash.h"

namespace tycos {
namespace jobs {

namespace {

// The header is fixed-size so a loader can validate it before trusting any
// length field. Values are stored host-endian: checkpoints are a local
// crash-recovery artifact, not a portable interchange format.
constexpr char kMagic[8] = {'T', 'Y', 'C', 'O', 'S', 'C', 'K', 'P'};
constexpr char kSurvivorMagic[8] = {'T', 'Y', 'C', 'O', 'S', 'S', 'R', 'V'};
constexpr size_t kHeaderSize = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8;
constexpr size_t kRecordFixedSize = 4 + 4 + 1 + 1 + 2 + 8 + 4;
constexpr size_t kWindowSize = 8 + 8 + 8 + 8;
// A record longer than this cannot be legitimate (window counts are bounded
// by the series length; this guards length-prefix corruption before any
// allocation happens).
constexpr uint32_t kMaxRecordPayload = 1u << 28;

class ByteBuffer {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutU16(uint16_t v) { PutRaw(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  // Bit-pattern copy: the round trip reproduces the double exactly,
  // including -0.0 and every last mantissa bit.
  void PutDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  const uint8_t* data() const { return bytes_.data(); }
  size_t size() const { return bytes_.size(); }

 private:
  void PutRaw(const void* p, size_t n) {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    bytes_.insert(bytes_.end(), b, b + n);
  }
  std::vector<uint8_t> bytes_;
};

// Bounds-checked forward reader over a loaded byte range.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t n) : data_(data), n_(n) {}

  size_t remaining() const { return n_ - pos_; }
  size_t pos() const { return pos_; }

  bool GetU8(uint8_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU16(uint16_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetI64(int64_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetDouble(double* v) {
    uint64_t bits = 0;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool Skip(size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

 private:
  bool GetRaw(void* out, size_t n) {
    if (remaining() < n) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  const uint8_t* data_;
  size_t n_;
  size_t pos_ = 0;
};

ByteBuffer SerializeHeader(const CheckpointWriter::Options& options) {
  ByteBuffer buf;
  for (char c : kMagic) buf.PutU8(static_cast<uint8_t>(c));
  buf.PutU32(kCheckpointFormatVersion);
  buf.PutU32(options.num_channels);
  buf.PutU64(options.config_hash);
  buf.PutU64(options.data_fingerprint);
  buf.PutU64(options.seed);
  buf.PutI64(options.series_length);
  buf.PutU64(Fnv1a(buf.data(), buf.size()));
  return buf;
}

ByteBuffer SerializeRecordPayload(const CheckpointedPair& pair) {
  ByteBuffer buf;
  buf.PutU32(static_cast<uint32_t>(pair.entry.a));
  buf.PutU32(static_cast<uint32_t>(pair.entry.b));
  buf.PutU8(pair.entry.partial ? 1 : 0);
  buf.PutU8(static_cast<uint8_t>(pair.stop_reason));
  buf.PutU16(static_cast<uint16_t>(pair.entry.shed_level));
  buf.PutDouble(pair.entry.best_score);
  const std::vector<Window>& ws = pair.entry.windows.windows();
  buf.PutU32(static_cast<uint32_t>(ws.size()));
  // Windows are serialized in the set's own (insertion) order; non-nested
  // windows re-Insert without reshuffling, so the loaded WindowSet iterates
  // bit-identically to the one that was saved.
  for (const Window& w : ws) {
    buf.PutI64(w.start);
    buf.PutI64(w.end);
    buf.PutI64(w.delay);
    buf.PutDouble(w.mi);
  }
  return buf;
}

Status ParseRecordPayload(const uint8_t* data, size_t n, uint32_t num_channels,
                          CheckpointedPair* out) {
  ByteReader in(data, n);
  uint32_t a = 0;
  uint32_t b = 0;
  uint8_t partial = 0;
  uint8_t stop = 0;
  uint16_t shed = 0;
  uint32_t window_count = 0;
  if (!in.GetU32(&a) || !in.GetU32(&b) || !in.GetU8(&partial) ||
      !in.GetU8(&stop) || !in.GetU16(&shed) ||
      !in.GetDouble(&out->entry.best_score) || !in.GetU32(&window_count)) {
    return Status::IoError("checkpoint record payload too short");
  }
  if (a >= b || b >= num_channels) {
    return Status::IoError("checkpoint record has invalid pair (" +
                           std::to_string(a) + ", " + std::to_string(b) +
                           ") for " + std::to_string(num_channels) +
                           " channels");
  }
  if (stop > static_cast<uint8_t>(StopReason::kPaused)) {
    return Status::IoError("checkpoint record has unknown stop reason " +
                           std::to_string(stop));
  }
  if (in.remaining() != window_count * kWindowSize) {
    return Status::IoError(
        "checkpoint record length does not match its window count");
  }
  out->entry.a = static_cast<int>(a);
  out->entry.b = static_cast<int>(b);
  out->entry.partial = partial != 0;
  out->stop_reason = static_cast<StopReason>(stop);
  out->entry.shed_level = shed;
  for (uint32_t i = 0; i < window_count; ++i) {
    Window w;
    if (!in.GetI64(&w.start) || !in.GetI64(&w.end) || !in.GetI64(&w.delay) ||
        !in.GetDouble(&w.mi)) {
      return Status::IoError("checkpoint record window truncated");
    }
    out->entry.windows.Insert(w);
  }
  return Status::Ok();
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    // Only a genuinely absent file maps to NotFound. Any other failure
    // (EACCES, fd exhaustion, a file where a directory was expected) must
    // surface as an error, so a caller never mistakes an unreadable
    // checkpoint for a missing one.
    if (errno == ENOENT) {
      return Status::NotFound("checkpoint " + path + " does not exist");
    }
    return Status::IoError("cannot open checkpoint " + path + ": " +
                           std::strerror(errno));
  }
  std::vector<uint8_t> bytes;
  uint8_t chunk[65536];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const bool read_error = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || read_error) {
    return Status::IoError("read of checkpoint " + path + " failed");
  }
  return bytes;
}

Status ValidateHeader(ByteReader* in, const std::string& path,
                      CheckpointData* out) {
  if (in->remaining() < kHeaderSize) {
    return Status::IoError("checkpoint " + path + " is truncated: " +
                           std::to_string(in->remaining()) +
                           " bytes, header needs " +
                           std::to_string(kHeaderSize));
  }
  uint8_t magic[8];
  for (uint8_t& m : magic) {
    if (!in->GetU8(&m)) return Status::IoError("unreadable header");
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("checkpoint " + path +
                           " has bad magic (not a TYCOS checkpoint)");
  }
  uint32_t version = 0;
  uint64_t header_crc = 0;
  if (!in->GetU32(&version) || !in->GetU32(&out->num_channels) ||
      !in->GetU64(&out->config_hash) || !in->GetU64(&out->data_fingerprint) ||
      !in->GetU64(&out->seed) || !in->GetI64(&out->series_length) ||
      !in->GetU64(&header_crc)) {
    return Status::IoError("unreadable header");
  }
  if (version != kCheckpointFormatVersion) {
    return Status::IoError("checkpoint " + path + " has format version " +
                           std::to_string(version) + ", this build reads " +
                           std::to_string(kCheckpointFormatVersion));
  }
  // Re-serialize what we parsed and compare checksums: one code path
  // defines the byte layout for both directions.
  CheckpointWriter::Options opts;
  opts.num_channels = out->num_channels;
  opts.config_hash = out->config_hash;
  opts.data_fingerprint = out->data_fingerprint;
  opts.seed = out->seed;
  opts.series_length = out->series_length;
  const ByteBuffer expect = SerializeHeader(opts);
  uint64_t expect_crc = 0;
  std::memcpy(&expect_crc, expect.data() + expect.size() - sizeof(expect_crc),
              sizeof(expect_crc));
  if (header_crc != expect_crc) {
    return Status::IoError("checkpoint " + path +
                           " header checksum mismatch (corrupt header)");
  }
  return Status::Ok();
}

// Writes `n` bytes to `path` via a temp file and atomic rename, so a crash
// mid-write never leaves a half-written file under the real name.
Status WriteFileAtomically(const std::string& path, const uint8_t* data,
                           size_t n, bool sync) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create checkpoint temp file " + tmp);
  }
  const bool wrote = std::fwrite(data, 1, n, f) == n && std::fflush(f) == 0;
#if defined(__unix__) || defined(__APPLE__)
  const bool synced = !sync || fsync(fileno(f)) == 0;
#else
  (void)sync;
  const bool synced = true;
#endif
  if (std::fclose(f) != 0 || !wrote || !synced) {
    return Status::IoError("write of checkpoint bytes to " + tmp + " failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("atomic rename " + tmp + " -> " + path + " failed");
  }
  return Status::Ok();
}

// Walks the record log from `in`'s position (just past the header) to EOF.
// Every complete record must checksum and parse; an incomplete or
// checksum-failing record at EOF is the torn tail of a crashed append and
// ends the walk. On success *valid_end is the offset one past the last
// valid record — bytes [*valid_end, file size) are the torn tail, empty on
// a clean file. When `out` is non-null the parsed pairs are appended to it,
// first record per pair winning (per-pair determinism makes any duplicate
// byte-identical anyway).
Status WalkRecords(const uint8_t* base, ByteReader* in,
                   const std::string& path, uint32_t num_channels,
                   std::vector<CheckpointedPair>* out, size_t* valid_end) {
  // Dedup keyed on the (a, b) pair actually parsed — never an array sized
  // from the header's num_channels, which is attacker-controlled (the
  // header checksum is integrity, not authenticity) and would make a forged
  // channel count an allocation crash.
  std::unordered_set<uint64_t> seen;
  *valid_end = in->pos();
  while (in->remaining() > 0) {
    const size_t record_start = in->pos();
    uint32_t len = 0;
    if (!in->GetU32(&len) || len > kMaxRecordPayload ||
        in->remaining() < len + sizeof(uint64_t)) {
      break;  // length prefix runs past EOF: torn tail
    }
    const uint8_t* payload = base + in->pos();
    uint64_t stored_crc = 0;
    if (!in->Skip(len) || !in->GetU64(&stored_crc)) break;
    if (Fnv1a(payload, len) != stored_crc) {
      if (in->remaining() == 0) {
        // Checksum failure on the very last record: a partially persisted
        // append (e.g. power loss without fsync). Tolerated as a torn tail.
        break;
      }
      return Status::IoError("checkpoint " + path +
                             " record checksum mismatch at byte " +
                             std::to_string(record_start) +
                             " (interior corruption)");
    }
    CheckpointedPair pair;
    const Status st = ParseRecordPayload(payload, len, num_channels, &pair);
    if (!st.ok()) {
      return Status::IoError("checkpoint " + path + ": " + st.message());
    }
    *valid_end = in->pos();
    if (out == nullptr) continue;
    const uint64_t key = (static_cast<uint64_t>(pair.entry.a) << 32) |
                         static_cast<uint64_t>(pair.entry.b);
    if (!seen.insert(key).second) continue;
    out->push_back(std::move(pair));
  }
  return Status::Ok();
}

}  // namespace

uint64_t FingerprintChannels(const std::vector<TimeSeries>& channels) {
  const uint64_t count = channels.size();
  uint64_t h = Fnv1a(&count, sizeof(count));
  for (const TimeSeries& c : channels) {
    const uint64_t len = static_cast<uint64_t>(c.size());
    h = Fnv1a(&len, sizeof(len), h);
    h = Fnv1a(c.name().data(), c.name().size(), h);
    // One separator byte so ("ab", "") and ("a", "b") cannot collide.
    const uint8_t sep = 0;
    h = Fnv1a(&sep, 1, h);
    if (!c.values().empty()) {
      h = Fnv1a(c.values().data(), c.values().size() * sizeof(double), h);
    }
  }
  return h;
}

uint64_t HashSearchConfig(const TycosParams& p, TycosVariant variant,
                          uint64_t seed) {
  ByteBuffer buf;
  buf.PutDouble(p.sigma);
  buf.PutI64(p.s_min);
  buf.PutI64(p.s_max);
  buf.PutI64(p.td_max);
  buf.PutDouble(p.epsilon_ratio);
  buf.PutI64(p.delta);
  buf.PutI64(p.initial_delay_step);
  buf.PutU32(static_cast<uint32_t>(p.history_length));
  buf.PutU32(static_cast<uint32_t>(p.max_idle));
  buf.PutU32(static_cast<uint32_t>(p.max_neighborhood_level));
  buf.PutU32(static_cast<uint32_t>(p.top_k));
  buf.PutU32(static_cast<uint32_t>(p.num_restarts));
  buf.PutU8(p.cache_evaluations ? 1 : 0);
  buf.PutU32(static_cast<uint32_t>(p.k));
  // The slot of the removed TycosParams::backend, written as 0, the code of
  // the automatic kNN backend choice it always held (that choice is gone
  // too: searches run brute force): kept so checkpoints and survivor lists
  // written before its removal still resume.
  buf.PutU8(0);
  buf.PutDouble(p.tie_jitter);
  // The slot of the removed TycosParams::theiler_window, pinned at its
  // default 0 for the same reason as the backend slot above.
  buf.PutI64(0);
  buf.PutU8(static_cast<uint8_t>(p.normalization));
  buf.PutDouble(p.small_sample_penalty);
  buf.PutU8(static_cast<uint8_t>(variant));
  buf.PutU64(seed);
  return Fnv1a(buf.data(), buf.size());
}

uint64_t HashPrefilterConfig(const TycosParams& params, TycosVariant variant,
                             uint64_t seed, const PrefilterParams& prefilter) {
  ByteBuffer buf;
  buf.PutU64(HashSearchConfig(params, variant, seed));
  buf.PutI64(prefilter.window);
  buf.PutI64(prefilter.hop);
  buf.PutU32(static_cast<uint32_t>(prefilter.paa_segments));
  buf.PutU32(static_cast<uint32_t>(prefilter.svd_dims));
  buf.PutI64(prefilter.td_max);
  buf.PutDouble(prefilter.pearson_threshold);
  buf.PutDouble(prefilter.mi_conservativeness);
  return Fnv1a(buf.data(), buf.size());
}

Status SaveSurvivorList(const std::string& path, const SurvivorData& data,
                        bool sync) {
  ByteBuffer buf;
  for (char c : kSurvivorMagic) buf.PutU8(static_cast<uint8_t>(c));
  buf.PutU32(kSurvivorFormatVersion);
  buf.PutU32(data.num_channels);
  buf.PutU64(data.config_hash);
  buf.PutU64(data.data_fingerprint);
  buf.PutU64(data.seed);
  buf.PutI64(data.series_length);
  buf.PutU64(static_cast<uint64_t>(data.pairs.size()));
  for (const std::pair<int, int>& p : data.pairs) {
    buf.PutU32(static_cast<uint32_t>(p.first));
    buf.PutU32(static_cast<uint32_t>(p.second));
  }
  buf.PutU64(Fnv1a(buf.data(), buf.size()));
  return WriteFileAtomically(path, buf.data(), buf.size(), sync);
}

std::string SurvivorPathFor(const std::string& checkpoint_path) {
  return checkpoint_path + ".survivors";
}

Result<SurvivorData> ParseSurvivorBytes(const uint8_t* data, size_t n,
                                        const std::string& label) {
  // Everything but the pair array and the trailing whole-file checksum.
  constexpr size_t kFixed = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8;
  if (n < kFixed + sizeof(uint64_t)) {
    return Status::IoError("survivor list " + label + " is truncated: " +
                           std::to_string(n) + " bytes");
  }
  // Whole-file checksum first: a survivor list is one atomic artifact, so
  // any mismatch anywhere rejects the file (no torn-tail tolerance here).
  uint64_t stored_crc = 0;
  std::memcpy(&stored_crc, data + n - sizeof(stored_crc), sizeof(stored_crc));
  if (Fnv1a(data, n - sizeof(stored_crc)) != stored_crc) {
    return Status::IoError("survivor list " + label +
                           " checksum mismatch (corrupt file)");
  }
  ByteReader in(data, n - sizeof(uint64_t));
  uint8_t magic[8];
  for (uint8_t& m : magic) {
    if (!in.GetU8(&m)) return Status::IoError("unreadable survivor header");
  }
  if (std::memcmp(magic, kSurvivorMagic, sizeof(kSurvivorMagic)) != 0) {
    return Status::IoError("survivor list " + label +
                           " has bad magic (not a TYCOS survivor list)");
  }
  SurvivorData out;
  uint32_t version = 0;
  uint64_t pair_count = 0;
  if (!in.GetU32(&version) || !in.GetU32(&out.num_channels) ||
      !in.GetU64(&out.config_hash) || !in.GetU64(&out.data_fingerprint) ||
      !in.GetU64(&out.seed) || !in.GetI64(&out.series_length) ||
      !in.GetU64(&pair_count)) {
    return Status::IoError("unreadable survivor header");
  }
  if (version != kSurvivorFormatVersion) {
    return Status::IoError("survivor list " + label + " has format version " +
                           std::to_string(version) + ", this build reads " +
                           std::to_string(kSurvivorFormatVersion));
  }
  // Divide, never multiply: pair_count is attacker-controlled, and
  // `pair_count * 8` wraps for counts >= 2^61, which would sneak a bogus
  // count past this check and into the reserve() below as a giant
  // allocation.
  constexpr size_t kPairSize = 2 * sizeof(uint32_t);
  if (pair_count != in.remaining() / kPairSize ||
      in.remaining() % kPairSize != 0) {
    return Status::IoError("survivor list " + label +
                           " length does not match its pair count");
  }
  out.pairs.reserve(static_cast<size_t>(pair_count));
  for (uint64_t i = 0; i < pair_count; ++i) {
    uint32_t a = 0;
    uint32_t b = 0;
    if (!in.GetU32(&a) || !in.GetU32(&b)) {
      return Status::IoError("survivor list " + label + " pair truncated");
    }
    if (a >= b || b >= out.num_channels) {
      return Status::IoError("survivor list " + label + " has invalid pair (" +
                             std::to_string(a) + ", " + std::to_string(b) +
                             ") for " + std::to_string(out.num_channels) +
                             " channels");
    }
    const std::pair<int, int> pair(static_cast<int>(a), static_cast<int>(b));
    if (!out.pairs.empty() && !(out.pairs.back() < pair)) {
      return Status::IoError("survivor list " + label +
                             " pairs are not strictly (a, b)-sorted");
    }
    out.pairs.push_back(pair);
  }
  return out;
}

Result<SurvivorData> LoadSurvivorList(const std::string& path) {
  Result<std::vector<uint8_t>> read = ReadFileBytes(path);
  if (!read.ok()) return read.status();
  return ParseSurvivorBytes(read.value().data(), read.value().size(), path);
}

Result<CheckpointData> ParseCheckpointBytes(const uint8_t* data, size_t n,
                                            const std::string& label) {
  ByteReader in(data, n);
  CheckpointData out;
  Status st = ValidateHeader(&in, label, &out);
  if (!st.ok()) return st;

  size_t valid_end = 0;
  st = WalkRecords(data, &in, label, out.num_channels, &out.pairs, &valid_end);
  if (!st.ok()) return st;
  out.dropped_tail_bytes = static_cast<int64_t>(n - valid_end);
  return out;
}

Result<CheckpointData> LoadCheckpoint(const std::string& path) {
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  return ParseCheckpointBytes(bytes.value().data(), bytes.value().size(),
                              path);
}

Result<CheckpointWriter> CheckpointWriter::Open(const std::string& path,
                                                const Options& options) {
  Result<std::vector<uint8_t>> existing = ReadFileBytes(path);
  if (!existing.ok() && existing.status().code() != StatusCode::kNotFound) {
    // EACCES, fd exhaustion, ...: an unreadable checkpoint must never be
    // mistaken for an absent one — falling through to the fresh-file path
    // would rename an empty header over the caller's persisted progress.
    return existing.status();
  }

  if (existing.ok()) {
    // Existing file: validate it against ours, cut any torn tail a crashed
    // append left behind, then append after the last valid record.
    const std::vector<uint8_t>& bytes = existing.value();
    ByteReader in(bytes.data(), bytes.size());
    CheckpointData data;
    const Status st = ValidateHeader(&in, path, &data);
    if (!st.ok()) return st;
    if (data.config_hash != options.config_hash ||
        data.data_fingerprint != options.data_fingerprint ||
        data.seed != options.seed) {
      return Status::InvalidArgument(
          "checkpoint " + path +
          " was written by a different run (params, data, or seed changed); "
          "delete it to start over");
    }
    // Appending after a torn tail would turn it into *interior* corruption
    // on the next load and reject the whole file, so the tail must go
    // before the first new record — rewritten through the same
    // temp + rename dance, because the truncation itself has to be
    // crash-safe (a crash mid-rewrite leaves the original intact).
    size_t valid_end = 0;
    const Status walk = WalkRecords(bytes.data(), &in, path,
                                    data.num_channels,
                                    /*out=*/nullptr, &valid_end);
    if (!walk.ok()) return walk;
    if (valid_end < bytes.size()) {
      const Status cut = WriteFileAtomically(path, bytes.data(), valid_end,
                                             options.fsync_each_record);
      if (!cut.ok()) return cut;
    }
    std::FILE* f = std::fopen(path.c_str(), "ab");
    if (f == nullptr) {
      return Status::IoError("cannot open checkpoint " + path +
                             " for appending");
    }
    return CheckpointWriter(f, options);
  }

  // Fresh file: write the header atomically, so a crash mid-create never
  // leaves a half-written header under the real name.
  const ByteBuffer header = SerializeHeader(options);
  const Status st = WriteFileAtomically(path, header.data(), header.size(),
                                        options.fsync_each_record);
  if (!st.ok()) return st;
  std::FILE* out = std::fopen(path.c_str(), "ab");
  if (out == nullptr) {
    return Status::IoError("cannot reopen checkpoint " + path +
                           " for appending");
  }
  return CheckpointWriter(out, options);
}

CheckpointWriter::CheckpointWriter(CheckpointWriter&& other) noexcept
    : file_(other.file_),
      options_(other.options_),
      records_written_(other.records_written_),
      bytes_written_(other.bytes_written_) {
  other.file_ = nullptr;
}

CheckpointWriter::~CheckpointWriter() { (void)Close(); }

Status CheckpointWriter::Append(const CheckpointedPair& pair) {
  if (file_ == nullptr) {
    return Status::Internal("checkpoint writer is closed");
  }
  const ByteBuffer payload = SerializeRecordPayload(pair);
  // Assemble len | payload | crc in one contiguous buffer: one write, one
  // flush, so the kernel sees whole records whenever it can and the
  // torn-tail window stays minimal.
  ByteBuffer wire;
  wire.PutU32(static_cast<uint32_t>(payload.size()));
  for (size_t i = 0; i < payload.size(); ++i) wire.PutU8(payload.data()[i]);
  wire.PutU64(Fnv1a(payload.data(), payload.size()));
  if (std::fwrite(wire.data(), 1, wire.size(), file_) != wire.size()) {
    return Status::IoError("checkpoint record write failed");
  }
  if (std::fflush(file_) != 0) {
    return Status::IoError("checkpoint record flush failed");
  }
#if defined(__unix__) || defined(__APPLE__)
  if (options_.fsync_each_record && fsync(fileno(file_)) != 0) {
    return Status::IoError("checkpoint record fsync failed");
  }
#endif
  ++records_written_;
  bytes_written_ += static_cast<int64_t>(wire.size());
  return Status::Ok();
}

Status CheckpointWriter::Close() {
  if (file_ == nullptr) return Status::Ok();
  std::FILE* f = file_;
  file_ = nullptr;
  if (std::fclose(f) != 0) {
    return Status::IoError("checkpoint close failed");
  }
  return Status::Ok();
}

}  // namespace jobs
}  // namespace tycos
