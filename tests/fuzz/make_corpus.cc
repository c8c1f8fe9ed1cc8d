// Seed-corpus generator for tests/fuzz/. Regenerates every checked-in
// corpus file under a given output root:
//
//   fuzz_corpus_gen <repo>/tests/fuzz/corpus
//
// Seeds come from the REAL writers (CheckpointWriter, SaveSurvivorList),
// so the fuzzers start from byte-exact valid files and mutate outward —
// coverage reaches past the header checks from run one. The regression_*
// entries reproduce historical parser bugs (now fixed; see the harness
// headers) and are replayed by `ctest -L fuzz` in every normal build.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "jobs/checkpoint.h"

namespace {

using tycos::Result;
using tycos::Status;
using tycos::jobs::CheckpointWriter;
using tycos::jobs::CheckpointedPair;
using tycos::jobs::RunIdentity;
using tycos::jobs::SaveSurvivorList;
using tycos::jobs::SurvivorData;

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

bool WriteAll(const std::filesystem::path& path,
              const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

bool WriteText(const std::filesystem::path& path, const std::string& text) {
  std::vector<uint8_t> bytes(text.begin(), text.end());
  return WriteAll(path, bytes);
}

// Re-seals a survivor file after a deliberate mutation: the trailing u64
// is an FNV-1a hash of everything before it (the writer's hash).
void ResealSurvivors(std::vector<uint8_t>* bytes) {
  const uint64_t seal =
      tycos::Fnv1a(bytes->data(), bytes->size() - sizeof(uint64_t));
  for (size_t i = 0; i < sizeof(uint64_t); ++i) {
    (*bytes)[bytes->size() - sizeof(uint64_t) + i] =
        static_cast<uint8_t>(seal >> (8 * i));
  }
}

RunIdentity DemoIdentity(uint32_t num_channels) {
  RunIdentity id;
  id.config_hash = 0x1122334455667788ull;
  id.data_fingerprint = 0x99aabbccddeeff00ull;
  id.seed = 42;
  id.num_channels = num_channels;
  id.series_length = 256;
  return id;
}

CheckpointWriter::Options DemoOptions(uint32_t num_channels) {
  CheckpointWriter::Options options;
  options.identity = DemoIdentity(num_channels);
  return options;
}

bool MakeCheckpointSeeds(const std::filesystem::path& dir,
                         const std::string& scratch) {
  // Empty checkpoint: header only.
  {
    Result<CheckpointWriter> w =
        CheckpointWriter::Open(scratch, DemoOptions(8));
    if (!w.ok() || !w->Close().ok()) return false;
    if (!WriteAll(dir / "seed_header_only", ReadAll(scratch))) return false;
    if (std::remove(scratch.c_str()) != 0) return false;
  }
  // A few finished pairs, one with windows-free partial shape variety.
  {
    Result<CheckpointWriter> w =
        CheckpointWriter::Open(scratch, DemoOptions(8));
    if (!w.ok()) return false;
    for (int i = 0; i < 3; ++i) {
      CheckpointedPair record;
      record.entry.a = i;
      record.entry.b = i + 1;
      record.entry.best_score = 0.5 + 0.125 * i;
      record.entry.shed_level = i == 2 ? 1 : 0;
      if (!w->Append(record).ok()) return false;
    }
    if (!w->Close().ok()) return false;
    std::vector<uint8_t> bytes = ReadAll(scratch);
    if (std::remove(scratch.c_str()) != 0) return false;
    if (!WriteAll(dir / "seed_three_records", bytes)) return false;
    // Torn tail: the same file with its last record cut mid-payload —
    // must load with dropped_tail_bytes > 0, never an error.
    std::vector<uint8_t> torn(bytes.begin(), bytes.end() - 9);
    if (!WriteAll(dir / "seed_torn_tail", torn)) return false;
  }
  // Regression: a header whose num_channels is enormous. The loader once
  // allocated a num_channels^2 dedup table from this field before reading
  // a single record — written with the real writer, so the header
  // checksum is valid and the bytes reach the old allocation site.
  {
    Result<CheckpointWriter> w =
        CheckpointWriter::Open(scratch, DemoOptions(0x40000000u));
    if (!w.ok()) return false;
    CheckpointedPair record;
    record.entry.a = 7;
    record.entry.b = 123456789;
    record.entry.best_score = 0.75;
    if (!w->Append(record).ok() || !w->Close().ok()) return false;
    if (!WriteAll(dir / "regression_forged_num_channels", ReadAll(scratch)))
      return false;
    if (std::remove(scratch.c_str()) != 0) return false;
  }
  return true;
}

bool MakeSurvivorSeeds(const std::filesystem::path& dir,
                       const std::string& scratch) {
  SurvivorData data;
  data.identity = DemoIdentity(16);
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 8; ++b) data.pairs.emplace_back(a, b);
  }
  if (!SaveSurvivorList(scratch, data, /*sync=*/false).ok()) return false;
  std::vector<uint8_t> bytes = ReadAll(scratch);
  if (std::remove(scratch.c_str()) != 0) return false;
  if (!WriteAll(dir / "seed_small_list", bytes)) return false;

  SurvivorData empty = data;
  empty.pairs.clear();
  if (!SaveSurvivorList(scratch, empty, /*sync=*/false).ok()) return false;
  if (!WriteAll(dir / "seed_empty_list", ReadAll(scratch))) return false;
  if (std::remove(scratch.c_str()) != 0) return false;

  // Regression: pair_count forged to ~2^61 so the old byte-size check
  // (`pair_count * 8`) wrapped and a giant reserve followed. Offset 48 is
  // the pair-count u64 (kFixed = 56 minus the 8-byte seal... the count
  // sits last in the fixed header); the file is re-sealed so only the
  // count lies.
  std::vector<uint8_t> forged = bytes;
  uint64_t count = 0;
  for (size_t i = 0; i < sizeof(uint64_t); ++i) {
    count |= static_cast<uint64_t>(forged[48 + i]) << (8 * i);
  }
  count += (1ull << 61);
  for (size_t i = 0; i < sizeof(uint64_t); ++i) {
    forged[48 + i] = static_cast<uint8_t>(count >> (8 * i));
  }
  ResealSurvivors(&forged);
  return WriteAll(dir / "regression_huge_pair_count", forged);
}

bool MakeCsvSeeds(const std::filesystem::path& dir) {
  return WriteText(dir / "seed_clean",
                   "time,alpha,beta\n"
                   "0,1.5,2.5\n1,1.25,2.75\n2,1.0,3.0\n") &&
         WriteText(dir / "seed_missing_values",
                   "a,b\n1.0,\n,2.0\nnan,3.0\ninf,-inf\n4.0,5.0\n") &&
         WriteText(dir / "seed_headerless",
                   "0.1,0.2,0.3\n0.4,0.5,0.6\n") &&
         WriteText(dir / "seed_ragged",
                   "x,y\n1.0\n2.0,3.0,4.0\n") &&
         WriteText(dir / "seed_junk",
                   "x,y\n1e309,0x10\n--,++\n\"quoted\",7\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  std::error_code ec;
  for (const char* sub : {"checkpoint", "survivors", "csv"}) {
    std::filesystem::create_directories(root / sub, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s\n", (root / sub).c_str());
      return 1;
    }
  }
  const std::string scratch = (root / "scratch.tmp").string();
  if (!MakeCheckpointSeeds(root / "checkpoint", scratch) ||
      !MakeSurvivorSeeds(root / "survivors", scratch) ||
      !MakeCsvSeeds(root / "csv")) {
    std::fprintf(stderr, "corpus generation failed\n");
    return 1;
  }
  std::printf("corpus regenerated under %s\n", root.c_str());
  return 0;
}
