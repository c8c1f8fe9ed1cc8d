// Fuzzes the checkpoint byte format: the load path
// (jobs::ParseCheckpointBytes) and the reopen-truncate path
// (CheckpointWriter::Open on an existing file, which cuts a torn tail
// before appending).
//
// Contract under test: ANY byte sequence either parses into a fully
// validated CheckpointData (tolerating only a torn *trailing* record) or
// returns a typed Status — never a crash, never an allocation sized from
// a forged header field (the historical crasher in
// corpus/checkpoint/regression_forged_num_channels was a quadratic
// dedup-table allocation driven by the header's num_channels). When the
// bytes DO parse, reopening the same bytes as a file for appending must
// succeed and hand back exactly the records the parse returned (the one
// read a resumed durable job makes), and the file must still load cleanly
// after one more append — the crash-recovery invariant the durable job
// layer leans on.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "jobs/checkpoint.h"

#include "fuzz_driver.h"

namespace {

using tycos::Result;
using tycos::jobs::CheckpointData;
using tycos::jobs::CheckpointWriter;
using tycos::jobs::CheckpointedPair;
using tycos::jobs::LoadCheckpoint;
using tycos::jobs::ParseCheckpointBytes;

void Require(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "fuzz_checkpoint: invariant violated: %s\n", what);
    std::abort();
  }
}

std::string ScratchPath() {
  return "/tmp/tycos_fuzz_checkpoint_" + std::to_string(::getpid()) + ".ckpt";
}

bool WriteScratch(const std::string& path, const uint8_t* data, size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = size == 0 || std::fwrite(data, 1, size, f) == size;
  return (std::fclose(f) == 0) && wrote;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Field-by-field, bit-exact equality of two record lists.
bool SameRecords(const std::vector<CheckpointedPair>& x,
                 const std::vector<CheckpointedPair>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    const tycos::PairwiseEntry& a = x[i].entry;
    const tycos::PairwiseEntry& b = y[i].entry;
    if (a.a != b.a || a.b != b.b || a.partial != b.partial ||
        a.shed_level != b.shed_level || x[i].stop_reason != y[i].stop_reason ||
        !SameBits(a.best_score, b.best_score) ||
        a.windows.size() != b.windows.size()) {
      return false;
    }
    for (size_t j = 0; j < a.windows.size(); ++j) {
      const tycos::Window& v = a.windows.windows()[j];
      const tycos::Window& w = b.windows.windows()[j];
      if (v.start != w.start || v.end != w.end || v.delay != w.delay ||
          !SameBits(v.mi, w.mi)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const Result<CheckpointData> parsed =
      ParseCheckpointBytes(data, size, "fuzz input");
  if (!parsed.ok()) {
    Require(parsed.status().code() != tycos::StatusCode::kOk,
            "error Status carries kOk");
    return 0;
  }

  // Reopen-truncate path: materialize the bytes as a file and append to
  // it with the header's own config, exactly like a resumed durable job.
  const CheckpointData& ckpt = parsed.value();
  // The appended record below is pair (0, 1); a header declaring fewer
  // than two channels would (correctly) reject it on reload.
  if (ckpt.identity.num_channels < 2) return 0;
  const std::string path = ScratchPath();
  if (!WriteScratch(path, data, size)) return 0;  // ENOSPC etc.: not a bug

  CheckpointWriter::Options options;
  options.identity = ckpt.identity;
  Result<CheckpointWriter> writer = CheckpointWriter::Open(path, options);
  Require(writer.ok(), "reopen of parseable bytes failed");
  Require(SameRecords(writer->records(), ckpt.pairs),
          "reopen returned other records than the parse");

  CheckpointedPair record;
  record.entry.a = 0;
  record.entry.b = 1;
  record.entry.best_score = 0.25;
  Require(writer->Append(record).ok(), "append after reopen failed");
  Require(writer->Close().ok(), "close after append failed");

  // After truncate + append the file must load cleanly: same interior
  // records (the torn tail, if any, was cut) plus the one new record.
  const Result<CheckpointData> again = LoadCheckpoint(path);
  Require(std::remove(path.c_str()) == 0, "scratch cleanup failed");
  Require(again.ok(), "reload after reopen+append failed");
  Require(again->dropped_tail_bytes == 0, "torn tail survived the reopen");
  return 0;
}
