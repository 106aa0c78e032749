#include "logging/log_store.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <map>

#include "common/macros.h"
#include "common/serializer.h"
#include "device/io_retry.h"

namespace pacman::logging {

namespace {
// v4: a file header, then one varint-framed block of compact records per
// flush (see log_store.h). The only format written or read.
constexpr uint32_t kBatchMagicV4 = 0x50414334;  // "PAC4"
// Smallest possible record: cts, epoch and count as one-byte varints.
constexpr size_t kMinRecordBytes = 1 + 1 + 1;

// The retired fixed-width formats, refused by name: the single-block v1
// and v2, and v3, whose blocks held fixed-width headers and records.
struct RetiredFormat {
  uint32_t magic;
  const char* name;
};
constexpr RetiredFormat kRetiredFormats[] = {
    {0x50414342, "v1 (PACB)"},
    {0x50414332, "v2 (PAC2)"},
    {0x50414333, "v3 (PAC3)"},
};

// The error for a file whose magic is not v4's: the retired format it
// names, or plain garbage.
Status WrongMagic(uint32_t magic) {
  for (const RetiredFormat& f : kRetiredFormats) {
    if (magic == f.magic) {
      return Status::Corruption(std::string("retired fixed-width batch "
                                            "format ") +
                                f.name + "; this build reads only v4 (PAC4)");
    }
  }
  return Status::Corruption("bad batch magic");
}

// Parses a decimal run starting at `pos`; advances `pos` past it.
bool ParseDigits(const std::string& s, size_t* pos, uint64_t* out) {
  if (*pos >= s.size() || !std::isdigit(static_cast<unsigned char>(s[*pos]))) {
    return false;
  }
  uint64_t v = 0;
  while (*pos < s.size() &&
         std::isdigit(static_cast<unsigned char>(s[*pos]))) {
    v = v * 10 + static_cast<uint64_t>(s[*pos] - '0');
    ++(*pos);
  }
  *out = v;
  return true;
}

}  // namespace

std::string LogStore::BatchFileName(uint32_t logger_id, uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "log_%02u_%012llu.batch", logger_id,
                static_cast<unsigned long long>(seq));
  return buf;
}

bool LogStore::ParseBatchFileName(const std::string& name,
                                  uint32_t* logger_id, uint64_t* seq) {
  constexpr char kPrefix[] = "log_";
  constexpr char kSuffix[] = ".batch";
  if (name.rfind(kPrefix, 0) != 0) return false;
  size_t pos = sizeof(kPrefix) - 1;
  uint64_t logger = 0;
  if (!ParseDigits(name, &pos, &logger)) return false;
  if (pos >= name.size() || name[pos] != '_') return false;
  ++pos;
  uint64_t s = 0;
  if (!ParseDigits(name, &pos, &s)) return false;
  if (name.compare(pos, std::string::npos, kSuffix) != 0) return false;
  *logger_id = static_cast<uint32_t>(logger);
  *seq = s;
  return true;
}

std::vector<uint8_t> LogStore::SerializeBlock(LogScheme scheme,
                                              uint32_t logger_id,
                                              uint64_t seq, bool file_header,
                                              const LogRecord* records,
                                              size_t n,
                                              size_t* payload_bytes) {
  RecordBases bases;
  Timestamp max_cts = 0;
  if (n > 0) {
    bases = {kMaxTimestamp, std::numeric_limits<Epoch>::max()};
    for (size_t i = 0; i < n; ++i) {
      bases.cts = std::min(bases.cts, records[i].commit_ts);
      max_cts = std::max(max_cts, records[i].commit_ts);
      bases.epoch = std::min(bases.epoch, records[i].epoch);
    }
  }
  // Sized exactly first, so a multi-MB block is one allocation.
  size_t payload = 0;
  for (size_t i = 0; i < n; ++i) {
    payload += SerializedRecordBytes(scheme, records[i], bases);
  }
  const size_t total = (file_header ? kFileHeaderBytes : 0) +
                       VarintBytes(n) + VarintBytes(payload) +
                       VarintBytes(bases.cts) +
                       VarintBytes(max_cts - bases.cts) +
                       VarintBytes(bases.epoch) + payload;
  Serializer out(total);
  if (file_header) {
    out.PutU32(kBatchMagicV4);
    out.PutU32(logger_id);
    out.PutU64(seq);
  }
  out.PutVarint(n);
  out.PutVarint(payload);
  out.PutVarint(bases.cts);
  out.PutVarint(max_cts - bases.cts);
  out.PutVarint(bases.epoch);
  for (size_t i = 0; i < n; ++i) {
    SerializeRecord(scheme, records[i], bases, &out);
  }
  PACMAN_DCHECK(out.size() == total);
  if (payload_bytes != nullptr) *payload_bytes = payload;
  return out.Release();
}

std::vector<uint8_t> LogStore::SerializeBatch(LogScheme scheme,
                                              const LogBatch& batch,
                                              size_t* payload_bytes) {
  // The block's cts interval is computed from the records, never taken
  // from the struct fields: rewrites (TruncateBeyondWatermark) drop
  // records, and a stale interval would let garbage collection delete
  // uncovered commits.
  return SerializeBlock(scheme, batch.logger_id, batch.seq,
                        /*file_header=*/true, batch.records.data(),
                        batch.records.size(), payload_bytes);
}

namespace {

// Annotates a parse error with the batch file name and byte offset, so a
// corrupt or truncated file is reported as the exact file and position
// that broke instead of a bare "underflow".
Status AnnotateParseError(const Status& s, const BatchParseOptions& opts,
                          size_t offset, const std::string& what) {
  const std::string& name =
      opts.file_name.empty() ? std::string("<unnamed batch>")
                             : opts.file_name;
  return Status::Corruption("batch file " + name + " at offset " +
                            std::to_string(offset) + ": bad " + what + ": " +
                            s.message());
}

// A parse that ran out of bytes: a torn tail (keeping the records parsed
// so far) in tolerate mode, loud corruption otherwise.
Status Truncated(const Status& s, const BatchParseOptions& opts,
                 size_t offset, const std::string& what, LogBatch* out) {
  if (opts.tolerate_torn_tail) {
    out->torn_tail = true;
    return Status::Ok();
  }
  return AnnotateParseError(s, opts, offset, what);
}

// One v4 block header.
struct BlockHeader {
  uint64_t count = 0;
  uint64_t payload = 0;
  Timestamp min_cts = 0;
  Timestamp max_cts = 0;
  Epoch base_epoch = 0;
};

Status ReadBlockHeader(Deserializer* in, BlockHeader* h) {
  uint64_t span = 0;
  Status s = in->GetVarint(&h->count);
  if (s.ok()) s = in->GetVarint(&h->payload);
  if (s.ok()) s = in->GetVarint(&h->min_cts);
  if (s.ok()) s = in->GetVarint(&span);
  if (s.ok()) s = in->GetVarint(&h->base_epoch);
  if (!s.ok()) return s;
  if (span > kMaxTimestamp - h->min_cts) {
    return Status::Corruption("commit-timestamp interval overflows");
  }
  h->max_cts = h->min_cts + span;
  return Status::Ok();
}

// Fills out->logger_id/seq/records from `in` (positioned just past the
// magic) and returns either OK — setting out->torn_tail when it stopped
// at a tolerated truncation — or the annotated corruption.
Status ParseBlocksBody(LogScheme scheme, const std::vector<uint8_t>& bytes,
                       const BatchParseOptions& opts, Deserializer* in,
                       LogBatch* out) {
  Status s = in->GetU32(&out->logger_id);
  if (s.ok()) s = in->GetU64(&out->seq);
  if (!s.ok()) return Truncated(s, opts, in->position(), "header", out);
  for (uint64_t b = 0; !in->AtEnd(); ++b) {
    const std::string block = "block " + std::to_string(b);
    const size_t block_offset = in->position();
    BlockHeader h;
    s = ReadBlockHeader(in, &h);
    if (!s.ok()) {
      return Truncated(s, opts, block_offset, block + " header", out);
    }
    // A complete block header is never a truncation artifact: a count
    // its own payload cannot hold is corruption even under tolerance.
    if (h.count > h.payload / kMinRecordBytes) {
      return AnnotateParseError(
          Status::Corruption("record count " + std::to_string(h.count) +
                             " exceeds the block payload of " +
                             std::to_string(h.payload) + " bytes"),
          opts, block_offset, block + " record count");
    }
    const bool short_block = h.payload > in->remaining();
    if (short_block && !opts.tolerate_torn_tail) {
      return AnnotateParseError(
          Status::Corruption("record payload of " +
                             std::to_string(h.payload) +
                             " bytes exceeds the " +
                             std::to_string(in->remaining()) +
                             " bytes remaining"),
          opts, in->position(), block);
    }
    const size_t avail =
        short_block ? in->remaining() : static_cast<size_t>(h.payload);
    Deserializer records(bytes.data() + in->position(), avail);
    records.set_borrow_strings(in->borrow_strings());
    out->records.reserve(
        out->records.size() +
        std::min<size_t>(h.count, avail / kMinRecordBytes));
    const RecordBases bases{h.min_cts, h.base_epoch};
    for (uint64_t i = 0; i < h.count; ++i) {
      LogRecord rec;
      s = DeserializeRecord(scheme, bases, &records, &rec);
      if (!s.ok() && short_block) {
        // The tear cut this record; keep the prefix.
        out->torn_tail = true;
        return Status::Ok();
      }
      // Garbage collection trusts the header's interval: a record outside
      // it is corruption, never a tear.
      if (s.ok() && (rec.commit_ts < h.min_cts || rec.commit_ts > h.max_cts)) {
        s = Status::Corruption("commit_ts " + std::to_string(rec.commit_ts) +
                               " lies outside the block's interval");
      }
      if (!s.ok()) {
        return AnnotateParseError(
            s, opts, in->position() + records.position(),
            "record " + std::to_string(i) + " of " +
                std::to_string(h.count) + " in " + block);
      }
      out->records.push_back(std::move(rec));
    }
    if (records.position() != h.payload) {
      return AnnotateParseError(
          Status::Corruption("records end " +
                             std::to_string(h.payload - records.position()) +
                             " bytes before the block payload does"),
          opts, in->position() + records.position(), block);
    }
    s = in->Skip(avail);
    PACMAN_DCHECK(s.ok());
  }
  return Status::Ok();
}

}  // namespace

Status LogStore::DeserializeBatch(
    LogScheme scheme, std::shared_ptr<const std::vector<uint8_t>> bytes,
    const BatchParseOptions& opts, LogBatch* out) {
  out->torn_tail = false;
  out->records.clear();
  Deserializer in(*bytes);
  in.set_borrow_strings(opts.borrow);
  uint32_t magic = 0;
  Status s = in.GetU32(&magic);
  if (!s.ok()) {
    s = Truncated(s, opts, in.position(), "magic", out);
  } else if (magic == kBatchMagicV4) {
    s = ParseBlocksBody(scheme, *bytes, opts, &in, out);
  } else {
    // A present-but-wrong magic, retired format or garbage, is never a
    // truncation artifact; it stays loud even under torn-tail tolerance.
    return AnnotateParseError(WrongMagic(magic), opts, 0, "magic");
  }
  if (!s.ok()) return s;
  // Derived from what parsed, so every reloaded batch (torn or not)
  // answers coverage questions from exactly its records.
  out->min_cts = kMaxTimestamp;
  out->max_cts = 0;
  for (const LogRecord& r : out->records) {
    out->min_cts = std::min(out->min_cts, r.commit_ts);
    out->max_cts = std::max(out->max_cts, r.commit_ts);
  }
  if (opts.borrow) {
    // Zero-copy: the records' images and string parameters are views
    // into `bytes`; the batch keeps the shared handle alive for as long
    // as they live.
    out->backing = std::move(bytes);
  } else {
    out->backing.reset();
  }
  return Status::Ok();
}

Status LogStore::ReadBatchCoverage(device::StorageDevice* device,
                                   const std::string& name, LogBatch* out) {
  std::vector<uint8_t> bytes;
  Status s = device->ReadFile(name, &bytes);
  if (!s.ok()) return s;
  // Header-only parse: every block header carries its interval, and its
  // payload is skipped by its length.
  Deserializer in(bytes);
  uint32_t magic = 0;
  s = in.GetU32(&magic);
  if (s.ok() && magic != kBatchMagicV4) s = WrongMagic(magic);
  out->min_cts = kMaxTimestamp;
  out->max_cts = 0;
  if (s.ok()) s = in.GetU32(&out->logger_id);
  if (s.ok()) s = in.GetU64(&out->seq);
  while (s.ok() && !in.AtEnd()) {
    BlockHeader h;
    s = ReadBlockHeader(&in, &h);
    if (s.ok()) s = in.Skip(h.payload);
    if (s.ok() && h.count > 0) {
      out->min_cts = std::min(out->min_cts, h.min_cts);
      out->max_cts = std::max(out->max_cts, h.max_cts);
    }
  }
  if (!s.ok()) {
    return Status::Corruption("batch file " + name + ": " + s.message());
  }
  out->records.clear();
  out->backing.reset();
  return Status::Ok();
}

std::vector<BatchFile> LogStore::ListBatchFiles(
    const std::vector<device::StorageDevice*>& devices) {
  std::vector<BatchFile> files;
  std::map<uint32_t, uint64_t> newest_seq;
  for (uint32_t d = 0; d < devices.size(); ++d) {
    for (std::string& name : devices[d]->ListFiles("log_")) {
      BatchFile f;
      if (!ParseBatchFileName(name, &f.logger, &f.seq)) continue;
      f.device = d;
      f.name = std::move(name);
      auto [it, inserted] = newest_seq.emplace(f.logger, f.seq);
      if (!inserted) it->second = std::max(it->second, f.seq);
      files.push_back(std::move(f));
    }
  }
  for (BatchFile& f : files) f.newest_in_stream = newest_seq[f.logger] == f.seq;
  std::stable_sort(files.begin(), files.end(),
                   [](const BatchFile& a, const BatchFile& b) {
                     if (a.seq != b.seq) return a.seq < b.seq;
                     return a.logger < b.logger;
                   });
  return files;
}

Status LogStore::ParseBatchFile(
    LogScheme scheme, const BatchFile& file,
    std::shared_ptr<const std::vector<uint8_t>> bytes, bool borrow,
    LogBatch* out) {
  BatchParseOptions popts;
  popts.borrow = borrow;
  popts.file_name = file.name;
  popts.tolerate_torn_tail = file.newest_in_stream;
  Status s = DeserializeBatch(scheme, std::move(bytes), popts, out);
  if (!s.ok()) return s;
  if (out->torn_tail && out->records.empty()) {
    out->logger_id = file.logger;
    out->seq = file.seq;
  }
  if (out->seq != file.seq || out->logger_id != file.logger) {
    return Status::Corruption("batch file " + file.name +
                              ": header (logger, seq) disagrees with the "
                              "file name");
  }
  return Status::Ok();
}

Status LogStore::TruncateBeyondWatermark(
    LogScheme scheme, const std::vector<device::StorageDevice*>& devices,
    Epoch pepoch) {
  for (const BatchFile& f : ListBatchFiles(devices)) {
    device::StorageDevice* device = devices[f.device];
    if (!device->IsPersistent()) continue;
    std::shared_ptr<const std::vector<uint8_t>> bytes;
    Status s = device->ReadFileShared(f.name, &bytes);
    if (!s.ok()) return s;
    LogBatch batch;
    s = ParseBatchFile(scheme, f, std::move(bytes), /*borrow=*/false, &batch);
    if (!s.ok()) return s;
    // A torn file is rewritten even if no record crossed the watermark:
    // the rewrite replaces the ragged image with a clean serialization
    // of the surviving prefix.
    bool dirty = batch.torn_tail;
    std::vector<LogRecord> kept;
    kept.reserve(batch.records.size());
    for (LogRecord& r : batch.records) {
      if (r.epoch <= pepoch) {
        kept.push_back(std::move(r));
      } else {
        dirty = true;
      }
    }
    if (!dirty) continue;
    batch.records = std::move(kept);
    device::IoResult w =
        device::RetryIo(device::IoRetryPolicy{}, nullptr, [&] {
          return device->WriteFile(f.name, SerializeBatch(scheme, batch));
        });
    if (!w.ok()) {
      return Status(w.status.code(), "log truncation rewrite of " + f.name +
                                         " failed: " + w.status.message());
    }
  }
  return Status::Ok();
}

}  // namespace pacman::logging
