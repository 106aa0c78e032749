#include "logging/checkpointer.h"

#include <algorithm>
#include <cctype>

#include "common/macros.h"
#include "common/serializer.h"
#include "device/io_retry.h"
#include "storage/shard.h"

namespace pacman::logging {

namespace {

// Meta file layout: magic, id, ts, files_per_ssd, num_ssds, total_bytes,
// then an FNV-1a checksum of everything before it. The checksum (plus the
// device's atomic WriteFile) is what lets recovery tell a committed meta
// from a torn leftover. The magic names the stripe format (checkpointer.h).
constexpr uint32_t kMetaMagic = 0x50434B32;  // "PCK2": compact rows.
// The retired format, whose stripe records held a u32 table, a u64 key and
// a fixed-width row. Refused by name, never parsed.
constexpr uint32_t kRetiredMetaMagic = 0x50434B4D;  // "PCKM"

bool HasMagic(const std::vector<uint8_t>& bytes, uint32_t magic) {
  uint32_t got = 0;
  return Deserializer(bytes).GetU32(&got).ok() && got == magic;
}

// Parses the bytes of meta file `id` (magic and checksum checked).
Status ParseMeta(const std::vector<uint8_t>& bytes, uint64_t id,
                 CheckpointMeta* out) {
  const std::string name = Checkpointer::MetaFileName(id);
  Deserializer in(bytes);
  uint32_t magic = 0;
  Status s = in.GetU32(&magic);
  if (s.ok() && magic == kRetiredMetaMagic) {
    return Status::Corruption(
        "checkpoint meta " + name +
        " is in the retired fixed-width checkpoint format (PCKM); this "
        "build reads only the compact format (PCK2)");
  }
  if (!s.ok() || magic != kMetaMagic) {
    return Status::Corruption("bad checkpoint meta magic: " + name);
  }
  s = in.GetU64(&out->id);
  if (s.ok()) s = in.GetU64(&out->ts);
  if (s.ok()) s = in.GetU32(&out->files_per_ssd);
  if (s.ok()) s = in.GetU32(&out->num_ssds);
  if (s.ok()) s = in.GetU64(&out->total_bytes);
  uint64_t checksum = 0;
  if (s.ok()) s = in.GetU64(&checksum);
  if (!s.ok()) return Status::Corruption("truncated checkpoint meta: " + name);
  if (checksum != Fnv1a(bytes.data(), bytes.size() - sizeof(uint64_t)) ||
      out->id != id) {
    return Status::Corruption("checkpoint meta checksum mismatch: " + name);
  }
  return Status::Ok();
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

bool ConsumeUnderscore(const std::string& s, size_t* pos) {
  if (*pos >= s.size() || s[*pos] != '_') return false;
  ++(*pos);
  return true;
}

}  // namespace

std::string Checkpointer::StripeFileName(uint64_t ckpt_id,
                                         uint32_t ssd_index,
                                         uint32_t file_index) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "ckpt_%04llu_%02u_%02u",
                static_cast<unsigned long long>(ckpt_id), ssd_index,
                file_index);
  return buf;
}

std::string Checkpointer::MetaFileName(uint64_t ckpt_id) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "ckpt_meta_%012llu",
                static_cast<unsigned long long>(ckpt_id));
  return buf;
}

bool Checkpointer::ParseMetaFileName(const std::string& name,
                                     uint64_t* ckpt_id) {
  constexpr char kPrefix[] = "ckpt_meta_";
  if (name.rfind(kPrefix, 0) != 0) return false;
  size_t pos = sizeof(kPrefix) - 1;
  return ParseDigits(name, &pos, ckpt_id) && pos == name.size();
}

bool Checkpointer::ParseStripeFileName(const std::string& name,
                                       uint64_t* ckpt_id, uint32_t* ssd_index,
                                       uint32_t* file_index) {
  constexpr char kPrefix[] = "ckpt_";
  if (name.rfind(kPrefix, 0) != 0) return false;
  size_t pos = sizeof(kPrefix) - 1;
  uint64_t id = 0, ssd = 0, file = 0;
  if (!ParseDigits(name, &pos, &id)) return false;  // Rejects "ckpt_meta_…".
  if (!ConsumeUnderscore(name, &pos)) return false;
  if (!ParseDigits(name, &pos, &ssd)) return false;
  if (!ConsumeUnderscore(name, &pos)) return false;
  if (!ParseDigits(name, &pos, &file)) return false;
  if (pos != name.size()) return false;
  *ckpt_id = id;
  *ssd_index = static_cast<uint32_t>(ssd);
  *file_index = static_cast<uint32_t>(file);
  return true;
}

Status Checkpointer::TakeCheckpoint(uint64_t id, Timestamp ts,
                                    uint32_t files_per_ssd,
                                    CheckpointMeta* out,
                                    const std::function<void()>& scanned) {
  const uint32_t num_ssds = static_cast<uint32_t>(devices_.size());
  const uint32_t num_stripes = num_ssds * files_per_ssd;
  std::vector<Serializer> stripes(num_stripes);

  // Stripe tuples round-robin so reload parallelism is balanced. The slot
  // list is snapshotted under each table's arena latch (SnapshotSlots) so
  // the scan is safe against transactions inserting keys concurrently;
  // version chains are read through the MVCC visibility check at `ts`,
  // which concurrent installs (always at timestamps > ts once ts is
  // stable) never disturb. The caller's read pin, taken before `ts` was
  // drawn, keeps their reclamation from freeing what the scan reads
  // (txn/reclaim_horizon.h).
  //
  // Sharded engines stripe shard-locally instead: a tuple lands on the
  // device of its home shard (ShardOfKey % num_ssds — the same folding
  // that places shard s's logger), round-robin across that device's
  // files. Each shard's checkpoint data then sits next to its log, so a
  // per-shard recovery lane touches one device group end to end.
  uint32_t next = 0;
  std::vector<uint32_t> next_file(num_ssds, 0);
  for (const auto& table : catalog_->tables()) {
    for (storage::TupleSlot* slot : table->SnapshotSlots()) {
      const storage::Version* v = slot->VisibleAt(ts);
      if (v == nullptr || v->deleted) continue;
      uint32_t stripe;
      if (num_shards_ > 1) {
        const uint32_t d =
            storage::ShardOfKey(slot->key, num_shards_) % num_ssds;
        stripe = d * files_per_ssd + next_file[d];
        next_file[d] = (next_file[d] + 1) % files_per_ssd;
      } else {
        stripe = next;
        next = (next + 1) % num_stripes;
      }
      Serializer& s = stripes[stripe];
      s.PutVarint(table->id());
      s.PutVarint(slot->key);
      if (scheme_ == LogScheme::kPhysical) {
        // Physical checkpoints persist tuple locations too (§2.2).
        s.PutU64(reinterpret_cast<uint64_t>(slot));
        s.PutU64(reinterpret_cast<uint64_t>(v));
      }
      s.PutRaw(v->row(), v->row_size());  // The version's bytes as they are.
    }
  }
  if (scanned) scanned();

  CheckpointMeta meta;
  meta.id = id;
  meta.ts = ts;
  meta.files_per_ssd = files_per_ssd;
  meta.num_ssds = num_ssds;
  std::vector<size_t> stripe_bytes(num_stripes, 0);
  for (uint32_t d = 0; d < num_ssds; ++d) {
    for (uint32_t f = 0; f < files_per_ssd; ++f) {
      std::vector<uint8_t> bytes = stripes[d * files_per_ssd + f].Release();
      stripe_bytes[d * files_per_ssd + f] = bytes.size();
      meta.total_bytes += bytes.size();
      const std::string name = StripeFileName(id, d, f);
      device::IoResult w =
          device::RetryIo(device::IoRetryPolicy{}, nullptr, [&] {
            return devices_[d]->WriteFile(name, bytes);
          });
      if (!w.ok()) {
        return Status(w.status.code(), "checkpoint stripe write of " + name +
                                           " failed: " + w.status.message());
      }
    }
  }
  // Stripes must be durable before the meta commits the checkpoint.
  for (uint32_t d = 0; d < num_ssds; ++d) {
    device::IoResult b = device::RetryIo(device::IoRetryPolicy{}, nullptr,
                                         [&] { return devices_[d]->SyncBarrier(); });
    if (!b.ok()) {
      return Status(b.status.code(),
                    "checkpoint barrier on device " + std::to_string(d) +
                        " failed: " + b.status.message());
    }
  }
  // Verify the stripes actually landed: a device that acknowledged a
  // write it did not keep must fail the checkpoint here, not surface as a
  // truncated log with no covering snapshot.
  for (uint32_t d = 0; d < num_ssds; ++d) {
    for (uint32_t f = 0; f < files_per_ssd; ++f) {
      const std::string name = StripeFileName(id, d, f);
      if (!devices_[d]->Exists(name) ||
          devices_[d]->FileSize(name) != stripe_bytes[d * files_per_ssd + f]) {
        return Status::Internal("checkpoint stripe not durable: " + name);
      }
    }
  }

  Serializer ms;
  ms.PutU32(kMetaMagic);
  ms.PutU64(meta.id);
  ms.PutU64(meta.ts);
  ms.PutU32(meta.files_per_ssd);
  ms.PutU32(meta.num_ssds);
  ms.PutU64(meta.total_bytes);
  ms.PutU64(Fnv1a(ms.data().data(), ms.size()));
  const std::vector<uint8_t> meta_bytes = ms.Release();
  device::IoResult mw = device::RetryIo(device::IoRetryPolicy{}, nullptr, [&] {
    return devices_[0]->WriteFile(MetaFileName(id), meta_bytes);
  });
  if (!mw.ok()) {
    return Status(mw.status.code(), "checkpoint meta write of " +
                                        MetaFileName(id) +
                                        " failed: " + mw.status.message());
  }
  // Read the commit record back: only a meta that will validate at
  // recovery makes this checkpoint usable (and its log prefix deletable).
  CheckpointMeta readback;
  Status s = ReadMeta(id, &readback);
  if (!s.ok()) return s;
  if (readback.ts != meta.ts || readback.total_bytes != meta.total_bytes ||
      readback.files_per_ssd != meta.files_per_ssd ||
      readback.num_ssds != meta.num_ssds) {
    return Status::Internal("checkpoint meta readback mismatch: " +
                            MetaFileName(id));
  }
  *out = meta;
  return Status::Ok();
}

Status Checkpointer::ReadMeta(uint64_t id, CheckpointMeta* out) const {
  std::vector<uint8_t> bytes;
  Status s = devices_[0]->ReadFile(MetaFileName(id), &bytes);
  if (!s.ok()) return s;
  return ParseMeta(bytes, id, out);
}

bool Checkpointer::StripesComplete(const CheckpointMeta& meta) const {
  if (meta.num_ssds != devices_.size()) return false;
  for (uint32_t d = 0; d < meta.num_ssds; ++d) {
    for (uint32_t f = 0; f < meta.files_per_ssd; ++f) {
      if (!devices_[d]->Exists(StripeFileName(meta.id, d, f))) return false;
    }
  }
  return true;
}

std::vector<uint64_t> Checkpointer::ListMetaIds() const {
  std::vector<uint64_t> ids;
  for (const std::string& name : devices_[0]->ListFiles("ckpt_meta_")) {
    uint64_t id = 0;
    if (ParseMetaFileName(name, &id)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Status Checkpointer::ReadLatestMeta(CheckpointMeta* out) const {
  std::vector<uint64_t> ids = ListMetaIds();
  // Newest first: a torn high-id leftover must fall back to the previous
  // durable checkpoint, not mask it.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    std::vector<uint8_t> bytes;
    if (!devices_[0]->ReadFile(MetaFileName(*it), &bytes).ok()) continue;
    CheckpointMeta meta;
    const Status s = ParseMeta(bytes, *it, &meta);
    // A retired-format meta is a complete checkpoint, not a torn leftover:
    // falling back past it would recover an older state, or none.
    if (HasMagic(bytes, kRetiredMetaMagic)) return s;
    if (!s.ok() || !StripesComplete(meta)) continue;
    *out = meta;
    return Status::Ok();
  }
  return Status::NotFound("no durable checkpoint");
}

Status ParseStripeTuple(const CheckpointStripe& stripe, size_t* offset,
                        StripeTuple* out) {
  const size_t at = *offset;
  Deserializer in(stripe.bytes.data() + at, stripe.bytes.size() - at);
  Status s = in.GetVarint32(&out->table);
  if (s.ok()) s = in.GetVarint(&out->key);
  if (s.ok() && stripe.has_addresses) s = in.Skip(2 * sizeof(uint64_t));
  if (s.ok()) {
    out->row = in.cursor();
    s = CheckCompactRow(out->row, in.remaining(), &out->row_size);
  }
  if (!s.ok()) {
    return Status::Corruption("record at offset " + std::to_string(at) +
                              ": " + s.message());
  }
  *offset = at + in.position() + out->row_size;
  return Status::Ok();
}

Status Checkpointer::ReadStripeBytes(const CheckpointMeta& meta,
                                     uint32_t ssd_index, uint32_t file_index,
                                     CheckpointStripe* out) const {
  out->has_addresses = scheme_ == LogScheme::kPhysical;
  out->num_tuples = 0;
  return devices_[ssd_index]->ReadFile(
      StripeFileName(meta.id, ssd_index, file_index), &out->bytes);
}

Status Checkpointer::ReadStripe(const CheckpointMeta& meta,
                                uint32_t ssd_index, uint32_t file_index,
                                CheckpointStripe* out) const {
  Status s = ReadStripeBytes(meta, ssd_index, file_index, out);
  if (!s.ok()) return s;
  return ForEachStripeTuple(*out,
                            [&](const StripeTuple&) { out->num_tuples++; });
}

}  // namespace pacman::logging
