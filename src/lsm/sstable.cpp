#include "lsm/sstable.h"

#include <algorithm>
#include <cstring>
#include <memory>

namespace bandslim::lsm {

void PutU32(Bytes* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void PutU64(Bytes* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

Status GetU32(ByteSpan data, std::size_t* offset, std::uint32_t* v) {
  if (*offset + 4 > data.size()) return Status::Corruption("truncated u32");
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<std::uint32_t>(data[*offset + static_cast<std::size_t>(i)]) << (8 * i);
  }
  *offset += 4;
  return Status::Ok();
}

Status GetU64(ByteSpan data, std::size_t* offset, std::uint64_t* v) {
  if (*offset + 8 > data.size()) return Status::Corruption("truncated u64");
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<std::uint64_t>(data[*offset + static_cast<std::size_t>(i)]) << (8 * i);
  }
  *offset += 8;
  return Status::Ok();
}

void PutLengthPrefixed(Bytes* out, std::string_view s) {
  out->push_back(static_cast<std::uint8_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

Status GetLengthPrefixed(ByteSpan data, std::size_t* offset, std::string* s) {
  if (*offset >= data.size()) return Status::Corruption("truncated length byte");
  const std::size_t len = data[*offset];
  ++*offset;
  if (*offset + len > data.size()) return Status::Corruption("truncated string");
  s->assign(reinterpret_cast<const char*>(data.data() + *offset), len);
  *offset += len;
  return Status::Ok();
}

int SSTableMeta::PageForKey(const std::string& key) const {
  // Last fence key <= key.
  auto it = std::upper_bound(fence_keys.begin(), fence_keys.end(), key);
  if (it == fence_keys.begin()) return -1;  // key < min_key.
  return static_cast<int>(it - fence_keys.begin()) - 1;
}

namespace {

constexpr std::size_t kPageHeaderBytes = 8;  // Magic, entry count.
constexpr std::size_t kEntryFieldBytes = 8 + 4 + 1;  // Addr, size, flags.
// The smallest entry: a one-byte key.
constexpr std::uint64_t kMinEntryBytes = 1 + 1 + kEntryFieldBytes;

template <typename T>
void StoreLe(std::uint8_t* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

template <typename T>
T LoadLe(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(p[i]) << (8 * i);
  return v;
}

// Appends the entries of one page to `out`. A page programmed without its
// payload retained reads as zeros, hence as a bad magic.
Status DecodePage(const Bytes* page, std::vector<PackedEntry>* out) {
  if (page == nullptr || page->size() < kPageHeaderBytes ||
      LoadLe<std::uint32_t>(page->data()) != kSSTableMagic) {
    return Status::Corruption("bad SSTable magic");
  }
  const std::uint8_t* p = page->data();
  const std::size_t size = page->size();
  const std::uint32_t count = LoadLe<std::uint32_t>(p + 4);
  out->reserve(out->size() +
               std::min<std::size_t>(count, size / kMinEntryBytes));
  std::size_t offset = kPageHeaderBytes;
  for (std::uint32_t e = 0; e < count; ++e) {
    if (offset >= size) return Status::Corruption("truncated length byte");
    const std::size_t len = p[offset];
    if (len > kMaxKeySize) return Status::Corruption("SSTable key too long");
    if (offset + 1 + len + kEntryFieldBytes > size) {
      return Status::Corruption("truncated SSTable entry");
    }
    const std::uint8_t* fields = p + offset + 1 + len;
    out->push_back(PackedEntry::Make(
        {reinterpret_cast<const char*>(p + offset + 1), len},
        ValueRef{LoadLe<std::uint64_t>(fields),
                 LoadLe<std::uint32_t>(fields + 8), fields[12] != 0}));
    offset += 1 + len + kEntryFieldBytes;
  }
  return Status::Ok();
}

}  // namespace

TableBuilder::TableBuilder(ftl::PageFtl* ftl, std::uint64_t target_bytes,
                           std::size_t expected_entries,
                           std::uint64_t* next_id, std::uint64_t* next_lpn,
                           TableSink on_table)
    : ftl_(ftl),
      target_bytes_(target_bytes),
      expected_(expected_entries),
      next_id_(next_id),
      next_lpn_(next_lpn),
      on_table_(std::move(on_table)),
      page_(kNandPageSize) {}

void TableBuilder::Open(const PackedEntry& first) {
  meta_.id = (*next_id_)++;
  meta_.first_lpn = *next_lpn_;
  meta_.min_key.assign(first.key());
  entries_.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(expected_, target_bytes_ / kMinEntryBytes + 1)));
}

Status TableBuilder::Add(const PackedEntry& e) {
  const std::uint64_t size = EncodedEntrySize(e);
  if (open() && meta_.encoded_bytes + size > target_bytes_) {
    BANDSLIM_RETURN_IF_ERROR(Finish());
  }
  if (!open()) Open(e);
  if (page_entries_ != 0 && page_used_ + size > kNandPageSize) {
    BANDSLIM_RETURN_IF_ERROR(ProgramPage());
  }
  if (page_entries_ == 0) {
    StoreLe(page_.data(), kSSTableMagic);
    page_used_ = kPageHeaderBytes;
    meta_.fence_keys.emplace_back(e.key());
  }
  std::uint8_t* p = page_.data() + page_used_;
  p[0] = e.len;
  std::memcpy(p + 1, e.words.data(), e.len);
  p += 1 + e.len;
  StoreLe(p, e.ref.addr);
  StoreLe(p + 8, e.ref.size);
  p[12] = e.ref.tombstone ? 1 : 0;
  page_used_ += size;
  ++page_entries_;
  meta_.encoded_bytes += size;
  key_hashes_.push_back(BloomFilter::Hash(e.key()));
  entries_.push_back(e);
  if (expected_ != 0) --expected_;
  return Status::Ok();
}

Status TableBuilder::ProgramPage() {
  StoreLe(page_.data() + 4, page_entries_);
  // SSTable pages are always retained: compaction must read them back.
  BANDSLIM_RETURN_IF_ERROR(
      ftl_->Write(meta_.first_lpn + meta_.page_count,
                  ByteSpan(page_.data(), page_used_), ftl::Stream::kLsm,
                  /*retain=*/true));
  ++meta_.page_count;
  page_used_ = 0;
  page_entries_ = 0;
  return Status::Ok();
}

Status TableBuilder::Finish() {
  if (!open()) return Status::InvalidArgument("empty SSTable");
  BANDSLIM_RETURN_IF_ERROR(ProgramPage());
  meta_.entry_count = static_cast<std::uint32_t>(entries_.size());
  meta_.max_key.assign(entries_.back().key());
  meta_.bloom = BloomFilter(entries_.size());
  for (const std::uint64_t h : key_hashes_) meta_.bloom.AddHash(h);
  key_hashes_.clear();
  *next_lpn_ += meta_.page_count;
  SSTableMeta meta = std::move(meta_);
  meta_ = SSTableMeta{};
  std::vector<PackedEntry> entries = std::move(entries_);
  entries_.clear();
  on_table_(std::move(meta), std::move(entries));
  return Status::Ok();
}

Result<std::vector<PackedEntry>> ReadSSTablePage(ftl::PageFtl* ftl,
                                                 const SSTableMeta& meta,
                                                 std::uint32_t page_index) {
  if (page_index >= meta.page_count) {
    return Status::InvalidArgument("page index out of range");
  }
  std::shared_ptr<const Bytes> page;
  BANDSLIM_RETURN_IF_ERROR(ftl->ReadView(meta.first_lpn + page_index, &page));
  std::vector<PackedEntry> entries;
  BANDSLIM_RETURN_IF_ERROR(DecodePage(page.get(), &entries));
  return entries;
}

Result<std::vector<PackedEntry>> ReadSSTable(ftl::PageFtl* ftl,
                                             const SSTableMeta& meta) {
  std::vector<PackedEntry> entries;
  entries.reserve(meta.entry_count);
  for (std::uint32_t p = 0; p < meta.page_count; ++p) {
    std::shared_ptr<const Bytes> page;
    BANDSLIM_RETURN_IF_ERROR(ftl->ReadView(meta.first_lpn + p, &page));
    BANDSLIM_RETURN_IF_ERROR(DecodePage(page.get(), &entries));
  }
  if (entries.size() != meta.entry_count) {
    return Status::Corruption("entry count mismatch");
  }
  return entries;
}

}  // namespace bandslim::lsm
