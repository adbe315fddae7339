#include "lsm/sstable.h"

#include <algorithm>
#include <cstring>

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

void EncodeEntry(Bytes* out, const SSTableEntry& entry) {
  PutLengthPrefixed(out, entry.key);
  PutU64(out, entry.ref.addr);
  PutU32(out, entry.ref.size);
  out->push_back(entry.ref.tombstone ? 1 : 0);
}

Status DecodeEntry(ByteSpan data, std::size_t* offset, SSTableEntry* out) {
  BANDSLIM_RETURN_IF_ERROR(GetLengthPrefixed(data, offset, &out->key));
  BANDSLIM_RETURN_IF_ERROR(GetU64(data, offset, &out->ref.addr));
  BANDSLIM_RETURN_IF_ERROR(GetU32(data, offset, &out->ref.size));
  if (*offset >= data.size()) return Status::Corruption("truncated flags");
  out->ref.tombstone = data[*offset] != 0;
  ++*offset;
  return Status::Ok();
}

int SSTableMeta::PageForKey(const std::string& key) const {
  // Last fence key <= key.
  auto it = std::upper_bound(fence_keys.begin(), fence_keys.end(), key);
  if (it == fence_keys.begin()) return -1;  // key < min_key.
  return static_cast<int>(it - fence_keys.begin()) - 1;
}

Result<SSTableMeta> WriteSSTable(ftl::PageFtl* ftl, std::uint64_t id,
                                 std::uint64_t first_lpn,
                                 const std::vector<SSTableEntry>& entries) {
  if (entries.empty()) {
    return Status::InvalidArgument("empty SSTable");
  }
  SSTableMeta meta;
  meta.id = id;
  meta.first_lpn = first_lpn;
  meta.entry_count = static_cast<std::uint32_t>(entries.size());
  meta.min_key = entries.front().key;
  meta.max_key = entries.back().key;
  meta.bloom = BloomFilter(entries.size());

  Bytes page;
  std::size_t i = 0;
  std::uint32_t page_index = 0;
  while (i < entries.size()) {
    page.clear();
    PutU32(&page, kSSTableMagic);
    PutU32(&page, 0);  // Entry count, patched below (u32 keeps codec shared).
    std::uint32_t in_page = 0;
    meta.fence_keys.push_back(entries[i].key);
    while (i < entries.size() &&
           page.size() + EncodedEntrySize(entries[i]) <= kNandPageSize) {
      EncodeEntry(&page, entries[i]);
      meta.bloom.Add(entries[i].key);
      meta.encoded_bytes += EncodedEntrySize(entries[i]);
      ++in_page;
      ++i;
    }
    for (int b = 0; b < 4; ++b) {
      page[4 + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(in_page >> (8 * b));
    }
    // SSTable pages are always retained: compaction must read them back.
    BANDSLIM_RETURN_IF_ERROR(ftl->Write(first_lpn + page_index, ByteSpan(page),
                                        ftl::Stream::kLsm, /*retain=*/true));
    ++page_index;
  }
  meta.page_count = page_index;
  return meta;
}

namespace {

Result<std::vector<SSTableEntry>> DecodePage(ByteSpan page) {
  std::size_t offset = 0;
  std::uint32_t magic = 0;
  BANDSLIM_RETURN_IF_ERROR(GetU32(page, &offset, &magic));
  if (magic != kSSTableMagic) return Status::Corruption("bad SSTable magic");
  std::uint32_t count = 0;
  BANDSLIM_RETURN_IF_ERROR(GetU32(page, &offset, &count));
  std::vector<SSTableEntry> entries(count);
  for (std::uint32_t e = 0; e < count; ++e) {
    BANDSLIM_RETURN_IF_ERROR(DecodeEntry(page, &offset, &entries[e]));
  }
  return entries;
}

}  // namespace

Result<std::vector<SSTableEntry>> ReadSSTablePage(ftl::PageFtl* ftl,
                                                  const SSTableMeta& meta,
                                                  std::uint32_t page_index) {
  if (page_index >= meta.page_count) {
    return Status::InvalidArgument("page index out of range");
  }
  Bytes page(kNandPageSize);
  BANDSLIM_RETURN_IF_ERROR(
      ftl->Read(meta.first_lpn + page_index, MutByteSpan(page)));
  return DecodePage(ByteSpan(page));
}

Result<std::vector<SSTableEntry>> ReadSSTable(ftl::PageFtl* ftl,
                                              const SSTableMeta& meta) {
  std::vector<SSTableEntry> entries;
  entries.reserve(meta.entry_count);
  for (std::uint32_t p = 0; p < meta.page_count; ++p) {
    auto page = ReadSSTablePage(ftl, meta, p);
    if (!page.ok()) return page.status();
    for (SSTableEntry& e : page.value()) entries.push_back(std::move(e));
  }
  if (entries.size() != meta.entry_count) {
    return Status::Corruption("entry count mismatch");
  }
  return entries;
}

}  // namespace bandslim::lsm
