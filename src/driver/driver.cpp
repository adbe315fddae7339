#include "driver/driver.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "nvme/command.h"

namespace bandslim::driver {

using nvme::CqEntry;
using nvme::CqStatus;
using nvme::NvmeCommand;
using nvme::Opcode;

namespace {

// A key already validated to 1..16 bytes, viewed as bytes without copying
// through a temporary std::string.
ByteSpan KeySpan(std::string_view key) {
  return {reinterpret_cast<const std::uint8_t*>(key.data()), key.size()};
}

}  // namespace

const char* MethodName(TransferMethod method) {
  switch (method) {
    case TransferMethod::kPrp: return "Baseline";
    case TransferMethod::kPiggyback: return "Piggyback";
    case TransferMethod::kHybrid: return "Hybrid";
    case TransferMethod::kAdaptive: return "Adaptive";
  }
  return "?";
}

KvDriver::KvDriver(nvme::NvmeTransport* transport, nvme::HostMemory* host,
                   DriverConfig config, trace::Tracer* tracer)
    : transport_(transport), host_(host), config_(config), tracer_(tracer) {
  // Pre-size the scratch buffers for a typical multi-fragment value so the
  // first ops do not grow them; larger values grow once and stick.
  cmd_scratch_.reserve(16);
  completion_scratch_.reserve(16);
  page_scratch_.reserve(8);
}

Status KvDriver::StatusFromCq(const CqEntry& cqe) {
  switch (cqe.status) {
    case CqStatus::kSuccess: return Status::Ok();
    case CqStatus::kNotFound: return Status::NotFound();
    case CqStatus::kInvalidField: return Status::InvalidArgument("device: invalid field");
    case CqStatus::kBufferTooSmall: return Status::InvalidArgument("device: buffer too small");
    case CqStatus::kIteratorInvalid: return Status::InvalidArgument("device: bad iterator");
    case CqStatus::kIteratorExhausted: return Status::NotFound("iterator exhausted");
    case CqStatus::kOutOfSpace: return Status::OutOfSpace("device full");
    case CqStatus::kInternalError: return Status::IoError("device internal error");
    case CqStatus::kMediaError: return Status::MediaError("device media error");
    case CqStatus::kTimedOut: return Status::TimedOut("command timed out");
    case CqStatus::kBusy: return Status::Busy("queue admission shed");
  }
  return Status::IoError("unknown CQ status");
}

KvDriver::Decision KvDriver::Decide(std::uint64_t size) const {
  switch (config_.method) {
    case TransferMethod::kPrp:
      return Decision::kPrp;
    case TransferMethod::kPiggyback:
      return Decision::kPiggyback;
    case TransferMethod::kHybrid:
      // A hybrid transfer needs at least one full page plus a remainder.
      return (size > kMemPageSize && size % kMemPageSize != 0)
                 ? Decision::kHybrid
                 : Decision::kPrp;
    case TransferMethod::kAdaptive: {
      if (static_cast<double>(size) <=
          config_.alpha * static_cast<double>(config_.threshold1)) {
        return Decision::kPiggyback;
      }
      const std::uint64_t remainder = size % kMemPageSize;
      if (size > kMemPageSize && remainder != 0 &&
          static_cast<double>(remainder) <=
              config_.beta * static_cast<double>(config_.threshold2)) {
        return Decision::kHybrid;
      }
      return Decision::kPrp;
    }
  }
  return Decision::kPrp;
}

NvmeCommand KvDriver::MakeWriteCommand(std::string_view key,
                                       std::uint32_t value_size) const {
  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvWrite);
  cmd.set_nsid(1);
  cmd.set_key(KeySpan(key));
  cmd.set_value_size(value_size);
  return cmd;
}

void KvDriver::AppendTrailingCommands(ByteSpan rest,
                                      std::vector<NvmeCommand>* out) {
  std::size_t off = 0;
  while (off < rest.size()) {
    const std::size_t n =
        std::min(kTransferCmdPiggybackCapacity, rest.size() - off);
    NvmeCommand cmd;
    cmd.set_opcode(Opcode::kKvTransfer);
    cmd.set_nsid(1);
    nvme::codec::SetTransferPayload(cmd, rest.subspan(off, n));
    off += n;
    cmd.set_final_fragment(off == rest.size());
    out->push_back(cmd);
  }
}

Status KvDriver::SendTrailing(ByteSpan rest) {
  cmd_scratch_.clear();
  AppendTrailingCommands(rest, &cmd_scratch_);
  for (const NvmeCommand& cmd : cmd_scratch_) {
    BANDSLIM_RETURN_IF_ERROR(StatusFromCq(transport_->Submit(config_.queue_id, cmd)));
  }
  return Status::Ok();
}

Status KvDriver::SendPipelined(NvmeCommand head, ByteSpan rest) {
  cmd_scratch_.clear();
  cmd_scratch_.push_back(std::move(head));
  AppendTrailingCommands(rest, &cmd_scratch_);
  transport_->SubmitPipelined(config_.queue_id,
                              std::span<const NvmeCommand>(cmd_scratch_),
                              &completion_scratch_);
  for (const CqEntry& cqe : completion_scratch_) {
    BANDSLIM_RETURN_IF_ERROR(StatusFromCq(cqe));
  }
  return Status::Ok();
}

Status KvDriver::PutPiggyback(std::string_view key, ByteSpan value) {
  NvmeCommand cmd = MakeWriteCommand(key, static_cast<std::uint32_t>(value.size()));
  const std::size_t head =
      std::min(kWriteCmdPiggybackCapacity, value.size());
  nvme::codec::SetWritePiggyback(cmd, value.subspan(0, head));
  cmd.set_final_fragment(head == value.size());
  if (config_.pipelined_submission) {
    return SendPipelined(std::move(cmd), value.subspan(head));
  }
  BANDSLIM_RETURN_IF_ERROR(StatusFromCq(transport_->Submit(config_.queue_id, cmd)));
  if (head < value.size()) {
    BANDSLIM_RETURN_IF_ERROR(SendTrailing(value.subspan(head)));
  }
  return Status::Ok();
}

Status KvDriver::PutPrp(std::string_view key, ByteSpan value) {
  const std::size_t pages = CeilDiv(value.size(), kMemPageSize);
  host_->AllocatePagesInto(pages, &page_scratch_);
  BANDSLIM_RETURN_IF_ERROR(host_->WriteToPages(page_scratch_, value));
  NvmeCommand cmd = MakeWriteCommand(key, static_cast<std::uint32_t>(value.size()));
  cmd.set_final_fragment(true);
  nvme::codec::SetPrpPointers(cmd, nvme::PrpList(page_scratch_));
  Status st = StatusFromCq(transport_->Submit(config_.queue_id, cmd));
  host_->FreePages(page_scratch_);
  return st;
}

Status KvDriver::PutHybrid(std::string_view key, ByteSpan value) {
  const std::size_t prp_bytes = RoundDownPow2(value.size(), kMemPageSize);
  assert(prp_bytes > 0 && prp_bytes < value.size());
  host_->AllocatePagesInto(prp_bytes / kMemPageSize, &page_scratch_);
  BANDSLIM_RETURN_IF_ERROR(
      host_->WriteToPages(page_scratch_, value.subspan(0, prp_bytes)));
  NvmeCommand cmd = MakeWriteCommand(key, static_cast<std::uint32_t>(value.size()));
  cmd.set_final_fragment(false);
  nvme::codec::SetPrpPointers(cmd, nvme::PrpList(page_scratch_));
  Status st;
  if (config_.pipelined_submission) {
    st = SendPipelined(std::move(cmd), value.subspan(prp_bytes));
  } else {
    st = StatusFromCq(transport_->Submit(config_.queue_id, cmd));
    if (st.ok()) st = SendTrailing(value.subspan(prp_bytes));
  }
  host_->FreePages(page_scratch_);
  return st;
}

Status KvDriver::Put(std::string_view key, ByteSpan value) {
  trace::OpScope op(tracer_, trace::OpType::kPut, config_.queue_id,
                    value.size());
  const Status st = PutImpl(key, value);
  op.set_ok(st.ok());
  return st;
}

Status KvDriver::PutImpl(std::string_view key, ByteSpan value) {
  if (key.empty() || key.size() > kMaxKeySize) {
    return Status::InvalidArgument("key must be 1..16 bytes");
  }
  if (value.empty()) {
    return Status::InvalidArgument("empty values are not supported");
  }
  if (value.size() > kMaxValueSize) {
    return Status::InvalidArgument("value larger than kMaxValueSize");
  }
  ++puts_issued_;
  switch (Decide(value.size())) {
    case Decision::kPiggyback: return PutPiggyback(key, value);
    case Decision::kPrp: return PutPrp(key, value);
    case Decision::kHybrid: return PutHybrid(key, value);
  }
  return Status::InvalidArgument("unreachable");
}

Status KvDriver::PutBatch(std::span<const KvPair> batch) {
  std::uint64_t payload_bytes = 0;
  for (const KvPair& kv : batch) payload_bytes += kv.value.size();
  trace::OpScope op(tracer_, trace::OpType::kPutBatch, config_.queue_id,
                    payload_bytes);
  const Status st = PutBatchImpl(batch);
  op.set_ok(st.ok());
  return st;
}

Status KvDriver::PutBatchImpl(std::span<const KvPair> batch) {
  if (batch.empty()) return Status::Ok();
  // Wire format, repeated per record: [u8 klen][key][u32 vsize][value].
  std::uint64_t payload_size = 0;
  for (const KvPair& kv : batch) {
    if (kv.key.empty() || kv.key.size() > kMaxKeySize) {
      return Status::InvalidArgument("key must be 1..16 bytes");
    }
    if (kv.value.empty()) {
      return Status::InvalidArgument("empty values are not supported");
    }
    if (kv.value.size() > kMaxValueSize) {
      return Status::InvalidArgument("value larger than kMaxValueSize");
    }
    payload_size += 1 + kv.key.size() + 4 + kv.value.size();
  }
  if (payload_size > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument("batch larger than one bulk transfer");
  }
  Bytes payload;
  payload.reserve(payload_size);
  for (const KvPair& kv : batch) {
    payload.push_back(static_cast<std::uint8_t>(kv.key.size()));
    payload.insert(payload.end(), kv.key.begin(), kv.key.end());
    const auto vsize = static_cast<std::uint32_t>(kv.value.size());
    for (int i = 0; i < 4; ++i) {
      payload.push_back(static_cast<std::uint8_t>(vsize >> (8 * i)));
    }
    payload.insert(payload.end(), kv.value.begin(), kv.value.end());
  }
  auto ids = host_->AllocatePages(CeilDiv(payload.size(), kMemPageSize));
  BANDSLIM_RETURN_IF_ERROR(host_->WriteToPages(ids, ByteSpan(payload)));
  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvBulkWrite);
  cmd.set_nsid(1);
  cmd.set_value_size(static_cast<std::uint32_t>(payload.size()));
  cmd.set_final_fragment(true);
  nvme::codec::SetPrpPointers(cmd, nvme::PrpList(ids));
  Status st = StatusFromCq(transport_->Submit(config_.queue_id, cmd));
  host_->FreePages(ids);
  puts_issued_ += batch.size();
  return st;
}

Result<std::uint32_t> KvDriver::SubmitRead(NvmeCommand cmd, Bytes* payload,
                                           std::size_t initial_pages) {
  std::size_t pages = initial_pages;
  for (int attempt = 0; attempt < 4; ++attempt) {
    host_->AllocatePagesInto(pages, &page_scratch_);
    nvme::codec::SetPrpPointers(cmd, nvme::PrpList(page_scratch_));
    const CqEntry cqe = transport_->Submit(config_.queue_id, cmd);
    if (cqe.status == CqStatus::kBufferTooSmall) {
      host_->FreePages(page_scratch_);
      pages = CeilDiv(cqe.result, kMemPageSize);
      continue;
    }
    Status st = StatusFromCq(cqe);
    if (!st.ok()) {
      host_->FreePages(page_scratch_);
      return st;
    }
    payload->resize(cqe.result);
    st = host_->ReadFromPages(page_scratch_, MutByteSpan(*payload));
    host_->FreePages(page_scratch_);
    BANDSLIM_RETURN_IF_ERROR(st);
    return cqe.result;
  }
  return Status::IoError("receive buffer negotiation failed");
}

Result<Bytes> KvDriver::EncodeKeyBatch(std::span<const std::string> keys) {
  // Wire format, repeated per key: [u8 klen][key].
  Bytes payload;
  for (const std::string& key : keys) {
    if (key.empty() || key.size() > kMaxKeySize) {
      return Status::InvalidArgument("key must be 1..16 bytes");
    }
    payload.push_back(static_cast<std::uint8_t>(key.size()));
    payload.insert(payload.end(), key.begin(), key.end());
  }
  return payload;
}

Result<std::vector<KvDriver::BatchGetResult>> KvDriver::GetBatch(
    std::span<const std::string> keys) {
  trace::OpScope op(tracer_, trace::OpType::kGetBatch, config_.queue_id);
  auto result = GetBatchImpl(keys);
  op.set_ok(result.ok());
  return result;
}

Result<std::vector<KvDriver::BatchGetResult>> KvDriver::GetBatchImpl(
    std::span<const std::string> keys) {
  std::vector<BatchGetResult> results;
  if (keys.empty()) return results;
  auto request = EncodeKeyBatch(keys);
  if (!request.ok()) return request.status();
  const Bytes& req = request.value();

  // The PRP buffer is used in both directions: the device fetches the key
  // list from it, then overwrites it with the response. Renegotiate its
  // size on kBufferTooSmall like any PRP read.
  std::size_t pages = CeilDiv(req.size(), kMemPageSize);
  for (int attempt = 0; attempt < 4; ++attempt) {
    auto ids = host_->AllocatePages(pages);
    Status st = host_->WriteToPages(ids, ByteSpan(req));
    if (!st.ok()) {
      host_->FreePages(ids);
      return st;
    }
    NvmeCommand cmd;
    cmd.set_opcode(Opcode::kKvBulkRead);
    cmd.set_nsid(1);
    cmd.set_value_size(static_cast<std::uint32_t>(req.size()));
    nvme::codec::SetPrpPointers(cmd, nvme::PrpList(ids));
    const CqEntry cqe = transport_->Submit(config_.queue_id, cmd);
    if (cqe.status == CqStatus::kBufferTooSmall) {
      host_->FreePages(ids);
      pages = std::max<std::size_t>(pages, CeilDiv(cqe.result, kMemPageSize));
      continue;
    }
    st = StatusFromCq(cqe);
    if (!st.ok()) {
      host_->FreePages(ids);
      return st;
    }
    Bytes payload(cqe.result);
    st = host_->ReadFromPages(ids, MutByteSpan(payload));
    host_->FreePages(ids);
    BANDSLIM_RETURN_IF_ERROR(st);
    // Decode: [u8 found][u32 vsize][value]* — one record per requested key.
    std::size_t off = 0;
    results.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (off + 5 > payload.size()) {
        return Status::Corruption("truncated bulk-read response");
      }
      BatchGetResult r;
      r.found = payload[off++] != 0;
      std::uint32_t vsize = 0;
      for (int b = 0; b < 4; ++b) {
        vsize |= static_cast<std::uint32_t>(payload[off++]) << (8 * b);
      }
      if (off + vsize > payload.size()) {
        return Status::Corruption("bulk-read record size mismatch");
      }
      r.value.assign(payload.begin() + static_cast<std::ptrdiff_t>(off),
                     payload.begin() + static_cast<std::ptrdiff_t>(off + vsize));
      off += vsize;
      results.push_back(std::move(r));
    }
    return results;
  }
  return Status::IoError("receive buffer negotiation failed");
}

Result<std::uint32_t> KvDriver::DeleteBatch(std::span<const std::string> keys) {
  trace::OpScope op(tracer_, trace::OpType::kDeleteBatch, config_.queue_id);
  auto result = DeleteBatchImpl(keys);
  op.set_ok(result.ok());
  return result;
}

Result<std::uint32_t> KvDriver::DeleteBatchImpl(
    std::span<const std::string> keys) {
  if (keys.empty()) return 0u;
  auto request = EncodeKeyBatch(keys);
  if (!request.ok()) return request.status();
  const Bytes& req = request.value();
  auto ids = host_->AllocatePages(CeilDiv(req.size(), kMemPageSize));
  Status st = host_->WriteToPages(ids, ByteSpan(req));
  if (!st.ok()) {
    host_->FreePages(ids);
    return st;
  }
  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvBulkDelete);
  cmd.set_nsid(1);
  cmd.set_value_size(static_cast<std::uint32_t>(req.size()));
  nvme::codec::SetPrpPointers(cmd, nvme::PrpList(ids));
  const CqEntry cqe = transport_->Submit(config_.queue_id, cmd);
  host_->FreePages(ids);
  BANDSLIM_RETURN_IF_ERROR(StatusFromCq(cqe));
  return cqe.result;
}

Result<Bytes> KvDriver::Get(std::string_view key) {
  trace::OpScope op(tracer_, trace::OpType::kGet, config_.queue_id);
  Bytes payload;
  const Status st = GetIntoImpl(key, &payload);
  op.set_ok(st.ok());
  if (!st.ok()) return st;
  return payload;
}

Status KvDriver::GetInto(std::string_view key, Bytes* value) {
  trace::OpScope op(tracer_, trace::OpType::kGet, config_.queue_id);
  const Status st = GetIntoImpl(key, value);
  op.set_ok(st.ok());
  return st;
}

Status KvDriver::GetIntoImpl(std::string_view key, Bytes* value) {
  if (key.empty() || key.size() > kMaxKeySize) {
    return Status::InvalidArgument("key must be 1..16 bytes");
  }
  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvRead);
  cmd.set_nsid(1);
  cmd.set_key(KeySpan(key));
  auto size = SubmitRead(std::move(cmd), value);
  if (!size.ok()) return size.status();
  return Status::Ok();
}

Status KvDriver::Delete(std::string_view key) {
  trace::OpScope op(tracer_, trace::OpType::kDelete, config_.queue_id);
  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvDelete);
  cmd.set_nsid(1);
  cmd.set_key(KeySpan(key));
  const Status st = StatusFromCq(transport_->Submit(config_.queue_id, cmd));
  op.set_ok(st.ok());
  return st;
}

Result<std::uint32_t> KvDriver::Exists(std::string_view key) {
  trace::OpScope op(tracer_, trace::OpType::kExists, config_.queue_id);
  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvExists);
  cmd.set_nsid(1);
  cmd.set_key(KeySpan(key));
  const CqEntry cqe = transport_->Submit(config_.queue_id, cmd);
  const Status st = StatusFromCq(cqe);
  op.set_ok(st.ok());
  BANDSLIM_RETURN_IF_ERROR(st);
  return cqe.result;
}

Status KvDriver::Flush() {
  trace::OpScope op(tracer_, trace::OpType::kFlush, config_.queue_id);
  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvFlush);
  cmd.set_nsid(1);
  const Status st = StatusFromCq(transport_->Submit(config_.queue_id, cmd));
  op.set_ok(st.ok());
  return st;
}

Result<KvDriver::Iterator> KvDriver::Seek(std::string_view from) {
  trace::OpScope op(tracer_, trace::OpType::kSeek, config_.queue_id);
  auto result = SeekImpl(from);
  op.set_ok(result.ok());
  return result;
}

Result<KvDriver::Iterator> KvDriver::SeekImpl(std::string_view from) {
  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvIterSeek);
  cmd.set_nsid(1);
  cmd.set_key(KeySpan(from));
  const CqEntry cqe = transport_->Submit(config_.queue_id, cmd);
  BANDSLIM_RETURN_IF_ERROR(StatusFromCq(cqe));
  Iterator iter(this, cqe.result);
  BANDSLIM_RETURN_IF_ERROR(iter.Next());
  return iter;
}

Status KvDriver::Iterator::FetchBatch() {
  if (exhausted_) return Status::Ok();
  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvIterNextBatch);
  cmd.set_nsid(1);
  cmd.set_iter_handle(handle_);
  Bytes payload;
  auto bytes = driver_->SubmitRead(std::move(cmd), &payload,
                                   /*initial_pages=*/8);
  if (!bytes.ok()) {
    if (bytes.status().IsNotFound()) {
      exhausted_ = true;  // Device iterator drained.
      return Status::Ok();
    }
    return bytes.status();
  }
  // Decode records: [u8 key_len][key][u32 value_size][value]*.
  std::size_t off = 0;
  while (off < payload.size()) {
    const std::size_t klen = payload[off++];
    if (klen == 0 || off + klen + 4 > payload.size()) {
      return Status::Corruption("truncated iterator record");
    }
    std::string key(reinterpret_cast<const char*>(payload.data() + off), klen);
    off += klen;
    std::uint32_t vsize = 0;
    for (int i = 0; i < 4; ++i) {
      vsize |= static_cast<std::uint32_t>(payload[off++]) << (8 * i);
    }
    if (off + vsize > payload.size()) {
      return Status::Corruption("iterator record size mismatch");
    }
    pending_.emplace_back(
        std::move(key),
        Bytes(payload.begin() + static_cast<std::ptrdiff_t>(off),
              payload.begin() + static_cast<std::ptrdiff_t>(off + vsize)));
    off += vsize;
  }
  return Status::Ok();
}

Status KvDriver::Iterator::Next() {
  if (driver_ == nullptr) return Status::InvalidArgument("closed iterator");
  trace::OpScope op(driver_->tracer_, trace::OpType::kNext,
                    driver_->config_.queue_id);
  if (pending_.empty()) {
    BANDSLIM_RETURN_IF_ERROR(FetchBatch());
  }
  if (pending_.empty()) {
    valid_ = false;
    return Status::Ok();  // Exhausted.
  }
  key_ = std::move(pending_.front().first);
  value_ = std::move(pending_.front().second);
  pending_.pop_front();
  valid_ = true;
  return Status::Ok();
}

void KvDriver::Iterator::Close() {
  if (driver_ == nullptr) return;
  trace::OpScope op(driver_->tracer_, trace::OpType::kOther,
                    driver_->config_.queue_id);
  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvIterClose);
  cmd.set_nsid(1);
  cmd.set_iter_handle(handle_);
  driver_->transport_->Submit(driver_->config_.queue_id, cmd);
  driver_ = nullptr;
  valid_ = false;
}

KvDriver::Iterator::~Iterator() { Close(); }

KvDriver::Iterator::Iterator(Iterator&& other) noexcept
    : driver_(other.driver_),
      handle_(other.handle_),
      valid_(other.valid_),
      exhausted_(other.exhausted_),
      key_(std::move(other.key_)),
      value_(std::move(other.value_)),
      pending_(std::move(other.pending_)) {
  other.driver_ = nullptr;
  other.valid_ = false;
}

KvDriver::Iterator& KvDriver::Iterator::operator=(Iterator&& other) noexcept {
  if (this != &other) {
    Close();
    driver_ = other.driver_;
    handle_ = other.handle_;
    valid_ = other.valid_;
    exhausted_ = other.exhausted_;
    key_ = std::move(other.key_);
    value_ = std::move(other.value_);
    pending_ = std::move(other.pending_);
    other.driver_ = nullptr;
    other.valid_ = false;
  }
  return *this;
}

}  // namespace bandslim::driver
