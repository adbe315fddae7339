#include "nand/nand_flash.h"

#include <algorithm>
#include <cstring>

namespace bandslim::nand {

NandFlash::NandFlash(const NandGeometry& geometry, sim::VirtualClock* clock,
                     const sim::CostModel* cost, stats::MetricsRegistry* metrics,
                     fault::FaultPlan* fault_plan, trace::Tracer* tracer)
    : geometry_(geometry),
      clock_(clock),
      cost_(cost),
      fault_plan_(fault_plan),
      tracer_(tracer),
      page_state_(geometry.total_pages(), 0),
      erase_counts_(geometry.total_blocks(), 0),
      blocks_(geometry.total_blocks()),
      die_free_at_(geometry.dies(), 0),
      channel_free_at_(geometry.channels, 0),
      die_busy_ns_(geometry.dies(), 0),
      channel_busy_ns_(geometry.channels, 0),
      die_pending_(geometry.dies()),
      programs_(metrics->RegisterCounter("nand.pages_programmed")),
      reads_(metrics->RegisterCounter("nand.pages_read")),
      erases_(metrics->RegisterCounter("nand.blocks_erased")),
      program_failures_counter_(
          metrics->RegisterCounter("nand.program_failures")),
      ecc_corrections_counter_(
          metrics->RegisterCounter("nand.ecc_corrections")) {}

void NandFlash::WaitForDieSlot(std::uint64_t die) {
  std::deque<sim::Nanoseconds>& pending = die_pending_[die];
  while (!pending.empty() && pending.front() <= clock_->Now()) {
    pending.pop_front();
  }
  if (cost_->nand_die_queue_depth == 0) return;  // Unbounded queues.
  while (pending.size() >= cost_->nand_die_queue_depth) {
    const sim::Nanoseconds wait = pending.front() - clock_->Now();
    clock_->AdvanceTo(pending.front());
    pending.pop_front();
    ++die_queue_stalls_;
    die_queue_stall_ns_ += wait;
  }
}

void NandFlash::BookProgramTiming(std::uint64_t phys_page) {
  if (cost_->nand_async_program) {
    // Channel/way scheduler: the page crosses the channel bus, then the die
    // programs it; the issuing op does not wait unless the die's command
    // queue is full.
    const std::uint64_t die = DieOf(geometry_.BlockOf(phys_page));
    const std::uint32_t channel = ChannelOf(die);
    WaitForDieSlot(die);
    const sim::Nanoseconds xfer_start =
        std::max(clock_->Now(), channel_free_at_[channel]);
    channel_free_at_[channel] = xfer_start + cost_->nand_channel_xfer_ns;
    channel_busy_ns_[channel] += cost_->nand_channel_xfer_ns;
    const sim::Nanoseconds prog_start =
        std::max(channel_free_at_[channel], die_free_at_[die]);
    die_free_at_[die] = prog_start + cost_->nand_program_ns;
    die_busy_ns_[die] += cost_->nand_program_ns;
    BlockStore& store = blocks_[geometry_.BlockOf(phys_page)];
    if (store.ready_at == nullptr) {
      store.ready_at =
          std::make_unique<sim::Nanoseconds[]>(geometry_.pages_per_block);
    }
    store.ready_at[geometry_.PageInBlock(phys_page)] = die_free_at_[die];
    die_pending_[die].push_back(die_free_at_[die]);
  } else {
    // Synchronous dispatch still occupies the die: another stream's time
    // frame must wait out an in-progress program. A single stream never
    // waits here (die_free_at_ trails its own clock).
    const std::uint64_t die = DieOf(geometry_.BlockOf(phys_page));
    clock_->AdvanceTo(die_free_at_[die]);
    clock_->Advance(cost_->nand_program_ns);
    die_free_at_[die] = clock_->Now();
    die_busy_ns_[die] += cost_->nand_program_ns;
  }
}

Status NandFlash::Program(std::uint64_t phys_page, ByteSpan data,
                          bool retain_data) {
  trace::SpanScope span(tracer_, trace::Category::kNandProgram,
                        geometry_.page_size);
  if (phys_page >= geometry_.total_pages()) {
    return Status::InvalidArgument("program: physical page out of range");
  }
  if (data.size() > geometry_.page_size) {
    return Status::InvalidArgument("program: data larger than a NAND page");
  }
  if (fault_plan_ != nullptr && fault_plan_->PowerLost(clock_->Now())) {
    return Status::IoError("program: power lost");
  }
  if (page_state_[phys_page] != kErasedState) {
    return Status::IoError("program-before-erase violation");
  }
  if (fault_plan_ != nullptr && fault_plan_->enabled() &&
      fault_plan_->NextProgramFails(
          erase_counts_[geometry_.BlockOf(phys_page)], phys_page)) {
    // The die works (and stays busy) for the full program before reporting
    // the failure; the page holds garbage until its block is erased.
    page_state_[phys_page] = kFailedState;
    BookProgramTiming(phys_page);
    ++program_failures_;
    program_failures_counter_->Increment();
    return Status::MediaError("program failed");
  }
  page_state_[phys_page] = kProgrammedState;
  if (retain_data && !data.empty()) {
    BlockStore& store = blocks_[geometry_.BlockOf(phys_page)];
    if (store.payload == nullptr) {
      store.payload = std::make_unique<std::shared_ptr<const Bytes>[]>(
          geometry_.pages_per_block);
    }
    store.payload[geometry_.PageInBlock(phys_page)] =
        std::make_shared<const Bytes>(data.begin(), data.end());
  }
  BookProgramTiming(phys_page);
  ++pages_programmed_;
  programs_->Increment();
  return Status::Ok();
}

Status NandFlash::ReadImpl(std::uint64_t phys_page, std::size_t bytes,
                           std::shared_ptr<const Bytes>* payload,
                           bool* fetched) {
  trace::SpanScope span(tracer_, trace::Category::kNandRead, bytes);
  if (phys_page >= geometry_.total_pages()) {
    return Status::InvalidArgument("read: physical page out of range");
  }
  if (bytes > geometry_.page_size) {
    return Status::InvalidArgument("read: span larger than a NAND page");
  }
  if (fault_plan_ != nullptr && fault_plan_->PowerLost(clock_->Now())) {
    return Status::IoError("read: power lost");
  }
  const std::uint8_t state = page_state_[phys_page];
  if (state == kErasedState) {
    return Status::IoError("read of erased page");
  }
  if (state == kFailedState) {
    return Status::MediaError("read of a failed-program page");
  }
  const std::uint64_t block = geometry_.BlockOf(phys_page);
  const std::uint32_t page = geometry_.PageInBlock(phys_page);
  fault::FaultPlan::ReadOutcome outcome = fault::FaultPlan::ReadOutcome::kOk;
  if (fault_plan_ != nullptr && fault_plan_->enabled()) {
    outcome = fault_plan_->NextReadOutcome(erase_counts_[block], phys_page);
  }
  BlockStore& store = blocks_[block];
  // An in-flight program must land before the page is readable.
  if (store.ready_at != nullptr) {
    sim::Nanoseconds& ready = store.ready_at[page];
    if (ready > clock_->Now()) {
      const sim::Nanoseconds wait = ready - clock_->Now();
      clock_->Advance(wait);
      ++read_stalls_;
      read_stall_ns_ += wait;
    }
    ready = 0;
  }
  *payload = store.payload == nullptr ? nullptr : store.payload[page];
  *fetched = true;
  if (cost_->nand_async_program) {
    // Reads are synchronous to the caller but contend on the die and the
    // channel bus like any other operation.
    const std::uint64_t die = DieOf(block);
    const std::uint32_t channel = ChannelOf(die);
    clock_->AdvanceTo(die_free_at_[die]);
    const sim::Nanoseconds sense_end = clock_->Now() + cost_->nand_read_ns;
    die_free_at_[die] = sense_end;
    die_busy_ns_[die] += cost_->nand_read_ns;
    const sim::Nanoseconds xfer_start =
        std::max(sense_end, channel_free_at_[channel]);
    channel_free_at_[channel] = xfer_start + cost_->nand_channel_xfer_ns;
    channel_busy_ns_[channel] += cost_->nand_channel_xfer_ns;
    clock_->AdvanceTo(channel_free_at_[channel]);
  } else {
    const std::uint64_t die = DieOf(block);
    clock_->AdvanceTo(die_free_at_[die]);
    clock_->Advance(cost_->nand_read_ns);
    die_free_at_[die] = clock_->Now();
    die_busy_ns_[die] += cost_->nand_read_ns;
  }
  ++pages_read_;
  reads_->Increment();
  if (outcome == fault::FaultPlan::ReadOutcome::kUncorrectable) {
    ++read_uncorrectable_;
    return Status::MediaError("uncorrectable read error");
  }
  if (outcome == fault::FaultPlan::ReadOutcome::kCorrectable) {
    // ECC read-retry recovers the data at a latency penalty.
    clock_->Advance(fault_plan_->config().ecc_retry_ns);
    ++ecc_corrections_;
    ecc_corrections_counter_->Increment();
  }
  return Status::Ok();
}

Status NandFlash::Read(std::uint64_t phys_page, MutByteSpan out) {
  std::shared_ptr<const Bytes> payload;
  bool fetched = false;
  const Status st = ReadImpl(phys_page, out.size(), &payload, &fetched);
  // Mirror the historical behaviour: the buffer is filled whenever the read
  // reached the media (even when ECC then reports it uncorrectable), and
  // untouched when a pre-media check failed.
  if (fetched) {
    if (payload == nullptr) {
      std::memset(out.data(), 0, out.size());  // Payload was not retained.
    } else {
      const std::size_t n = std::min(out.size(), payload->size());
      std::memcpy(out.data(), payload->data(), n);
      if (n < out.size()) std::memset(out.data() + n, 0, out.size() - n);
    }
  }
  return st;
}

Status NandFlash::ReadView(std::uint64_t phys_page,
                           std::shared_ptr<const Bytes>* out) {
  std::shared_ptr<const Bytes> payload;
  bool fetched = false;
  BANDSLIM_RETURN_IF_ERROR(
      ReadImpl(phys_page, geometry_.page_size, &payload, &fetched));
  *out = std::move(payload);
  return Status::Ok();
}

Status NandFlash::Erase(std::uint64_t block) {
  trace::SpanScope span(tracer_, trace::Category::kNandErase);
  if (block >= geometry_.total_blocks()) {
    return Status::InvalidArgument("erase: block out of range");
  }
  if (fault_plan_ != nullptr && fault_plan_->PowerLost(clock_->Now())) {
    return Status::IoError("erase: power lost");
  }
  if (fault_plan_ != nullptr && fault_plan_->enabled() &&
      fault_plan_->NextEraseFails(erase_counts_[block], block)) {
    // The die spends the erase time before reporting failure; page contents
    // are left as-is and the block is expected to be retired by the FTL.
    ++erase_counts_[block];
    const std::uint64_t die = DieOf(block);
    clock_->AdvanceTo(die_free_at_[die]);
    clock_->Advance(cost_->nand_erase_ns);
    die_free_at_[die] = clock_->Now();
    die_busy_ns_[die] += cost_->nand_erase_ns;
    ++erase_failures_;
    return Status::MediaError("erase failed");
  }
  const std::uint64_t first = geometry_.PageIndex(block, 0);
  std::fill_n(page_state_.begin() + static_cast<std::ptrdiff_t>(first),
              geometry_.pages_per_block, kErasedState);
  blocks_[block] = BlockStore{};  // Drops payloads and ready times.
  ++erase_counts_[block];
  if (cost_->nand_async_program) {
    // No data crosses the channel; the die is busy for the erase.
    const std::uint64_t die = DieOf(block);
    WaitForDieSlot(die);
    const sim::Nanoseconds start =
        std::max(clock_->Now(), die_free_at_[die]);
    die_free_at_[die] = start + cost_->nand_erase_ns;
    die_busy_ns_[die] += cost_->nand_erase_ns;
    die_pending_[die].push_back(die_free_at_[die]);
  } else {
    const std::uint64_t die = DieOf(block);
    clock_->AdvanceTo(die_free_at_[die]);
    clock_->Advance(cost_->nand_erase_ns);
    die_free_at_[die] = clock_->Now();
    die_busy_ns_[die] += cost_->nand_erase_ns;
  }
  ++blocks_erased_;
  erases_->Increment();
  return Status::Ok();
}

}  // namespace bandslim::nand
