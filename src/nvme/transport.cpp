#include "nvme/transport.h"

#include <algorithm>
#include <cassert>

#include "telemetry/telemetry.h"

namespace bandslim::nvme {

NvmeTransport::NvmeTransport(sim::VirtualClock* clock, const sim::CostModel* cost,
                             pcie::PcieLink* link, stats::MetricsRegistry* metrics,
                             std::uint16_t queue_depth, std::uint16_t num_queues,
                             fault::FaultPlan* fault_plan, trace::Tracer* tracer)
    : clock_(clock),
      cost_(cost),
      link_(link),
      fault_plan_(fault_plan),
      tracer_(tracer),
      queue_depth_(queue_depth),
      metrics_(metrics),
      submit_counter_(metrics->RegisterCounter("nvme.commands_submitted")),
      timeout_counter_(metrics->RegisterCounter("nvme.timeouts")),
      retry_counter_(metrics->RegisterCounter("nvme.retries")) {
  assert(num_queues >= 1);
  queues_.reserve(num_queues);
  for (std::uint16_t q = 0; q < num_queues; ++q) {
    queues_.emplace_back(queue_depth);
  }
}

std::uint16_t NvmeTransport::AllocateCid(QueuePair* qp) {
  const std::uint16_t cid = qp->next_cid++;
  assert(!qp->inflight_cids[cid] &&
         "CID reused while still in flight on this queue");
  qp->inflight_cids[cid] = 1;
  ++qp->inflight_count;
  return cid;
}

void NvmeTransport::ChargeCommand(bool first_in_batch) {
  if (parallel_arbitration_) {
    // The shared fetch/interpret unit takes commands one at a time; the
    // submitter's frame jumps to when its command clears arbitration plus
    // the host-visible latency for its position in the batch.
    const sim::Nanoseconds arb = std::max(clock_->Now(), fetch_busy_until_);
    fetch_busy_until_ = arb + cost_->cmd_pipelined_ns;
    clock_->SetTime(arb + (first_in_batch ? cost_->cmd_round_trip_ns
                                          : cost_->cmd_pipelined_ns));
  } else {
    clock_->Advance(first_in_batch ? cost_->cmd_round_trip_ns
                                   : cost_->cmd_pipelined_ns);
  }
}

CqEntry NvmeTransport::SubmitOne(QueuePair& qp, std::uint16_t queue_id,
                                 const NvmeCommand& cmd, bool first_in_batch) {
  const std::uint32_t max_attempts =
      fault_plan_ == nullptr ? 1
                             : 1 + fault_plan_->config().max_command_retries;
  for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    // With power lost no completion will ever arrive: the host watchdog
    // expires once and the command degrades to a synthetic timeout (a dead
    // device is not worth retrying).
    if (fault_plan_ != nullptr && fault_plan_->PowerLost(clock_->Now())) {
      {
        trace::SpanScope wait(tracer_, trace::Category::kTimeout);
        clock_->Advance(fault_plan_->config().command_timeout_ns);
      }
      ++timeouts_;
      timeout_counter_->Increment();
      if (event_log_ != nullptr) {
        event_log_->Emit(telemetry::EventType::kTimeout, queue_id, attempt);
      }
      CqEntry dead;
      dead.status = CqStatus::kTimedOut;
      dead.cid = cmd.cid();
      return dead;
    }
    // The SQ/CQ rings are modeled but not exercised by the synchronous
    // transport: a submission is fetched (and a completion reaped) before
    // the next one is pushed, so the entry would round-trip through the
    // ring untouched. The copies are skipped — ring capacity semantics are
    // covered by the ring's own unit tests, and command latency is charged
    // below via ChargeCommand, not by ring data movement. The CID never
    // has to be written into the command either: the device handlers don't
    // read it, so it is carried alongside and stamped on the completion.
    const std::uint16_t cid = AllocateCid(&qp);
    if (trace::Active(tracer_)) tracer_->SetCommandCid(cid);
    if (attempt > 0) {
      // Resubmission rings its own doorbell (the caller paid the first).
      link_->Record(pcie::TrafficClass::kMmio, pcie::Direction::kHostToDevice,
                    cost_->mmio_doorbell_bytes);
      if (trace::Active(tracer_)) {
        tracer_->InstantSpan(trace::Category::kDoorbell,
                             cost_->mmio_doorbell_bytes);
      }
    }

    if (fault_plan_ != nullptr && fault_plan_->enabled() &&
        fault_plan_->NextCommandDropped(cid)) {
      // The command is lost before the device fetches it: the host waits
      // out the watchdog, reclaims the slot, and backs off exponentially
      // before resubmitting.
      ReleaseCid(&qp, cid);
      {
        trace::SpanScope wait(tracer_, trace::Category::kTimeout);
        clock_->Advance(fault_plan_->config().command_timeout_ns);
      }
      ++timeouts_;
      timeout_counter_->Increment();
      if (event_log_ != nullptr) {
        event_log_->Emit(telemetry::EventType::kTimeout, queue_id, attempt);
      }
      if (attempt + 1 >= max_attempts) break;
      {
        trace::SpanScope backoff(tracer_, trace::Category::kRetryBackoff);
        clock_->Advance(fault_plan_->config().retry_backoff_ns << attempt);
      }
      ++retries_;
      retry_counter_->Increment();
      if (event_log_ != nullptr) {
        event_log_->Emit(telemetry::EventType::kRetryBackoff, queue_id,
                         attempt);
      }
      continue;
    }

    // Device: fetch the command (and the PRP list page, if any) from host
    // memory across PCIe.
    const std::uint64_t fetch_bytes =
        cost_->cmd_fetch_bytes + cmd.prp.ListFetchBytes();
    link_->Record(pcie::TrafficClass::kCommandFetch,
                  pcie::Direction::kHostToDevice, fetch_bytes);
    if (trace::Active(tracer_)) {
      tracer_->InstantSpan(trace::Category::kCmdFetch, fetch_bytes);
    }

    // One round trip of latency per command (submit + fetch + interpret +
    // complete + host wakeup); a resubmission always pays a full round
    // trip. Device-side work (DMA, memcpy, NAND) advances the clock inside
    // the handler.
    {
      trace::SpanScope arb(tracer_, trace::Category::kSubmission);
      ChargeCommand(first_in_batch || attempt > 0);
    }

    CqEntry cqe = device_->Handle(cmd, queue_id);
    cqe.cid = cid;

    // Device: post the completion entry to host memory across PCIe.
    link_->Record(pcie::TrafficClass::kCompletion,
                  pcie::Direction::kDeviceToHost, cost_->cqe_bytes);
    if (trace::Active(tracer_)) {
      tracer_->InstantSpan(trace::Category::kCompletion, cost_->cqe_bytes);
    }

    ReleaseCid(&qp, cqe.cid);
    ++commands_submitted_;
    ++qp.submitted;
    submit_counter_->Increment();
    return cqe;
  }
  // Retries exhausted: degrade gracefully to a host-synthesized timeout
  // completion rather than asserting.
  CqEntry timed_out;
  timed_out.status = CqStatus::kTimedOut;
  timed_out.cid = cmd.cid();
  return timed_out;
}

void NvmeTransport::SetAdmissionControl(std::uint16_t queue_id,
                                        std::uint32_t credits,
                                        sim::Nanoseconds busy_backoff_ns) {
  assert(queue_id < queues_.size());
  QueuePair& qp = queues_[queue_id];
  qp.admission_budget = credits;
  qp.admission_credits = credits;
  qp.busy_backoff_ns = busy_backoff_ns;
  // GetCounter (find-or-create) rather than RegisterCounter: admission may
  // be re-enabled after a PowerCycle rebind, and the counter must only
  // exist at all when the feature was turned on (export byte-identity for
  // control-free runs).
  if (credits > 0 && busy_counter_ == nullptr) {
    busy_counter_ = metrics_->GetCounter("nvme.busy_rejections");
  }
}

void NvmeTransport::RefillQueueCredits() {
  for (QueuePair& qp : queues_) {
    if (qp.admission_budget > 0) qp.admission_credits = qp.admission_budget;
  }
}

bool NvmeTransport::ShedIfOutOfCredits(QueuePair* qp, const NvmeCommand& cmd,
                                       CqEntry* rejected) {
  if (qp->admission_budget == 0) return false;
  // Trailing fragments ride on the head write's credit; shedding one would
  // tear the per-queue reassembly stream mid-value.
  if (cmd.opcode() == Opcode::kKvTransfer) return false;
  if (qp->admission_credits > 0) {
    --qp->admission_credits;
    return false;
  }
  // Out of credits: shed before the doorbell. The host waits out the
  // backoff (so shed-and-retry loops make forward progress in virtual
  // time), nothing is recorded on the PCIe link, and the device never sees
  // the command.
  clock_->Advance(qp->busy_backoff_ns);
  ++busy_rejections_;
  if (busy_counter_ != nullptr) busy_counter_->Increment();
  rejected->result = 0;
  rejected->cid = cmd.cid();
  rejected->status = CqStatus::kBusy;
  return true;
}

CqEntry NvmeTransport::Submit(std::uint16_t queue_id, const NvmeCommand& cmd) {
  assert(device_ != nullptr && "no device attached");
  assert(queue_id < queues_.size());
  QueuePair& qp = queues_[queue_id];

  CqEntry rejected;
  if (ShedIfOutOfCredits(&qp, cmd, &rejected)) {
    if (sampler_ != nullptr) sampler_->Poll();
    return rejected;
  }

  trace::CommandScope scope(tracer_, queue_id,
                            static_cast<std::uint8_t>(cmd.opcode()));
  // Host rings the doorbell for this submission.
  link_->Record(pcie::TrafficClass::kMmio, pcie::Direction::kHostToDevice,
                cost_->mmio_doorbell_bytes);
  if (trace::Active(tracer_)) {
    tracer_->InstantSpan(trace::Category::kDoorbell,
                         cost_->mmio_doorbell_bytes);
  }
  const CqEntry reaped = SubmitOne(qp, queue_id, cmd, /*first_in_batch=*/true);
  scope.Finish(static_cast<std::uint16_t>(reaped.status));
  if (sampler_ != nullptr) sampler_->Poll();
  return reaped;
}

void NvmeTransport::SubmitPipelined(std::uint16_t queue_id,
                                    std::span<const NvmeCommand> cmds,
                                    std::vector<CqEntry>* out) {
  assert(queue_id < queues_.size());
  QueuePair& qp = queues_[queue_id];
  std::vector<CqEntry>& completions = *out;
  completions.clear();
  completions.reserve(cmds.size());
  if (cmds.empty()) return;  // Nothing fetched; device untouched.
  assert(device_ != nullptr && "no device attached");

  // Admission is all-or-nothing per batch: one credit covers the whole
  // op (head + trailing fragments). Shedding mid-batch would leave the
  // device holding a partial fragment stream.
  CqEntry rejected;
  if (ShedIfOutOfCredits(&qp, cmds.front(), &rejected)) {
    completions.push_back(rejected);
    if (sampler_ != nullptr) sampler_->Poll();
    return;
  }

  bool first = true;
  for (const NvmeCommand& cmd : cmds) {
    trace::CommandScope scope(tracer_, queue_id,
                              static_cast<std::uint8_t>(cmd.opcode()));
    if (first) {
      // One doorbell ring covers the whole batch; attribute it to the
      // first command's window.
      link_->Record(pcie::TrafficClass::kMmio, pcie::Direction::kHostToDevice,
                    cost_->mmio_doorbell_bytes);
      if (trace::Active(tracer_)) {
        tracer_->InstantSpan(trace::Category::kDoorbell,
                             cost_->mmio_doorbell_bytes);
      }
    }
    // The ring may be smaller than the batch; with the device draining
    // entries synchronously here, push/pop per command is equivalent.
    completions.push_back(SubmitOne(qp, queue_id, cmd, first));
    scope.Finish(static_cast<std::uint16_t>(completions.back().status));
    if (sampler_ != nullptr) sampler_->Poll();
    first = false;
  }
}

NvmeTransport::QueueInfo NvmeTransport::QueueInfoAt(
    std::uint16_t queue_id) const {
  QueueInfo info;
  info.queue_id = queue_id;
  info.depth = queue_depth_;
  info.submitted = queues_[queue_id].submitted;
  info.inflight = queues_[queue_id].inflight_count;
  return info;
}

}  // namespace bandslim::nvme
