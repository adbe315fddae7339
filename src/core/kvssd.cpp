#include "core/kvssd.h"

namespace bandslim {

KvSsd::KvSsd(const KvSsdOptions& options)
    : options_(options),
      tracer_(&clock_, &metrics_, options.trace),
      fault_plan_(options.fault) {
  link_.AttachMetrics(&metrics_);
  sampler_ = std::make_unique<telemetry::Sampler>(&clock_,
                                                  options_.telemetry);
  // Event-log taps stay null on a disabled sampler: every emit site is then
  // a single pointer test and the log stays empty.
  telemetry::EventLog* elog =
      sampler_->enabled() ? &sampler_->event_log() : nullptr;
  fault_plan_.SetEventLog(elog);
  transport_ = std::make_unique<nvme::NvmeTransport>(
      &clock_, &options_.cost, &link_, &metrics_, options_.queue_depth,
      options_.num_queues, &fault_plan_, &tracer_);
  transport_->SetEventLog(elog);
  if (sampler_->enabled()) transport_->SetSampler(sampler_.get());
  dma_ = std::make_unique<dma::DmaEngine>(&clock_, &options_.cost, &link_,
                                          &host_memory_, &metrics_,
                                          options_.dma, &fault_plan_,
                                          &tracer_);
  nand_ = std::make_unique<nand::NandFlash>(options_.geometry, &clock_,
                                            &options_.cost, &metrics_,
                                            &fault_plan_, &tracer_);
  ftl_ = std::make_unique<ftl::PageFtl>(nand_.get(), &metrics_, options_.ftl,
                                        &tracer_, elog);
  AssembleDevice(options_.buffer.initial_lpn);
  driver_ = std::make_unique<driver::KvDriver>(transport_.get(), &host_memory_,
                                               options_.driver, &tracer_);
  BindTelemetry();
  // The controller ticks on the sample grid, so it exists only when both
  // the policy and telemetry are enabled; otherwise the observer slot stays
  // null and the run is bit-identical to a control-free build.
  if (options_.control.enabled && sampler_->enabled()) {
    loop_controller_ = std::make_unique<control::LoopController>(
        options_.control, sampler_.get());
    sampler_->SetObserver(loop_controller_.get());
    BindControl();
  }
}

KvSsd::~KvSsd() = default;

void KvSsd::AssembleDevice(std::uint64_t vlog_start_lpn) {
  buffer::BufferConfig buf = options_.buffer;
  buf.initial_lpn = vlog_start_lpn;
  vlog_ = std::make_unique<vlog::VLog>(ftl_.get(), &clock_, &options_.cost,
                                       &metrics_, buf,
                                       options_.retain_payloads, &tracer_);
  // Recomputed here (not captured from the ctor) because PowerCycle also
  // reassembles the device.
  telemetry::EventLog* elog =
      sampler_->enabled() ? &sampler_->event_log() : nullptr;
  lsm_ = std::make_unique<lsm::LsmTree>(ftl_.get(), &metrics_, options_.lsm,
                                        elog);
  controller_ = std::make_unique<controller::KvController>(
      &clock_, &options_.cost, &metrics_, dma_.get(), vlog_.get(), lsm_.get(),
      options_.controller, &tracer_);
  transport_->AttachDevice(controller_.get());
}

void KvSsd::BindControl() {
  control::LoopController::Actuators act;
  act.driver = driver_.get();
  act.ftl = ftl_.get();
  act.lsm = lsm_.get();
  act.transport = transport_.get();
  loop_controller_->BindActuators(act);
  loop_controller_->Reset();
}

void KvSsd::BindTelemetry() {
  if (!sampler_->enabled()) return;
  telemetry::Sampler::Sources src;
  src.metrics = &metrics_;
  src.link = &link_;
  src.transport = transport_.get();
  src.nand = nand_.get();
  src.ftl = ftl_.get();
  src.buffer = &vlog_->buffer();
  src.lsm = lsm_.get();
  sampler_->Bind(src);
}

Result<std::unique_ptr<KvSsd>> KvSsd::Open(const KvSsdOptions& options) {
  const nand::NandGeometry& g = options.geometry;
  // Exact in 128 bits: four 32-bit factors cannot overflow it.
  const unsigned __int128 pages = static_cast<unsigned __int128>(g.channels) *
                                  g.ways * g.blocks_per_die * g.pages_per_block;
  if (pages == 0) {
    return Status::InvalidArgument("empty NAND geometry");
  }
  if (pages > ftl::PageFtl::kMaxPhysicalPages) {
    return Status::InvalidArgument(
        "NAND geometry exceeds the FTL's 32-bit physical page numbers");
  }
  if (options.buffer.num_entries < 2) {
    return Status::InvalidArgument("buffer needs at least two entries");
  }
  if (options.telemetry.enabled && options.telemetry.sample_interval_ns == 0) {
    return Status::InvalidArgument("telemetry.sample_interval_ns must be > 0");
  }
  return std::unique_ptr<KvSsd>(new KvSsd(options));
}

Result<driver::KvDriver*> KvSsd::CreateQueueDriver(
    std::uint16_t queue_id, driver::DriverConfig config) {
  if (queue_id >= options_.num_queues) {
    return Status::InvalidArgument("queue id beyond num_queues");
  }
  config.queue_id = queue_id;
  extra_drivers_.push_back(std::make_unique<driver::KvDriver>(
      transport_.get(), &host_memory_, config, &tracer_));
  return extra_drivers_.back().get();
}

Status KvSsd::Put(std::string_view key, ByteSpan value) {
  return driver_->Put(key, value);
}

Status KvSsd::PutBatch(std::span<const driver::KvDriver::KvPair> batch) {
  return driver_->PutBatch(batch);
}

Result<std::vector<driver::KvDriver::BatchGetResult>> KvSsd::GetBatch(
    std::span<const std::string> keys) {
  return driver_->GetBatch(keys);
}

Result<std::uint32_t> KvSsd::DeleteBatch(std::span<const std::string> keys) {
  return driver_->DeleteBatch(keys);
}

Result<Bytes> KvSsd::Get(std::string_view key) { return driver_->Get(key); }

Status KvSsd::GetInto(std::string_view key, Bytes* value) {
  return driver_->GetInto(key, value);
}

Status KvSsd::Delete(std::string_view key) { return driver_->Delete(key); }

Result<std::uint32_t> KvSsd::Exists(std::string_view key) {
  return driver_->Exists(key);
}

Status KvSsd::Flush() { return driver_->Flush(); }

Result<driver::KvDriver::Iterator> KvSsd::Seek(std::string_view from) {
  return driver_->Seek(from);
}

Result<std::uint64_t> KvSsd::CollectVlogGarbage() {
  trace::OpScope op(&tracer_, trace::OpType::kGc, /*queue_id=*/0);
  auto relocated = controller_->CollectVlogSegment();
  op.set_ok(relocated.ok());
  if (sampler_->enabled()) {
    if (relocated.ok()) {
      sampler_->event_log().Emit(telemetry::EventType::kVlogGc,
                                 relocated.value());
    }
    sampler_->Poll();
  }
  return relocated;
}

Status KvSsd::PowerCycle() {
  // Device DRAM contents vanish; NAND and the FTL map are the durable state
  // (a real FTL persists its map through its own journal — out of scope).
  AssembleDevice(/*vlog_start_lpn=*/0);
  auto cookie = lsm_->Restore();
  if (!cookie.ok()) return cookie.status();
  // Restart the vLog tail after the checkpointed page.
  AssembleDevice(cookie.value());
  auto again = lsm_->Restore();
  if (!again.ok()) return again.status();
  // The vLog (and so the sampler's buffer source) was rebuilt: re-bind.
  BindTelemetry();
  // The LSM actuator was rebuilt too, and control settings are re-derived
  // from the policy base, never recovered from pre-cycle state — a crash
  // mid-actuation cannot leave a stale threshold or deferral behind.
  if (loop_controller_ != nullptr) BindControl();
  if (sampler_->enabled()) {
    sampler_->event_log().Emit(telemetry::EventType::kPowerCycle);
    sampler_->Poll();
  }
  return Status::Ok();
}

Status KvSsd::Recover() {
  trace::OpScope op(&tracer_, trace::OpType::kRecovery, /*queue_id=*/0);
  // Power comes back: clear the latch so the remount's own NAND reads work,
  // then rebuild device DRAM state from the last durable checkpoint.
  fault_plan_.ClearCrash();
  BANDSLIM_RETURN_IF_ERROR(PowerCycle());
  // Mount-time consistency pass: the checkpoint cookie is the vLog tail at
  // Flush() time, and every page below it was fully programmed before the
  // manifest landed. A live reference reaching at or past that boundary
  // would let a GET return a torn (partially flushed) value — reject the
  // mount instead of serving it.
  const std::uint64_t durable_end =
      vlog_->buffer().window_base_addr();
  std::uint64_t live_refs = 0;
  Status torn = Status::Ok();
  BANDSLIM_RETURN_IF_ERROR(
      lsm_->ForEachLive([&](std::string_view key, const lsm::ValueRef& ref) {
        ++live_refs;
        if (ref.addr + ref.size > durable_end) {
          torn = Status::Corruption("torn value reference for key " +
                                    std::string(key));
        }
      }));
  BANDSLIM_RETURN_IF_ERROR(torn);
  metrics_.GetCounter("kvssd.recovery_runs")->Increment();
  metrics_.GetCounter("kvssd.recovery_replayed_refs")->Add(live_refs);
  if (sampler_->enabled()) {
    sampler_->event_log().Emit(telemetry::EventType::kRecover, live_refs);
    sampler_->Poll();
  }
  return Status::Ok();
}

// Every stat is assembled from named MetricsRegistry counters, so GetStats,
// Inspect().counters and metrics().ToString() can never disagree. Registry
// counters survive PowerCycle()/Recover() (the per-component objects are
// rebuilt, the registry is not), so all stats are monotone for the device's
// lifetime.
KvSsdStats KvSsd::GetStats() const {
  const auto c = [this](const char* name) {
    return metrics_.CounterValue(name);
  };
  KvSsdStats s;
  s.elapsed_ns = clock_.Now();
  s.commands_submitted = c("nvme.commands_submitted");
  s.pcie_h2d_bytes = c("pcie.mmio.h2d_bytes") + c("pcie.cmd_fetch.h2d_bytes") +
                     c("pcie.dma_data.h2d_bytes") +
                     c("pcie.completion.h2d_bytes");
  s.pcie_d2h_bytes = c("pcie.mmio.d2h_bytes") + c("pcie.cmd_fetch.d2h_bytes") +
                     c("pcie.dma_data.d2h_bytes") +
                     c("pcie.completion.d2h_bytes");
  s.mmio_bytes = c("pcie.mmio.h2d_bytes");
  s.dma_h2d_bytes = c("pcie.dma_data.h2d_bytes");
  s.nand_pages_programmed = c("nand.pages_programmed");
  s.nand_pages_read = c("nand.pages_read");
  s.nand_blocks_erased = c("nand.blocks_erased");
  s.vlog_pages_flushed = c("buffer.flushed_pages");
  s.lsm_pages_programmed = c("ftl.programs.lsm");
  s.gc_pages_programmed = c("ftl.programs.gc");
  s.device_memcpy_bytes =
      c("buffer.memcpy_bytes") + c("controller.read_memcpy_bytes");
  s.buffer_wasted_bytes = c("buffer.wasted_bytes");
  s.dlt_forced_evictions = c("buffer.dlt_forced_evictions");
  s.values_written = c("controller.values_written");
  s.value_bytes_written = c("controller.value_bytes_written");
  s.lsm_compactions = c("lsm.compactions");
  s.memtable_flushes = c("lsm.memtable_flushes");
  s.nvme_timeouts = c("nvme.timeouts");
  s.nvme_retries = c("nvme.retries");
  s.nand_program_failures = c("nand.program_failures");
  s.ecc_corrections = c("nand.ecc_corrections");
  s.bad_block_remaps = c("ftl.bad_block_remaps");
  s.recovery_runs = c("kvssd.recovery_runs");
  s.recovery_replayed_refs = c("kvssd.recovery_replayed_refs");
  return s;
}

StoreSnapshot KvSsd::Inspect() const {
  StoreSnapshot store;
  InspectInto(&store);
  return store;
}

void KvSsd::InspectInto(StoreSnapshot* out) const {
  out->stats = GetStats();
  out->shards.resize(1);
  InspectDeviceInto(&out->shards[0]);
  // Router-level accounting and fleet-level alerts: none on a bare device.
  out->batch_subops = 0;
  out->cross_shard_batches = 0;
  out->qos_refill_windows = 0;
  out->alerts.clear();
  out->fleet_samples = 0;
  out->fleet_events = 0;
}

DeviceSnapshot KvSsd::InspectDevice() const {
  DeviceSnapshot snap;
  InspectDeviceInto(&snap);
  return snap;
}

void KvSsd::InspectDeviceInto(DeviceSnapshot* out) const {
  out->stats = GetStats();
  out->queues.resize(transport_->num_queue_pairs());
  for (std::size_t q = 0; q < out->queues.size(); ++q) {
    const nvme::NvmeTransport::QueueInfo info =
        transport_->QueueInfoAt(static_cast<std::uint16_t>(q));
    out->queues[q] = {info.queue_id, info.depth, info.submitted,
                      info.inflight};
  }
  const buffer::NandPageBuffer& buf = vlog_->buffer();
  out->buffer_window_base = buf.window_base_addr();
  out->vlog_tail = buf.wp();
  out->buffer_dma_frontier = buf.dma_frontier();
  out->buffer_resident_bytes = buf.wp() - buf.window_base_addr();
  out->ftl_mapped_pages = ftl_->mapped_pages();
  out->ftl_free_blocks = ftl_->free_blocks();
  out->ftl_reserve_blocks = ftl_->reserve_remaining();
  out->ftl_bad_blocks = ftl_->bad_blocks();
  out->lsm_memtable_entries = lsm_->memtable_entries();
  out->lsm_memtable_bytes = lsm_->memtable_bytes();
  out->lsm_pending_trim_tables = lsm_->pending_trim_tables();
  out->lsm_compaction_debt_bytes = lsm_->CompactionDebtBytes();
  out->lsm_levels.resize(static_cast<std::size_t>(lsm_->level_count()));
  for (int l = 0; l < lsm_->level_count(); ++l) {
    out->lsm_levels[static_cast<std::size_t>(l)] = {lsm_->TableCount(l),
                                                    lsm_->LevelBytes(l)};
  }
  metrics_.SnapshotCountersInto(&out->counters);
  out->telemetry_samples = sampler_->samples_emitted();
  out->telemetry_events = sampler_->event_log().total_emitted();
  CopyAlerts(sampler_->watchdog(), &out->alerts);
}

void CopyAlerts(const telemetry::Watchdog& watchdog,
                std::vector<DeviceSnapshot::AlertInfo>* alerts) {
  alerts->resize(watchdog.rules().size());
  for (std::size_t i = 0; i < watchdog.rules().size(); ++i) {
    const telemetry::AlertState& st = watchdog.states()[i];
    DeviceSnapshot::AlertInfo& a = (*alerts)[i];
    a.rule.assign(watchdog.rules()[i].name);  // Reuses the string's capacity.
    a.fired = st.fired;
    a.cleared = st.cleared;
    a.active = st.active;
    a.last_value = st.last_value;
    a.last_fire_ns = st.last_fire_ns;
  }
}

KvSsd::TestHooks KvSsd::Hooks() {
  TestHooks hooks;
  hooks.clock = &clock_;
  hooks.transport = transport_.get();
  hooks.fault_plan = &fault_plan_;
  hooks.driver = driver_.get();
  hooks.tracer = &tracer_;
  hooks.sampler = sampler_.get();
  hooks.metrics = &metrics_;
  return hooks;
}

}  // namespace bandslim
