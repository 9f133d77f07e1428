#include "rt/world.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "obs/analysis.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace gnb::rt {

World::World(std::size_t nranks)
    : nranks_(nranks),
      mail_(nranks * nranks),
      u64_slots_(nranks * nranks, 0),
      dbl_slots_(nranks, 0),
      alive_(nranks, 1),
      alive_count_(nranks),
      last_open_alive_(nranks, 1),
      rejoin_epochs_(nranks, 0),
      last_open_rejoin_(nranks, 0) {
  GNB_CHECK_MSG(nranks >= 1, "world needs at least one rank");
  split_done_.reserve(nranks);
  endpoints_.reserve(nranks);
  for (std::size_t r = 0; r < nranks; ++r) {
    split_done_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
    endpoints_.push_back(std::make_unique<RpcEndpoint>(static_cast<std::uint32_t>(r), &endpoints_));
  }
}

World::~World() = default;

Rank::Rank(World& world, RankId id)
    : world_(world), id_(id), agreed_alive_(world.nranks(), 1),
      agreed_rejoin_(world.nranks(), 0) {}

std::size_t Rank::nranks() const { return world_.nranks_; }

const FaultInjector* Rank::faults() const { return world_.injector_.get(); }

DurableStore& Rank::durable() { return world_.durable_; }

std::uint64_t Rank::current_epoch() const {
  return world_.epoch_.load(std::memory_order_acquire);
}

bool Rank::is_alive_now(RankId r) const { return world_.endpoints_[r]->is_alive(); }

void Rank::maybe_straggle() {
  const FaultInjector* injector = world_.injector_.get();
  if (!injector) return;
  const std::uint32_t pause_us = injector->straggle_us(id_, straggle_entry_++);
  if (pause_us > 0) {
    GNB_INSTANT(obs::span::kFaultStraggle, "us", pause_us);
    std::this_thread::sleep_for(std::chrono::microseconds(pause_us));
  }
}

void Rank::crash_point() {
  const std::uint64_t step = fault_step_++;
  const FaultInjector* injector = world_.injector_.get();
  if (!injector) return;
  // A restarted rank's crash schedule is spent: its at-or-before semantics
  // would otherwise kill the comeback at its very first collective.
  if (incarnation_ > 0) return;
  if (injector->crashes_at(id_, step)) {
    GNB_INSTANT(obs::span::kFaultCrash, "step", step);
    world_.kill(id_);
    throw RankDeath{};
  }
}

void World::open_gate_locked() {
  // Admission happens strictly before the stamp is taken, so the ranks
  // exiting this gate — including the comeback itself — all observe the
  // rejoiner alive at its agreed rejoin epoch. A gate admits only when
  // every arrival this generation declared itself an admission point
  // (SPMD discipline: all alive ranks sit at the same admitting call
  // site), which also covers the kill-opens-gate path.
  if (admit_intent_ > 0 && admit_intent_ >= gate_arrived_ && !admission_waiters_.empty()) {
    // All arrived survivors sit at the same admitting barrier, so their
    // split counters agree; the admitted rank aligns to that count.
    std::uint64_t split_now = 0;
    for (std::size_t r = 0; r < nranks_; ++r) {
      if (alive_[r]) {
        split_now = split_done_[r]->load(std::memory_order_acquire);
        break;
      }
    }
    for (Waiter* waiter : admission_waiters_) {
      if (waiter->admitted || waiter->abandoned) continue;
      // A comeback parked in one protocol's gate stream must not be
      // admitted into another's (phase tags; see admitting_barrier).
      // Foreign-phase gates do not consume the skip budget either.
      if (waiter->phase != admit_phase_) continue;
      if (waiter->skip_left > 0) {
        --waiter->skip_left;
        continue;
      }
      const RankId r = waiter->rank;
      alive_[r] = 1;
      ++alive_count_;
      epoch_.fetch_add(1, std::memory_order_release);
      rejoin_epochs_[r] = epoch_.load(std::memory_order_relaxed);
      last_open_split_ = split_now;
      split_done_[r]->store(split_now, std::memory_order_release);
      endpoints_[r]->revive();
      waiter->admitted = true;
      ++running_;
    }
  }
  admit_intent_ = 0;
  last_open_epoch_ = epoch_.load(std::memory_order_relaxed);
  last_open_alive_ = alive_;
  last_open_rejoin_ = rejoin_epochs_;
  gate_arrived_ = 0;
  ++gate_generation_;
  gate_cv_.notify_all();
}

void World::gate_wait(Rank& rank, bool admitting, std::uint32_t phase) {
  std::unique_lock<std::mutex> lock(gate_mutex_);
  const std::uint64_t generation = gate_generation_;
  ++gate_arrived_;
  if (admitting) {
    ++admit_intent_;
    admit_phase_ = phase;  // all admitting arrivals sit at the same call site
  }
  if (gate_arrived_ >= alive_count_) {
    open_gate_locked();
  } else {
    gate_cv_.wait(lock, [&] { return gate_generation_ != generation; });
  }
  // Copy the opener's stamp while still holding the lock: every rank that
  // exits this gate generation holds the identical (epoch, alive) pair.
  rank.agreed_epoch_ = last_open_epoch_;
  rank.agreed_alive_ = last_open_alive_;
  rank.agreed_rejoin_ = last_open_rejoin_;
}

bool World::admission_wait(Rank& rank, std::uint32_t phase) {
  const FaultInjector* injector = injector_.get();
  Waiter waiter;
  waiter.rank = rank.id_;
  waiter.phase = phase;
  if (injector) {
    if (const auto skip = injector->restart_after(rank.id_)) waiter.skip_left = *skip;
  }
  std::unique_lock<std::mutex> lock(gate_mutex_);
  admission_waiters_.push_back(&waiter);
  // While parked this thread cannot reach a gate: it neither blocks the
  // survivors' collectives nor counts as able to admit anyone.
  --running_;
  if (running_ == 0) abandon_waiters_locked();
  gate_cv_.wait(lock, [&] { return waiter.admitted || waiter.abandoned; });
  std::erase(admission_waiters_, &waiter);
  if (!waiter.admitted) {
    // Abandoned: the thread is active again until it unwinds and exits
    // (thread_exited will take the matching decrement).
    ++running_;
    return false;
  }
  // Exit as if this rank had passed the admitting gate that re-admitted
  // it: copy the stamp (which already shows it alive) and align the
  // split-barrier clock to the survivors' count captured at admission.
  rank.agreed_epoch_ = last_open_epoch_;
  rank.agreed_alive_ = last_open_alive_;
  rank.agreed_rejoin_ = last_open_rejoin_;
  rank.split_phase_ = last_open_split_;
  ++rank.fault_counters_.rejoins;
  GNB_INSTANT(obs::span::kRejoinAdmit, "epoch", rank.agreed_epoch_);
  return true;
}

void World::thread_exited() {
  std::lock_guard<std::mutex> lock(gate_mutex_);
  --running_;
  if (running_ == 0) abandon_waiters_locked();
}

void World::abandon_waiters_locked() {
  bool any = false;
  for (Waiter* waiter : admission_waiters_) {
    if (!waiter->admitted && !waiter->abandoned) {
      waiter->abandoned = true;
      any = true;
    }
  }
  if (any) gate_cv_.notify_all();
}

bool Rank::admitting_barrier(std::uint32_t phase) {
  // A parked comeback's first collective is its admission arrival; a live
  // rank's is a plain barrier that also marks this gate as an admission
  // point.
  if (!world_.endpoints_[id_]->is_alive()) return world_.admission_wait(*this, phase);
  GNB_SPAN(obs::span::kCollBarrier);
  crash_point();
  maybe_straggle();
  world_.gate_wait(*this, /*admitting=*/true, phase);
  return true;
}

void Rank::prepare_rejoin() {
  ++incarnation_;
  split_phase_ = 0;  // realigned from the admission stamp
  world_.endpoints_[id_]->reset_for_rejoin();
}

void World::kill(RankId id) {
  // Endpoint first, then the epoch bump: any rank that observes the new
  // epoch is guaranteed to also observe the endpoint's death flag.
  endpoints_[id]->mark_dead();
  {
    std::lock_guard<std::mutex> lock(gate_mutex_);
    GNB_CHECK_MSG(alive_[id], "rank " << id << " died twice");
    alive_[id] = 0;
    --alive_count_;
    GNB_CHECK_MSG(alive_count_ > 0, "crash schedule killed every rank");
    epoch_.fetch_add(1, std::memory_order_release);
    // If the victim was the last straggler a pending gate was waiting for,
    // open it on their behalf — the waiters must not hang for a ghost.
    if (gate_arrived_ > 0 && gate_arrived_ >= alive_count_) open_gate_locked();
  }
  for (std::size_t r = 0; r < nranks_; ++r)
    if (r != id && endpoints_[r]->is_alive())
      endpoints_[r]->notify_peer_death(id);
}

void Rank::barrier() {
  GNB_SPAN(obs::span::kCollBarrier);
  crash_point();
  maybe_straggle();
  world_.gate_wait(*this);
}

double Rank::allreduce_sum(double local) {
  const auto values = allgather(local);
  double sum = 0;
  for (std::size_t r = 0; r < values.size(); ++r)
    if (agreed_alive_[r]) sum += values[r];
  return sum;
}

double Rank::allreduce_min(double local) {
  const auto values = allgather(local);
  double best = local;
  for (std::size_t r = 0; r < values.size(); ++r)
    if (agreed_alive_[r]) best = std::min(best, values[r]);
  return best;
}

double Rank::allreduce_max(double local) {
  const auto values = allgather(local);
  double best = local;
  for (std::size_t r = 0; r < values.size(); ++r)
    if (agreed_alive_[r]) best = std::max(best, values[r]);
  return best;
}

std::vector<double> Rank::allgather(double local) {
  GNB_SPAN(obs::span::kCollAllgather);
  crash_point();
  world_.dbl_slots_[id_] = local;
  world_.gate_wait(*this);
  std::vector<double> values(world_.nranks_, 0);
  for (std::size_t r = 0; r < world_.nranks_; ++r)
    if (agreed_alive_[r]) values[r] = world_.dbl_slots_[r];
  world_.gate_wait(*this);
  return values;
}

std::vector<Bytes> Rank::alltoallv(std::vector<Bytes> send) {
  GNB_CHECK_MSG(send.size() == world_.nranks_,
                "alltoallv: send has " << send.size() << " buffers for " << world_.nranks_
                                       << " ranks");
  GNB_SPAN(obs::span::kCollAlltoallv);
  crash_point();
  maybe_straggle();
  const std::size_t p = world_.nranks_;
  for (std::size_t dst = 0; dst < p; ++dst)
    world_.mail_[dst * p + id_] = std::move(send[dst]);
  world_.gate_wait(*this);
  std::vector<Bytes> received(p);
  for (std::size_t src = 0; src < p; ++src) {
    received[src] = std::move(world_.mail_[id_ * p + src]);
    // A slot whose writer is dead holds stale bytes from an older
    // collective (the victim died *before* writing this round): drop them.
    if (!agreed_alive_[src]) received[src].clear();
  }
  world_.gate_wait(*this);
  return received;
}

std::vector<std::uint64_t> Rank::alltoall(const std::vector<std::uint64_t>& send) {
  GNB_CHECK(send.size() == world_.nranks_);
  GNB_SPAN(obs::span::kCollAlltoall);
  crash_point();
  maybe_straggle();
  const std::size_t p = world_.nranks_;
  for (std::size_t dst = 0; dst < p; ++dst) world_.u64_slots_[dst * p + id_] = send[dst];
  world_.gate_wait(*this);
  std::vector<std::uint64_t> received(p, 0);
  for (std::size_t src = 0; src < p; ++src)
    if (agreed_alive_[src]) received[src] = world_.u64_slots_[id_ * p + src];
  world_.gate_wait(*this);
  return received;
}

Bytes Rank::broadcast(Bytes buffer, RankId root) {
  crash_point();
  const std::size_t p = world_.nranks_;
  if (id_ == root) {
    for (std::size_t dst = 0; dst < p; ++dst)
      world_.mail_[dst * p + root] = buffer;  // copy per destination
  }
  world_.gate_wait(*this);
  Bytes received = std::move(world_.mail_[id_ * p + root]);
  if (!agreed_alive_[root]) received.clear();
  world_.gate_wait(*this);
  return received;
}

std::vector<Bytes> Rank::gather(Bytes local, RankId root) {
  crash_point();
  const std::size_t p = world_.nranks_;
  world_.mail_[root * p + id_] = std::move(local);
  world_.gate_wait(*this);
  std::vector<Bytes> received;
  if (id_ == root) {
    received.resize(p);
    for (std::size_t src = 0; src < p; ++src) {
      received[src] = std::move(world_.mail_[root * p + src]);
      if (!agreed_alive_[src]) received[src].clear();
    }
  }
  world_.gate_wait(*this);
  return received;
}

double Rank::exscan_sum(double local) {
  const auto values = allgather(local);
  double prefix = 0;
  for (RankId r = 0; r < id_; ++r)
    if (agreed_alive_[r]) prefix += values[r];
  return prefix;
}

RpcEndpoint& Rank::rpc() { return *world_.endpoints_[id_]; }

void Rank::split_barrier_arrive() {
  crash_point();
  world_.split_done_[id_]->fetch_add(1, std::memory_order_acq_rel);
}

void Rank::split_barrier_wait() {
  // Every alive rank must have arrived as many times as this rank's local
  // phase count; ranks that die while the barrier is pending are excluded
  // on the next poll, so the wait never hangs for a ghost.
  GNB_SPAN(obs::span::kCollSplitBarrier);
  split_phase_ += 1;
  for (;;) {
    bool done = true;
    for (std::size_t r = 0; r < world_.nranks_; ++r) {
      if (!world_.endpoints_[r]->is_alive()) continue;
      if (world_.split_done_[r]->load(std::memory_order_acquire) < split_phase_) {
        done = false;
        break;
      }
    }
    if (done) break;
    if (rpc().progress() == 0) std::this_thread::yield();
  }
}

void Rank::service_barrier() {
  GNB_SPAN(obs::span::kCollServiceBarrier);
  split_barrier_arrive();
  split_barrier_wait();
}

void World::set_faults(const FaultPlan& plan) {
  for (const CrashEvent& crash : plan.crashes)
    GNB_THROW_IF(crash.rank >= nranks_,
                 "faults: crash names rank " << crash.rank << " but the world has only "
                                             << nranks_ << " ranks");
  for (const PartitionEvent& cut : plan.partitions)
    GNB_THROW_IF(cut.a >= nranks_ || cut.b >= nranks_,
                 "faults: partition names rank " << std::max(cut.a, cut.b)
                                                 << " but the world has only " << nranks_
                                                 << " ranks");
  for (const RestartEvent& event : plan.restarts)
    GNB_THROW_IF(event.rank >= nranks_,
                 "faults: restart names rank " << event.rank << " but the world has only "
                                               << nranks_ << " ranks");
  for (const CorruptEvent& event : plan.corrupts)
    GNB_THROW_IF(event.rank >= nranks_,
                 "faults: corrupt names rank " << event.rank << " but the world has only "
                                               << nranks_ << " ranks");
  injector_ = plan.enabled() ? std::make_unique<FaultInjector>(plan) : nullptr;
  for (auto& endpoint : endpoints_) endpoint->set_fault_injector(injector_.get());
  durable_.set_injector(injector_.get());
}

void World::set_detector_lease(std::uint64_t ticks) {
  for (auto& endpoint : endpoints_) endpoint->set_detector_lease(ticks);
}

void World::run(const std::function<void(Rank&)>& body) {
  {
    std::lock_guard<std::mutex> lock(gate_mutex_);
    gate_generation_ = 0;
    gate_arrived_ = 0;
    alive_.assign(nranks_, 1);
    alive_count_ = nranks_;
    last_open_epoch_ = 0;
    last_open_alive_.assign(nranks_, 1);
    rejoin_epochs_.assign(nranks_, 0);
    last_open_rejoin_.assign(nranks_, 0);
    last_open_split_ = 0;
    admission_waiters_.clear();
    admit_intent_ = 0;
    running_ = nranks_;
  }
  epoch_.store(0, std::memory_order_release);
  for (auto& done : split_done_) done->store(0, std::memory_order_relaxed);
  for (auto& slot : mail_) slot.clear();
  std::fill(u64_slots_.begin(), u64_slots_.end(), 0);
  std::fill(dbl_slots_.begin(), dbl_slots_.end(), 0);
  durable_.reset(nranks_);
  for (auto& endpoint : endpoints_) {
    endpoint->begin_phase();  // before revive: the drained-check exempts dead endpoints
    endpoint->revive();
  }

  // Each existing track's event count: this run's breakdowns attribute
  // only the events recorded after it (tracks made during the run start
  // at 0).
  obs::Tracer& tracer = obs::Tracer::instance();
  const std::uint64_t dropped_before = tracer.dropped();
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> trace_start;
  for (const obs::TraceBuffer* buf : tracer.buffers())
    trace_start[{buf->pid(), buf->tid()}] = buf->events().size();

  std::vector<std::unique_ptr<Rank>> ranks;
  ranks.reserve(nranks_);
  for (std::size_t r = 0; r < nranks_; ++r)
    ranks.push_back(std::make_unique<Rank>(*this, static_cast<RankId>(r)));

  std::exception_ptr unrecoverable;
  std::mutex unrecoverable_mutex;
  {
    std::vector<std::jthread> threads;
    threads.reserve(nranks_);
    for (std::size_t r = 0; r < nranks_; ++r) {
      threads.emplace_back([&, r] {
        // Each rank thread owns one trace track: rank -> pid, core -> tid
        // (one core per rank in the threaded runtime). Real runs stamp the
        // monotonic clock; the simulator emits the same span names on a
        // virtual clock (see sim/perf_model.cpp).
        if (tracer.enabled()) {
          obs::Tracer::bind(tracer.buffer(static_cast<std::uint32_t>(r), 0,
                                          "rank " + std::to_string(r), "core 0"));
        }
        for (;;) {
          try {
            body(*ranks[r]);
          } catch (const RankDeath&) {
            // A scheduled crash: the rank already removed itself from the
            // membership. With a scheduled comeback the thread re-runs the
            // body — empty volatile state, durable log intact — and the
            // body's rejoin path parks at the next admission point.
            if (injector_ && injector_->restart_after(static_cast<std::uint32_t>(r)) &&
                ranks[r]->incarnation_ == 0) {
              ranks[r]->prepare_rejoin();
              continue;
            }
          } catch (const UnrecoverableError&) {
            // Bounded-recovery give-up: thrown unanimously by every alive
            // rank (the attempt counts are collective), so joining and
            // rethrowing on the driver is deadlock-free.
            std::lock_guard<std::mutex> lock(unrecoverable_mutex);
            if (!unrecoverable) unrecoverable = std::current_exception();
          } catch (const std::exception& e) {
            // Any other loss has no recovery story: a silently missing rank
            // would deadlock the others at the next collective, so fail fast.
            std::fprintf(stderr, "rank %zu threw: %s; aborting world\n", r, e.what());
            std::abort();
          } catch (...) {
            std::fprintf(stderr, "rank %zu threw; aborting world\n", r);
            std::abort();
          }
          break;
        }
        thread_exited();
        obs::Tracer::bind(nullptr);
      });
    }
  }  // jthreads join here

  // Trace-ring drops during this phase: a non-zero count means the trace
  // undercounts spans and any downstream analysis is truncated. Surface it
  // as a counted metric (gnbody also warns loudly at end of run).
  const std::uint64_t dropped_delta = tracer.dropped() - dropped_before;

  // The phase seconds are a view of the trace: every track of rank r (its
  // rank thread, pid r tid 0, and its alignment workers, tid 1 + w)
  // charges rank r through the attribution `gnbody perf report` uses.
  std::vector<obs::analysis::TrackStats> phases(nranks_);
  if (tracer.enabled()) {
    std::vector<obs::analysis::TrackEvents> tracks;
    for (const obs::TraceBuffer* buf : tracer.buffers()) {
      if (buf->pid() >= nranks_) continue;
      const auto start = trace_start.find({buf->pid(), buf->tid()});
      obs::analysis::TrackEvents& track = tracks.emplace_back();
      track.pid = buf->pid();
      track.tid = buf->tid();
      track.events = buf->events().subspan(start == trace_start.end() ? 0 : start->second);
    }
    const obs::analysis::Trace trace = obs::analysis::build_trace(tracks, dropped_delta);
    for (const obs::analysis::Track& track : trace.tracks)
      obs::analysis::add_track_stats(phases[track.pid], track);
  }

  breakdowns_.clear();
  breakdowns_.reserve(nranks_);
  metrics_.clear();
  for (std::size_t r = 0; r < nranks_; ++r) {
    using obs::analysis::Category;
    const double* seconds = phases[r].seconds;
    stat::Breakdown breakdown;
    breakdown.compute = seconds[static_cast<std::size_t>(Category::kCompute)];
    breakdown.comm = seconds[static_cast<std::size_t>(Category::kExchange)];
    breakdown.sync = seconds[static_cast<std::size_t>(Category::kWait)];
    breakdown.overhead = seconds[static_cast<std::size_t>(Category::kOverhead)] +
                         seconds[static_cast<std::size_t>(Category::kRecovery)];
    breakdown.peak_memory = ranks[r]->memory_.peak();
    breakdown.faults = ranks[r]->fault_counters_;
    // rt-level evidence: injected duplicates surface as orphan replies on
    // the endpoint that issued the duplicated exchange; peer-death
    // fail-fasts surface as rpc failures.
    breakdown.faults.duplicates += endpoints_[r]->orphan_replies();
    breakdown.faults.rpc_failures += endpoints_[r]->peer_death_failures();
    breakdown.faults.suspected += endpoints_[r]->suspected();
    breakdown.faults.false_suspicions += endpoints_[r]->false_suspicions();
    if (r == 0) {
      // Store-level healing evidence is global (any rank may have read the
      // corrupt record); charge it once, to the first breakdown.
      breakdown.faults.corrupt_records += durable_.corrupt_records();
      breakdown.faults.fallback_checkpoints += durable_.fallback_records();
    }
    breakdown.compute_layer = ranks[r]->compute_counters_;
    breakdowns_.push_back(breakdown);

    // Phase-boundary metrics snapshot: the rank's own registry, the fault
    // and compute-layer counters (exported through their descriptor
    // tables), and the endpoint's RPC counters.
    obs::MetricsRegistry& registry = ranks[r]->metrics_;
    stat::export_metrics(breakdown.faults, registry);
    stat::export_metrics(breakdown.compute_layer, registry);
    registry.add(obs::metric::kRpcRequestsServed, endpoints_[r]->requests_served());
    registry.gauge_max(obs::metric::kMemPeakBytes, breakdown.peak_memory);
    metrics_.merge(registry);
  }
  if (dropped_delta > 0) metrics_.add(obs::metric::kTraceDropped, dropped_delta);

  if (unrecoverable) std::rethrow_exception(unrecoverable);
}

}  // namespace gnb::rt
