#pragma once
// The span / instant / counter / metric name taxonomy — defined once so the
// real engines and the simulator emit byte-identical names (the sim-vs-real
// parity tests compare these sets). Names are static strings; TraceEvent
// stores the pointer, never a copy.

namespace gnb::obs::span {

// Phase-level engine spans.
inline constexpr const char* kBspAlign = "bsp.align";
inline constexpr const char* kBspIndex = "bsp.index";
inline constexpr const char* kBspRequestExchange = "bsp.request_exchange";
inline constexpr const char* kBspLocalTasks = "bsp.local_tasks";
inline constexpr const char* kBspRound = "bsp.round";
inline constexpr const char* kBspCompute = "bsp.compute";
inline constexpr const char* kAsyncAlign = "async.align";
inline constexpr const char* kAsyncIndex = "async.index";
inline constexpr const char* kAsyncLocalTasks = "async.local_tasks";
inline constexpr const char* kAsyncPulls = "async.pulls";

// Runtime collectives (emitted by rt::Rank, and by the sim at the matching
// virtual instants).
inline constexpr const char* kCollAlltoallv = "coll.alltoallv";
inline constexpr const char* kCollAlltoall = "coll.alltoall";
// One per allgather, and so per allreduce_* and exscan_sum built on it.
inline constexpr const char* kCollAllgather = "coll.allgather";
inline constexpr const char* kCollBarrier = "coll.barrier";
inline constexpr const char* kCollSplitBarrier = "coll.split_barrier";
inline constexpr const char* kCollServiceBarrier = "coll.service_barrier";

// Async RPC pulls: one async begin/end pair per logical batch id.
inline constexpr const char* kRpcPull = "rpc.pull";

// Intra-rank compute layer. compute.batch wraps every BatchAligner::align
// call, with a "tasks" argument, on the thread that ran it: the rank thread
// (inline batches) or an alignment worker's own track (pid = rank,
// tid = 1 + worker). compute.pool is the rank thread's pre-exit wait for
// its workers, emitted iff compute_threads > 1 — by the real engines and
// the sim under the same condition (the sim-vs-real parity tests compare
// span-name sets). Stage 2 (run_distributed) uses the same tracks: its
// k-mer helpers run inside stage.* spans on (rank, 1 + helper), and the
// rank thread waits for them inside compute.pool, iff config.threads > 1.
// The sim emits one compute.batch per rank iff the kernels run at all
// (skip_compute off). Cache activity is counters/metrics only —
// parity-exempt, since the sim has no cache to mirror.
inline constexpr const char* kComputePool = "compute.pool";
inline constexpr const char* kComputeBatch = "compute.batch";

// Wire codec (seq/wire_codec): frame packing before a send, frame decode
// after a receive, both charged to exchange. Emitted iff wire_compression
// != off — by the real engines and the sim under the same gate, since the
// sim-vs-real parity tests compare span-name sets.
inline constexpr const char* kWireCompress = "wire.compress";
inline constexpr const char* kWireDecompress = "wire.decompress";

// Crash recovery (core::RecoveryContext's collective fixpoint).
inline constexpr const char* kRecovery = "recovery.recover";

// Distributed graph phases (string graph build, transitive reduction,
// contig extraction) — emitted by pipeline::run_distributed_assembly and,
// at virtual timestamps, by sim::simulate_assembly. One span per phase per
// rank; the sim-vs-real trace-smoke checks compare these names.
inline constexpr const char* kGraphBuild = "graph.build";
inline constexpr const char* kGraphReduce = "graph.reduce";
inline constexpr const char* kGraphContig = "graph.contig";

// Pipeline stages. The stage-1 partition runs on the driver thread, and so
// does the serial oracle (run_serial: kmer_filter, then task_assign). The
// distributed stage 2/3 (run_distributed) emits kmer_records, kmer_join,
// pair_dedup and task_assign on every rank, each around its own
// collective, if it has one.
inline constexpr const char* kStagePartition = "stage.partition";
inline constexpr const char* kStageKmerFilter = "stage.kmer_filter";
inline constexpr const char* kStageKmerRecords = "stage.kmer_records";
inline constexpr const char* kStageKmerJoin = "stage.kmer_join";
inline constexpr const char* kStagePairDedup = "stage.pair_dedup";
inline constexpr const char* kStageTaskAssign = "stage.task_assign";

// Instant events (faults, retries, deaths).
inline constexpr const char* kFaultCrash = "fault.crash";
inline constexpr const char* kFaultStraggle = "fault.straggle";
inline constexpr const char* kRpcRetry = "rpc.retry";
inline constexpr const char* kRpcTimeout = "rpc.timeout";
inline constexpr const char* kRpcPeerDeath = "rpc.peer_death";
inline constexpr const char* kRecoveryReexec = "recovery.reexec";

// Self-healing runtime instants: failure-detector transitions and rank
// comebacks.
inline constexpr const char* kDetectorSuspect = "detector.suspect";
inline constexpr const char* kDetectorClear = "detector.clear";
inline constexpr const char* kRejoinAdmit = "rejoin.admit";
inline constexpr const char* kRejoinReplay = "rejoin.replay";

// Counter tracks.
inline constexpr const char* kCtrExchangeBytes = "exchange.bytes";
inline constexpr const char* kCtrAlignCells = "align.cells";
inline constexpr const char* kCtrRpcInflight = "rpc.inflight";
inline constexpr const char* kCtrCacheBytes = "cache.bytes";

}  // namespace gnb::obs::span

namespace gnb::obs::metric {

// Metrics-registry names (snapshotted at phase boundaries, dumped as JSON).
inline constexpr const char* kExchangeBytes = "exchange.bytes";
inline constexpr const char* kExchangeMessages = "exchange.messages";
inline constexpr const char* kExchangeRounds = "exchange.rounds";
inline constexpr const char* kAlignTasks = "align.tasks";
inline constexpr const char* kAlignCells = "align.cells";
inline constexpr const char* kAlignAccepted = "align.accepted";
inline constexpr const char* kRpcInflightMax = "rpc.inflight_max";
inline constexpr const char* kRpcRequestsServed = "rpc.requests_served";
inline constexpr const char* kMemPeakBytes = "mem.peak_bytes";
inline constexpr const char* kPipelineReads = "pipeline.reads";
inline constexpr const char* kPipelineBases = "pipeline.bases";
inline constexpr const char* kPipelineTasks = "pipeline.tasks";
inline constexpr const char* kReplyBytesHist = "rpc.reply_bytes";
inline constexpr const char* kRoundBytesHist = "exchange.round_bytes";
inline constexpr const char* kAlignScratchBytes = "align.scratch_bytes";

// Wire codec accounting: `raw` is the off-codec-equivalent size of every
// read payload received (invariant across compression modes), `sent` the
// framed bytes actually shipped. raw / sent is the compression ratio the
// breakdown table reports.
inline constexpr const char* kWireRawBytes = "wire.raw_bytes";
inline constexpr const char* kWireSentBytes = "wire.sent_bytes";

// Distributed graph phases.
inline constexpr const char* kGraphEdges = "graph.edges";
inline constexpr const char* kGraphReduced = "graph.reduced";
inline constexpr const char* kGraphReduceRounds = "graph.reduce_rounds";
inline constexpr const char* kGraphContigs = "graph.contigs";
inline constexpr const char* kGraphRestarts = "graph.restarts";

// stat::ComputeCounters fields (read cache + worker pool) are exported
// under these names by the same descriptor-table mechanism as fault.*.
inline constexpr const char* kCacheHits = "cache.hits";
inline constexpr const char* kCacheMisses = "cache.misses";
inline constexpr const char* kCacheEvictions = "cache.evictions";
inline constexpr const char* kCachePeakBytes = "cache.peak_bytes";
inline constexpr const char* kPoolTasks = "pool.tasks";
inline constexpr const char* kPoolBatches = "pool.batches";
inline constexpr const char* kPoolThreads = "pool.threads";
inline constexpr const char* kKernelBackend = "kernel.backend";
inline constexpr const char* kKernelLanes = "kernel.lanes";
inline constexpr const char* kKernelBatches = "kernel.batches";
inline constexpr const char* kKernelTasks = "kernel.tasks";
inline constexpr const char* kKernelCells = "kernel.cells";
inline constexpr const char* kKernelLaneSteps = "kernel.lane_steps";
inline constexpr const char* kKernelLaneStepsActive = "kernel.lane_steps_active";

// stat::FaultCounters fields are exported under this prefix (names come
// from the single stat::FaultCounters::fields() descriptor table).
inline constexpr const char* kFaultPrefix = "fault.";

// Trace-buffer ring drops observed during the phase (rt::World::run takes
// the Tracer::dropped() delta across the phase). Non-zero means the trace
// — and any `gnbody perf report` built from it — is silently truncated,
// so the count is surfaced loudly: as this metric, as a gnbody warning,
// and in the counted section of PERF_report.json.
inline constexpr const char* kTraceDropped = "trace.dropped_events";

}  // namespace gnb::obs::metric
