#include "pipeline/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <fstream>

#include "align/xdrop.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "pipeline/assembly.hpp"
#include "rt/fault.hpp"
#include "seq/alphabet.hpp"
#include "util/error.hpp"
#include "util/wire.hpp"

namespace gnb::pipeline {

namespace {
using Bytes = std::vector<std::uint8_t>;

constexpr std::uint32_t kMagic = 0x43424E47;  // "GNBC"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kKindKmerTable = 1;
constexpr std::uint32_t kKindTasks = 2;
constexpr std::uint32_t kKindAlignment = 3;
constexpr std::uint32_t kKindGraph = 4;
constexpr std::uint32_t kKindAssembly = 5;

std::atomic<std::uint64_t> g_corrupt_records{0};
std::atomic<std::uint64_t> g_fallback_checkpoints{0};
std::atomic<const rt::FaultInjector*> g_injector{nullptr};
// Per-kind write sequence counters for corrupt@0:K:S injection (kinds 1..5
// index slots 1..5; slot 0 is unused).
std::array<std::atomic<std::uint64_t>, 6> g_write_seq{};

/// Outcome of validating one framed blob against (kind, fingerprint).
enum class BlobState { kValid, kStale, kCorrupt };

BlobState parse_blob(const Bytes& framed, std::uint32_t kind, std::uint64_t fingerprint,
                     std::size_t& payload_offset) {
  std::size_t offset = 0;
  if (framed.size() < 20) return BlobState::kCorrupt;
  if (wire::get<std::uint32_t>(framed, offset) != kMagic) return BlobState::kCorrupt;
  if (wire::get<std::uint32_t>(framed, offset) != kVersion) return BlobState::kCorrupt;
  if (wire::get<std::uint32_t>(framed, offset) != kind) return BlobState::kCorrupt;
  if (wire::get<std::uint64_t>(framed, offset) != fingerprint)
    return BlobState::kStale;  // written for different inputs — recompute
  if (!wire::verify_checksum(framed, offset)) return BlobState::kCorrupt;
  payload_offset = offset;
  return BlobState::kValid;
}

/// Read `path` and validate. Absent file -> nullopt with state kStale-ish
/// (reported via `state` = kStale so callers treat it as "no checkpoint").
std::optional<Bytes> read_blob(const std::filesystem::path& path, std::uint32_t kind,
                               std::uint64_t fingerprint, BlobState& state) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    state = BlobState::kStale;
    return std::nullopt;
  }
  Bytes framed((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::size_t payload_offset = 0;
  state = parse_blob(framed, kind, fingerprint, payload_offset);
  if (state != BlobState::kValid) return std::nullopt;
  return Bytes(framed.begin() + static_cast<std::ptrdiff_t>(payload_offset), framed.end());
}

}  // namespace

void save_blob(const std::filesystem::path& path, std::uint32_t kind,
               std::uint64_t fingerprint, const std::vector<std::uint8_t>& payload) {
  GNB_SPAN(obs::span::kCkptSave, "bytes", payload.size(), "kind", kind);
  Bytes framed;
  wire::put<std::uint32_t>(framed, kMagic);
  wire::put<std::uint32_t>(framed, kVersion);
  wire::put<std::uint32_t>(framed, kind);
  wire::put<std::uint64_t>(framed, fingerprint);
  const std::size_t checksum_start = framed.size();
  wire::begin_checksum(framed);
  framed.insert(framed.end(), payload.begin(), payload.end());
  wire::seal_checksum(framed, checksum_start);

  if (const rt::FaultInjector* injector = g_injector.load(std::memory_order_acquire)) {
    const std::uint64_t seq =
        kind < g_write_seq.size() ? g_write_seq[kind].fetch_add(1) : 0;
    if (injector->corrupts_record(0, kind, seq))
      injector->corrupt_payload(0, kind, seq, framed);
  }

  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    GNB_THROW_IF(!out, "checkpoint: cannot open " << tmp << " for writing");
    out.write(reinterpret_cast<const char*>(framed.data()),
              static_cast<std::streamsize>(framed.size()));
    GNB_THROW_IF(!out, "checkpoint: short write to " << tmp);
  }
  // Promote the checkpoint being replaced to the ".prev" ancestor: if this
  // write lands corrupted (bit rot, torn sector), load_blob falls back to
  // it instead of recomputing from scratch.
  std::error_code ec;
  std::filesystem::rename(path, path.string() + ".prev", ec);  // ok if absent
  // Atomic replace: a kill mid-save leaves either the old checkpoint or
  // the new one, never a torn file at `path`.
  std::filesystem::rename(tmp, path);
}

std::optional<std::vector<std::uint8_t>> load_blob(const std::filesystem::path& path,
                                                   std::uint32_t kind,
                                                   std::uint64_t fingerprint) {
  GNB_SPAN(obs::span::kCkptLoad, "kind", kind);
  BlobState state = BlobState::kStale;
  if (auto payload = read_blob(path, kind, fingerprint, state)) return payload;
  if (state != BlobState::kCorrupt) return std::nullopt;  // absent or stale

  // The current record failed validation: quarantine it (evidence for a
  // post-mortem, and it must not shadow the ancestor on the next save) and
  // fall back to the last valid ancestor in the chain.
  g_corrupt_records.fetch_add(1);
  GNB_INSTANT(obs::span::kCorruptRecord, "kind", kind);
  const std::filesystem::path prev = path.string() + ".prev";
  std::error_code ec;
  std::filesystem::rename(path, path.string() + ".corrupt", ec);
  auto ancestor = read_blob(prev, kind, fingerprint, state);
  if (!ancestor) {
    if (state == BlobState::kCorrupt) {
      g_corrupt_records.fetch_add(1);
      GNB_INSTANT(obs::span::kCorruptRecord, "kind", kind);
      std::filesystem::remove(prev, ec);
    }
    return std::nullopt;  // no valid ancestor — recompute
  }
  g_fallback_checkpoints.fetch_add(1);
  GNB_INSTANT(obs::span::kCorruptFallback, "kind", kind);
  // Re-promote the ancestor so a second load (or a save) sees a valid
  // current record again.
  std::filesystem::rename(prev, path, ec);
  return ancestor;
}

CheckpointHealth checkpoint_health() {
  return CheckpointHealth{g_corrupt_records.load(), g_fallback_checkpoints.load()};
}

void reset_checkpoint_health() {
  g_corrupt_records.store(0);
  g_fallback_checkpoints.store(0);
}

void set_checkpoint_fault_injector(const rt::FaultInjector* injector) {
  g_injector.store(injector, std::memory_order_release);
  for (auto& seq : g_write_seq) seq.store(0);
}

std::uint64_t pipeline_fingerprint(const seq::ReadStore& store, const PipelineConfig& config,
                                   std::size_t nranks) {
  Bytes packed;
  wire::put<std::uint32_t>(packed, config.k);
  wire::put<std::uint64_t>(packed, config.lo);
  wire::put<std::uint64_t>(packed, config.hi);
  wire::put<std::uint64_t>(packed, std::bit_cast<std::uint64_t>(config.keep_frac));
  wire::put<std::uint64_t>(packed, nranks);
  wire::put<std::uint64_t>(packed, store.size());
  wire::put<std::uint64_t>(packed, store.total_bases());
  for (const seq::Read& read : store.reads())
    wire::put<std::uint32_t>(packed, static_cast<std::uint32_t>(read.length()));
  return wire::checksum(packed);
}

void save_kmer_table(const std::filesystem::path& path, std::uint64_t fingerprint,
                     const kmer::KmerCounter& counter) {
  // Entries come in increasing bits order, so the blob is byte-stable.
  Bytes payload;
  wire::put<std::uint64_t>(payload, counter.distinct());
  for (const auto& [km, count] : counter.counts()) {
    wire::put<std::uint64_t>(payload, km.bits());
    wire::put<std::uint32_t>(payload, km.k());
    wire::put<std::uint64_t>(payload, count);
  }
  save_blob(path, kKindKmerTable, fingerprint, payload);
}

std::optional<kmer::KmerCounter> load_kmer_table(const std::filesystem::path& path,
                                                 std::uint64_t fingerprint) {
  const auto payload = load_blob(path, kKindKmerTable, fingerprint);
  if (!payload) return std::nullopt;
  kmer::KmerCounter counter;
  std::size_t offset = 0;
  const auto count = wire::get<std::uint64_t>(*payload, offset);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto bits = wire::get<std::uint64_t>(*payload, offset);
    const auto k = wire::get<std::uint32_t>(*payload, offset);
    const auto multiplicity = wire::get<std::uint64_t>(*payload, offset);
    counter.add(kmer::Kmer(bits, k), multiplicity);
  }
  return counter;
}

void save_tasks(const std::filesystem::path& path, std::uint64_t fingerprint,
                const TaskSet& tasks) {
  Bytes payload;
  wire::put<std::uint64_t>(payload, tasks.bounds.size());
  for (const seq::ReadId bound : tasks.bounds) wire::put<std::uint32_t>(payload, bound);
  wire::put<std::uint64_t>(payload, tasks.per_rank.size());
  for (const auto& rank_tasks : tasks.per_rank) {
    wire::put<std::uint64_t>(payload, rank_tasks.size());
    for (const kmer::AlignTask& task : rank_tasks) kmer::put_task(payload, task);
  }
  save_blob(path, kKindTasks, fingerprint, payload);
}

std::optional<TaskSet> load_tasks(const std::filesystem::path& path,
                                  std::uint64_t fingerprint) {
  const auto payload = load_blob(path, kKindTasks, fingerprint);
  if (!payload) return std::nullopt;
  TaskSet tasks;
  std::size_t offset = 0;
  const auto nbounds = wire::get<std::uint64_t>(*payload, offset);
  for (std::uint64_t i = 0; i < nbounds; ++i)
    tasks.bounds.push_back(wire::get<std::uint32_t>(*payload, offset));
  const auto nranks = wire::get<std::uint64_t>(*payload, offset);
  tasks.per_rank.resize(nranks);
  for (std::uint64_t r = 0; r < nranks; ++r) {
    const auto ntasks = wire::get<std::uint64_t>(*payload, offset);
    tasks.per_rank[r].reserve(ntasks);
    for (std::uint64_t t = 0; t < ntasks; ++t)
      tasks.per_rank[r].push_back(kmer::get_task(*payload, offset));
  }
  return tasks;
}

void save_alignment_progress(const std::filesystem::path& path, std::uint64_t fingerprint,
                             const AlignmentProgress& progress) {
  Bytes payload;
  wire::put<std::uint64_t>(payload, progress.watermark);
  wire::put<std::uint64_t>(payload, progress.accepted.size());
  for (const align::AlignmentRecord& record : progress.accepted)
    align::put_record(payload, record);
  save_blob(path, kKindAlignment, fingerprint, payload);
}

std::optional<AlignmentProgress> load_alignment_progress(const std::filesystem::path& path,
                                                         std::uint64_t fingerprint) {
  const auto payload = load_blob(path, kKindAlignment, fingerprint);
  if (!payload) return std::nullopt;
  AlignmentProgress progress;
  std::size_t offset = 0;
  progress.watermark = wire::get<std::uint64_t>(*payload, offset);
  const auto count = wire::get<std::uint64_t>(*payload, offset);
  progress.accepted.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i)
    progress.accepted.push_back(align::get_record(*payload, offset));
  return progress;
}

void save_graph(const std::filesystem::path& path, std::uint64_t fingerprint,
                const GraphCheckpoint& ckpt) {
  Bytes payload;
  wire::put<std::uint64_t>(payload, ckpt.stats.reads);
  wire::put<std::uint64_t>(payload, ckpt.stats.contained);
  wire::put<std::uint64_t>(payload, ckpt.stats.dovetail_edges);
  wire::put<std::uint64_t>(payload, ckpt.stats.reduced_edges);
  wire::put<std::uint64_t>(payload, ckpt.contained.size());
  for (const bool c : ckpt.contained) wire::put<std::uint8_t>(payload, c ? 1 : 0);
  wire::put<std::uint64_t>(payload, ckpt.edges.size());
  for (const graph::OverlapEdge& edge : ckpt.edges) {
    wire::put<std::uint64_t>(payload, edge.from);
    wire::put<std::uint64_t>(payload, edge.to);
    wire::put<std::uint32_t>(payload, edge.overlap);
    wire::put<std::uint32_t>(payload, static_cast<std::uint32_t>(edge.score));
    wire::put<std::uint8_t>(payload, edge.reduced ? 1 : 0);
  }
  save_blob(path, kKindGraph, fingerprint, payload);
}

std::optional<GraphCheckpoint> load_graph(const std::filesystem::path& path,
                                          std::uint64_t fingerprint) {
  const auto payload = load_blob(path, kKindGraph, fingerprint);
  if (!payload) return std::nullopt;
  GraphCheckpoint ckpt;
  std::size_t offset = 0;
  ckpt.stats.reads = wire::get<std::uint64_t>(*payload, offset);
  ckpt.stats.contained = wire::get<std::uint64_t>(*payload, offset);
  ckpt.stats.dovetail_edges = wire::get<std::uint64_t>(*payload, offset);
  ckpt.stats.reduced_edges = wire::get<std::uint64_t>(*payload, offset);
  const auto n_contained = wire::get<std::uint64_t>(*payload, offset);
  ckpt.contained.resize(n_contained);
  for (std::uint64_t i = 0; i < n_contained; ++i)
    ckpt.contained[i] = wire::get<std::uint8_t>(*payload, offset) != 0;
  const auto n_edges = wire::get<std::uint64_t>(*payload, offset);
  ckpt.edges.reserve(n_edges);
  for (std::uint64_t i = 0; i < n_edges; ++i) {
    graph::OverlapEdge edge;
    edge.from = wire::get<std::uint64_t>(*payload, offset);
    edge.to = wire::get<std::uint64_t>(*payload, offset);
    edge.overlap = wire::get<std::uint32_t>(*payload, offset);
    edge.score = static_cast<std::int32_t>(wire::get<std::uint32_t>(*payload, offset));
    edge.reduced = wire::get<std::uint8_t>(*payload, offset) != 0;
    ckpt.edges.push_back(edge);
  }
  return ckpt;
}

void save_assembly(const std::filesystem::path& path, std::uint64_t fingerprint,
                   const graph::AssemblyResult& result) {
  save_blob(path, kKindAssembly, fingerprint, pack_assembly(result));
}

std::optional<graph::AssemblyResult> load_assembly(const std::filesystem::path& path,
                                                   std::uint64_t fingerprint) {
  const auto payload = load_blob(path, kKindAssembly, fingerprint);
  if (!payload) return std::nullopt;
  return unpack_assembly(*payload);
}

CheckpointedRun run_serial_checkpointed(const seq::ReadStore& store,
                                        const PipelineConfig& config, std::size_t nranks,
                                        const align::XDropParams& xdrop,
                                        const align::AlignmentFilter& filter,
                                        const CheckpointConfig& ckpt,
                                        std::uint64_t stop_after_tasks) {
  kmer::check_k(config.k);
  std::filesystem::create_directories(ckpt.dir);
  const std::uint64_t fingerprint = pipeline_fingerprint(store, config, nranks);
  const std::filesystem::path kmer_path = ckpt.dir / "kmer_table.ckpt";
  const std::filesystem::path tasks_path = ckpt.dir / "tasks.ckpt";
  const std::filesystem::path align_path = ckpt.dir / "alignment.ckpt";

  CheckpointedRun out;
  if (auto loaded = load_tasks(tasks_path, fingerprint)) {
    out.tasks = std::move(*loaded);
    out.resumed_tasks = true;
  } else {
    // Phase: k-mer table (checkpointed separately — counting dominates the
    // pre-alignment stages).
    kmer::KmerCounter counter;
    if (auto table = load_kmer_table(kmer_path, fingerprint)) {
      counter = std::move(*table);
    } else {
      counter.count_reads(store.reads(), config.k);
      save_kmer_table(kmer_path, fingerprint, counter);
    }
    // Phase: candidate discovery + stage-3 assignment (mirrors
    // kmer::discover_tasks / run_serial, feeding the checkpointed table).
    kmer::KmerSet retained;
    for (const kmer::Kmer& km : counter.retained(config.lo, config.hi)) retained.insert(km);
    kmer::PostingIndex index(retained, config.k, config.keep_frac);
    for (const seq::Read& read : store.reads()) index.add_read(read);
    std::vector<std::size_t> lengths(store.size());
    for (const seq::Read& read : store.reads()) lengths[read.id] = read.length();
    out.tasks.bounds = compute_bounds(store, nranks);
    out.tasks.per_rank = assign_tasks(kmer::generate_tasks(index, lengths), out.tasks.bounds);
    save_tasks(tasks_path, fingerprint, out.tasks);
  }

  // Phase: alignment over the deterministic task order, with a watermark
  // checkpoint every `every` tasks.
  const std::vector<kmer::AlignTask> order = out.tasks.sorted_union();
  AlignmentProgress progress;
  if (auto loaded = load_alignment_progress(align_path, fingerprint)) {
    progress = std::move(*loaded);
    out.resumed_watermark = progress.watermark;
  }
  std::uint64_t executed_now = 0;
  for (std::uint64_t t = progress.watermark; t < order.size(); ++t) {
    const kmer::AlignTask& task = order[t];
    const seq::Read& read_a = store.get(task.a);
    const seq::Read& read_b = store.get(task.b);
    const std::vector<std::uint8_t> codes_a = read_a.sequence.unpack();
    std::vector<std::uint8_t> codes_b = read_b.sequence.unpack();
    if (task.seed.b_reversed) {
      std::reverse(codes_b.begin(), codes_b.end());
      for (auto& code : codes_b) code = seq::dna_complement(code);
    }
    const align::Alignment alignment = align::xdrop_align(codes_a, codes_b, task.seed, xdrop);
    if (filter.accepts(alignment))
      progress.accepted.push_back(align::AlignmentRecord{task.a, task.b, alignment});
    progress.watermark = t + 1;
    ++executed_now;
    if (ckpt.every != 0 && progress.watermark % ckpt.every == 0)
      save_alignment_progress(align_path, fingerprint, progress);
    if (stop_after_tasks != 0 && executed_now >= stop_after_tasks &&
        progress.watermark < order.size()) {
      // Killed mid-phase: no final flush — the restart resumes from the
      // last cadence checkpoint and re-executes the tail.
      out.progress = std::move(progress);
      return out;
    }
  }
  save_alignment_progress(align_path, fingerprint, progress);
  out.progress = std::move(progress);
  out.finished = true;
  return out;
}

}  // namespace gnb::pipeline
