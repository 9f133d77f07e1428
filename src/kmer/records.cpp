#include "kmer/records.hpp"

#include <algorithm>
#include <cstring>

#include "kmer/radix_sort.hpp"
#include "util/error.hpp"

namespace gnb::kmer {

void check_record_length(std::uint64_t length, std::string_view read_name) {
  GNB_THROW_IF(length > kMaxRecordReadLength,
               "read '" << read_name << "' has " << length
                        << " bases; k-mer records hold window starts of reads up to "
                        << kMaxRecordReadLength << " bases");
}

RecordRouting::RecordRouting(std::size_t shards, std::uint64_t records) : shards_(shards) {
  GNB_CHECK(shards >= 1);
  const std::uint64_t parts = (records / shards + kPartRecords - 1) / kPartRecords;
  parts_ = static_cast<std::size_t>(std::max<std::uint64_t>(1, parts));
  slots_ = static_cast<std::uint64_t>(shards_) * parts_;
}

std::vector<std::vector<std::uint8_t>> pack_records(std::span<const seq::Read> reads,
                                                    std::uint32_t k, const Sketch& sketch,
                                                    const RecordRouting& routing) {
  const std::size_t parts = routing.parts();
  const std::size_t header = parts * sizeof(std::uint64_t);

  // Pass 1 counts each slot's records, so every buffer is allocated once at
  // its exact size; pass 2 extracts the windows again and writes them.
  std::vector<std::uint64_t> counts(routing.shards() * parts, 0);
  for (const seq::Read& read : reads)
    for_each_kmer(read, k, [&](const Kmer& km, const Occurrence&) {
      if (sketch.keeps(km.bits())) ++counts[routing.slot(mix64(km.bits()))];
    });

  std::vector<std::vector<std::uint8_t>> buffers(routing.shards());
  std::vector<std::uint8_t*> cursor(counts.size());
  for (std::size_t shard = 0; shard < buffers.size(); ++shard) {
    const std::uint64_t* shard_counts = counts.data() + shard * parts;
    std::uint64_t records = 0;
    for (std::size_t part = 0; part < parts; ++part) records += shard_counts[part];
    std::vector<std::uint8_t>& buffer = buffers[shard];
    buffer.resize(header + records * sizeof(WindowRecord));
    std::memcpy(buffer.data(), shard_counts, header);
    std::uint8_t* next = buffer.data() + header;
    for (std::size_t part = 0; part < parts; ++part) {
      cursor[shard * parts + part] = next;
      next += shard_counts[part] * sizeof(WindowRecord);
    }
  }
  for (const seq::Read& read : reads)
    for_each_kmer(read, k, [&](const Kmer& km, const Occurrence& occ) {
      if (!sketch.keeps(km.bits())) return;
      const WindowRecord record{km.bits(), occ.read,
                                occ.pos << 1 | static_cast<std::uint32_t>(occ.reversed)};
      std::uint8_t*& at = cursor[routing.slot(mix64(km.bits()))];
      std::memcpy(at, &record, sizeof record);
      at += sizeof record;
    });
  return buffers;
}

void join_records(std::span<const std::vector<std::uint8_t>> buffers,
                  const RecordRouting& routing, std::uint32_t k, std::uint64_t lo,
                  std::uint64_t hi, const std::vector<std::size_t>& read_lengths,
                  TaskTable& table) {
  const std::size_t parts = routing.parts();
  const std::size_t header = parts * sizeof(std::uint64_t);
  // part_counts[src * parts + part]; a source that sent nothing has none.
  std::vector<std::uint64_t> part_counts(buffers.size() * parts, 0);
  std::vector<std::uint64_t> part_sizes(parts, 0);
  for (std::size_t src = 0; src < buffers.size(); ++src) {
    if (buffers[src].empty()) continue;
    GNB_CHECK(buffers[src].size() >= header);
    std::memcpy(part_counts.data() + src * parts, buffers[src].data(), header);
    for (std::size_t part = 0; part < parts; ++part)
      part_sizes[part] += part_counts[src * parts + part];
  }
  const std::uint64_t largest = *std::max_element(part_sizes.begin(), part_sizes.end());
  std::vector<WindowRecord> gathered(largest), scratch(largest);
  std::vector<Occurrence> occs;
  std::vector<std::size_t> offset(buffers.size(), header);  // each source's next part

  for (std::size_t part = 0; part < parts; ++part) {
    std::size_t n = 0;
    for (std::size_t src = 0; src < buffers.size(); ++src) {
      const std::uint64_t records = part_counts[src * parts + part];
      if (records == 0) continue;
      const std::size_t bytes = records * sizeof(WindowRecord);
      GNB_CHECK(offset[src] + bytes <= buffers[src].size());
      std::memcpy(gathered.data() + n, buffers[src].data() + offset[src], bytes);
      offset[src] += bytes;
      n += records;
    }
    const WindowRecord* sorted = radix_sort(gathered.data(), scratch.data(), n, 2 * k,
                                            [](const WindowRecord& r) { return r.bits; });
    for (std::size_t i = 0; i < n;) {
      std::size_t end = i + 1;
      while (end < n && sorted[end].bits == sorted[i].bits) ++end;
      if (end - i >= lo && end - i <= hi) {
        occs.clear();
        for (std::size_t j = i; j < end; ++j)
          occs.push_back({sorted[j].read, sorted[j].pos_strand >> 1,
                          (sorted[j].pos_strand & 1) != 0});
        table.join(occs, k, read_lengths);
      }
      i = end;
    }
  }
}

}  // namespace gnb::kmer
