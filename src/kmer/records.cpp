#include "kmer/records.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstring>
#include <exception>
#include <thread>

#include "kmer/radix_sort.hpp"
#include "util/error.hpp"

namespace gnb::kmer {

RecordRouting::RecordRouting(std::size_t shards, std::uint64_t records) : shards_(shards) {
  GNB_CHECK(shards >= 1);
  const std::uint64_t parts = (records / shards + kPartRecords - 1) / kPartRecords;
  parts_ = static_cast<std::size_t>(std::max<std::uint64_t>(1, parts));
  slots_ = static_cast<std::uint64_t>(shards_) * parts_;
}

std::vector<std::vector<std::uint8_t>> pack_records(std::span<const seq::Read> reads,
                                                    std::uint32_t k, const Sketch& sketch,
                                                    const RecordRouting& routing,
                                                    std::size_t threads, const Fanout& fanout) {
  const std::size_t parts = routing.parts();
  const std::size_t slots = routing.shards() * parts;
  const std::size_t header = parts * sizeof(std::uint64_t);

  // One chunk of reads per thread, contiguous and of about equal bases:
  // chunk c holds reads [first[c], first[c + 1]).
  const std::size_t chunks =
      std::clamp<std::size_t>(reads.size(), 1, std::max<std::size_t>(threads, 1));
  std::uint64_t total = 0;
  for (const seq::Read& read : reads) total += read.length();
  std::vector<std::size_t> first(chunks + 1, reads.size());
  std::uint64_t before = 0;
  for (std::size_t i = 0, c = 0; i < reads.size(); before += reads[i++].length())
    while (c < chunks && before * chunks >= total * c) first[c++] = i;

  // Pass 1 counts each chunk's records per slot, so every buffer is
  // allocated once at its exact size; pass 2 extracts the windows again
  // and writes them.
  std::vector<std::uint64_t> counts(chunks * slots, 0);
  fanout(chunks, [&](std::size_t c) {
    std::uint64_t* chunk_counts = counts.data() + c * slots;
    for (std::size_t i = first[c]; i < first[c + 1]; ++i)
      for_each_kmer(reads[i], k, [&](const Kmer& km, const Occurrence&) {
        if (sketch.keeps(km.bits())) ++chunk_counts[routing.slot(mix64(km.bits()))];
      });
  });

  // Pass 2: thread c allocates the buffers of shards c, c + chunks, ... at
  // their exact sizes, page faults and all, and points every chunk's write
  // cursors into them; once every buffer exists, it writes its chunk.
  // Within a slot chunk c writes after chunks 0 .. c - 1: read order, as
  // one thread would write it.
  std::vector<std::vector<std::uint8_t>> buffers(routing.shards());
  std::vector<std::uint8_t*> cursor(counts.size());
  std::barrier allocated(static_cast<std::ptrdiff_t>(chunks));
  std::atomic<bool> out_of_memory{false};
  const auto allocate = [&](std::size_t c) {
    std::vector<std::uint64_t> part_records(parts);
    for (std::size_t shard = c; shard < buffers.size(); shard += chunks) {
      std::uint64_t records = 0;
      for (std::size_t part = 0; part < parts; ++part) {
        for (std::size_t chunk = 0; chunk < chunks; ++chunk)
          part_records[part] += counts[chunk * slots + shard * parts + part];
        records += part_records[part];
      }
      std::vector<std::uint8_t>& buffer = buffers[shard];
      buffer.resize(header + records * sizeof(WindowRecord));
      std::memcpy(buffer.data(), part_records.data(), header);
      std::fill(part_records.begin(), part_records.end(), 0);
      std::uint8_t* next = buffer.data() + header;
      for (std::size_t part = 0; part < parts; ++part) {
        for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
          const std::size_t slot = chunk * slots + shard * parts + part;
          cursor[slot] = next;
          next += counts[slot] * sizeof(WindowRecord);
        }
      }
    }
  };
  fanout(chunks, [&](std::size_t c) {
    try {
      allocate(c);
    } catch (...) {
      out_of_memory = true;  // no thread may write into a missing buffer
      allocated.arrive_and_wait();
      throw;
    }
    allocated.arrive_and_wait();
    if (out_of_memory) return;

    std::uint8_t** chunk_cursor = cursor.data() + c * slots;
    for (std::size_t i = first[c]; i < first[c + 1]; ++i)
      for_each_kmer(reads[i], k, [&](const Kmer& km, const Occurrence& occ) {
        if (!sketch.keeps(km.bits())) return;
        const WindowRecord record{km.bits(), occ.read,
                                  occ.pos << 1 | static_cast<std::uint32_t>(occ.reversed)};
        std::uint8_t*& at = chunk_cursor[routing.slot(mix64(km.bits()))];
        std::memcpy(at, &record, sizeof record);
        at += sizeof record;
      });
  });
  return buffers;
}

void join_records(std::span<const std::vector<std::uint8_t>> buffers,
                  const RecordRouting& routing, std::uint32_t k, std::uint64_t lo,
                  std::uint64_t hi, const std::vector<std::size_t>& read_lengths,
                  TaskTable& table, std::size_t threads, const Fanout& fanout) {
  const std::size_t parts = routing.parts();
  const std::size_t header = parts * sizeof(std::uint64_t);
  // part_counts[src * parts + part] records start at part_at[src * parts +
  // part] of buffer src; a source that sent nothing has none.
  std::vector<std::uint64_t> part_counts(buffers.size() * parts, 0);
  std::vector<std::size_t> part_at(buffers.size() * parts, header);
  std::vector<std::uint64_t> part_sizes(parts, 0);
  for (std::size_t src = 0; src < buffers.size(); ++src) {
    if (buffers[src].empty()) continue;
    GNB_CHECK(buffers[src].size() >= header);
    std::memcpy(part_counts.data() + src * parts, buffers[src].data(), header);
    std::size_t at = header;
    for (std::size_t part = 0; part < parts; ++part) {
      part_at[src * parts + part] = at;
      at += part_counts[src * parts + part] * sizeof(WindowRecord);
      part_sizes[part] += part_counts[src * parts + part];
    }
    GNB_CHECK(at <= buffers[src].size());
  }
  const std::uint64_t largest = *std::max_element(part_sizes.begin(), part_sizes.end());

  // Parts go to whichever thread asks next; thread t > 0 joins into a table
  // of its own, merged into `table` at the end.
  const std::size_t workers = std::clamp<std::size_t>(threads, 1, parts);
  std::vector<TaskTable> tables(workers - 1);
  std::atomic<std::size_t> next_part{0};
  fanout(workers, [&](std::size_t t) {
    TaskTable& joined = t == 0 ? table : tables[t - 1];
    std::vector<WindowRecord> gathered(largest), scratch(largest);
    for (std::size_t part = next_part++; part < parts; part = next_part++) {
      std::size_t n = 0;
      for (std::size_t src = 0; src < buffers.size(); ++src) {
        const std::uint64_t records = part_counts[src * parts + part];
        if (records == 0) continue;
        std::memcpy(gathered.data() + n, buffers[src].data() + part_at[src * parts + part],
                    records * sizeof(WindowRecord));
        n += records;
      }
      const WindowRecord* sorted = radix_sort(gathered.data(), scratch.data(), n, 2 * k,
                                              [](const WindowRecord& r) { return r.bits; });
      for (std::size_t i = 0; i < n;) {
        std::size_t end = i + 1;
        while (end < n && sorted[end].bits == sorted[i].bits) ++end;
        if (end - i >= lo && end - i <= hi) {
          joined.join(end - i, k, read_lengths, [run = sorted + i](std::size_t j) {
            return Occurrence{run[j].read, run[j].pos_strand >> 1, (run[j].pos_strand & 1) != 0};
          });
        }
        i = end;
      }
    }
  });
  for (const TaskTable& other : tables) table.merge(other);
}

void fan_out(std::size_t threads, const std::function<void(std::size_t)>& body) {
  std::vector<std::exception_ptr> errors(std::max<std::size_t>(threads, 1));
  {
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < threads; ++t) {
      helpers.emplace_back([&body, &errors, t] {
        try {
          body(t);
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
    try {
      body(0);
    } catch (...) {
      errors[0] = std::current_exception();
    }
  }  // the helpers join here
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

}  // namespace gnb::kmer
