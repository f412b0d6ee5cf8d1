#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/record.hpp"

/// \file store.hpp
/// The campaign result store: streaming, sharded, resumable persistence
/// for campaign records (ROADMAP item 4; docs/formats.md, "Campaign
/// result store").
///
/// Layout — one directory per campaign:
///   manifest.json     store schema, shard count, grid dimensions and the
///                     canonical owning CampaignSpec
///   segment-<i>.jsonl shard i's records: exact `cawosched-campaign-v1`
///                     record lines (record_json byte contract), appended
///                     as instances finish
///   segment-<i>.idx   sidecar index: one text line per record —
///                     `<instance> <cell> <offset> <length> <hash>` —
///                     mapping grid coordinates to segment byte ranges
///
/// Durability: appends buffer in memory and hit disk in fsync'd group
/// commits (`StoreOptions::groupCommit` records per batch), segment bytes
/// before index lines. A crash can therefore leave (a) index lines for a
/// prefix of the segment — the unindexed segment tail is recovered by
/// scanning complete lines — and (b) a torn final segment line, which is
/// detected (no terminator / unparsable) and truncated away so the cell
/// re-runs. Peak writer memory is O(group-commit buffer) + O(grid
/// bookkeeping bits), never O(records).
///
/// Sharding: `instanceSpecHash(spec) % shardCount` (FNV over the instance
/// spec) deterministically partitions the instance grid across
/// `shardCount` independent writer processes; each writes only its own
/// segment pair, and the reader merges all segments back into expansion
/// order, so the final document is byte-identical no matter how many
/// processes produced it.

namespace cawo {

struct StoreOptions {
  std::size_t shardIndex = 0; ///< 0-based shard of this writer
  std::size_t shardCount = 1; ///< total shards partitioning the grid
  std::size_t groupCommit = 64; ///< records per fsync batch (>= 1)
  /// Opening a shard whose segment already holds data requires an explicit
  /// opt-in — silently appending to a half-finished run must be a choice.
  bool resume = false;
};

/// Per-run solve/durability counters (see runCampaignToStore).
struct StoreRecovery {
  std::size_t recoveredCells = 0;   ///< unindexed segment lines re-indexed
  std::size_t truncatedBytes = 0;   ///< torn segment tail dropped
  std::size_t droppedIndexLines = 0; ///< invalid/torn index tail dropped
};

/// Streaming writer for one shard of a campaign store.
///
/// Thread-safe (`appendInstance` is called from runner workers). The
/// destructor flushes; call `flush()` explicitly where durability must be
/// sequenced (e.g. before reporting completion).
class CampaignStoreWriter {
public:
  CampaignStoreWriter(const std::string& dir, const CampaignSpec& spec,
                      const StoreOptions& options = {});
  ~CampaignStoreWriter();

  CampaignStoreWriter(const CampaignStoreWriter&) = delete;
  CampaignStoreWriter& operator=(const CampaignStoreWriter&) = delete;

  /// Append instance `instanceIndex`'s complete cell group — `count`
  /// records, cell-major in the campaign's solver/policy label order —
  /// skipping cells already durable (after torn-tail recovery an
  /// instance can be partially present).
  void appendInstance(std::size_t instanceIndex,
                      const CampaignRecord* records,
                      std::size_t count);

  /// Append one cell; throws if it is already present (duplicate cells
  /// would corrupt the grid → segment mapping).
  void append(std::size_t instanceIndex, std::size_t cellIndex,
              const CampaignRecord& record);

  /// Write and fsync everything buffered (segment first, then index).
  void flush();

  /// True when this shard owns the instance under the store's partition.
  bool ownsInstance(std::size_t instanceIndex) const;
  /// True when every cell of the instance is already present.
  bool instanceDone(std::size_t instanceIndex) const;
  bool cellPresent(std::size_t instanceIndex, std::size_t cellIndex) const;

  /// Cells durable-or-buffered in this shard so far.
  std::size_t presentCells() const;
  /// Cells this shard owns in total.
  std::size_t shardCells() const;
  /// fsync syscalls issued by group commits so far (2 per batch: the
  /// segment, then the index) — the durability cost knob `groupCommit`
  /// trades against throughput; surfaced in CampaignRunStats.
  std::size_t fsyncCount() const;

  std::size_t numInstances() const { return instances_.size(); }
  std::size_t stride() const { return labels_.size(); }
  const CampaignSpec& spec() const { return spec_; }
  const std::vector<std::string>& cellLabels() const { return labels_; }
  const std::vector<InstanceSpec>& instances() const { return instances_; }
  std::size_t shardIndex() const { return options_.shardIndex; }
  std::size_t shardCount() const { return options_.shardCount; }
  /// What (if anything) the resume recovery found and repaired on open.
  const StoreRecovery& recovery() const { return recovery_; }

private:
  void appendLocked(std::size_t instanceIndex, std::size_t cellIndex,
                    const std::string& line, std::uint64_t hash);
  void flushLocked();
  void recoverExistingShard();

  std::string dir_;
  CampaignSpec spec_;
  StoreOptions options_;
  std::vector<std::string> labels_;      ///< cell labels (stride order)
  std::vector<InstanceSpec> instances_;  ///< expansion, grid order
  std::vector<std::uint64_t> specHashes_; ///< instanceSpecHash per instance
  StoreRecovery recovery_;

  mutable std::mutex mutex_;
  std::vector<bool> present_;   ///< instance-major cell presence bitmap
  std::size_t presentCount_ = 0;
  std::size_t shardCellCount_ = 0;
  int segFd_ = -1;
  int idxFd_ = -1;
  std::uint64_t segBytes_ = 0;  ///< durable + buffered segment length
  std::string pendingSegment_;
  std::string pendingIndex_;
  std::size_t pendingRecords_ = 0;
  std::size_t fsyncCount_ = 0;
};

/// Read-only merged view over every shard of a store. Torn tails and
/// unindexed-but-complete segment lines are handled like the writer's
/// recovery, except nothing is modified on disk. Not thread-safe.
class CampaignStoreReader {
public:
  explicit CampaignStoreReader(const std::string& dir);

  const CampaignSpec& spec() const { return spec_; }
  const std::vector<std::string>& cellLabels() const { return labels_; }
  const std::vector<InstanceSpec>& instances() const { return instances_; }
  std::size_t numInstances() const { return instances_.size(); }
  std::size_t stride() const { return labels_.size(); }
  std::size_t shardCount() const { return shardCount_; }

  std::size_t totalCells() const { return present_.size(); }
  std::size_t presentCells() const { return presentCount_; }
  bool complete() const { return presentCount_ == present_.size(); }

  bool cellPresent(std::size_t instanceIndex, std::size_t cellIndex) const;
  /// The built-instance hash recorded in the index (0 when absent).
  std::uint64_t cellHash(std::size_t instanceIndex,
                         std::size_t cellIndex) const;
  /// The raw record JSON line (no trailing newline) of a present cell.
  std::string readCellLine(std::size_t instanceIndex, std::size_t cellIndex);

  /// Visit every present cell in instance-major expansion order — the
  /// deterministic merged order, independent of shard/completion
  /// interleaving.
  void forEachPresentCell(
      const std::function<void(std::size_t instanceIndex,
                               std::size_t cellIndex,
                               const std::string& line)>& fn);

private:
  struct CellRef {
    std::int32_t shard = -1; ///< -1 = absent
    std::uint32_t length = 0;
    std::uint64_t offset = 0;
    std::uint64_t hash = 0;
  };

  void loadShard(std::size_t shard);

  std::string dir_;
  CampaignSpec spec_;
  std::size_t shardCount_ = 1;
  std::vector<std::string> labels_;
  std::vector<InstanceSpec> instances_;
  std::vector<CellRef> cells_;
  std::vector<bool> present_;
  std::size_t presentCount_ = 0;
  std::vector<std::ifstream> segments_;
};

/// A filter over a store's cells. Instance-axis filters are resolved from
/// the grid without touching record bytes; the solver filter matches cell
/// labels with the registry's glob syntax; `feasibleOnly` (and any
/// consumer callback) parses the matched lines only.
struct StoreQuery {
  std::vector<std::string> solvers;   ///< label globs; empty = all
  std::vector<std::string> scenarios; ///< exact scenario specs; empty = all
  std::vector<std::string> families;  ///< family names; empty = all
  int minTasks = 0;
  int maxTasks = std::numeric_limits<int>::max();
  std::vector<double> deadlineFactors; ///< exact factors; empty = all
  std::vector<std::uint64_t> seeds;    ///< empty = all
  std::string instanceHash; ///< 16-hex built-instance hash; empty = all
  bool feasibleOnly = false;
};

/// Callback per matched cell. `record` is parsed from `line`.
using StoreQueryFn = std::function<void(
    std::size_t instanceIndex, std::size_t cellIndex,
    const CampaignRecord& record, const std::string& line)>;

/// Stream the store through the filter in merged (instance-major) order;
/// returns the number of matched cells. `fn` may be empty (pure count —
/// records are then only parsed when `feasibleOnly` forces it).
std::size_t queryStore(CampaignStoreReader& reader, const StoreQuery& query,
                       const StoreQueryFn& fn = {});

} // namespace cawo
