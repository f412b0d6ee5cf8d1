#include "exp/store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "core/instance_hash.hpp"
#include "exp/json.hpp"
#include "exp/record_json.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"

namespace cawo {

namespace fs = std::filesystem;

namespace {

constexpr const char* kStoreSchemaId = "cawosched-store-v1";

std::string segmentPath(const std::string& dir, std::size_t shard) {
  return dir + "/segment-" + std::to_string(shard) + ".jsonl";
}

std::string indexPath(const std::string& dir, std::size_t shard) {
  return dir + "/segment-" + std::to_string(shard) + ".idx";
}

std::string manifestPath(const std::string& dir) {
  return dir + "/manifest.json";
}

[[noreturn]] void failErrno(const std::string& what, const std::string& path) {
  CAWO_REQUIRE(false, what + " \"" + path + "\": " + std::strerror(errno));
  std::abort(); // unreachable — CAWO_REQUIRE(false) throws
}

int openAppend(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd < 0) failErrno("cannot open store file", path);
  return fd;
}

void writeAll(int fd, const std::string& data, const std::string& path) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      failErrno("write failed on store file", path);
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) failErrno("fsync failed on store file", path);
}

/// fsync the directory so freshly created/renamed store files survive a
/// crash of the file system cache.
void fsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) failErrno("cannot open store directory", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) failErrno("fsync failed on store directory", dir);
}

std::string readWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CAWO_REQUIRE(in.good(), "cannot open store file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct IndexEntry {
  std::size_t instance = 0;
  std::size_t cell = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t hash = 0;
};

/// Parse the valid sequential prefix of an index file against the current
/// segment size: entries must tile the segment from offset 0 without gaps
/// and stay within it. Returns the entries plus the byte length of the
/// valid prefix (the tail past it — torn line, out-of-bounds entry — is
/// whatever a crash left behind and is simply dropped).
struct IndexPrefix {
  std::vector<IndexEntry> entries;
  std::uint64_t segmentEnd = 0; ///< first un-indexed segment byte
  std::size_t validBytes = 0;   ///< length of the valid index prefix
  std::size_t droppedLines = 0;
};

IndexPrefix parseIndexPrefix(const std::string& text,
                             std::uint64_t segmentSize,
                             std::size_t numInstances, std::size_t stride) {
  IndexPrefix out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break; // torn index tail
    const std::string line = text.substr(pos, nl - pos);
    std::istringstream fields(line);
    IndexEntry entry;
    std::string hashHex;
    bool ok = static_cast<bool>(fields >> entry.instance >> entry.cell >>
                                entry.offset >> entry.length >> hashHex);
    std::string extra;
    ok = ok && !(fields >> extra);
    ok = ok && hashHex.size() == 16;
    ok = ok && entry.instance < numInstances && entry.cell < stride;
    ok = ok && entry.offset == out.segmentEnd && entry.length >= 2 &&
         entry.offset + entry.length <= segmentSize;
    if (ok) {
      char* end = nullptr;
      const unsigned long long h = std::strtoull(hashHex.c_str(), &end, 16);
      ok = end == hashHex.c_str() + hashHex.size();
      entry.hash = static_cast<std::uint64_t>(h);
    }
    if (!ok) break;
    out.entries.push_back(entry);
    out.segmentEnd = entry.offset + entry.length;
    pos = nl + 1;
    out.validBytes = pos;
  }
  // Anything after the valid prefix is dropped (recovered from the
  // segment itself).
  for (std::size_t p = out.validBytes; p < text.size();
       p = text.find('\n', p) == std::string::npos
               ? text.size()
               : text.find('\n', p) + 1)
    ++out.droppedLines;
  return out;
}

std::string formatIndexLine(std::size_t instance, std::size_t cell,
                            std::uint64_t offset, std::uint64_t length,
                            std::uint64_t hash) {
  return std::to_string(instance) + ' ' + std::to_string(cell) + ' ' +
         std::to_string(offset) + ' ' + std::to_string(length) + ' ' +
         instanceHashHex(hash) + '\n';
}

/// Scan the un-indexed tail of a segment for complete, parseable record
/// lines, resolving each back to its grid cell. Stops at the first torn or
/// unrecognisable line; `truncateAt` then marks where the valid data ends.
struct TailScan {
  std::vector<IndexEntry> entries;
  std::uint64_t truncateAt = 0; ///< end of the last valid line
};

TailScan scanSegmentTail(const std::string& path, std::uint64_t from,
                         std::uint64_t size,
                         const std::vector<InstanceSpec>& instances,
                         const std::vector<std::string>& labels) {
  TailScan out;
  out.truncateAt = from;
  if (from >= size) return out;

  std::unordered_map<std::string, std::size_t> cellKeyToInstance;
  cellKeyToInstance.reserve(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i)
    cellKeyToInstance.emplace(instances[i].cellKey(), i);
  std::unordered_map<std::string, std::size_t> labelToCell;
  for (std::size_t c = 0; c < labels.size(); ++c)
    labelToCell.emplace(labels[c], c);

  std::ifstream in(path, std::ios::binary);
  CAWO_REQUIRE(in.good(), "cannot open store segment: " + path);
  in.seekg(static_cast<std::streamoff>(from));
  std::string tail(static_cast<std::size_t>(size - from), '\0');
  in.read(tail.data(), static_cast<std::streamsize>(tail.size()));
  CAWO_REQUIRE(in.gcount() == static_cast<std::streamsize>(tail.size()),
               "short read on store segment: " + path);

  std::size_t pos = 0;
  while (pos < tail.size()) {
    const std::size_t nl = tail.find('\n', pos);
    if (nl == std::string::npos) break; // torn final line
    const std::string line = tail.substr(pos, nl - pos);
    IndexEntry entry;
    try {
      const CampaignRecord record = parseCampaignRecordLine(line);
      const std::string label =
          record.hasOnline ? record.solver + " @ " + record.policy
                           : record.solver;
      const auto inst = cellKeyToInstance.find(record.spec.cellKey());
      const auto cell = labelToCell.find(label);
      if (inst == cellKeyToInstance.end() || cell == labelToCell.end())
        break; // not a cell of this campaign — treat like a torn line
      entry.instance = inst->second;
      entry.cell = cell->second;
      entry.hash = record.instanceHash;
    } catch (const std::exception&) {
      break; // unparsable — torn or corrupt from here on
    }
    entry.offset = from + pos;
    entry.length = nl - pos + 1;
    out.entries.push_back(entry);
    pos = nl + 1;
    out.truncateAt = from + pos;
  }
  return out;
}

} // namespace

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

namespace {

std::string renderManifest(const CampaignSpec& spec,
                           const std::vector<std::string>& labels,
                           std::size_t numInstances, std::size_t shards) {
  std::ostringstream out;
  JsonWriter w(out);
  w.beginObject();
  w.key("schema").value(kStoreSchemaId);
  w.key("shards").value(static_cast<std::int64_t>(shards));
  w.key("num_instances").value(static_cast<std::int64_t>(numInstances));
  w.key("cells_per_instance").value(static_cast<std::int64_t>(labels.size()));
  w.key("solvers");
  w.compactNext();
  w.beginArray();
  for (const std::string& s : labels) w.value(s);
  w.endArray();
  // The owning spec in canonical single-line JSON (setCampaignKey
  // vocabulary): parseable back into the identical CampaignSpec, and
  // string-comparable for resume/shard validation.
  w.key("spec_json").value(canonicalCampaignSpecJson(spec));
  w.endObject();
  out << '\n';
  return out.str();
}

void validateManifest(const std::string& dir, const std::string& text,
                      const CampaignSpec& spec,
                      const std::vector<std::string>& labels,
                      std::size_t numInstances, std::size_t shards) {
  const JsonValue doc = JsonValue::parse(text);
  CAWO_REQUIRE(doc.at("schema").asString() == kStoreSchemaId,
               "store manifest in \"" + dir + "\" has schema \"" +
                   doc.at("schema").asString() + "\", expected \"" +
                   kStoreSchemaId + "\"");
  CAWO_REQUIRE(
      doc.at("spec_json").asString() == canonicalCampaignSpecJson(spec),
      "store \"" + dir + "\" belongs to a different campaign spec — "
      "refusing to mix results (stored: " + doc.at("spec_json").asString() +
          ", requested: " + canonicalCampaignSpecJson(spec) + ")");
  CAWO_REQUIRE(doc.at("shards").asInt() ==
                   static_cast<std::int64_t>(shards),
               "store \"" + dir + "\" is partitioned into " +
                   std::to_string(doc.at("shards").asInt()) +
                   " shard(s), but this run requested " +
                   std::to_string(shards) +
                   " — the shard count is fixed at store creation");
  CAWO_REQUIRE(doc.at("num_instances").asInt() ==
                   static_cast<std::int64_t>(numInstances),
               "store \"" + dir + "\" instance count mismatch");
  const std::vector<JsonValue>& solvers = doc.at("solvers").asArray();
  bool sameLabels = solvers.size() == labels.size();
  for (std::size_t i = 0; sameLabels && i < labels.size(); ++i)
    sameLabels = solvers[i].asString() == labels[i];
  CAWO_REQUIRE(sameLabels,
               "store \"" + dir + "\" was created with a different solver "
               "selection — the cell grid does not match");
}

} // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

CampaignStoreWriter::CampaignStoreWriter(const std::string& dir,
                                         const CampaignSpec& spec,
                                         const StoreOptions& options)
    : dir_(dir), spec_(spec), options_(options) {
  // The manifest records the count as a JSON int64; a larger count
  // would be written negative and make the store unreadable.
  constexpr auto kMaxShards =
      static_cast<std::size_t>(std::numeric_limits<std::int64_t>::max());
  CAWO_REQUIRE(options_.shardCount >= 1 && options_.shardCount <= kMaxShards,
               "store shard count must be between 1 and " +
                   std::to_string(kMaxShards) + ", got " +
                   std::to_string(options_.shardCount));
  CAWO_REQUIRE(options_.shardIndex < options_.shardCount,
               "store shard index " + std::to_string(options_.shardIndex) +
                   " out of range for " +
                   std::to_string(options_.shardCount) + " shard(s)");
  CAWO_REQUIRE(options_.groupCommit >= 1,
               "store group-commit interval must be at least 1");

  labels_ = campaignCellLabels(spec_);
  instances_ = expandCampaign(spec_);
  specHashes_.reserve(instances_.size());
  for (const InstanceSpec& inst : instances_)
    specHashes_.push_back(instanceSpecHash(inst));
  present_.assign(instances_.size() * labels_.size(), false);
  for (std::size_t i = 0; i < instances_.size(); ++i)
    if (specHashes_[i] % options_.shardCount == options_.shardIndex)
      shardCellCount_ += labels_.size();

  fs::create_directories(dir_);
  const std::string manifest = manifestPath(dir_);
  if (fs::exists(manifest)) {
    validateManifest(dir_, readWholeFile(manifest), spec_, labels_,
                     instances_.size(), options_.shardCount);
  } else {
    // Concurrent shard processes may race to create the manifest; each
    // writes identical bytes to a private temp file and renames it into
    // place (atomic), so whichever wins the race, the result is the same.
    const std::string tmp =
        manifest + ".tmp-" + std::to_string(options_.shardIndex);
    {
      std::ofstream out(tmp, std::ios::binary);
      CAWO_REQUIRE(out.good(), "cannot create store manifest: " + tmp);
      out << renderManifest(spec_, labels_, instances_.size(),
                            options_.shardCount);
      CAWO_REQUIRE(out.good(), "failed writing store manifest: " + tmp);
    }
    std::error_code ec;
    fs::rename(tmp, manifest, ec);
    CAWO_REQUIRE(!ec, "cannot install store manifest \"" + manifest +
                          "\": " + ec.message());
  }

  const std::string segPath = segmentPath(dir_, options_.shardIndex);
  const bool hasData = fs::exists(segPath) && fs::file_size(segPath) > 0;
  CAWO_REQUIRE(!hasData || options_.resume,
               "store shard segment \"" + segPath +
                   "\" already holds results — pass resume to continue the "
                   "interrupted run, or point at a fresh directory");

  segFd_ = openAppend(segPath);
  idxFd_ = openAppend(indexPath(dir_, options_.shardIndex));
  if (options_.resume) recoverExistingShard();
  fsyncDir(dir_);
}

CampaignStoreWriter::~CampaignStoreWriter() {
  try {
    flush();
  } catch (...) {
    // A destructor must not throw; an fsync failure here surfaces on the
    // next explicit flush()/open instead.
  }
  if (segFd_ >= 0) ::close(segFd_);
  if (idxFd_ >= 0) ::close(idxFd_);
}

void CampaignStoreWriter::recoverExistingShard() {
  const std::string segPath = segmentPath(dir_, options_.shardIndex);
  const std::string idxPath = indexPath(dir_, options_.shardIndex);
  const std::uint64_t segSize =
      fs::exists(segPath) ? fs::file_size(segPath) : 0;
  const std::string idxText =
      fs::exists(idxPath) ? readWholeFile(idxPath) : std::string();

  IndexPrefix prefix =
      parseIndexPrefix(idxText, segSize, instances_.size(), labels_.size());
  recovery_.droppedIndexLines = prefix.droppedLines;
  if (prefix.validBytes < idxText.size()) {
    // Drop the torn/invalid index tail; the segment bytes behind it are
    // re-indexed below.
    if (::ftruncate(idxFd_, static_cast<off_t>(prefix.validBytes)) != 0)
      failErrno("ftruncate failed on store index", idxPath);
  }

  // Re-index complete record lines the group commit had written but not
  // yet indexed, then drop any torn final line so it re-runs.
  const TailScan tail = scanSegmentTail(segPath, prefix.segmentEnd, segSize,
                                        instances_, labels_);
  recovery_.recoveredCells = tail.entries.size();
  if (tail.truncateAt < segSize) {
    recovery_.truncatedBytes =
        static_cast<std::size_t>(segSize - tail.truncateAt);
    if (::ftruncate(segFd_, static_cast<off_t>(tail.truncateAt)) != 0)
      failErrno("ftruncate failed on store segment", segPath);
  }

  std::string recoveredIndex;
  for (const IndexEntry& entry : tail.entries)
    recoveredIndex += formatIndexLine(entry.instance, entry.cell,
                                      entry.offset, entry.length, entry.hash);

  const auto mark = [&](const IndexEntry& entry) {
    CAWO_REQUIRE(ownsInstance(entry.instance),
                 "store segment \"" + segPath +
                     "\" holds a cell of instance " +
                     std::to_string(entry.instance) +
                     ", which belongs to another shard — store corrupt");
    const std::size_t bit = entry.instance * labels_.size() + entry.cell;
    CAWO_REQUIRE(!present_[bit],
                 "store segment \"" + segPath + "\" holds instance " +
                     std::to_string(entry.instance) + " cell " +
                     std::to_string(entry.cell) + " twice — store corrupt");
    present_[bit] = true;
    ++presentCount_;
  };
  for (const IndexEntry& entry : prefix.entries) mark(entry);
  for (const IndexEntry& entry : tail.entries) mark(entry);

  segBytes_ = tail.truncateAt;
  if (!recoveredIndex.empty()) {
    writeAll(idxFd_, recoveredIndex, idxPath);
    fsyncFd(idxFd_, idxPath);
  }
}

bool CampaignStoreWriter::ownsInstance(std::size_t instanceIndex) const {
  CAWO_REQUIRE(instanceIndex < instances_.size(),
               "store instance index out of range");
  return specHashes_[instanceIndex] % options_.shardCount ==
         options_.shardIndex;
}

bool CampaignStoreWriter::instanceDone(std::size_t instanceIndex) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t base = instanceIndex * labels_.size();
  for (std::size_t c = 0; c < labels_.size(); ++c)
    if (!present_[base + c]) return false;
  return true;
}

bool CampaignStoreWriter::cellPresent(std::size_t instanceIndex,
                                      std::size_t cellIndex) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return present_[instanceIndex * labels_.size() + cellIndex];
}

std::size_t CampaignStoreWriter::presentCells() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return presentCount_;
}

std::size_t CampaignStoreWriter::shardCells() const {
  return shardCellCount_;
}

void CampaignStoreWriter::appendLocked(std::size_t instanceIndex,
                                       std::size_t cellIndex,
                                       const std::string& line,
                                       std::uint64_t hash) {
  present_[instanceIndex * labels_.size() + cellIndex] = true;
  ++presentCount_;
  pendingIndex_ += formatIndexLine(instanceIndex, cellIndex, segBytes_,
                                   line.size() + 1, hash);
  pendingSegment_ += line;
  pendingSegment_ += '\n';
  segBytes_ += line.size() + 1;
  if (++pendingRecords_ >= options_.groupCommit) flushLocked();
}

void CampaignStoreWriter::append(std::size_t instanceIndex,
                                 std::size_t cellIndex,
                                 const CampaignRecord& record) {
  CAWO_REQUIRE(cellIndex < labels_.size(), "store cell index out of range");
  CAWO_REQUIRE(ownsInstance(instanceIndex),
               "store shard " + std::to_string(options_.shardIndex) +
                   " does not own instance " + std::to_string(instanceIndex));
  const std::string line = campaignRecordJsonLine(record);
  std::lock_guard<std::mutex> lock(mutex_);
  CAWO_REQUIRE(!present_[instanceIndex * labels_.size() + cellIndex],
               "store already holds instance " +
                   std::to_string(instanceIndex) + " cell " +
                   std::to_string(cellIndex) + " (" + labels_[cellIndex] +
                   ") — duplicate append");
  appendLocked(instanceIndex, cellIndex, line, record.instanceHash);
}

void CampaignStoreWriter::appendInstance(std::size_t instanceIndex,
                                         const CampaignRecord* records,
                                         std::size_t count) {
  CAWO_REQUIRE(count == labels_.size(),
               "store cell group size does not match the campaign stride");
  CAWO_REQUIRE(ownsInstance(instanceIndex),
               "store shard " + std::to_string(options_.shardIndex) +
                   " does not own instance " + std::to_string(instanceIndex));
  // Serialize outside the lock; a torn-tail recovery can leave an instance
  // partially present, so cells that already made it to disk are skipped.
  std::vector<std::string> lines(count);
  for (std::size_t c = 0; c < count; ++c)
    lines[c] = campaignRecordJsonLine(records[c]);
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t c = 0; c < count; ++c) {
    if (present_[instanceIndex * labels_.size() + c]) continue;
    appendLocked(instanceIndex, c, lines[c], records[c].instanceHash);
  }
}

void CampaignStoreWriter::flushLocked() {
  if (pendingSegment_.empty() && pendingIndex_.empty()) return;
  obs::TraceScope span("store.flush");
  if (span.recording())
    span.arg("records", static_cast<std::int64_t>(pendingRecords_));
  const std::string segPath = segmentPath(dir_, options_.shardIndex);
  const std::string idxPath = indexPath(dir_, options_.shardIndex);
  // Segment bytes reach disk before the index lines that point into them:
  // after a crash the index never references data that does not exist —
  // the opposite order would need the tail scan to distrust the index.
  writeAll(segFd_, pendingSegment_, segPath);
  fsyncFd(segFd_, segPath);
  writeAll(idxFd_, pendingIndex_, idxPath);
  fsyncFd(idxFd_, idxPath);
  fsyncCount_ += 2;
  pendingSegment_.clear();
  pendingIndex_.clear();
  pendingRecords_ = 0;
}

std::size_t CampaignStoreWriter::fsyncCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fsyncCount_;
}

void CampaignStoreWriter::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  flushLocked();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

CampaignStoreReader::CampaignStoreReader(const std::string& dir)
    : dir_(dir) {
  const std::string manifest = manifestPath(dir_);
  CAWO_REQUIRE(fs::exists(manifest),
               "no campaign store at \"" + dir_ +
                   "\" (missing manifest.json)");
  const JsonValue doc = JsonValue::parse(readWholeFile(manifest));
  CAWO_REQUIRE(doc.at("schema").asString() == kStoreSchemaId,
               "store manifest in \"" + dir_ + "\" has schema \"" +
                   doc.at("schema").asString() + "\", expected \"" +
                   kStoreSchemaId + "\"");
  spec_ = parseCampaignText(doc.at("spec_json").asString());
  const std::int64_t shards = doc.at("shards").asInt();
  CAWO_REQUIRE(shards >= 1, "store manifest: shards must be >= 1, got " +
                                std::to_string(shards));
  shardCount_ = static_cast<std::size_t>(shards);
  for (const JsonValue& s : doc.at("solvers").asArray())
    labels_.push_back(s.asString());
  CAWO_REQUIRE(!labels_.empty(), "store manifest: empty solver list");
  instances_ = expandCampaign(spec_);
  CAWO_REQUIRE(doc.at("num_instances").asInt() ==
                   static_cast<std::int64_t>(instances_.size()),
               "store manifest: instance count does not match the spec's "
               "expansion — manifest corrupt");
  CAWO_REQUIRE(doc.at("cells_per_instance").asInt() ==
                   static_cast<std::int64_t>(labels_.size()),
               "store manifest: cell count does not match the solver list");

  cells_.resize(instances_.size() * labels_.size());
  present_.assign(cells_.size(), false);
  segments_.resize(shardCount_);
  for (std::size_t s = 0; s < shardCount_; ++s) loadShard(s);
}

void CampaignStoreReader::loadShard(std::size_t shard) {
  const std::string segPath = segmentPath(dir_, shard);
  if (!fs::exists(segPath)) return;
  const std::uint64_t segSize = fs::file_size(segPath);

  const std::string idxPath = indexPath(dir_, shard);
  const std::string idxText =
      fs::exists(idxPath) ? readWholeFile(idxPath) : std::string();
  const IndexPrefix prefix =
      parseIndexPrefix(idxText, segSize, instances_.size(), labels_.size());
  // Complete lines past the indexed prefix still count (a crash between
  // the segment and index commits); the torn tail is ignored read-only.
  const TailScan tail = scanSegmentTail(segPath, prefix.segmentEnd, segSize,
                                        instances_, labels_);

  const auto admit = [&](const IndexEntry& entry) {
    const std::size_t bit = entry.instance * labels_.size() + entry.cell;
    CAWO_REQUIRE(!present_[bit],
                 "store \"" + dir_ + "\": instance " +
                     std::to_string(entry.instance) + " cell " +
                     std::to_string(entry.cell) +
                     " appears in more than one shard — store corrupt");
    present_[bit] = true;
    ++presentCount_;
    cells_[bit] = CellRef{static_cast<std::int32_t>(shard),
                          static_cast<std::uint32_t>(entry.length),
                          entry.offset, entry.hash};
  };
  for (const IndexEntry& entry : prefix.entries) admit(entry);
  for (const IndexEntry& entry : tail.entries) admit(entry);

  segments_[shard].open(segPath, std::ios::binary);
  CAWO_REQUIRE(segments_[shard].good(),
               "cannot open store segment: " + segPath);
}

bool CampaignStoreReader::cellPresent(std::size_t instanceIndex,
                                      std::size_t cellIndex) const {
  return present_[instanceIndex * labels_.size() + cellIndex];
}

std::uint64_t CampaignStoreReader::cellHash(std::size_t instanceIndex,
                                            std::size_t cellIndex) const {
  return cells_[instanceIndex * labels_.size() + cellIndex].hash;
}

std::string CampaignStoreReader::readCellLine(std::size_t instanceIndex,
                                              std::size_t cellIndex) {
  const std::size_t bit = instanceIndex * labels_.size() + cellIndex;
  CAWO_REQUIRE(present_[bit], "store cell (" + std::to_string(instanceIndex) +
                                  ", " + std::to_string(cellIndex) +
                                  ") is not present");
  const CellRef& ref = cells_[bit];
  std::ifstream& seg = segments_[static_cast<std::size_t>(ref.shard)];
  seg.clear();
  seg.seekg(static_cast<std::streamoff>(ref.offset));
  std::string line(ref.length, '\0');
  seg.read(line.data(), static_cast<std::streamsize>(line.size()));
  CAWO_REQUIRE(seg.gcount() == static_cast<std::streamsize>(line.size()) &&
                   line.back() == '\n',
               "store segment read failed for cell (" +
                   std::to_string(instanceIndex) + ", " +
                   std::to_string(cellIndex) + ") — segment modified?");
  line.pop_back(); // the terminator is storage framing, not record bytes
  return line;
}

void CampaignStoreReader::forEachPresentCell(
    const std::function<void(std::size_t, std::size_t, const std::string&)>&
        fn) {
  for (std::size_t i = 0; i < instances_.size(); ++i)
    for (std::size_t c = 0; c < labels_.size(); ++c)
      if (present_[i * labels_.size() + c]) fn(i, c, readCellLine(i, c));
}

// ---------------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------------

namespace {

bool matchesAnyGlob(const std::vector<std::string>& patterns,
                    const std::string& text) {
  if (patterns.empty()) return true;
  for (const std::string& pattern : patterns)
    if (globMatch(pattern, text)) return true;
  return false;
}

template <typename T>
bool inListOrAll(const std::vector<T>& list, const T& value) {
  if (list.empty()) return true;
  return std::find(list.begin(), list.end(), value) != list.end();
}

bool instanceMatches(const StoreQuery& query, const InstanceSpec& spec) {
  if (!inListOrAll(query.families, std::string(familyName(spec.family))))
    return false;
  if (spec.targetTasks < query.minTasks || spec.targetTasks > query.maxTasks)
    return false;
  if (!inListOrAll(query.scenarios, spec.scenario)) return false;
  if (!inListOrAll(query.deadlineFactors, spec.deadlineFactor)) return false;
  if (!inListOrAll(query.seeds, spec.seed)) return false;
  return true;
}

} // namespace

std::size_t queryStore(CampaignStoreReader& reader, const StoreQuery& query,
                       const StoreQueryFn& fn) {
  const std::vector<std::string>& labels = reader.cellLabels();
  std::vector<bool> cellMask(labels.size());
  for (std::size_t c = 0; c < labels.size(); ++c)
    cellMask[c] = matchesAnyGlob(query.solvers, labels[c]);

  std::string hashFilter = query.instanceHash;
  std::transform(hashFilter.begin(), hashFilter.end(), hashFilter.begin(),
                 [](unsigned char ch) { return std::tolower(ch); });
  CAWO_REQUIRE(hashFilter.empty() || hashFilter.size() == 16,
               "query: instance-hash filter must be 16 hex digits");

  const bool needRecord = query.feasibleOnly || static_cast<bool>(fn);
  std::size_t matched = 0;
  for (std::size_t i = 0; i < reader.numInstances(); ++i) {
    if (!instanceMatches(query, reader.instances()[i])) continue;
    for (std::size_t c = 0; c < labels.size(); ++c) {
      if (!cellMask[c] || !reader.cellPresent(i, c)) continue;
      if (!hashFilter.empty() &&
          instanceHashHex(reader.cellHash(i, c)) != hashFilter)
        continue;
      if (!needRecord) {
        ++matched;
        continue;
      }
      const std::string line = reader.readCellLine(i, c);
      const CampaignRecord record = parseCampaignRecordLine(line);
      if (query.feasibleOnly && !record.feasible) continue;
      ++matched;
      if (fn) fn(i, c, record, line);
    }
  }
  return matched;
}

} // namespace cawo
