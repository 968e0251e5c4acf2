#include "fmri/shard_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/trace.hpp"
#include "fmri/io.hpp"

namespace fcma::fmri {

namespace {

constexpr const char* kManifestSchema = "fcma.shards.v1";
constexpr char kShardMagic[4] = {'F', 'C', 'M', 'S'};
constexpr std::uint32_t kShardVersion = 1;
// Payload offset: one page, so mmap can start exactly at the floats.
constexpr std::uint64_t kPayloadOffset = 4096;
// Voxel rows padded to a 64-byte boundary (16 floats) for aligned loads.
constexpr std::uint64_t kRowAlignFloats = 16;

// Fixed-size binary shard header (written field-by-field, little-endian
// host order — shards are machine-local artifacts).
struct ShardHeader {
  char magic[4];
  std::uint32_t version;
  std::int32_t subject;
  std::uint32_t reserved;
  std::uint64_t voxels;
  std::uint64_t t0;
  std::uint64_t t_len;
  std::uint64_t row_stride;
  std::uint64_t payload_bytes;
  std::uint64_t checksum;
};
static_assert(sizeof(ShardHeader) == 64, "shard header layout drifted");

std::uint64_t fnv1a_init() { return 1469598103934665603ull; }

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

File open_file(const std::string& path, const char* mode) {
  File f(std::fopen(path.c_str(), mode));
  FCMA_CHECK(f != nullptr, "cannot open file: " + path);
  return f;
}

void write_exact(std::FILE* f, const void* data, std::size_t bytes,
                 const std::string& path) {
  FCMA_CHECK(std::fwrite(data, 1, bytes, f) == bytes,
             "short write: " + path);
}

void read_exact(std::FILE* f, void* data, std::size_t bytes,
                const std::string& path) {
  FCMA_CHECK(std::fread(data, 1, bytes, f) == bytes, "short read: " + path);
}

std::string shard_basename(const std::string& stem, std::int32_t subject) {
  const std::size_t slash = stem.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? stem : stem.substr(slash + 1);
  char buf[32];
  std::snprintf(buf, sizeof(buf), ".s%03d.shard", subject);
  return base + buf;
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

std::string checksum_hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// Per-subject time span: the smallest window covering all of its epochs.
void subject_span(const std::vector<Epoch>& epochs, std::int32_t subject,
                  std::uint64_t& t0, std::uint64_t& t_len) {
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  for (const Epoch& e : epochs) {
    if (e.subject != subject) continue;
    lo = std::min<std::uint64_t>(lo, e.start);
    hi = std::max<std::uint64_t>(hi, std::uint64_t{e.start} + e.length);
  }
  FCMA_CHECK(hi > 0, "subject has no epochs to shard");
  t0 = lo;
  t_len = hi - lo;
}

void atomic_rename(const std::string& tmp, const std::string& path) {
  FCMA_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
             "rename failed: " + path);
}

std::uint64_t require_u64(const json::Value& obj, const char* key,
                          const std::string& path) {
  return obj.at(key).as_uint(std::numeric_limits<std::uint64_t>::max(),
                             std::string("shard manifest ") + key + " in " +
                                 path);
}

}  // namespace

void write_shard_store(const std::string& stem, const Dataset& dataset) {
  dataset.validate();
  const std::string dir = dirname_of(stem);
  std::string manifest;
  manifest += "{\n  \"schema\": \"";
  manifest += kManifestSchema;
  manifest += "\",\n  \"voxels\": " + std::to_string(dataset.voxels());
  manifest += ",\n  \"timepoints\": " + std::to_string(dataset.timepoints());
  manifest += ",\n  \"subjects\": " + std::to_string(dataset.subjects());
  manifest += ",\n  \"shards\": [";

  for (std::int32_t s = 0; s < dataset.subjects(); ++s) {
    std::uint64_t t0 = 0;
    std::uint64_t t_len = 0;
    subject_span(dataset.epochs(), s, t0, t_len);
    const std::uint64_t stride =
        (t_len + kRowAlignFloats - 1) / kRowAlignFloats * kRowAlignFloats;
    const std::uint64_t payload_bytes =
        dataset.voxels() * stride * sizeof(float);

    const std::string file = shard_basename(stem, s);
    const std::string path = dir + file;
    const std::string tmp = path + ".tmp";
    {
      File f = open_file(tmp, "wb");
      // Header placeholder; rewritten once the payload checksum is known.
      ShardHeader hdr{};
      write_exact(f.get(), &hdr, sizeof(hdr), tmp);
      const std::vector<char> pad(kPayloadOffset - sizeof(hdr), 0);
      write_exact(f.get(), pad.data(), pad.size(), tmp);

      // Stream one padded voxel row at a time; float bits copied verbatim.
      std::vector<float> row(stride, 0.0f);
      std::uint64_t sum = fnv1a_init();
      for (std::size_t v = 0; v < dataset.voxels(); ++v) {
        std::memcpy(row.data(), dataset.data().row(v) + t0,
                    t_len * sizeof(float));
        sum = fnv1a(sum, row.data(), stride * sizeof(float));
        write_exact(f.get(), row.data(), stride * sizeof(float), tmp);
      }

      std::memcpy(hdr.magic, kShardMagic, sizeof(kShardMagic));
      hdr.version = kShardVersion;
      hdr.subject = s;
      hdr.voxels = dataset.voxels();
      hdr.t0 = t0;
      hdr.t_len = t_len;
      hdr.row_stride = stride;
      hdr.payload_bytes = payload_bytes;
      hdr.checksum = sum;
      FCMA_CHECK(std::fseek(f.get(), 0, SEEK_SET) == 0, "seek failed: " + tmp);
      write_exact(f.get(), &hdr, sizeof(hdr), tmp);
      FCMA_CHECK(std::fflush(f.get()) == 0, "flush failed: " + tmp);

      manifest += s == 0 ? "\n" : ",\n";
      manifest += "    {\"subject\": " + std::to_string(s);
      manifest += ", \"file\": \"" + file + "\"";
      manifest += ", \"t0\": " + std::to_string(t0);
      manifest += ", \"t_len\": " + std::to_string(t_len);
      manifest += ", \"row_stride\": " + std::to_string(stride);
      manifest += ", \"payload_bytes\": " + std::to_string(payload_bytes);
      manifest += ", \"checksum\": \"" + checksum_hex(sum) + "\"}";
    }
    atomic_rename(tmp, path);
  }
  manifest += "\n  ]\n}\n";

  save_epochs(stem + ".epochs", dataset.epochs());

  const std::string manifest_path = stem + ".shards";
  const std::string tmp = manifest_path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    FCMA_CHECK(f.good(), "cannot open manifest for writing: " + tmp);
    f.write(manifest.data(), static_cast<std::streamsize>(manifest.size()));
    f.flush();
    FCMA_CHECK(f.good(), "manifest write failed: " + tmp);
  }
  atomic_rename(tmp, manifest_path);
}

bool shard_store_exists(const std::string& stem) {
  struct stat st{};
  return ::stat((stem + ".shards").c_str(), &st) == 0;
}

// Refcounted mmap of one shard payload; unmapped when the last Panel
// (or epoch-source load) holding it drops its keepalive.
struct ShardStoreView::Mapping {
  const float* base = nullptr;
  std::size_t bytes = 0;

  ~Mapping() {
    if (base != nullptr) {
      ::munmap(const_cast<float*>(base), bytes);
    }
  }
};

ShardStoreView::ShardStoreView(std::string name, std::size_t voxels,
                               std::size_t timepoints, std::int32_t subjects,
                               std::vector<Epoch> epochs,
                               std::vector<Shard> shards)
    : name_(std::move(name)),
      voxels_(voxels),
      timepoints_(timepoints),
      subjects_(subjects),
      epochs_(std::move(epochs)),
      shards_(std::move(shards)),
      live_(shards_.size()),
      verified_(shards_.size(), false) {
  // Seed the io counters so trace consumers always see the full set.
  trace::count("io/shard_loads", 0);
  trace::count("io/bytes_mapped", 0);
}

ShardStoreView::~ShardStoreView() = default;

std::size_t ShardStoreView::mapped_shards() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& w : live_) {
    if (!w.expired()) ++n;
  }
  return n;
}

DatasetView::Panel ShardStoreView::epoch_panel(std::size_t idx) const {
  FCMA_CHECK(idx < epochs_.size(), "epoch index out of range");
  const Epoch& e = epochs_[idx];
  const auto s = static_cast<std::size_t>(e.subject);
  FCMA_CHECK(s < shards_.size(), "epoch subject has no shard");
  const Shard& shard = shards_[s];
  FCMA_CHECK(e.start >= shard.t0 &&
                 std::uint64_t{e.start} + e.length <= shard.t0 + shard.t_len,
             "epoch window outside its subject shard: " + shard.path);

  std::shared_ptr<Mapping> map;
  {
    std::lock_guard<std::mutex> lock(mu_);
    map = live_[s].lock();
    if (map == nullptr) {
      const int fd = ::open(shard.path.c_str(), O_RDONLY);
      FCMA_CHECK(fd >= 0, "cannot open shard: " + shard.path);
      void* addr =
          ::mmap(nullptr, shard.payload_bytes, PROT_READ, MAP_PRIVATE, fd,
                 static_cast<off_t>(kPayloadOffset));
      ::close(fd);
      FCMA_CHECK(addr != MAP_FAILED, "mmap failed: " + shard.path);
      map = std::make_shared<Mapping>();
      map->base = static_cast<const float*>(addr);
      map->bytes = shard.payload_bytes;
      if (!verified_[s]) {
        // First touch of this shard: verify the payload checksum so silent
        // corruption throws here instead of skewing correlations.
        const std::uint64_t sum =
            fnv1a(fnv1a_init(), map->base, map->bytes);
        FCMA_CHECK(sum == shard.checksum,
                   "shard payload checksum mismatch: " + shard.path);
        verified_[s] = true;
      }
      live_[s] = map;
      trace::count("io/shard_loads");
      trace::count("io/bytes_mapped",
                   static_cast<std::int64_t>(shard.payload_bytes));
    }
  }

  Panel p;
  p.view = linalg::ConstMatrixView{
      map->base + (e.start - shard.t0), voxels_, e.length,
      static_cast<std::size_t>(shard.row_stride)};
  p.keepalive = std::shared_ptr<const void>(map, map->base);
  return p;
}

std::unique_ptr<ShardStoreView> open_shard_store(const std::string& stem,
                                                 const std::string& name) {
  const std::string manifest_path = stem + ".shards";
  const json::Value doc = json::parse_file(manifest_path);
  FCMA_CHECK(doc.at("schema").as_string() == kManifestSchema,
             "not an fcma.shards.v1 manifest: " + manifest_path);
  const auto voxels =
      static_cast<std::size_t>(require_u64(doc, "voxels", manifest_path));
  const auto timepoints =
      static_cast<std::size_t>(require_u64(doc, "timepoints", manifest_path));
  const auto subjects =
      static_cast<std::int32_t>(require_u64(doc, "subjects", manifest_path));
  FCMA_CHECK(voxels > 0 && subjects > 0, "empty shard store: " + manifest_path);

  const std::string dir = dirname_of(manifest_path);
  std::vector<ShardStoreView::Shard> shards;
  for (const json::Value& entry : doc.at("shards").elements()) {
    ShardStoreView::Shard s;
    s.subject =
        static_cast<std::int32_t>(require_u64(entry, "subject", manifest_path));
    FCMA_CHECK(entry.at("file").is_string(),
               "shard manifest missing file: " + manifest_path);
    s.path = dir + entry.at("file").as_string();
    s.t0 = require_u64(entry, "t0", manifest_path);
    s.t_len = require_u64(entry, "t_len", manifest_path);
    s.row_stride = require_u64(entry, "row_stride", manifest_path);
    s.payload_bytes = require_u64(entry, "payload_bytes", manifest_path);
    const std::string hex = entry.at("checksum").as_string();
    char* end = nullptr;
    s.checksum = std::strtoull(hex.c_str(), &end, 16);
    FCMA_CHECK(!hex.empty() && end != nullptr && *end == '\0',
               "bad shard checksum in manifest: " + manifest_path);
    FCMA_CHECK(static_cast<std::size_t>(s.subject) == shards.size(),
               "shard subjects must be dense and ordered: " + manifest_path);
    shards.push_back(std::move(s));
  }
  FCMA_CHECK(shards.size() == static_cast<std::size_t>(subjects),
             "manifest must list one shard per subject: " + manifest_path);

  // Validate every shard header against the manifest before any compute.
  for (const ShardStoreView::Shard& s : shards) {
    File f = open_file(s.path, "rb");
    ShardHeader hdr{};
    read_exact(f.get(), &hdr, sizeof(hdr), s.path);
    FCMA_CHECK(std::memcmp(hdr.magic, kShardMagic, sizeof(kShardMagic)) == 0,
               "not an FCMS shard file: " + s.path);
    FCMA_CHECK(hdr.version == kShardVersion,
               "unsupported shard version: " + s.path);
    FCMA_CHECK(hdr.subject == s.subject && hdr.voxels == voxels &&
                   hdr.t0 == s.t0 && hdr.t_len == s.t_len &&
                   hdr.row_stride == s.row_stride &&
                   hdr.payload_bytes == s.payload_bytes &&
                   hdr.checksum == s.checksum,
               "shard header disagrees with manifest: " + s.path);
    FCMA_CHECK(hdr.row_stride >= hdr.t_len &&
                   hdr.payload_bytes ==
                       hdr.voxels * hdr.row_stride * sizeof(float),
               "inconsistent shard geometry: " + s.path);
    FCMA_CHECK(std::fseek(f.get(), 0, SEEK_END) == 0, "seek failed: " + s.path);
    const long size = std::ftell(f.get());
    FCMA_CHECK(size >= 0 && static_cast<std::uint64_t>(size) ==
                                kPayloadOffset + hdr.payload_bytes,
               "truncated shard file: " + s.path);
  }

  std::vector<Epoch> epochs = load_epochs(stem + ".epochs");
  FCMA_CHECK(!epochs.empty(), "shard store has no epochs: " + stem);

  return std::make_unique<ShardStoreView>(name, voxels, timepoints, subjects,
                                          std::move(epochs),
                                          std::move(shards));
}

std::unique_ptr<DatasetView> open_dataset_view(const std::string& stem,
                                               const std::string& name) {
  if (shard_store_exists(stem)) return open_shard_store(stem, name);
  return std::make_unique<InMemoryView>(load_dataset(stem, name));
}

}  // namespace fcma::fmri
