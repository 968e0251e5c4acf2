#include "cluster/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"

namespace fcma::cluster {

namespace {

constexpr const char* kSchema = "fcma.ckpt.v1";

void append_double(std::string& out, double v) {
  char buf[32];
  // 17 significant digits round-trip any IEEE-754 double through strtod.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

std::string errno_text() { return std::strerror(errno); }

/// Owns one open file descriptor: every exit path closes it, and close()
/// reports the failure a caller must see (the last write-back).
class Fd {
 public:
  Fd(const std::string& path, int flags)
      : fd_(::open(path.c_str(), flags, 0644)) {
    FCMA_CHECK(fd_ >= 0, "cannot open " + path + ": " + errno_text());
  }
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool close() { return ::close(std::exchange(fd_, -1)) == 0; }

 private:
  int fd_;
};

/// Writes `data` to a fresh `path` and fsyncs it before closing.
void write_synced(const std::string& path, const std::string& data) {
  Fd file(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC);
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n =
        ::write(file.get(), data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    FCMA_CHECK(n > 0, "checkpoint write failed: " + path + ": " +
                          errno_text());
    done += static_cast<std::size_t>(n);
  }
  FCMA_CHECK(::fsync(file.get()) == 0,
             "checkpoint fsync failed: " + path + ": " + errno_text());
  FCMA_CHECK(file.close(),
             "checkpoint close failed: " + path + ": " + errno_text());
}

/// Fsyncs the directory holding `path`, so a rename into it survives a
/// host crash.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  Fd handle(dir, O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  FCMA_CHECK(::fsync(handle.get()) == 0,
             "checkpoint directory fsync failed: " + dir + ": " +
                 errno_text());
}

}  // namespace

void write_checkpoint(const std::string& path,
                      const core::Scoreboard& board) {
  std::string out;
  out += "{\n  \"schema\": \"";
  out += kSchema;
  out += "\",\n  \"total_voxels\": ";
  out += std::to_string(board.total_voxels());
  out += ",\n  \"scored\": ";
  out += std::to_string(board.scored());
  out += ",\n  \"runs\": [";

  // Contiguous scored runs: [{"first": f, "accuracy": [..]}, ...].
  bool first_run = true;
  std::size_t v = 0;
  const std::size_t n = board.total_voxels();
  while (v < n) {
    if (!board.voxel_scored(static_cast<std::uint32_t>(v))) {
      ++v;
      continue;
    }
    std::size_t end = v;
    while (end < n && board.voxel_scored(static_cast<std::uint32_t>(end))) {
      ++end;
    }
    out += first_run ? "\n" : ",\n";
    first_run = false;
    out += "    {\"first\": ";
    out += std::to_string(v);
    out += ", \"accuracy\": [";
    for (std::size_t i = v; i < end; ++i) {
      if (i != v) out += ", ";
      append_double(out, board.accuracy_of(static_cast<std::uint32_t>(i)));
    }
    out += "]}";
    v = end;
  }
  out += first_run ? "]\n}\n" : "\n  ]\n}\n";

  // tmp + rename: readers never observe a torn file.  The tmp file is
  // fsynced before the rename and the directory after it, so a host crash
  // leaves either the old checkpoint or the whole new one, never a renamed
  // but empty file.
  const std::string tmp = path + ".tmp";
  write_synced(tmp, out);
  FCMA_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
             "checkpoint rename failed: " + path + ": " + errno_text());
  sync_parent_dir(path);
}

core::Scoreboard load_checkpoint(const std::string& path,
                                 std::size_t expected_voxels) {
  const json::Value doc = json::parse_file(path);
  FCMA_CHECK(doc.at("schema").as_string() == kSchema,
             "not an fcma.ckpt.v1 checkpoint: " + path);
  // Voxel indices are uint32 (VoxelTask::first), which bounds the board.
  const auto total = static_cast<std::size_t>(doc.at("total_voxels").as_uint(
      std::numeric_limits<std::uint32_t>::max(),
      "checkpoint total_voxels in " + path));
  FCMA_CHECK(total > 0, "checkpoint has no voxels: " + path);
  FCMA_CHECK(expected_voxels == 0 || expected_voxels == total,
             "checkpoint voxel count does not match the dataset");

  core::Scoreboard board(total);
  for (const json::Value& run : doc.at("runs").elements()) {
    core::TaskResult result;
    result.task.first = static_cast<std::uint32_t>(
        run.at("first").as_uint(total - 1, "checkpoint run first in " + path));
    const auto& acc = run.at("accuracy").elements();
    result.task.count = static_cast<std::uint32_t>(acc.size());
    result.accuracy.reserve(acc.size());
    for (const json::Value& a : acc) result.accuracy.push_back(a.as_number());
    board.add(result);  // strict: a checkpoint never repeats a voxel
  }
  const auto scored = static_cast<std::size_t>(
      doc.at("scored").as_uint(total, "checkpoint scored in " + path));
  FCMA_CHECK(board.scored() == scored,
             "checkpoint scored-count mismatch: " + path);
  return board;
}

}  // namespace fcma::cluster
