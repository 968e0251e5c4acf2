#include "cluster/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

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

  // tmp + rename: readers never observe a torn file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    FCMA_CHECK(f.good(), "cannot open checkpoint file for writing: " + tmp);
    f.write(out.data(), static_cast<std::streamsize>(out.size()));
    f.flush();
    FCMA_CHECK(f.good(), "checkpoint write failed: " + tmp);
  }
  FCMA_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
             "checkpoint rename failed: " + path);
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
