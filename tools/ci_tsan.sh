#!/bin/sh
# ThreadSanitizer gate for the concurrency-sensitive layers: configures a
# separate build tree with -DFCMA_SANITIZE=thread, builds the threading
# (parallel loop + stress), tracing, cluster fault-tolerance and
# epoch-source test binaries, and runs them under TSan.  Any reported race fails
# the script (halt_on_error); environments where TSan cannot compile or run
# (no libtsan, unsupported kernel/ASLR settings) skip with exit 77, which
# CTest maps to "skipped" via SKIP_RETURN_CODE.
#
# Usage: ci_tsan.sh <repo-root> [build-dir]
set -eu

SRC="${1:?usage: ci_tsan.sh <repo-root> [build-dir]}"
BUILD="${2:-$SRC/build-tsan}"

# Probe: can this toolchain produce and run a TSan binary at all?
PROBE_DIR=$(mktemp -d)
trap 'rm -rf "$PROBE_DIR"' EXIT
cat > "$PROBE_DIR/probe.cpp" <<'EOF'
#include <thread>
int main() {
  int x = 0;
  std::thread t([&x] { x = 1; });
  t.join();
  return x - 1;
}
EOF
if ! c++ -fsanitize=thread -g "$PROBE_DIR/probe.cpp" \
    -o "$PROBE_DIR/probe" 2>/dev/null; then
  echo "ci_tsan: toolchain cannot link -fsanitize=thread; skipping" >&2
  exit 77
fi
if ! "$PROBE_DIR/probe" >/dev/null 2>&1; then
  echo "ci_tsan: TSan binaries cannot run here; skipping" >&2
  exit 77
fi

# Configure the sanitizer tree.  Bench/example binaries are irrelevant to
# the race check and native-arch codegen just slows the instrumented build.
cmake -S "$SRC" -B "$BUILD" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFCMA_SANITIZE=thread \
  -DFCMA_BUILD_BENCH=OFF \
  -DFCMA_BUILD_EXAMPLES=OFF \
  -DFCMA_NATIVE_ARCH=OFF > /dev/null

JOBS=$(nproc 2>/dev/null || echo 4)
cmake --build "$BUILD" \
  --target test_threading test_trace \
          test_timeline test_tlstream test_cluster test_cluster_recovery \
          test_epoch_source \
  -j "$JOBS" > /dev/null

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
echo "ci_tsan: running test_threading under TSan"
"$BUILD/tests/test_threading"
echo "ci_tsan: running test_trace under TSan"
"$BUILD/tests/test_trace"
echo "ci_tsan: running test_timeline under TSan"
"$BUILD/tests/test_timeline"
# Stream spill + the follow-reader-vs-writers race: readers poll segment
# files while every ring overflow spills concurrently.
echo "ci_tsan: running test_tlstream under TSan"
"$BUILD/tests/test_tlstream"
# The cluster driver + fault-injection suites exercise the comm shutdown
# race, lease expiry, and worker-death requeue paths across real threads.
echo "ci_tsan: running test_cluster under TSan"
"$BUILD/tests/test_cluster"
echo "ci_tsan: running test_cluster_recovery under TSan"
"$BUILD/tests/test_cluster_recovery"
# The pooled grouped pipeline: workers write disjoint columns of one
# correlation buffer while row leases share the source's spare buffers.
echo "ci_tsan: running test_epoch_source under TSan"
"$BUILD/tests/test_epoch_source"
echo "ci_tsan: clean"
