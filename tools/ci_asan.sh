#!/bin/sh
# Address+UB sanitizer gate for the memory-sensitive layers: configures a
# separate build tree with -DFCMA_SANITIZE=$SANITIZE (below), builds the
# data-plane test binaries (shard store mmap lifecycle, streamed epoch
# cache, fmri io, pipeline stages, timeline stream reader and writer, the
# trace views rendered from the stream, the SIMD kernels, the padded
# SVM sweep buffers they read, the Fisher transform, and the gemm/syrk
# packing panels), and runs them
# instrumented.  float-cast-overflow is listed on its own because GCC's
# `undefined` group leaves it out.  Any heap error, leak, or UB report
# fails the script (halt_on_error); environments where ASan cannot compile
# or run (no libasan, restricted ptrace/ASLR) skip with exit 77, which
# CTest maps to "skipped" via SKIP_RETURN_CODE.
#
# Usage: ci_asan.sh <repo-root> [build-dir]
set -eu

SRC="${1:?usage: ci_asan.sh <repo-root> [build-dir]}"
BUILD="${2:-$SRC/build-asan}"

# Probe: can this toolchain produce and run an ASan+UBSan binary at all?
PROBE_DIR=$(mktemp -d)
trap 'rm -rf "$PROBE_DIR"' EXIT
cat > "$PROBE_DIR/probe.cpp" <<'EOF'
#include <vector>
int main() {
  std::vector<int> v(4, 1);
  return v[3] - 1;
}
EOF
SANITIZE=address,undefined,float-cast-overflow
if ! c++ -fsanitize=$SANITIZE -g "$PROBE_DIR/probe.cpp" \
    -o "$PROBE_DIR/probe" 2>/dev/null; then
  echo "ci_asan: toolchain cannot link -fsanitize=$SANITIZE; skipping" >&2
  exit 77
fi
if ! "$PROBE_DIR/probe" >/dev/null 2>&1; then
  echo "ci_asan: ASan binaries cannot run here; skipping" >&2
  exit 77
fi

cmake -S "$SRC" -B "$BUILD" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFCMA_SANITIZE=$SANITIZE \
  -DFCMA_BUILD_BENCH=OFF \
  -DFCMA_BUILD_EXAMPLES=OFF \
  -DFCMA_NATIVE_ARCH=OFF > /dev/null

JOBS=$(nproc 2>/dev/null || echo 4)
cmake --build "$BUILD" \
  --target test_shard_store test_epoch_source test_fmri test_fcma_stages \
          test_tlstream test_trace test_simd_dispatch test_svm test_stats \
          test_linalg \
  -j "$JOBS" > /dev/null

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
# The shard store maps files read-only and hands pointers up through
# Panel keepalives — exactly the lifetime bugs ASan catches.
echo "ci_asan: running test_shard_store under ASan+UBSan"
"$BUILD/tests/test_shard_store"
echo "ci_asan: running test_epoch_source under ASan+UBSan"
"$BUILD/tests/test_epoch_source"
echo "ci_asan: running test_fmri under ASan+UBSan"
"$BUILD/tests/test_fmri"
echo "ci_asan: running test_fcma_stages under ASan+UBSan"
"$BUILD/tests/test_fcma_stages"
# The stream reader parses untrusted segment files into integers; the
# malformed-input tests drive its casts under float-cast-overflow.
echo "ci_asan: running test_tlstream under ASan+UBSan"
"$BUILD/tests/test_tlstream"
# The trace layer: spans recorded into an armed stream, the manifest's
# registry sections, and the fcma.trace.v2 view folded from a read.
echo "ci_asan: running test_trace under ASan+UBSan"
"$BUILD/tests/test_trace"
# The SMO kernels read whole vectors of padded buffers; a buffer shorter
# than its kSmoPad multiple is a heap overflow here.
echo "ci_asan: running test_simd_dispatch under ASan+UBSan"
"$BUILD/tests/test_simd_dispatch"
echo "ci_asan: running test_svm under ASan+UBSan"
"$BUILD/tests/test_svm"
# The Fisher kernel's repo-owned log splits each float's bits into exponent
# and mantissa and converts the exponent back to float; the ulp sweep drives
# those conversions (and the NaN and clamp paths) under float-cast-overflow.
echo "ci_asan: running test_stats under ASan+UBSan"
"$BUILD/tests/test_stats"
# The gemm and syrk pack their panels into exact-size heap buffers, so a
# kernel reading past a packed panel is a heap overflow here.
echo "ci_asan: running test_linalg under ASan+UBSan"
"$BUILD/tests/test_linalg"
echo "ci_asan: clean"
