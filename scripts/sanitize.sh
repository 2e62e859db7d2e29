#!/usr/bin/env bash
# Runs every library and integration test of the workspace under
# AddressSanitizer. Needs a nightly toolchain; the instrumented build goes
# to target/asan so it does not disturb the normal one. Run from anywhere:
#
#     scripts/sanitize.sh
#
# ThreadSanitizer is left out: without an instrumented standard library it
# reports races inside std's own synchronization that cannot be told
# apart from real ones.
set -euo pipefail
cd "$(dirname "$0")/.."
export RUSTFLAGS="-Zsanitizer=address -Cunsafe-allow-abi-mismatch=sanitizer"
exec cargo +nightly test --offline --workspace --lib --tests \
    --target x86_64-unknown-linux-gnu --target-dir target/asan "$@"
