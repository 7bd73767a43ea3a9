#!/usr/bin/env bash
# Format check, lints and tests of the benchmark crate. It is a workspace
# of its own, so the root workspace's cargo commands do not cover it.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
cargo test --offline --release
