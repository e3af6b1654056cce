#!/usr/bin/env bash
# Re-run the repository's checks many times to catch intermittent
# failures, and report how often each one failed.
#
#   scripts/stress.sh [N] [M] [K]
#
# runs `cargo test -q` N times, `cargo test -q --workspace` N times
# (default 50 each), a 5 s `service_soak` M times (default 20) and a
# 10,000-pipeline `bds-check --seed <i>` K times (default 1, seeds
# 1..K). At the end it prints one line per failing test (or soak
# violation, or bds-check seed with a divergence) with its failure
# count, and exits 1 if anything failed, 0 otherwise.
#
# Not part of CI: the default run takes hours on a 2-CPU host.
set -uo pipefail
cd "$(dirname "$0")/.."

N=${1:-50}
M=${2:-20}
K=${3:-1}
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

declare -A FAILS
fail() { FAILS["$1"]=$(( ${FAILS["$1"]:-0} + 1 )); }

# One `cargo test` run; every failing test is counted under
# "<label>: [<target>] <test name>". Under `-q` cargo names the target
# only in the "to rerun pass `-p <crate> --lib`" line that follows the
# target's failures.
run_tests() {
  local label=$1; shift
  if cargo test -q --no-fail-fast "$@" >"$OUT" 2>&1; then
    return
  fi
  local pending=() named=0 line name target
  while IFS= read -r line; do
    case "$line" in
      "---- "*" stdout ----")
        name=${line#---- }; pending+=("${name% stdout ----}") ;;
      *"to rerun pass \`"*)
        target=${line#*\`}; target=${target%\`*}
        for name in "${pending[@]}"; do
          fail "$label: [$target] $name"; named=1
        done
        pending=() ;;
    esac
  done <"$OUT"
  if [ "$named" -eq 0 ]; then
    fail "$label: failed without a named test (build error or crash)"
  fi
}

cargo build -q --release -p bds-bench --bin service_soak || exit 1
cargo build -q --release -p bds-check --bin bds-check || exit 1

for i in $(seq 1 "$N"); do
  echo "stress: cargo test -q, run $i/$N" >&2
  run_tests "cargo test -q"
done
for i in $(seq 1 "$N"); do
  echo "stress: cargo test -q --workspace, run $i/$N" >&2
  run_tests "cargo test -q --workspace" --workspace
done
for i in $(seq 1 "$M"); do
  echo "stress: service_soak --seconds 5, run $i/$M" >&2
  if ! target/release/service_soak --seconds 5 >"$OUT" 2>&1; then
    v=$(grep -m1 'VIOLATION' "$OUT" | cut -c1-160)
    fail "service_soak: ${v:-exit without a VIOLATION line}"
  fi
done

for i in $(seq 1 "$K"); do
  echo "stress: bds-check --pipelines 10000 --seed $i, run $i/$K" >&2
  if ! target/release/bds-check --pipelines 10000 --seed "$i" >"$OUT" 2>&1; then
    fail "bds-check --pipelines 10000 --seed $i: divergence or determinism violation"
  fi
done

echo "stress: $N x cargo test -q, $N x cargo test -q --workspace, $M x service_soak --seconds 5, $K x bds-check --pipelines 10000"
if [ "${#FAILS[@]}" -eq 0 ]; then
  echo "stress: no failures"
  exit 0
fi
for k in "${!FAILS[@]}"; do
  printf '%6d  %s\n' "${FAILS[$k]}" "$k"
done | sort -rn
exit 1
