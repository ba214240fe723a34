#!/usr/bin/env bash
# Full local CI gate: build, test, lint, format. Run from the repo root;
# fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> fdwlint v2 (token + call-graph determinism lints vs ratchet baseline)"
# The graph pass (item parse, call resolution, taint over ~all workspace
# sources) runs on every commit — hold it to a 30s wall-time budget so it
# can never become the slow stage. The release binary is already built.
lint_t0=$(date +%s)
cargo run -q -p fdwlint --release
cargo run -q -p fdwlint --release -- --json > target/fdwlint.report.json
lint_wall=$(( $(date +%s) - lint_t0 ))
if [ "$lint_wall" -ge 30 ]; then
  echo "fdwlint stage took ${lint_wall}s — over the 30s budget; profile the graph pass"
  exit 1
fi
echo "  fdwlint wall time: ${lint_wall}s (budget 30s)"
cargo run -q -p fdw-bench --release --bin validate_trace -- \
  target/fdwlint.report.json

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> perfbench output checks + waveform_jobs smoke"
# The benchmark's unit tests assert that every per-item output check
# catches every named corruption; the smoke run then fails unless the
# live waveform path passes those checks end to end.
cargo test -q --release --manifest-path perfbench/Cargo.toml
wf_last=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
  --workload waveform_jobs --seed 1 --seconds 2 --trace 0 | tail -n 1)
case "$wf_last" in
  *'"correct":true'*) echo "  waveform_jobs smoke: correct" ;;
  *) echo "waveform_jobs smoke: last line lacks \"correct\":true: $wf_last"; exit 1 ;;
esac

echo "==> kernel bench smoke (compile + run benches in test mode)"
cargo bench -q -p fdw-bench --bench kernels -- --test

echo "==> perf snapshot smoke (FDW_SMOKE, reduced scale)"
FDW_SMOKE=1 FDW_BENCH_OUT=target/BENCH_kernels.smoke.json \
  cargo run -q -p fdw-bench --release --bin bench_snapshot >/dev/null

echo "==> kernel perf ratchet (fresh smoke vs committed BENCH_kernels.json)"
# The laned/blocked kernels must not quietly lose their speedups: the
# fresh FDW_SMOKE speedup of each headline kernel must stay above the
# committed figure minus tolerance — half the committed speedup, capped
# per kernel (absolute speedups grow with mesh size, so the full-scale
# committed number is an over-ask at smoke scale) and floored at 1.0x so
# "optimised" can never regress to "slower than the reference".
# symmetric_eigen_topk is deliberately absent: its ~1.2-1.7x win over the
# full eigensolve is inside measurement noise at smoke scale.
kernel_speedup() { # <file> <kernel> -> speedup of the first (primary-mesh) row
  awk -v k="$2" 'BEGIN { RS = "}" }
    index($0, "\"name\":\"" k "\"") && match($0, /"speedup":[0-9.]+/) {
      print substr($0, RSTART + 10, RLENGTH - 10); exit }' "$1"
}
for spec in assemble_covariance:3.0 matmul:1.8 cholesky:1.1 \
            distance_matrices:1.3 symmetric_eigen:5.0 \
            rupture_draw_end_to_end:5.0 gf_point_source_big_network:1.5; do
  k=${spec%%:*} cap=${spec##*:}
  committed=$(kernel_speedup BENCH_kernels.json "$k")
  fresh=$(kernel_speedup target/BENCH_kernels.smoke.json "$k")
  if [ -z "$committed" ] || [ -z "$fresh" ]; then
    echo "kernel ratchet: missing '$k' row (committed='$committed' fresh='$fresh')"
    exit 1
  fi
  awk -v c="$committed" -v f="$fresh" -v cap="$cap" -v k="$k" 'BEGIN {
    thr = c / 2; if (thr > cap) thr = cap; if (thr < 1.0) thr = 1.0
    if (f < thr) {
      printf "kernel ratchet: %s %.2fx below threshold %.2fx (committed %.2fx)\n", \
        k, f, thr, c
      exit 1
    }
    printf "  %-28s %8.2fx  (>= %.2fx, committed %.2fx)\n", k, f, thr, c
  }' || exit 1
done

echo "==> telemetry smoke (FDW_SMOKE, FDW_OBS_DIR)"
OBS_DIR=target/obs-smoke
rm -rf "$OBS_DIR"
FDW_SMOKE=1 FDW_OBS_DIR="$OBS_DIR" \
  cargo run -q -p fdw-bench --release --bin table_headline >/dev/null
FDW_SMOKE=1 FDW_OBS_DIR="$OBS_DIR" \
  cargo run -q -p fdw-bench --release --bin chaos_matrix >/dev/null
cargo run -q -p fdw-bench --release --bin validate_trace -- --min-cats 4 \
  "$OBS_DIR"/chaos_matrix.trace.json \
  "$OBS_DIR"/chaos_matrix.metrics.json \
  "$OBS_DIR"/chaos_matrix.dag.metrics \
  "$OBS_DIR"/table_headline.metrics.json

echo "==> defense ablation smoke (defenses-on badput must not exceed defenses-off)"
FDW_SMOKE=1 FDW_BENCH_OUT=target/BENCH_defenses.smoke.json \
  cargo run -q -p fdw-bench --release --bin defense_ablation >/dev/null

echo "==> failover ablation smoke (failover-on must not lose time-to-done or badput)"
FDW_SMOKE=1 FDW_BENCH_OUT=target/BENCH_failover.smoke.json \
  cargo run -q -p fdw-bench --release --bin failover_ablation >/dev/null

echo "==> science digest gate (full-scale baseline_digest vs committed BENCH_*.json)"
# baseline_digest folds the live science products of the fault-free run;
# a change to science bits must land with the regenerated BENCH file.
# Both bins take well under a second at full scale.
for spec in defense_ablation:BENCH_defenses.json failover_ablation:BENCH_failover.json; do
  bin=${spec%%:*} json=${spec##*:}
  FDW_BENCH_OUT="target/$json" cargo run -q -p fdw-bench --release --bin "$bin" >/dev/null
  committed=$(grep -o '"baseline_digest": "[^"]*"' "$json" || true)
  fresh=$(grep -o '"baseline_digest": "[^"]*"' "target/$json" || true)
  if [ -z "$committed" ] || [ "$committed" != "$fresh" ]; then
    echo "science digest gate: $json has $committed, a fresh run gives $fresh"
    exit 1
  fi
  echo "  $json ${fresh#*: }"
done

echo "==> service overload smoke (defended goodput >= undefended, science store-invariant)"
# The binary exits 1 itself on any goodput loss, digest drift, dropped
# request or determinism break; re-check the two headline gates from the
# JSON so a silent gate regression in the binary can't pass CI.
FDW_SMOKE=1 FDW_BENCH_OUT=target/BENCH_service.smoke.json \
  cargo run -q -p fdw-bench --release --bin overload_ablation >/dev/null
grep -q '"science_store_invariant":false' target/BENCH_service.smoke.json && {
  echo "service smoke: science digest drifted across store arms"; exit 1; }
grep -q '"deterministic":false' target/BENCH_service.smoke.json && {
  echo "service smoke: service decisions vary across threads/shards"; exit 1; }
if grep -o '"unaccounted":[0-9]*' target/BENCH_service.smoke.json | grep -qv ':0$'; then
  echo "service smoke: requests dropped without a terminal disposition"; exit 1
fi

echo "==> des-scaling smoke (sharded engine: identical digests, no slowdown)"
# The binary exits 1 itself on any digest mismatch or a sharded arm
# slower than the monolithic baseline; re-check the 2-thread arm from
# the JSON so a silent gate regression in the binary can't pass CI.
FDW_SMOKE=1 FDW_BENCH_OUT=target/BENCH_des.smoke.json \
  cargo run -q -p fdw-bench --release --bin des_scaling >/dev/null
grep -q '"digest_matches":false' target/BENCH_des.smoke.json && {
  echo "des-scaling smoke: digest mismatch in report"; exit 1; }
t2_speedup=$(grep -o '"label":"sharded-t2"[^}]*' target/BENCH_des.smoke.json \
  | grep -o '"speedup_vs_monolithic":[0-9.]*' | cut -d: -f2)
awk -v s="$t2_speedup" 'BEGIN { exit !(s >= 1.0) }' || {
  echo "des-scaling smoke: 2-thread speedup $t2_speedup < 1.0x vs monolithic"; exit 1; }

echo "CI green."
