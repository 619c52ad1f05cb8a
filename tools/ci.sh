#!/usr/bin/env bash
# Runs the steps of the CI workflow (.github/workflows/ci.yml) locally and
# offline. Each workflow step calls this script with its step id, so the
# workflow and a local run execute the same commands.
#
#   tools/ci.sh all          # every step below, one PASS/FAIL/SKIPPED line each
#   tools/ci.sh <step>...    # the named steps only
#   tools/ci.sh list         # step ids and names
#
# The stable jobs (`build-test-lint`, `absint-regression`) run as they do
# in the workflow. The nightly `miri` and `tsan` steps need the `miri` and
# `rust-src` components of the nightly toolchain: without them a local run
# reports the step SKIPPED, and a run under CI (`CI` set) fails it.
# Checkout, toolchain installation and caching are workflow setup, not
# steps of this script. Exits non-zero when any step fails.

set -uo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

# id|name, in workflow order.
STEPS=(
  "build|Build (release)"
  "test|Test"
  "alloc-accum|Allocation budget (accum)"
  "alloc-vertex-stores|Allocation budget (vertex stores)"
  "alloc-emission|Allocation budget (emission)"
  "alloc-binding-tables|Allocation budget (binding tables)"
  "alloc-graph-store|Allocation budget (graph store)"
  "test-parallel|Test (parallel engine, 4 threads)"
  "determinism-3|Determinism suite (3 threads, uneven runs)"
  "goldens-morsel-1|Appendix B + target-anchor + bound-evaluation + operator-rows goldens, kernel oracle, determinism suite, sequential-fold boundaries (4 threads, morsel size 1)"
  "one-scheduler|One scheduler (exactly one thread::scope in crates/core/src)"
  "one-pushdown-walk|One pushdown walk (no pushdown decisions in crates/core/src/exec.rs)"
  "one-hop-lowering|One hop lowering (no DARPE resolution or FROM AST reads in crates/core/src/exec.rs)"
  "one-theorem-walk|One Theorem 7.1 walk (no tractable-class decisions in the linter or executor)"
  "one-declaration-walk|One declaration walk (no second accumulator-declaration lookup in the linter)"
  "no-address-identity|No address identity (no pointer-to-integer casts in crates/core/src)"
  "one-evaluator|One evaluator (no \`fn eval\` over \`&Expr\` in crates/core/src)"
  "benchmark-contract|Benchmark contract (every workload, smoke mode)"
  "doc-links|Doc links (tools/check_doc_links.py)"
  "planner-regression|Planner regression (explain goldens + estimate guard)"
  "clippy|Clippy"
  "docs|Docs (rustdoc -D warnings + doctests)"
  "gsql-check|gsql check (static analyzer smoke)"
  "server-smoke|Server smoke (gsql-serve binary e2e + SIGTERM drain)"
  "server-cancel-repeat|Server cancel repeat (watchdog e2e tests 20 times, one thread)"
  "parallel-smoke|Parallel smoke (byte-identical parallelism 1 vs 4 diff)"
  "crash-recovery-smoke|Crash-recovery smoke (kill -9 + WAL replay)"
  "flip-regression|Flip regression (proven gates, parallelism sweep)"
  "lint-goldens|Lint goldens (D001-D004 + QueryFacts JSON)"
  "planner-estimates|Planner estimates under fact-driven rewrites"
  "miri|Miri (core + accum + pgraph + darpe unit tests, accum + BigCount properties)"
  "tsan|ThreadSanitizer (parallel_determinism + concurrent_engines)"
)

# Exit status 77 marks a step skipped for a missing component.
SKIP=77

# Fails when `pattern` matches under `path`, printing the matches.
no_match() {
  local found
  found=$(grep -rnE "$1" "$2" || true)
  test -z "$found" || { echo "$found"; return 1; }
}

# `exact_tests <cargo test command>... -- <test arg>...` runs the command
# (`cargo test ...`, `cargo +nightly miri test ...`) on the tests named
# among the test args (those not starting with `-`) with `--exact`, and
# fails unless the run reports as many passed as there are names: a
# renamed or deleted test fails the step instead of matching nothing.
exact_tests() {
  local cmd=() names=0 out passed a
  while [ "$1" != -- ]; do cmd+=("$1"); shift; done
  shift
  for a in "$@"; do [[ $a == -* ]] || names=$((names + 1)); done
  out=$("${cmd[@]}" -- --exact "$@" 2>&1)
  local status=$?
  echo "$out"
  test $status -eq 0 || return 1
  passed=$(grep -oE 'test result: [a-zA-Z]+\. [0-9]+ passed' <<< "$out" | awk '{s += $4} END {print s + 0}')
  test "$passed" -eq "$names" || { echo "exact_tests: $passed passed, $names named"; return 1; }
}

# Skips (locally) or fails (under CI) when a nightly component is missing.
missing() {
  echo "missing: $1"
  if [ -n "${CI:-}" ]; then return 1; fi
  return $SKIP
}

step_build() { cargo build --release; }
step_test() { cargo test -q; }
step_alloc-accum() { cargo test -q -p accum --test alloc_per_group; }
step_alloc-vertex-stores() { cargo test -q -p bench --test vertex_store_alloc; }
step_alloc-emission() { cargo test -q -p bench --test emission_alloc; }
step_alloc-binding-tables() { cargo test -q -p bench --test binding_table_alloc; }
step_alloc-graph-store() { cargo test -q -p bench --test graph_store_alloc; }
step_test-parallel() { GSQL_PARALLELISM=4 cargo test -q; }
step_determinism-3() { GSQL_PARALLELISM=3 cargo test -q -p bench --test parallel_determinism; }
step_goldens-morsel-1() {
  GSQL_PARALLELISM=4 GSQL_MORSEL_SIZE=1 cargo test -q -p bench --test appendix_b_golden \
    --test target_anchor --test bound_eval --test kernel_oracle --test parallel_determinism \
    --test operator_rows
}
step_one-scheduler() { test "$(grep -r 'thread::scope' crates/core/src | wc -l)" -eq 1; }
step_one-pushdown-walk() {
  no_match 'names_only\(|fn new_var|fn apply_ready_filters' crates/core/src/exec.rs
}
step_one-hop-lowering() {
  no_match 'darpe::|CompiledDarpe|resolve_symbol|as_single_symbol|item_walked|rewritten_from|block\.from' \
    crates/core/src/exec.rs
}
step_one-theorem-walk() {
  no_match 'as_single_symbol|has_unbounded_repeat|supports_multiplicity_shortcut' crates/core/src/lint/ &&
    no_match 'check_block' crates/core/src/exec.rs
}
step_one-declaration-walk() { no_match 'cx\.(vaccs|gaccs)|fn accum_decls' crates/core/src/lint; }
step_no-address-identity() { no_match 'as \*const|as_ptr\(\) as usize' crates/core/src; }
step_one-evaluator() {
  local found
  found=$(grep -rn -A3 -E '\bfn eval\b' crates/core/src | grep -E "&('[a-z_]+ )?(ast::)?Expr\b" || true)
  test -z "$found" || { echo "$found"; return 1; }
}
step_benchmark-contract() { cargo test --manifest-path benchmark/Cargo.toml; }
step_doc-links() { python3 tools/check_doc_links.py; }
step_planner-regression() {
  cargo test -q -p bench --test explain_golden &&
    cargo test -q -p bench --test planner_estimates
}
step_clippy() { cargo clippy --all-targets -- -D warnings; }
step_docs() {
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps && cargo test -q --doc
}
step_gsql-check() {
  cargo build --release -p bench --bin gsql_shell --bin table1 --bin ldbc_ic || return 1
  ./target/release/table1 --check || return 1
  ./target/release/ldbc_ic --check || return 1
  printf 'CHECK CREATE QUERY bad () {\n SumAccum<int> @c;\n S = SELECT t FROM V:s -(E>)- V:t ACCUM t.@c = s.id();\n PRINT S[S.@c];\n}' |
    ./target/release/gsql_shell :diamond30 -
  test $? -eq 1
}

# Starts gsql-serve in the background with stdin held open by a fifo
# (EOF drains the server): `serve <dir> <args>...` leaves the server pid
# in <dir>/pid, the holder pid in <dir>/holder and the address in
# <dir>/addr. Call it in the shell that waits for the server.
serve() {
  local dir=$1
  shift
  mkfifo "$dir/stdin"
  sleep 600 > "$dir/stdin" &
  echo $! > "$dir/holder"
  ./target/release/gsql-serve --port 0 "$@" < "$dir/stdin" > "$dir/stdout" 2> "$dir/stderr" &
  echo $! > "$dir/pid"
  for _ in $(seq 1 100); do
    grep -q 'listening on http://' "$dir/stdout" && break
    sleep 0.1
  done
  sed -n 's#.*listening on http://##p' "$dir/stdout" > "$dir/addr"
  test -s "$dir/addr"
}

# Stops what `serve` started in <dir> with the given signal (default
# SIGTERM, a drain) and returns the server's exit status.
unserve() {
  local pid status
  pid=$(cat "$1/pid")
  kill "-${2:-TERM}" "$pid" 2>/dev/null
  wait "$pid"
  status=$?
  kill "$(cat "$1/holder")" 2>/dev/null || true
  rm -f "$1/pid"
  return $status
}

step_server-smoke() {
  exact_tests cargo test --release -q -p gsql-serve --test e2e -- the_binary_serves_and_drains_on_sigterm
}

step_parallel-smoke() (
  set -euo pipefail
  cargo build --release -p bench --bin gsql_shell
  dir=$(mktemp -d)
  trap 'rm -rf "$dir"' EXIT
  cat > "$dir/par_ic5.gsql" <<'GSQL'
CREATE QUERY ParIc5 () {
  TYPEDEF TUPLE<INT cnt, INT fid> Rec;
  SumAccum<int> @cnt;
  HeapAccum<Rec>(20, cnt DESC, fid ASC) @@top;
  P = SELECT p FROM Person:p LIMIT 1;
  F = SELECT f FROM P:p -(Knows*1..3)- Person:f WHERE f <> p;
  G = SELECT fo FROM F:f -(<HasMember:e)- Forum:fo
      ACCUM fo.@cnt += 1
      POST_ACCUM @@top += (fo.@cnt, fo.id());
  PRINT @@top;
}
GSQL
  cat > "$dir/par_gs.gsql" <<'GSQL'
CREATE QUERY ParGroup () {
  GroupByAccum<string gender, string browser, SumAccum<int> cnt> @@by_gb;
  GroupByAccum<string browser, SumAccum<int> cnt> @@by_b;
  S = SELECT p FROM Person:p
      ACCUM @@by_gb += (p.gender, p.browser -> 1),
            @@by_b  += (p.browser -> 1);
  PRINT @@by_gb;
  PRINT @@by_b;
}
GSQL
  for q in par_ic5 par_gs; do
    GSQL_PARALLELISM=1 ./target/release/gsql_shell :snb=0.1 "$dir/$q.gsql" > "$dir/$q.p1.out"
    GSQL_PARALLELISM=4 GSQL_MORSEL_SIZE=1 \
      ./target/release/gsql_shell :snb=0.1 "$dir/$q.gsql" > "$dir/$q.p4.out"
    diff "$dir/$q.p1.out" "$dir/$q.p4.out"
  done
)

# The connection registry arms an entry while its query runs and disarms
# it before the response; a race between that and the watchdog's scan
# shows only now and then, so the two watchdog e2e tests run 20 times.
step_server-cancel-repeat() {
  local i
  for i in $(seq 1 20); do
    exact_tests cargo test -q -p gsql-serve --test e2e -- --test-threads=1 \
      client_disconnect_cancels_the_running_query keep_alive_connection_rearms_for_each_query ||
      { echo "failed on run $i of 20"; return 1; }
  done
}

step_crash-recovery-smoke() (
  set -euo pipefail
  cargo build --release -p gsql-serve --bin gsql-serve
  dir=$(mktemp -d)
  mkdir "$dir/gen1" "$dir/gen2" "$dir/data"
  trap 'for g in gen1 gen2; do test -f "$dir/$g/pid" && unserve "$dir/$g" KILL; done; rm -rf "$dir"' EXIT
  mutate='{"query":"CREATE QUERY AddW () {\n  INSERT VERTEX V (name) VALUES (\"w0\");\n  INSERT EDGE E FROM 0 TO 37;\n}"}'
  qn='{"query":"CREATE QUERY Find (string n) {\n  SumAccum<int> @@deg;\n  S = SELECT v FROM V:v WHERE v.name == n;\n  T = SELECT t FROM S:s -(E>)- V:t ACCUM @@deg += 1;\n  PRINT @@deg;\n  PRINT S[S.name];\n}","args":{"n":"w0"}}'
  # Compare only the deterministic result payload, not the
  # run-dependent elapsed_us/report accounting.
  result_of() { python3 -c 'import json,sys; b=json.load(sys.stdin); assert b["ok"], b; print(json.dumps(b["result"], sort_keys=True))'; }
  args=(--graph :diamond12 --data-dir "$dir/data" --wal-fsync always)
  serve "$dir/gen1" "${args[@]}"
  addr=$(cat "$dir/gen1/addr")
  curl -fsS -d "$mutate" "http://$addr/mutate" > "$dir/mutate.json"
  grep -q '"durable":true' "$dir/mutate.json"
  curl -fsS -d "$qn" "http://$addr/query" | result_of > "$dir/before.json"
  unserve "$dir/gen1" KILL || true
  serve "$dir/gen2" "${args[@]}"
  addr=$(cat "$dir/gen2/addr")
  curl -fsS -d "$qn" "http://$addr/query" | result_of > "$dir/after.json"
  grep -q 'S: w0' "$dir/after.json"
  diff "$dir/before.json" "$dir/after.json"
  curl -fsS "http://$addr/metrics" | grep -q '"replayed":[1-9]'
  unserve "$dir/gen2" || true
  grep -h 'recovered from' "$dir/gen2/stdout" "$dir/gen2/stderr"
)

step_flip-regression() { cargo test -q -p bench --test absint_flip_parallel; }
step_lint-goldens() { cargo test -q -p bench --test lint_golden; }
step_planner-estimates() { cargo test -q -p bench --test planner_estimates; }

step_miri() (
  cargo +nightly miri --version > /dev/null 2>&1 || { missing "cargo-miri (nightly component miri)"; exit; }
  set -e
  # Deterministic seeds keep failures reproducible; isolation stays on
  # (no test needs the host clock or filesystem).
  export MIRIFLAGS="-Zmiri-seed=0"
  cargo +nightly miri setup
  cargo +nightly miri test -p accum --lib
  # The container oracles (slab group tables, field-inline heap rows,
  # heap rejection, cached footprints) at a Miri-sized case count. The
  # allocation-budget test is not run here: it needs the real allocator.
  cargo +nightly miri test -p accum --test properties
  # The inline-or-limbs BigCount against its limb-vector reference,
  # around 2^64 and 2^128, at a Miri-sized case count.
  exact_tests cargo +nightly miri test -p pgraph --test properties -- \
    bigcount_add_commutes bigcount_add_matches_u128 bigcount_display_matches_u128 \
    bigcount_has_one_canonical_form bigcount_matches_reference_through_op_sequences \
    bigcount_mul_matches_u128 bigcount_mul_u64_matches_mul \
    bigcount_order_and_equality_match_reference bigcount_ordering_matches_u128
  # gsql-core's lib tests include the lint passes — among them the
  # pass-6 abstract interpreter (interval join/widen, WHILE fixpoints,
  # gate proofs), so interpreter-state aliasing bugs surface here too.
  cargo +nightly miri test -p gsql-core --lib
  # The WAL codec (frame encode/decode, CRC, torn-tail scanning) and
  # snapshot-publication paths; tests touching the real filesystem are
  # #[cfg_attr(miri, ignore)]d.
  cargo +nightly miri test -p pgraph --lib
  # The DFA's flat transition table: row allocation on intern,
  # `state * width + symbol` indexing, live-type lists.
  cargo +nightly miri test -p darpe --lib
)

# The engine clamps worker fan-out to the core count; GSQL_PARALLELISM
# pins it so the interleavings TSan explores don't depend on runner size.
step_tsan() {
  local sysroot
  sysroot=$(rustc +nightly --print sysroot 2>/dev/null) || { missing "nightly toolchain"; return; }
  test -d "$sysroot/lib/rustlib/src/rust/library" || { missing "rust-src (nightly component)"; return; }
  RUSTFLAGS="-Zsanitizer=thread" GSQL_PARALLELISM=4 TSAN_OPTIONS="halt_on_error=1" \
    cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
    -p bench --test parallel_determinism --test concurrent_engines
}

name_of() {
  local s
  for s in "${STEPS[@]}"; do
    if [ "${s%%|*}" = "$1" ]; then echo "${s#*|}"; return 0; fi
  done
  return 1
}

if [ $# -eq 0 ]; then
  sed -n '2,15p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
if [ "$1" = list ]; then
  for s in "${STEPS[@]}"; do printf '%-22s %s\n' "${s%%|*}" "${s#*|}"; done
  exit 0
fi
ids=("$@")
if [ "$1" = all ]; then
  ids=()
  for s in "${STEPS[@]}"; do ids+=("${s%%|*}"); done
fi

summary=()
pass=0 fail=0 skipped=0
for id in "${ids[@]}"; do
  name=$(name_of "$id") || { echo "ci.sh: unknown step \`$id\` (see tools/ci.sh list)"; exit 2; }
  echo "::group::$name"
  "step_$id"
  status=$?
  echo "::endgroup::"
  if [ $status -eq 0 ]; then
    line="PASS     $name"; pass=$((pass + 1))
  elif [ $status -eq $SKIP ]; then
    line="SKIPPED  $name"; skipped=$((skipped + 1))
  else
    line="FAIL     $name"; fail=$((fail + 1))
  fi
  echo "$line"
  summary+=("$line")
done
if [ ${#ids[@]} -gt 1 ]; then
  printf '%s\n' "${summary[@]}"
fi
echo "ci.sh: $pass passed, $fail failed, $skipped skipped"
test $fail -eq 0
