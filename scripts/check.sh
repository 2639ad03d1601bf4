#!/usr/bin/env bash
# Offline CI gate: formatting, lints, the full test suite, and a smoke
# iteration of every bench harness. No network access required — all
# dependencies are in-tree (crates/*-shim).
#
# Usage: scripts/check.sh [--no-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

run_bench=1
if [[ "${1:-}" == "--no-bench" ]]; then
    run_bench=0
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== concurrency suite under a thread matrix (fails on any checker violation) =="
# The concurrent-serving harness sizes its real-thread history from
# CDB_TEST_THREADS; sweep writer counts so both the uncontended and the
# oversubscribed schedules get exercised. For the long-running variant:
#   cargo test --release --features stress --test concurrent_serving -- --ignored
for t in 1 4 "$(nproc)"; do
    echo "-- CDB_TEST_THREADS=$t"
    CDB_TEST_THREADS="$t" cargo test -q --test concurrent_serving
done

echo "== sharded suite under a shard-count matrix (2PC + crash recovery) =="
# The sharded-serving harness sizes its shard map from CDB_TEST_SHARDS;
# sweep the degenerate single-shard map, a 2-shard map (the smallest
# that exercises cross-shard 2PC), and one shard per core.
for s in 1 2 "$(nproc)"; do
    echo "-- CDB_TEST_SHARDS=$s"
    CDB_TEST_SHARDS="$s" cargo test -q --test sharded_serving
done

echo "== long-log smoke: bounded recovery over a segmented WAL =="
# Many segments of history, periodic checkpoints with truncation, then
# a reopen whose recovery must scan fewer bytes than two segments.
cargo test -q --test storage_recovery long_history_recovery_scans_a_bounded_tail

echo "== paged storage under a tiny buffer pool (heavy eviction churn) =="
# The differential and recovery suites size their pools from
# CDB_TEST_POOL_PAGES; a 4-frame pool forces eviction on nearly every
# touch, so replacement, write-back, and dirty-page checkpointing all
# run under maximum pressure.
CDB_TEST_POOL_PAGES=4 cargo test -q --test paged_storage
CDB_TEST_POOL_PAGES=4 cargo test -q --test storage_recovery \
    reclaim_with_paged_checkpoints_recovers_from_retired_segments

if [[ "$run_bench" == 1 ]]; then
    echo "== bench smoke (CDB_BENCH_SMOKE=1, one tiny iteration each) =="
    CDB_BENCH_SMOKE=1 cargo bench -p cdb-bench --bench commit_throughput

    # The remaining benches also validate the JSON report shape: force
    # each report in smoke mode into a scratch dir and grep the rows.
    bench_json_dir="$(mktemp -d)"

    # The join bench: E15 rows plus the E25 planner rows — the chain
    # and point-lookup plans must land in the report with the `plan`
    # and `index` fields set (proof the cost-based planner actually
    # chose the hash-join chain and the index scan).
    CDB_BENCH_SMOKE=1 CDB_BENCH_JSON=1 CDB_BENCH_JSON_DIR="$bench_json_dir" \
        cargo bench -p cdb-bench --bench joins
    if ! grep -q '"op": "e25_planner_chain/' "$bench_json_dir/BENCH_joins.json" \
        || ! grep -q '"op": "e25_point_lookup/' "$bench_json_dir/BENCH_joins.json"; then
        echo "BENCH_joins.json is missing the E25 planner rows:"
        cat "$bench_json_dir/BENCH_joins.json"
        exit 1
    fi
    if ! grep -qE '"plan": "[^"]*HashJoin[^"]*"' "$bench_json_dir/BENCH_joins.json"; then
        echo "BENCH_joins.json E25 rows are missing a hash-join plan field:"
        cat "$bench_json_dir/BENCH_joins.json"
        exit 1
    fi
    if ! grep -qE '"plan": "[^"]*IndexScan[^"]*"' "$bench_json_dir/BENCH_joins.json" \
        || ! grep -qE '"index": [0-9]+' "$bench_json_dir/BENCH_joins.json"; then
        echo "BENCH_joins.json E25 rows are missing the index-scan plan/index fields:"
        cat "$bench_json_dir/BENCH_joins.json"
        exit 1
    fi

    # The observability bench: E18 rows plus the E24 served-write rows
    # (full metrics+tracing regime over the wire) must land in the
    # report, including the e24 overhead verdict row.
    CDB_BENCH_SMOKE=1 CDB_BENCH_JSON=1 CDB_BENCH_JSON_DIR="$bench_json_dir" \
        cargo bench -p cdb-bench --bench obs_overhead
    if ! grep -q '"op": "e18_' "$bench_json_dir/BENCH_obs_overhead.json"; then
        echo "BENCH_obs_overhead.json is missing the E18 rows:"
        cat "$bench_json_dir/BENCH_obs_overhead.json"
        exit 1
    fi
    if ! grep -q '"op": "e24_served/edit/obs_on"' "$bench_json_dir/BENCH_obs_overhead.json" \
        || ! grep -q '"op": "e24_overhead/served_edit_centipct"' \
            "$bench_json_dir/BENCH_obs_overhead.json"; then
        echo "BENCH_obs_overhead.json is missing the E24 served-write rows:"
        cat "$bench_json_dir/BENCH_obs_overhead.json"
        exit 1
    fi
    CDB_BENCH_SMOKE=1 CDB_BENCH_JSON=1 CDB_BENCH_JSON_DIR="$bench_json_dir" \
        cargo bench -p cdb-bench --bench recovery
    if ! grep -q '"op": "e19_recovery_growth/ckpt_reclaim/' "$bench_json_dir/BENCH_recovery.json"; then
        echo "BENCH_recovery.json is missing the E19 rows:"
        cat "$bench_json_dir/BENCH_recovery.json"
        exit 1
    fi
    if ! grep -qE '"segments": [0-9]+' "$bench_json_dir/BENCH_recovery.json"; then
        echo "BENCH_recovery.json E19 rows are missing the segments field:"
        cat "$bench_json_dir/BENCH_recovery.json"
        exit 1
    fi

    # The server bench likewise: force the report in smoke mode and
    # check the E20 rows exist and carry the shed column.
    CDB_BENCH_SMOKE=1 CDB_BENCH_JSON=1 CDB_BENCH_JSON_DIR="$bench_json_dir" \
        cargo bench -p cdb-bench --bench server
    if ! grep -q '"op": "e20_' "$bench_json_dir/BENCH_server.json"; then
        echo "BENCH_server.json is missing the E20 rows:"
        cat "$bench_json_dir/BENCH_server.json"
        exit 1
    fi
    if ! grep -qE '"shed": [0-9]+' "$bench_json_dir/BENCH_server.json"; then
        echo "BENCH_server.json E20 rows are missing the shed field:"
        cat "$bench_json_dir/BENCH_server.json"
        exit 1
    fi

    # The shard-scaling bench: E22 rows must exist and carry the shard
    # count per row.
    CDB_BENCH_SMOKE=1 CDB_BENCH_JSON=1 CDB_BENCH_JSON_DIR="$bench_json_dir" \
        cargo bench -p cdb-bench --bench shard_scaling
    if ! grep -q '"op": "e22_' "$bench_json_dir/BENCH_shard_scaling.json"; then
        echo "BENCH_shard_scaling.json is missing the E22 rows:"
        cat "$bench_json_dir/BENCH_shard_scaling.json"
        exit 1
    fi
    if ! grep -qE '"shards": [0-9]+' "$bench_json_dir/BENCH_shard_scaling.json"; then
        echo "BENCH_shard_scaling.json E22 rows are missing the shards field:"
        cat "$bench_json_dir/BENCH_shard_scaling.json"
        exit 1
    fi

    # The paging bench: E21 rows must exist and carry the pool size and
    # the observed hit rate per row.
    CDB_BENCH_SMOKE=1 CDB_BENCH_JSON=1 CDB_BENCH_JSON_DIR="$bench_json_dir" \
        cargo bench -p cdb-bench --bench paging
    if ! grep -q '"op": "e21_paging/' "$bench_json_dir/BENCH_paging.json"; then
        echo "BENCH_paging.json is missing the E21 rows:"
        cat "$bench_json_dir/BENCH_paging.json"
        exit 1
    fi
    if ! grep -qE '"pool_pages": [0-9]+' "$bench_json_dir/BENCH_paging.json"; then
        echo "BENCH_paging.json E21 rows are missing the pool_pages field:"
        cat "$bench_json_dir/BENCH_paging.json"
        exit 1
    fi
    if ! grep -qE '"hit_rate": [0-9.]+' "$bench_json_dir/BENCH_paging.json"; then
        echo "BENCH_paging.json E21 rows are missing the hit_rate field:"
        cat "$bench_json_dir/BENCH_paging.json"
        exit 1
    fi

    # The keyed-ops bench: the E26 growth gate. Every keyed operation
    # (the db/* and sharded/* rows, keys drawn at random from the whole
    # corpus) must cost less than 3x at 8k entries what it costs at 1k —
    # an O(entries) scan would cost about 8x. Exempt, and so short of
    # the gate as first specified: the sharded write rows, whose commit
    # deep-copies the whole state to publish a snapshot (O(state) until
    # snapshots share structure with the live database, ROADMAP item 1).
    # The tree/* row is a control without a key lookup: reported only.
    CDB_BENCH_SMOKE=1 CDB_BENCH_JSON=1 CDB_BENCH_JSON_DIR="$bench_json_dir" \
        cargo bench -p cdb-bench --bench keyed_ops
    if ! awk -F'"' '
        /"op": "e26_keyed\// {
            split($4, part, "/")
            if (part[2] != "db" && part[2] != "sharded") next
            name = part[2] "/" part[3]
            match($0, /"ns_per_iter": [0-9]+/)
            cost[name, part[4]] = substr($0, RSTART + 15, RLENGTH - 15)
            names[name] = 1
        }
        END {
            exempt["sharded/edit_field"]; exempt["sharded/add_entry"]
            for (name in names) {
                if (name in exempt) continue
                base = cost[name, "1000"]; grown = cost[name, "8000"]
                if (base == "" || grown == "" || base == 0) {
                    print "e26_keyed/" name " lacks a 1000 or 8000 row"; bad = 1; continue
                }
                ratio = grown / base
                printf "  e26_keyed/%s: %.2fx per op at 8x entries\n", name, ratio
                if (ratio >= 3) bad = 1
                gated++
            }
            if (gated < 4) { print "expected at least 4 gated E26 ops, found " gated + 0; bad = 1 }
            exit bad
        }' "$bench_json_dir/BENCH_keyed_ops.json"; then
        echo "E26 growth gate failed: a keyed op costs 3x or more at 8x the entries:"
        cat "$bench_json_dir/BENCH_keyed_ops.json"
        exit 1
    fi
    rm -rf "$bench_json_dir"
fi

echo "== planner span taxonomy: every PlanOp variant maps to a relalg.op.* span =="
# Physical operators must be visible to profiles: plan_span_name gives
# each PlanOp variant a relalg.op.* span name, and this gate fails the
# build when someone adds a variant without wiring it into the
# taxonomy. (The unit test every_plan_op_has_a_span_name checks the
# exec side; this greps the source so even unreachable arms count.)
plan_src="crates/relalg/src/plan.rs"
variants="$(sed -n '/^pub enum PlanOp/,/^}/p' "$plan_src" \
    | grep -oE '^    [A-Z][A-Za-z]*' | tr -d ' ')"
span_fn="$(sed -n '/^pub fn plan_span_name/,/^}/p' "$plan_src")"
if [[ -z "$variants" || -z "$span_fn" ]]; then
    echo "could not locate PlanOp or plan_span_name in $plan_src"
    exit 1
fi
for v in $variants; do
    if ! grep -q "PlanOp::$v" <<<"$span_fn"; then
        echo "PlanOp::$v is not mapped in plan_span_name — add it to the relalg.op.* taxonomy"
        exit 1
    fi
done
if grep -oE '"[a-z_.]+"' <<<"$span_fn" | grep -qv '"relalg\.op\.'; then
    echo "plan_span_name returns a span name outside the relalg.op.* taxonomy:"
    grep -oE '"[a-z_.]+"' <<<"$span_fn" | grep -v '"relalg\.op\.'
    exit 1
fi

echo "== obs timing gate: raw Instant::now() only inside the span API =="
# Every library timing path must go through cdb-obs spans/histograms so
# profiles and metrics see it. Allowed: cdb-obs itself, the bench-shim
# stopwatch, and the group-commit window-deadline loop (paced waiting,
# not a measurement).
violations="$(grep -rn "Instant::now" crates/*/src src examples 2>/dev/null \
    | grep -v "^crates/obs/src/" \
    | grep -v "^crates/criterion-shim/src/" \
    | grep -v "^crates/storage/src/group.rs:" || true)"
if [[ -n "$violations" ]]; then
    echo "raw Instant::now() timing outside the cdb-obs span API:"
    echo "$violations"
    exit 1
fi

echo "== example smoke (every binary in examples/) =="
cargo build --examples -q
for src in examples/*.rs; do
    name="$(basename "$src" .rs)"
    echo "-- example: $name"
    if [[ "$name" == "cdbsh" ]]; then
        # The shell reads commands from stdin; drive it with a script
        # touching curation, publishing, citation, SQL, and lifecycle.
        cargo run -q --example cdbsh <<'CDBSH'
new iuphar name
add alice GABA-A kind=receptor tm=4
add bob 5-HT3 kind=receptor tm=4
publish 2008-06
edit alice GABA-A tm 5
publish 2008-12
series GABA-A tm
cite 0 GABA-A
sql SELECT name FROM entries WHERE tm = 4
index kind
indexes
explain SELECT name FROM entries WHERE tm = 4
explain SELECT name FROM entries WHERE kind = 'receptor'
drop-index kind
profile sql SELECT name FROM entries WHERE tm = 4
stats
stats json
path //tm
merge alice GABA-A 5-HT3
what 5-HT3
parallel 4 2 10
quit
CDBSH
        # Durable session: profile a write end-to-end — the span tree
        # must show the WAL sync — and smoke the trace commands.
        obs_dir="$(mktemp -d)"
        obs_out="$(cargo run -q --example cdbsh <<CDBSH2
open iuphar name $obs_dir
profile add alice GABA-A kind=receptor tm=4
trace on
edit alice GABA-A tm 5
trace show
trace off
checkpoint
stats
blackbox $obs_dir
quit
CDBSH2
)"
        rm -rf "$obs_dir"
        # A healthy session leaves no black-box dump — but the command
        # must find the armed directory and say so.
        if ! grep -q "no flight dump" <<<"$obs_out"; then
            echo "cdbsh blackbox did not read the armed flight-recorder dir:"
            echo "$obs_out"
            exit 1
        fi
        if ! grep -q "storage.wal.sync" <<<"$obs_out"; then
            echo "cdbsh profile output is missing the storage.wal.sync span:"
            echo "$obs_out"
            exit 1
        fi
        if ! grep -q "checkpoint installed" <<<"$obs_out"; then
            echo "cdbsh checkpoint output is missing the reclaim stats:"
            echo "$obs_out"
            exit 1
        fi
        # Server smoke: serve on an ephemeral port, connect the same
        # shell's wire client, curate over TCP, and check the server's
        # request-latency histogram recorded samples before a clean
        # drain. (`connect` with no address targets the shell's own
        # server, so no port needs to be scripted.)
        srv_out="$(cargo run -q --example cdbsh <<'CDBSH3'
new iuphar name
serve 127.0.0.1:0
connect
ping
add alice GABA-A kind=receptor tm=4
edit alice GABA-A tm 5
get GABA-A tm
entries
publish 2008-06
refresh
stats json
disconnect
quit
CDBSH3
)"
        if ! grep -q "GABA-A.tm = 5" <<<"$srv_out"; then
            echo "cdbsh wire session did not read back its own write:"
            echo "$srv_out"
            exit 1
        fi
        lat_line="$(grep '"name":"server.req.latency_ns"' <<<"$srv_out" || true)"
        if [[ -z "$lat_line" ]] || grep -q '"count":0,' <<<"$lat_line"; then
            echo "server stats show no server.req.latency_ns samples:"
            echo "$srv_out"
            exit 1
        fi
        if ! grep -q "server drained" <<<"$srv_out"; then
            echo "cdbsh quit did not drain the server cleanly:"
            echo "$srv_out"
            exit 1
        fi
        # Distributed-trace smoke: serve a sharded db, run a traced
        # cross-shard merge over the wire, and reassemble the span tree
        # from both halves. The merged tree must show the client and
        # server sides of the same trace plus the 2PC engine, and every
        # line must carry the shared trace id.
        trc_out="$(cargo run -q --example cdbsh <<'CDBSH4'
shard new iuphar name 2
add alice GABA-A tm=4
add bob zeta tm=3
serve 127.0.0.1:0
connect
trace on
merge carol GABA-A zeta
trace last
trace merged
trace off
disconnect
quit
CDBSH4
)"
        trace_id="$(sed -n 's/^last wire trace id: //p' <<<"$trc_out")"
        if [[ -z "$trace_id" ]]; then
            echo "cdbsh traced merge recorded no wire trace id:"
            echo "$trc_out"
            exit 1
        fi
        for needle in "client.req" "server.req" "core.sharded.cross_commit" "(t$trace_id)"; do
            if ! grep -q -- "$needle" <<<"$trc_out"; then
                echo "cdbsh merged span tree is missing $needle:"
                echo "$trc_out"
                exit 1
            fi
        done
    else
        cargo run -q --example "$name" > /dev/null
    fi
done

echo "== check.sh: all green =="
