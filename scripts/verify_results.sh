#!/usr/bin/env bash
# Byte-identity gate for the experiment artifacts.
#
# Regenerates the quick-scale results (seed 7) into a scratch directory
# and compares the sha256 of every JSON artifact against the committed
# manifest (results/QUICK_MANIFEST.sha256). Any refactor of the
# estimation pipeline must keep these bytes stable; a deliberate change
# to experiment output is made visible by re-running with --update and
# committing the manifest diff.
#
# The run happens with observability enabled (--obs), proving the
# instrumented build produces the same artifact bytes. The obs snapshot
# itself lands *next to* the scratch directory, never inside it: its
# timing section is wall-clock and must not enter the manifest.
#
# That pass runs the experiments concurrently on every core. A serial
# pass re-runs them with WISCAPE_THREADS=1 (one worker, every item
# inline on the calling thread) and diffs them against the same
# manifest, so the serial reference and the concurrent run are both
# gated.
#
# A full-scale pass then regenerates all 19 artifacts at full scale
# (seed 7) and diffs their hashes against results/FULL_MANIFEST.sha256:
# a simulation kernel (the field, the tower scan, the probe engine, the
# NKLD curve) runs many more points, probes and draws at full scale
# than at quick, so a kernel rewrite must keep those bytes too. The
# committed results/<name>.json are that full-scale run as well, so the
# pass hashes them against the same manifest: they cannot go stale
# unseen. (Regenerate them with
# `repro --seed 7 --full --svg --out results`.)
#
# A second pass then proves the durability layer is transparent: the
# same quick run re-executes with every channel-driven coordinator
# event-sourced through a wiscape-wal log AND a seeded mid-run crash
# injected into each WAL run (kill at an append/snapshot/fold boundary,
# torn tail included, then snapshot+replay recovery). The regenerated
# artifacts are diffed against the *same* committed manifest — commit,
# crash, recover must change nothing. The WAL segment/snapshot/manifest
# files are hashed into $out.wal.manifest for the CI artifact.
#
# The sharded passes then prove the scale-out topology is transparent
# too: the quick run re-executes with every channel-driven deployment
# split across zone-range shards behind the deterministic router —
# once at --shards 1 (the degenerate topology), once at --shards 4
# with a seeded mid-stream zone-range rebalance, and once at
# --shards 4 with the rebalance AND per-shard WAL logs with a seeded
# crash during the run (migration records included in the replay). All
# three are diffed against the same committed manifest, and the pass
# summary lands in $out.shard_topology.json for the CI artifact.
#
# A region pass drives the analytics layer end to end through the
# CLI: `wiscape map --hours 48 --regions/--hotspots` dumps the adaptive
# partition and the ranked hotspot candidates, then the same deployment
# re-runs serial (WISCAPE_THREADS=1), 4-way sharded, and 4-way sharded
# with the seeded rebalance — both region CSV and hotspot JSON must be
# byte-identical across topologies (the ANALYTICS.md determinism
# contract, exercised from the outside), and the hotspot list must not
# be empty. The hotspot report lands in $out.hotspots.json for the CI
# artifact.
#
# A final CLI WAL pass re-runs that map with `--wal` and a seeded
# mid-run crash, then rebuilds it with `--recover` from the log alone:
# both zone-map CSVs must be byte-identical to the plain run's, and the
# WAL run must report exactly one recovery.
#
# A CLI sharded WAL pass runs the one `wiscape map` topology no pass
# above runs: four shards with the seeded rebalance, one WAL per shard
# and a seeded crash. Its zone map must be byte-identical to the plain
# map of the same window, and a shard's crash must fire.
#
# Last, every file the four WAL-writing passes left on disk (the repro
# crash pass, the sharded WAL pass, the CLI WAL pass and the CLI sharded
# WAL pass: segments, snapshots and manifests) is hashed into one sorted
# list and diffed against results/WAL_MANIFEST.sha256, so a change to the
# record, snapshot or manifest encoding cannot pass unseen.
#
# Usage:
#   scripts/verify_results.sh            # verify against the manifests
#   scripts/verify_results.sh --update   # regenerate the manifests
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=results/QUICK_MANIFEST.sha256
full_manifest=results/FULL_MANIFEST.sha256
wal_manifest=results/WAL_MANIFEST.sha256
out="${TMPDIR:-/tmp}/wiscape_quick_manifest_check"
wal_crash_seed=11
rebalance_seed=5

cargo build --release -q -p wiscape-experiments --bin repro
rm -rf "$out" "$out.serial" "$out.full" "$out.wal" "$out.waldir" "$out.shard1" "$out.shard4" \
    "$out.shardwal" "$out.shardwaldir" "$out.mapwal" "$out.mapshardwal"
./target/release/repro --seed 7 --quick --out "$out" --obs "$out.obs.json" >/dev/null
echo "[verify_results] obs snapshot: $out.obs.json"

(cd "$out" && sha256sum -- *.json | LC_ALL=C sort -k2) > "$out.manifest"

if [[ "${1:-}" == "--update" ]]; then
    cp "$out.manifest" "$manifest"
    echo "[verify_results] wrote $(wc -l < "$manifest") hashes to $manifest"
else
    if ! diff -u "$manifest" "$out.manifest"; then
        echo "[verify_results] FAIL: quick-scale artifacts drifted from $manifest" >&2
        exit 1
    fi
    echo "[verify_results] OK: $(wc -l < "$manifest") artifacts byte-identical"
fi

# --- serial pass -----------------------------------------------------------
# The same quick run on one worker: the serial reference of the
# concurrent pass above.
WISCAPE_THREADS=1 ./target/release/repro --seed 7 --quick --out "$out.serial" >/dev/null
(cd "$out.serial" && sha256sum -- *.json | LC_ALL=C sort -k2) > "$out.serial.artifacts"
if ! diff -u "$manifest" "$out.serial.artifacts"; then
    echo "[verify_results] FAIL: serial run (WISCAPE_THREADS=1) drifted from $manifest" >&2
    exit 1
fi
echo "[verify_results] OK: serial pass (WISCAPE_THREADS=1) byte-identical"

# --- full-scale pass -------------------------------------------------------
# All 19 experiments at full scale, against their own manifest.
./target/release/repro --seed 7 --full --out "$out.full" >/dev/null
(cd "$out.full" && sha256sum -- *.json | LC_ALL=C sort -k2) > "$out.full.manifest"
if [[ "${1:-}" == "--update" ]]; then
    cp "$out.full.manifest" "$full_manifest"
    echo "[verify_results] wrote $(wc -l < "$full_manifest") hashes to $full_manifest"
else
    if ! diff -u "$full_manifest" "$out.full.manifest"; then
        echo "[verify_results] FAIL: full-scale artifacts drifted from $full_manifest" >&2
        exit 1
    fi
    echo "[verify_results] OK: $(wc -l < "$full_manifest") full-scale artifacts byte-identical"
fi
# The committed artifacts, named by the manifest, against the same hashes.
(cd results && awk '{print $2}' "../$full_manifest" | xargs sha256sum -- 2>/dev/null \
    | LC_ALL=C sort -k2) > "$out.committed.manifest" || true
if ! diff -u "$full_manifest" "$out.committed.manifest"; then
    if [[ "${1:-}" == "--update" ]]; then
        echo "[verify_results] NOTE: committed results/*.json differ from the new $full_manifest;" \
            "regenerate them with repro --seed 7 --full --svg --out results" >&2
    else
        echo "[verify_results] FAIL: committed results/*.json drifted from $full_manifest" >&2
        exit 1
    fi
else
    echo "[verify_results] OK: $(wc -l < "$full_manifest") committed results/*.json match it"
fi

# --- crash-recover-verify pass -------------------------------------------
# Quick run again, WAL-backed, with a deterministic crash per WAL run.
./target/release/repro --seed 7 --quick --out "$out.wal" \
    --wal "$out.waldir" --wal-crash-seed "$wal_crash_seed" >/dev/null

(cd "$out.wal" && sha256sum -- *.json | LC_ALL=C sort -k2) > "$out.wal.artifacts"
if ! diff -u "$manifest" "$out.wal.artifacts"; then
    echo "[verify_results] FAIL: WAL-backed crash+recover run drifted from $manifest" >&2
    exit 1
fi

# Hash the WAL itself (segments, snapshots, manifests) for the CI artifact.
(cd "$out.waldir" && find . -type f | LC_ALL=C sort | xargs sha256sum --) > "$out.wal.manifest"
wal_files=$(wc -l < "$out.wal.manifest")
echo "[verify_results] OK: crash+recover (seed $wal_crash_seed) byte-identical; $wal_files WAL files hashed to $out.wal.manifest"

# --- sharded-topology passes ---------------------------------------------
# The scale-out refactor's transparency proof: the same quick run at
# three shard topologies, each diffed against the committed manifest.
verify_shard_pass() {
    local label="$1" dir="$2"
    shift 2
    ./target/release/repro --seed 7 --quick --out "$dir" "$@" >/dev/null
    (cd "$dir" && sha256sum -- *.json | LC_ALL=C sort -k2) > "$dir.artifacts"
    if ! diff -u "$manifest" "$dir.artifacts"; then
        echo "[verify_results] FAIL: sharded pass '$label' drifted from $manifest" >&2
        exit 1
    fi
    echo "[verify_results] OK: sharded pass '$label' byte-identical"
}

verify_shard_pass "shards=1" "$out.shard1" --shards 1
verify_shard_pass "shards=4 rebalance" "$out.shard4" \
    --shards 4 --rebalance-seed "$rebalance_seed"
verify_shard_pass "shards=4 rebalance wal crash" "$out.shardwal" \
    --shards 4 --rebalance-seed "$rebalance_seed" \
    --wal "$out.shardwaldir" --wal-crash-seed "$wal_crash_seed"

shard_logs=$(find "$out.shardwaldir" -type f | wc -l)
artifacts=$(wc -l < "$manifest")
cat > "$out.shard_topology.json" <<EOF
{
  "seed": 7,
  "scale": "quick",
  "artifacts_checked": $artifacts,
  "rebalance_seed": $rebalance_seed,
  "wal_crash_seed": $wal_crash_seed,
  "passes": [
    { "label": "shards=1", "shards": 1, "rebalance": false, "wal": false, "byte_identical": true },
    { "label": "shards=4 rebalance", "shards": 4, "rebalance": true, "wal": false, "byte_identical": true },
    { "label": "shards=4 rebalance wal crash", "shards": 4, "rebalance": true, "wal": true, "byte_identical": true }
  ],
  "shard_wal_files": $shard_logs
}
EOF
echo "[verify_results] OK: shard topology report -> $out.shard_topology.json"

# --- region / hotspot pass -------------------------------------------------
# The analytics layer through the CLI: partition + hotspot ranking must
# be byte-identical across worker counts and shard topologies. The
# 2-hour map is the reference of the CLI WAL pass below; the region
# comparison runs at 48 hours, where the map is dense enough to flag
# hotspots (a 2-hour map flags none, and `[]` equals `[]` across any
# topology), and the pass fails if the hotspot list is empty.
cargo build --release -q --bin wiscape
./target/release/wiscape map --seed 7 --hours 2 --out "$out.map.csv" >/dev/null
region_hours=48
./target/release/wiscape map --seed 7 --hours "$region_hours" \
    --regions "$out.regions.csv" --hotspots "$out.hotspots.json" >/dev/null
WISCAPE_THREADS=1 ./target/release/wiscape map --seed 7 --hours "$region_hours" \
    --regions "$out.regions.serial.csv" --hotspots "$out.hotspots.serial.json" >/dev/null
./target/release/wiscape map --seed 7 --hours "$region_hours" --shards 4 \
    --regions "$out.regions.shard4.csv" --hotspots "$out.hotspots.shard4.json" >/dev/null
./target/release/wiscape map --seed 7 --hours "$region_hours" --shards 4 \
    --rebalance-seed "$rebalance_seed" \
    --regions "$out.regions.shard4rebalance.csv" \
    --hotspots "$out.hotspots.shard4rebalance.json" >/dev/null
for variant in serial shard4 shard4rebalance; do
    if ! diff -q "$out.regions.csv" "$out.regions.$variant.csv" >/dev/null \
       || ! diff -q "$out.hotspots.json" "$out.hotspots.$variant.json" >/dev/null; then
        echo "[verify_results] FAIL: region/hotspot output drifted in '$variant' pass" >&2
        exit 1
    fi
done
regions=$(($(wc -l < "$out.regions.csv") - 1))
hotspots=$(grep -c '"score"' "$out.hotspots.json" || true)
if [[ "$hotspots" -eq 0 ]]; then
    echo "[verify_results] FAIL: the ${region_hours} h map flagged no hotspots; the region pass compares nothing" >&2
    exit 1
fi
echo "[verify_results] OK: region pass byte-identical across topologies ($regions regions, $hotspots hotspots at ${region_hours} h); hotspot report -> $out.hotspots.json"

# --- CLI WAL crash + recover pass -----------------------------------------
# The same map through `wiscape map --wal` with a seeded mid-run crash,
# then rebuilt by `--recover` from that log alone: both zone maps must
# be byte-identical to the plain run's. The recovery count on stderr
# proves the crash actually fired.
if ! ./target/release/wiscape map --seed 7 --hours 2 --out "$out.mapwal.csv" \
        --wal "$out.mapwal" --crash-seed "$wal_crash_seed" 2> "$out.mapwal.log" \
   || ! grep -q ' 1 recoveries' "$out.mapwal.log"; then
    echo "[verify_results] FAIL: map --wal --crash-seed $wal_crash_seed did not crash and recover:" >&2
    cat "$out.mapwal.log" >&2
    exit 1
fi
./target/release/wiscape map --seed 7 --recover "$out.mapwal" --out "$out.maprecover.csv" >/dev/null
for variant in mapwal maprecover; do
    if ! cmp -s "$out.map.csv" "$out.$variant.csv"; then
        echo "[verify_results] FAIL: zone map drifted in the CLI '$variant' pass" >&2
        exit 1
    fi
done
estimates=$(($(wc -l < "$out.map.csv") - 1))
echo "[verify_results] OK: CLI WAL crash (seed $wal_crash_seed) + --recover byte-identical ($estimates zone estimates)"

# --- CLI sharded WAL crash pass ---------------------------------------------
# `wiscape map` on four shards with the seeded rebalance, one WAL per
# shard (DIR/shard-<i>) and the seeded crash: its zone map must equal
# the plain map of the same window, and the recovery count on stderr
# proves a shard's crash fired. 0.1 h is six check-in rounds, the
# shortest window in which one does (at five rounds none fires).
shard_wal_hours=0.1
./target/release/wiscape map --seed 7 --hours "$shard_wal_hours" --out "$out.mapshort.csv" >/dev/null
if ! ./target/release/wiscape map --seed 7 --hours "$shard_wal_hours" --shards 4 \
        --rebalance-seed "$rebalance_seed" --wal "$out.mapshardwal" \
        --crash-seed "$wal_crash_seed" --out "$out.mapshardwal.csv" 2> "$out.mapshardwal.log" \
   || ! grep -Eq ' [1-9][0-9]* recoveries \(4 shards\)$' "$out.mapshardwal.log"; then
    echo "[verify_results] FAIL: map --shards 4 --wal --crash-seed $wal_crash_seed did not crash and recover:" >&2
    cat "$out.mapshardwal.log" >&2
    exit 1
fi
if ! cmp -s "$out.mapshort.csv" "$out.mapshardwal.csv"; then
    echo "[verify_results] FAIL: zone map drifted in the CLI sharded WAL pass" >&2
    exit 1
fi
estimates=$(($(wc -l < "$out.mapshort.csv") - 1))
echo "[verify_results] OK: CLI sharded WAL crash (4 shards, rebalance seed $rebalance_seed, crash seed $wal_crash_seed, $shard_wal_hours h) byte-identical ($estimates zone estimates)"

# --- WAL byte-identity pass ------------------------------------------------
# Every WAL file of the crash, sharded-WAL, CLI WAL and CLI sharded WAL
# passes, hashed under a path relative to its pass directory, in one
# sorted list.
for pass in waldir shardwaldir mapwal mapshardwal; do
    (cd "$out.$pass" && find . -type f | LC_ALL=C sort | xargs sha256sum --) \
        | sed "s|  \./|  $pass/|"
done | LC_ALL=C sort -k2 > "$out.wal_files.sha256"
if [[ "${1:-}" == "--update" ]]; then
    cp "$out.wal_files.sha256" "$wal_manifest"
    echo "[verify_results] wrote $(wc -l < "$wal_manifest") hashes to $wal_manifest"
else
    if ! diff -u "$wal_manifest" "$out.wal_files.sha256"; then
        echo "[verify_results] FAIL: WAL files drifted from $wal_manifest" >&2
        exit 1
    fi
    echo "[verify_results] OK: $(wc -l < "$wal_manifest") WAL files byte-identical"
fi
