#!/usr/bin/env bash
# placed end-to-end smoke: a two-tree fleet under a tight global memory
# budget must serve both tenants (reclaiming from the warm one to fit the
# cold one), surface global pressure as per-tenant 429 backpressure, and
# drain cleanly on SIGTERM — exit 0 with both accountant levels at zero.
#
# The budget is not guessed: a probe pass with no limit measures the warm
# two-tenant footprint and how much one forced demotion returns, then the
# real pass runs with a ceiling below the combined footprint but within
# reach of the reclaim ladder.
#
# Usage: ci/smoke_placed.sh   (from the repository root; needs curl + jq)
set -euo pipefail

work=$(mktemp -d)
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

say() { echo "smoke_placed: $*"; }

go build -o "$work/placed" ./cmd/placed
go build -o "$work/phylosim" ./cmd/phylosim
"$work/phylosim" --dataset neotrop --scale 64 --seed 9 --out "$work/a" >/dev/null
"$work/phylosim" --dataset neotrop --scale 64 --seed 10 --out "$work/b" >/dev/null
cat > "$work/catalog.json" <<EOF
{"trees": [
  {"id": "a", "tree": "$work/a/reference.nwk", "ref_msa": "$work/a/reference.fasta"},
  {"id": "b", "tree": "$work/b/reference.nwk", "ref_msa": "$work/b/reference.fasta"}
]}
EOF

# The budget pass admits query bytes against the global ceiling too, so its
# requests use a small slice of the query set.
chunk=200
for tree in a b; do
  awk '/^>/{n++} n<=8' "$work/$tree/queries.fasta" > "$work/$tree/small.fasta"
done
small_chars=$(grep -v '^>' "$work/a/small.fasta" | tr -d '\n' | wc -c)
query_bytes=$((small_chars * 4 / 8))

addr=127.0.0.1:18433
base="http://$addr"

start_placed() { # start_placed <logfile> [extra flags...]
  local log=$1; shift
  "$work/placed" --catalog "$work/catalog.json" --listen "$addr" \
    --maxmem 2M --chunk-size "$chunk" --result-cache 0 \
    "$@" > "$log" 2>&1 &
  server_pid=$!
  for _ in $(seq 1 100); do
    curl -fsS "$base/healthz" >/dev/null 2>&1 && return 0
    kill -0 "$server_pid" 2>/dev/null || { cat "$log" >&2; return 1; }
    sleep 0.1
  done
  say "server never became healthy"; cat "$log" >&2; return 1
}

stop_placed() { # stop_placed <logfile>: SIGTERM, expect exit 0 + drained
  local log=$1
  kill -TERM "$server_pid"
  local rc=0
  wait "$server_pid" || rc=$?
  server_pid=""
  if [ "$rc" -ne 0 ]; then
    say "drain exited with code $rc"; cat "$log" >&2; return 1
  fi
  grep -q "drained" "$log" || { say "no drain line in output"; cat "$log" >&2; return 1; }
}

place() { # place <tree> [file]: POST a query file (default: the small slice), print the HTTP status
  curl -s -o /dev/null -w '%{http_code}' \
    --data-binary "@$work/$1/${2:-small.fasta}" "$base/v1/place?tree=$1"
}

# ---- Probe pass: measure the warm footprint and one demotion's yield. ----
say "probe pass (unlimited budget)"
start_placed "$work/probe.log" --max-inflight 16M
for tree in a b; do
  code=$(place $tree)
  [ "$code" = 200 ] || { say "probe: tree $tree got $code, want 200"; exit 1; }
done
current=$(curl -fsS "$base/metrics" | jq '.budget.current_bytes')
freed=$(curl -fsS -X POST "$base/admin/reclaim?tree=a&level=demote" | jq '.freed_bytes')
[ "$freed" -gt 0 ] || { say "probe: demotion freed $freed bytes, want > 0"; exit 1; }
# Engine time per query on the demoted tenant, from one chunk-sized request.
awk -v n=$chunk '/^>/{c++} c<=n' "$work/a/queries.fasta" > "$work/a/chunk.fasta"
code=$(place a chunk.fasta)
[ "$code" = 200 ] || { say "probe: chunk request got $code, want 200"; exit 1; }
query_ns=$(curl -fsS "$base/metrics" | jq '.tenants[] | select(.id == "a") | .report.telemetry.server
  | (.batch_latency.sum_ns / .batched_queries) | ceil')
stop_placed "$work/probe.log"
limit=$((current - freed / 2))
say "warm footprint $current bytes, demotion frees $freed; global budget set to $limit"

# The burst body is sized so that one request's engine time (~20ms at the
# probed rate) spans the burst's fan-out, but never above one chunk: the
# per-engine plan covers one chunk of in-flight query bytes beside the
# flush's own chunk copy. --max-inflight is 1.5x one burst request, so
# overlapping requests hit per-tenant backpressure.
burst=$(( (20000000 + query_ns - 1) / query_ns ))
[ "$burst" -le "$chunk" ] || burst=$chunk
for tree in a b; do
  awk -v n=$burst '/^>/{c++} c<=n' "$work/$tree/queries.fasta" > "$work/$tree/burst.fasta"
done
inflight=$((burst * query_bytes * 3 / 2))
say "engine time $query_ns ns/query; burst requests carry $burst queries (~$((burst * query_ns / 1000000)) ms each)"

# ---- Real pass: tight global budget, per-tenant backpressure, drain. ----
say "budget pass (--fleet-maxmem $limit)"
start_placed "$work/run.log" --fleet-maxmem "$limit" --max-inflight "$inflight" \
  --stats-json "$work/stats.json"

# Both tenants must serve under the shared ceiling: loading b only fits
# after the controller reclaims from the idle a.
for tree in a b; do
  code=$(place $tree)
  [ "$code" = 200 ] || { say "tree $tree under budget got $code, want 200"; exit 1; }
done

# Concurrent burst per tenant: four requests leave one curl at once; the
# first admitted holds the in-flight cap for its engine time, so overlapping
# requests must be refused with per-tenant 429s — backpressure, not growth.
for tree in a b; do
  url="$base/v1/place?tree=$tree"
  codes=$(curl -s --no-progress-meter --parallel --parallel-immediate -w '%{http_code}\n' \
    --data-binary "@$work/$tree/burst.fasta" -o /dev/null -o /dev/null -o /dev/null -o /dev/null \
    "$url" "$url" "$url" "$url")
  ok=0; rejected=0
  for code in $codes; do
    case $code in
      200) ok=$((ok+1)) ;;
      429) rejected=$((rejected+1)) ;;
      *) say "tree $tree burst: unexpected status $code"; exit 1 ;;
    esac
  done
  say "tree $tree burst: $ok served, $rejected rejected"
  [ $((ok + rejected)) -eq 4 ] || { say "tree $tree burst: $((ok + rejected)) responses, want 4"; exit 1; }
  [ "$ok" -ge 1 ] || { say "tree $tree: no request served during burst"; exit 1; }
  [ "$rejected" -ge 1 ] || { say "tree $tree: no 429 despite overlapping requests"; exit 1; }
  # Backpressure is transient: a sequential retry succeeds.
  code=$(place $tree)
  [ "$code" = 200 ] || { say "tree $tree retry after burst got $code, want 200"; exit 1; }
done

# Per-tenant attribution: each tenant's own telemetry counted its rejects.
metrics=$(curl -fsS "$base/metrics")
for tree in a b; do
  rej=$(echo "$metrics" | jq --arg id "$tree" \
    '.tenants[] | select(.id == $id) | .report.telemetry.server.rejected')
  [ -n "$rej" ] && [ "$rej" -ge 1 ] || { say "tenant $tree rejected=$rej, want >= 1"; exit 1; }
done
reclaimed=$(echo "$metrics" | jq '.fleet.bytes_reclaimed')
[ "$reclaimed" -gt 0 ] || { say "no bytes reclaimed despite the tight budget"; exit 1; }

# Two-phase drain: SIGTERM -> in-flight requests finish, engines close with
# their audits, the global accountant drains to zero, exit code 0.
stop_placed "$work/run.log"
[ -s "$work/stats.json" ] || { say "stats-json not written at shutdown"; exit 1; }
jq -e '.budget and .fleet and (.tenants | length >= 1)' "$work/stats.json" >/dev/null \
  || { say "stats-json missing fleet sections"; exit 1; }

say "PASS: both tenants served under a $limit-byte global budget with per-tenant backpressure and a clean two-phase drain"
