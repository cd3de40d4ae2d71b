#!/usr/bin/env bash
# CI serving/soak gate: boot `rdfqa serve` on a quick-scale LUBM dataset,
# drive a scripted client mix against it, and hard-gate five contracts:
#
#   1. every read's rows are bit-identical to a single-shot
#      `rdfqa query` over the same store state, also when two clients
#      read at the same time (including states reached
#      through interleaved INSERT/DELETE of facts and of a schema
#      constraint — the single-shot side replays the mutation with
#      --insert);
#   2. a SIGTERM drain: the server exits 0 and its drain summary reports
#      the process-global domain pool joined (no leaked domains);
#   3. nothing in the mix is answered with ERR (the client exits 1 on any);
#   4. after the writes, PROM's sampled store and epoch gauges equal the
#      STATS fields they mirror;
#   5. after interleaved writes, tier 4 (fragment snapshots) serves the
#      two concurrent clients' reads: PROM's rdfqa_views_hits_total rises
#      while every payload stays bit-identical.
#
# Usage: scripts/serve_ci.sh [jobs]
#   RDFQA=path/to/rdfqa.exe overrides the binary (default: the dune build
#   tree, so `dune build bin/rdfqa.exe` first).
set -euo pipefail

JOBS=${1:-1}
RDFQA=${RDFQA:-_build/default/bin/rdfqa.exe}

if [ ! -x "$RDFQA" ]; then
  echo "serve_ci: missing $RDFQA (dune build bin/rdfqa.exe first)" >&2
  exit 2
fi

WORK=$(mktemp -d)
SRV_PID=
cleanup() {
  [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== serve_ci: jobs=$JOBS =="

"$RDFQA" generate -w lubm -n 1 -o "$WORK/lubm.nt" > /dev/null

# A few extra facts to interleave: a new subject that satisfies both
# atoms of Q06 (?x a ub:Person via GraduateStudent, ?x ub:memberOf ?o),
# so INSERT moves the data version AND the checked answer set, without
# touching the schema.
cat > "$WORK/extra.nt" <<'EOF'
<http://serve.ci/student0> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://swat.cse.lehigh.edu/onto/univ-bench.owl#GraduateStudent> .
<http://serve.ci/student0> <http://swat.cse.lehigh.edu/onto/univ-bench.owl#memberOf> <http://www.Department0.University0.edu> .
<http://serve.ci/student1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://swat.cse.lehigh.edu/onto/univ-bench.owl#GraduateStudent> .
<http://serve.ci/student1> <http://swat.cse.lehigh.edu/onto/univ-bench.owl#memberOf> <http://www.Department0.University0.edu> .
EOF

# A schema write: a new subclass of ub:Person plus one member of it, so
# the INSERT moves the schema version (the server re-interns the schema
# vocabulary inside the write section) and Q06's answers.
cat > "$WORK/schema.nt" <<'EOF'
<http://serve.ci/Visitor> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://swat.cse.lehigh.edu/onto/univ-bench.owl#Person> .
<http://serve.ci/visitor0> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://serve.ci/Visitor> .
<http://serve.ci/visitor0> <http://swat.cse.lehigh.edu/onto/univ-bench.owl#memberOf> <http://www.Department0.University0.edu> .
EOF

"$RDFQA" serve -d "$WORK/lubm.nt" -w lubm -s gcov --jobs "$JOBS" \
  --port-file "$WORK/port" > "$WORK/server.log" 2>&1 &
SRV_PID=$!

for _ in $(seq 1 100); do
  [ -s "$WORK/port" ] && break
  kill -0 "$SRV_PID" 2>/dev/null || { cat "$WORK/server.log" >&2; exit 1; }
  sleep 0.1
done
[ -s "$WORK/port" ] || { echo "serve_ci: no port file" >&2; cat "$WORK/server.log" >&2; exit 1; }

client() { "$RDFQA" client --port-file "$WORK/port" "$@"; }

# Single-shot reference rows: same binary, same dataset, same strategy.
# `query` prints rows then `-- ...` summary lines; rows never start with
# a dash (URIs and literals only).
reference() { # reference NAME [extra query args...]
  local wq=$1; shift
  "$RDFQA" query -d "$WORK/lubm.nt" --workload-query "$wq" -s gcov \
    --jobs "$JOBS" --limit 1000000 "$@" | grep -v '^--' || true
}

check_identical() { # check_identical LABEL got-file want-file
  if ! diff -q "$2" "$3" > /dev/null; then
    echo "serve_ci: FAIL — $1 rows differ from single-shot rdfqa query" >&2
    diff "$2" "$3" >&2 || true
    exit 1
  fi
  echo "serve_ci: ok — $1 bit-identical ($(wc -l < "$2") rows)"
}

HOT=lubm:Q04
COLD="lubm:Q01 lubm:Q03 lubm:Q05 lubm:Q06"

# --- phase 1: hot repeats (cold then answer-tier-served, same rows) ----------
client --workload-query $HOT --workload-query $HOT --workload-query $HOT \
  > "$WORK/hot.rows" 2> /dev/null
reference $HOT > "$WORK/hot.want1"
cat "$WORK/hot.want1" "$WORK/hot.want1" "$WORK/hot.want1" > "$WORK/hot.want"
check_identical "hot x3 ($HOT)" "$WORK/hot.rows" "$WORK/hot.want"

# --- phase 2: cold sweep, one connection per query ---------------------------
for wq in $COLD; do
  client --workload-query "$wq" > "$WORK/cold.rows" 2> /dev/null
  reference "$wq" > "$WORK/cold.want"
  check_identical "cold $wq" "$WORK/cold.rows" "$WORK/cold.want"
done

# --- phase 2b: two concurrent clients ----------------------------------------
# Two connections read the same templates at the same time, each twice
# (planned, then answer-tier served).  None was read before, so their rows'
# wire forms are rendered into the server's shared table while both
# connection threads use it.  Each client's output must equal the
# single-shot references concatenated.
PAR="lubm:Q18 lubm:Q09 lubm:Q13 lubm:Q02"
: > "$WORK/par.want"
par_args=()
for wq in $PAR $PAR; do
  reference "$wq" >> "$WORK/par.want"
  par_args+=(--workload-query "$wq")
done
concurrent_pair() { # concurrent_pair LABEL
  client "${par_args[@]}" > "$WORK/par1.rows" 2> /dev/null &
  local par1=$!
  client "${par_args[@]}" > "$WORK/par2.rows" 2> /dev/null &
  local par2=$!
  wait "$par1" || { echo "serve_ci: FAIL — $1 client 1 failed" >&2; exit 1; }
  wait "$par2" || { echo "serve_ci: FAIL — $1 client 2 failed" >&2; exit 1; }
  check_identical "$1 client 1 ($PAR, twice)" "$WORK/par1.rows" "$WORK/par.want"
  check_identical "$1 client 2 ($PAR, twice)" "$WORK/par2.rows" "$WORK/par.want"
}
concurrent_pair concurrent

# --- phase 3: interleaved mutation ------------------------------------------
# INSERT, read, DELETE, read — twice.  The post-insert reference replays
# the same mutation single-shot (`query --insert`); the post-delete state
# is the original store again.
MUT=lubm:Q06
reference $MUT > "$WORK/mut.base"
reference $MUT --insert "$WORK/extra.nt" > "$WORK/mut.inserted"
if diff -q "$WORK/mut.base" "$WORK/mut.inserted" > /dev/null; then
  echo "serve_ci: FAIL — mutation fixture leaves $MUT's answers unchanged (vacuous gate)" >&2
  exit 1
fi
for round in 1 2; do
  client "INSERT $WORK/extra.nt" > /dev/null 2> /dev/null
  client --workload-query $MUT > "$WORK/mut.rows" 2> /dev/null
  check_identical "round $round post-insert $MUT" "$WORK/mut.rows" "$WORK/mut.inserted"
  client "DELETE $WORK/extra.nt" > /dev/null 2> /dev/null
  client --workload-query $MUT > "$WORK/mut.rows" 2> /dev/null
  check_identical "round $round post-delete $MUT" "$WORK/mut.rows" "$WORK/mut.base"
done

# --- phase 3b: tier 4 across the writes -------------------------------------
# The two concurrent clients again, on the store state the DELETEs
# restored.  Every write flushed the answer tier, so these reads execute
# their JUCQs; fragments no write touched, and fragments one template
# recorded for another, replay from tier 4.
views_hits() {
  client PROM 2> /dev/null | sed -n 's/^rdfqa_views_hits_total //p'
}
hits0=$(views_hits)
concurrent_pair "post-write concurrent"
hits1=$(views_hits)
if ! awk -v a="${hits0:-x}" -v b="${hits1:-x}" \
     'BEGIN { exit !(a ~ /^[0-9.e+]+$/ && b ~ /^[0-9.e+]+$/ && b > a) }'; then
  echo "serve_ci: FAIL — tier 4 served no fragment after the writes (rdfqa_views_hits_total '$hits0' -> '$hits1')" >&2
  exit 1
fi
echo "serve_ci: ok — tier 4 served fragments after the writes (rdfqa_views_hits_total $hits0 -> $hits1)"

# A per-request strategy override must agree with the same single-shot
# strategy (ECov is excluded from identity checks: its anytime search is
# wall-clock bounded).
client --query-strategy scq --workload-query $HOT > "$WORK/scq.rows" 2> /dev/null
"$RDFQA" query -d "$WORK/lubm.nt" --workload-query $HOT -s scq \
  --jobs "$JOBS" --limit 1000000 | grep -v '^--' > "$WORK/scq.want"
check_identical "strategy override scq ($HOT)" "$WORK/scq.rows" "$WORK/scq.want"

# --- phase 4: schema write -------------------------------------------------
# INSERT a subclass constraint (plus facts using it), read, DELETE it,
# read.  The post-insert reference replays the same triples single-shot.
reference $MUT --insert "$WORK/schema.nt" > "$WORK/schema.inserted"
if diff -q "$WORK/mut.base" "$WORK/schema.inserted" > /dev/null; then
  echo "serve_ci: FAIL — schema fixture leaves $MUT's answers unchanged (vacuous gate)" >&2
  exit 1
fi
client "INSERT $WORK/schema.nt" 2> "$WORK/schema.status" > /dev/null
grep -q '^OK schema=1 data=2 ' "$WORK/schema.status" \
  || { echo "serve_ci: FAIL — schema INSERT not applied as schema=1 data=2" >&2; cat "$WORK/schema.status" >&2; exit 1; }
client --workload-query $MUT > "$WORK/mut.rows" 2> /dev/null
check_identical "post-schema-insert $MUT" "$WORK/mut.rows" "$WORK/schema.inserted"
client "DELETE $WORK/schema.nt" > /dev/null 2> /dev/null
client --workload-query $MUT > "$WORK/mut.rows" 2> /dev/null
check_identical "post-schema-delete $MUT" "$WORK/mut.rows" "$WORK/mut.base"

# --- phase 5: server-side stats sanity ---------------------------------------
client STATS > "$WORK/stats.out" 2> /dev/null
grep -q '^epoch=6$' "$WORK/stats.out" \
  || { echo "serve_ci: FAIL — expected epoch=6 after 6 writes" >&2; cat "$WORK/stats.out" >&2; exit 1; }
grep -q '^writes=6$' "$WORK/stats.out" \
  || { echo "serve_ci: FAIL — expected writes=6" >&2; cat "$WORK/stats.out" >&2; exit 1; }
echo "serve_ci: ok — server stats coherent (epoch=6, writes=6)"

# The store and epoch gauges are sampled when PROM is scraped, never
# pushed by a write: after the six writes they must equal STATS' fields.
client PROM > "$WORK/prom.out" 2> /dev/null
for pair in triples:store_triples data_version:store_data_version \
            schema_version:store_schema_version epoch:server_epoch; do
  field=${pair%%:*}
  gauge=rdfqa_${pair#*:}
  want=$(sed -n "s/^$field=//p" "$WORK/stats.out")
  got=$(sed -n "s/^$gauge //p" "$WORK/prom.out")
  if [ -z "$want" ] || [ "$want" != "$got" ]; then
    echo "serve_ci: FAIL — PROM $gauge='$got' but STATS $field='$want'" >&2
    exit 1
  fi
done
echo "serve_ci: ok — PROM store/epoch gauges equal STATS"

# --- phase 6: graceful drain -------------------------------------------------
kill -TERM "$SRV_PID"
code=0
wait "$SRV_PID" || code=$?
SRV_PID=
if [ "$code" -ne 0 ]; then
  echo "serve_ci: FAIL — server exited $code on SIGTERM" >&2
  cat "$WORK/server.log" >&2
  exit 1
fi
grep -q 'drained:' "$WORK/server.log" \
  || { echo "serve_ci: FAIL — no drain summary" >&2; cat "$WORK/server.log" >&2; exit 1; }
grep -q 'pool joined' "$WORK/server.log" \
  || { echo "serve_ci: FAIL — domain pool not joined on shutdown" >&2; cat "$WORK/server.log" >&2; exit 1; }
echo "serve_ci: ok — clean SIGTERM drain (exit 0, pool joined)"

echo "== serve_ci: all gates passed (jobs=$JOBS) =="
