#!/usr/bin/env bash
# End-to-end serve smoke: simulate -> train -> offline predict, then
# stand the daemon up and push >= 1000 requests through `iotax query`
# at IOTAX_THREADS=1 and 4, demanding byte-identical CSVs and a clean
# SIGTERM drain with final metrics export; then SIGTERM a daemon the
# instant its ready file appears and demand the same clean drain.
#
#   serve_smoke.sh <path-to-iotax> <work-dir>
set -euo pipefail

IOTAX="$1"
WORK="$2"

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

DAEMON_PID=""
cleanup() {
  if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -KILL "$DAEMON_PID" 2>/dev/null || true
  fi
}
trap cleanup EXIT

echo "== dataset + model =="
"$IOTAX" simulate --preset tiny --seed 7 --out .
"$IOTAX" train --dataset dataset.csv --model gbt \
  --params '{"n_estimators": 20, "max_depth": 4}' --out model.gbt

echo "== offline golden predictions =="
IOTAX_THREADS=1 "$IOTAX" predict --dataset dataset.csv \
  --model-file model.gbt --out offline.csv

N_JOBS=$(($(wc -l < offline.csv) - 1))
# query sends one request per job per pass; pick enough passes to clear
# the 1000-request floor.
REPEAT=$(((1000 + N_JOBS - 1) / N_JOBS + 1))
echo "jobs=$N_JOBS repeat=$REPEAT ($((N_JOBS * REPEAT)) requests per run)"

run_daemon_pass() {
  local threads="$1"
  local sock="$WORK/serve_t${threads}.sock"
  local served="served_t${threads}.csv"

  echo "== daemon pass at IOTAX_THREADS=$threads =="
  rm -f ready.txt
  IOTAX_THREADS="$threads" "$IOTAX" serve --models model.gbt \
    --socket "$sock" --ready-file ready.txt \
    --metrics-out "metrics_t${threads}.json" \
    > "serve_t${threads}.log" 2>&1 &
  DAEMON_PID=$!

  for _ in $(seq 1 200); do
    [[ -f ready.txt ]] && break
    sleep 0.05
  done
  [[ -f ready.txt ]] || { echo "FAIL: daemon never became ready"; exit 1; }

  "$IOTAX" query --socket "$sock" --ping
  "$IOTAX" query --socket "$sock" --dataset dataset.csv \
    --repeat "$REPEAT" --out "$served"

  kill -TERM "$DAEMON_PID"
  local rc=0
  wait "$DAEMON_PID" || rc=$?
  DAEMON_PID=""
  [[ $rc -eq 0 ]] || { echo "FAIL: daemon exit $rc after SIGTERM"; exit 1; }

  grep -q "drained;" "serve_t${threads}.log" \
    || { echo "FAIL: no drain summary in serve_t${threads}.log"; exit 1; }
  grep -q '"serve.requests"' "metrics_t${threads}.json" \
    || { echo "FAIL: metrics export missing serve.requests"; exit 1; }

  cmp offline.csv "$served" \
    || { echo "FAIL: served CSV differs from offline at threads=$threads"; exit 1; }
  echo "ok: $((N_JOBS * REPEAT)) served predictions byte-identical" \
       "to offline (threads=$threads)"
}

run_daemon_pass 1
run_daemon_pass 4

# SIGTERM the moment the ready file appears: SIGTERM/SIGINT are blocked
# and left pending for the drain before the ready file is written, so
# the daemon must drain and exit 0 rather than die of the default
# SIGTERM action or miss the signal.
echo "== SIGTERM at ready =="
for i in 1 2 3 4 5; do
  rm -f ready.txt
  "$IOTAX" serve --models model.gbt --socket "$WORK/serve_term.sock" \
    --ready-file ready.txt > "serve_term_$i.log" 2>&1 &
  DAEMON_PID=$!
  # Poll without sleeping so the signal lands right after ready, for at
  # most 10 s like the daemon passes above.
  deadline=$((SECONDS + 10))
  until [[ -e ready.txt ]] || ((SECONDS >= deadline)); do :; done
  [[ -e ready.txt ]] || { echo "FAIL: daemon never became ready"; exit 1; }
  kill -TERM "$DAEMON_PID"
  rc=0
  wait "$DAEMON_PID" || rc=$?
  DAEMON_PID=""
  [[ $rc -eq 0 ]] \
    || { echo "FAIL: daemon exit $rc on SIGTERM at ready (try $i)"; exit 1; }
  grep -q "drained;" "serve_term_$i.log" \
    || { echo "FAIL: no drain summary on SIGTERM at ready (try $i)"; exit 1; }
done
echo "ok: SIGTERM at ready drains and exits 0 (5 tries)"

echo "serve_smoke: PASS"
