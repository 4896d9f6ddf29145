#!/usr/bin/env bash
# End-to-end fleet smoke: simulate -> train -> offline predict, then
# stand up a 2 groups x 2 replicas supervised fleet behind the router
# and push >= 1000 pipelined requests through `iotax query --fleet`
# while a chaos plan kill -9s one shard in each group mid-load.
# Demands: zero failed requests, a served CSV byte-identical to offline,
# supervisor restart counters matching the plan's ground truth, and a
# clean SIGTERM drain. A second leg runs two `query --pipeline 16`
# clients through a 1 x 2 fleet while the router drops a backhaul with
# requests in flight and holds one request on a delay: again zero
# failures and byte-identical CSVs, and the drain reports exactly the
# plan's one drop and one delay.
#
#   fleet_smoke.sh <path-to-iotax> <work-dir>
set -euo pipefail

IOTAX="$1"
WORK="$2"

rm -rf "$WORK"
mkdir -p "$WORK/shards"
cd "$WORK"

FLEET_PID=""
cleanup() {
  if [[ -n "$FLEET_PID" ]] && kill -0 "$FLEET_PID" 2>/dev/null; then
    kill -KILL "$FLEET_PID" 2>/dev/null || true
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
REPEAT=$(((1000 + N_JOBS - 1) / N_JOBS + 1))
N_REQ=$((N_JOBS * REPEAT))
echo "jobs=$N_JOBS repeat=$REPEAT ($N_REQ requests)"

# One kill per group, mid-load: ground truth is exactly 2 restarts.
K1=$((N_REQ / 4))
K2=$((N_REQ / 2))
cat > chaos.json <<EOF
{"events": [
  {"at_request": $K1, "action": "kill", "group": 0, "replica": 0},
  {"at_request": $K2, "action": "kill", "group": 1, "replica": 1}]}
EOF

echo "== fleet up (2 groups x 2 replicas, chaos armed) =="
"$IOTAX" fleet --models model.gbt --socket "$WORK/router.sock" \
  --shard-dir "$WORK/shards" --groups 2 --replicas 2 \
  --chaos-plan chaos.json --ready-file ready.txt \
  > fleet.log 2>&1 &
FLEET_PID=$!

for _ in $(seq 1 600); do
  [[ -f ready.txt ]] && break
  kill -0 "$FLEET_PID" 2>/dev/null \
    || { echo "FAIL: fleet died during startup"; cat fleet.log; exit 1; }
  sleep 0.05
done
[[ -f ready.txt ]] || { echo "FAIL: fleet never became ready"; exit 1; }
grep -q "chaos plan armed: 2 event(s), 2 expected restart(s)" fleet.log \
  || { echo "FAIL: chaos plan not armed"; cat fleet.log; exit 1; }

"$IOTAX" query --socket "$WORK/router.sock" --ping

echo "== $N_REQ requests through the router while shards die =="
"$IOTAX" query --socket "$WORK/router.sock" --fleet --dataset dataset.csv \
  --repeat "$REPEAT" --out served.csv | tee query.log
grep -q "0 failed request(s)" query.log \
  || { echo "FAIL: query reported failed requests"; exit 1; }

cmp offline.csv served.csv \
  || { echo "FAIL: served CSV differs from offline under chaos"; exit 1; }
echo "ok: $N_REQ served predictions byte-identical to offline"

# Both killed shards must come back: each shard log gains a second
# startup banner once the supervisor's respawn is listening again.
echo "== waiting for the supervisor to restart both killed shards =="
for _ in $(seq 1 300); do
  A=$(grep -c "listening on" shards/g0r0.log || true)
  B=$(grep -c "listening on" shards/g1r1.log || true)
  [[ "$A" -ge 2 && "$B" -ge 2 ]] && break
  sleep 0.1
done
[[ "$A" -eq 2 && "$B" -eq 2 ]] \
  || { echo "FAIL: expected exactly 2 spawns per killed shard," \
            "got g0r0=$A g1r1=$B"; exit 1; }

echo "== SIGTERM drain =="
kill -TERM "$FLEET_PID"
rc=0
wait "$FLEET_PID" || rc=$?
FLEET_PID=""
[[ $rc -eq 0 ]] || { echo "FAIL: fleet exit $rc after SIGTERM"; cat fleet.log; exit 1; }

# Counter-exact ground truth from the chaos plan.
grep -q "fleet: drained;" fleet.log \
  || { echo "FAIL: no drain summary"; cat fleet.log; exit 1; }
grep "fleet: drained;" fleet.log | grep -q "0 error(s), 0 degraded" \
  || { echo "FAIL: drain summary shows client-visible failures"; \
       cat fleet.log; exit 1; }
grep -q "chaos fired 2 kill(s), 0 hang(s), 0 drop(s), 0 delay(s)" fleet.log \
  || { echo "FAIL: chaos kill count != plan"; cat fleet.log; exit 1; }
grep "supervisor spawned" fleet.log \
  | grep -q "spawned 6, restarted 2 (" \
  || { echo "FAIL: restart counters != plan ground truth"; \
       cat fleet.log; exit 1; }
grep "supervisor spawned" fleet.log | grep -q "0 gave up" \
  || { echo "FAIL: a shard exhausted its restart budget"; \
       cat fleet.log; exit 1; }

echo "== leg 2: pipelined clients under drop + delay chaos (1 x 2 fleet) =="
mkdir -p shards2
# One client per replica (the router rotates replica preference by
# connection). The drop cuts g0r0's backhaul while a window is in
# flight; the delay holds a single request.
cat > chaos2.json <<EOF
{"events": [
  {"at_request": $((N_JOBS / 2)), "action": "drop", "group": 0, "replica": 0},
  {"at_request": $N_JOBS, "action": "delay", "group": 0, "replica": 1,
   "delay_ms": 50}]}
EOF
"$IOTAX" fleet --models model.gbt --socket "$WORK/router2.sock" \
  --shard-dir "$WORK/shards2" --groups 1 --replicas 2 \
  --chaos-plan chaos2.json --ready-file ready2.txt \
  > fleet2.log 2>&1 &
FLEET_PID=$!
for _ in $(seq 1 600); do
  [[ -f ready2.txt ]] && break
  kill -0 "$FLEET_PID" 2>/dev/null \
    || { echo "FAIL: fleet died during startup"; cat fleet2.log; exit 1; }
  sleep 0.05
done
[[ -f ready2.txt ]] || { echo "FAIL: fleet never became ready"; exit 1; }
CLIENTS=()
for c in 0 1; do
  "$IOTAX" query --socket "$WORK/router2.sock" --fleet --dataset dataset.csv \
    --pipeline 16 --out "served2_$c.csv" > "query2_$c.log" 2>&1 &
  CLIENTS+=($!)
done
for c in 0 1; do
  wait "${CLIENTS[$c]}" \
    || { echo "FAIL: query client $c failed"; cat "query2_$c.log"; exit 1; }
  grep -q "0 failed request(s)" "query2_$c.log" \
    || { echo "FAIL: client $c reported failed requests"; exit 1; }
  cmp offline.csv "served2_$c.csv" \
    || { echo "FAIL: client $c CSV differs from offline under drop/delay"; \
         exit 1; }
done
kill -TERM "$FLEET_PID"
rc=0
wait "$FLEET_PID" || rc=$?
FLEET_PID=""
[[ $rc -eq 0 ]] || { echo "FAIL: fleet exit $rc after SIGTERM"; cat fleet2.log; exit 1; }
grep "fleet: drained;" fleet2.log | grep -q "0 error(s), 0 degraded" \
  || { echo "FAIL: drop/delay leaked client-visible failures"; \
       cat fleet2.log; exit 1; }
grep -q "chaos fired 0 kill(s), 0 hang(s), 1 drop(s), 1 delay(s)" fleet2.log \
  || { echo "FAIL: drop/delay count != plan"; cat fleet2.log; exit 1; }
grep -h "serve: drained;" shards2/g0r0.log shards2/g0r1.log
echo "ok: 2 x $N_JOBS pipelined requests byte-identical to offline" \
     "under drop + delay"

echo "fleet_smoke: PASS"
