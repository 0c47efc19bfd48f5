#!/usr/bin/env bash
# Campaign service smoke test: the daemon lifecycle end to end, through
# the real binary and the real unix socket.
#
#   1. start `clasp_cli serve` on a tiny world
#   2. submit 4 campaigns from 2 tenants — one more than max_admitted,
#      so the last one queues behind the admission controller
#   3. kill -9 the daemon mid-run (no drain, no checkpoint-on-exit);
#      the shard workers of the sharded campaign must exit on their own
#      once their coordinator is gone
#   4. restart it: the registry reloads, admitted/running campaigns are
#      demoted to queued, durable ones warm-resume from checkpoints
#   5. wait for all 4 to finish, shut the daemon down remotely
#   6. re-run every campaign in plain batch mode and require the
#      service's harvested CSVs to be byte-identical
#
# Usage: tools/service_smoke.sh [path/to/clasp_cli]
set -euo pipefail

CLI="${1:-build/examples/clasp_cli}"
if [[ ! -x "$CLI" ]]; then
  echo "service_smoke: no clasp_cli at $CLI (build with CLASP_BUILD_EXAMPLES=ON)" >&2
  exit 1
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/clasp_svc_smoke.XXXXXX")"
DAEMON_PID=""
cleanup() {
  [[ -n "$DAEMON_PID" ]] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

CFG="$WORK/smoke.ini"
cat > "$CFG" <<EOF
[internet]
seed = 777
regional_isp_count = 120
hosting_count = 80
business_count = 150
education_count = 30
large_isp_count = 20
vantage_point_count = 120

[servers]
us_server_target = 120
global_server_target = 600

[budgets]
us-west1 = 40

[service]
socket = $WORK/svc.sock
state_dir = $WORK/state
results_dir = $WORK/results
quantum_hours = 6
worker_budget = 4
max_admitted = 3
tenant_max_admitted = 2
tenant_max_active = 16
max_resident = 4
EOF

DAYS=30
status() { "$CLI" status --config "$CFG" 2>/dev/null || true; }

start_daemon() {
  "$CLI" serve --config "$CFG" > "$WORK/daemon-$1.log" 2>&1 &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    [[ -S "$WORK/svc.sock" ]] && return 0
    sleep 0.1
  done
  echo "service_smoke: daemon never opened $WORK/svc.sock" >&2
  cat "$WORK/daemon-$1.log" >&2
  exit 1
}

echo "== start daemon =="
start_daemon first

echo "== submit 4 campaigns (2 tenants, max_admitted is 3, one sharded) =="
"$CLI" submit --config "$CFG" --tenant alice --region us-west1 --days $DAYS --seed 101 --durable on
"$CLI" submit --config "$CFG" --tenant alice --region us-west1 --days $DAYS --seed 102 --durable on --shards 2
"$CLI" submit --config "$CFG" --tenant bob   --region us-west1 --days $DAYS --seed 103 --durable off
"$CLI" submit --config "$CFG" --tenant bob   --region us-west1 --days $DAYS --seed 104 --durable on

# The kill must land while a durable campaign is part-way through its
# window: one that has run at least one quantum (so it has checkpointed)
# and is not past half of it. A fixed sleep after the first "running"
# overshoots on a fast host, where both durable alice campaigns finish
# before the kill and nothing is left to warm-resume.
durable_mid_run() {
  local rows
  rows="$(status | grep -E '^ *#[0-9]+ .* running ' | grep -v '\[ephemeral\]' || true)"
  grep -qE '\( *([1-9]|[1-4][0-9])%\)' <<< "$rows"
}
echo "== wait until a durable campaign is part-way through its window =="
for _ in $(seq 1 400); do
  durable_mid_run && break
  sleep 0.02
done
status

echo "== kill -9 the daemon mid-run =="
# The daemon's children are the sharded campaign's parked workers (none
# when that campaign is not resident at this instant).
WORKERS="$(pgrep -P "$DAEMON_PID" || true)"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
if ! status >/dev/null 2>&1; then :; fi

echo "== orphaned shard workers must exit: $(wc -w <<< "$WORKERS") found =="
# Alive and not a zombie: an exited orphan waits for its new parent to
# reap it, which is not this script's to check.
alive() {
  local stat
  stat="$(ps -o stat= -p "$1" 2>/dev/null || true)"
  [[ -n "$stat" && "$stat" != Z* ]]
}
for pid in $WORKERS; do
  for _ in $(seq 1 50); do
    alive "$pid" || break
    sleep 0.1
  done
  if alive "$pid"; then
    echo "service_smoke: shard worker $pid outlived its daemon by 5 s" >&2
    kill -9 "$pid" 2>/dev/null || true
    exit 1
  fi
done

echo "== restart: registry reloads, queue resumes =="
start_daemon second

echo "== wait for all 4 campaigns to finish =="
DONE=0
for _ in $(seq 1 600); do
  if status | grep -q " 4 done,"; then DONE=1; break; fi
  if status | grep -qE " [1-9][0-9]* failed,"; then
    echo "service_smoke: a campaign failed" >&2
    status >&2
    exit 1
  fi
  sleep 0.2
done
status
if [[ "$DONE" != 1 ]]; then
  echo "service_smoke: campaigns never finished" >&2
  cat "$WORK/daemon-second.log" >&2
  exit 1
fi

echo "== a restarted durable campaign must have warm-resumed =="
if ! status | grep -qE "scheduler: .* [1-9][0-9]* warm resumes"; then
  echo "service_smoke: no warm resumes after restart (expected checkpoint resume)" >&2
  status >&2
  exit 1
fi

echo "== remote shutdown =="
"$CLI" shutdown --config "$CFG"
for _ in $(seq 1 50); do
  [[ ! -S "$WORK/svc.sock" ]] && break
  sleep 0.1
done

echo "== batch-mode twins must match the harvested results byte for byte =="
declare -A SEED_OF=([1]=101 [2]=102 [3]=103 [4]=104)
declare -A TENANT_OF=([1]=alice [2]=alice [3]=bob [4]=bob)
for id in 1 2 3 4; do
  seed="${SEED_OF[$id]}"
  tenant="${TENANT_OF[$id]}"
  "$CLI" run --config "$CFG" --region us-west1 --days $DAYS --seed "$seed" \
    --csv "$WORK/batch-$seed.csv" > /dev/null
  if ! cmp -s "$WORK/results/$tenant-$id.csv" "$WORK/batch-$seed.csv"; then
    echo "service_smoke: campaign $id (seed $seed) diverged from batch mode" >&2
    exit 1
  fi
  echo "campaign $id (tenant $tenant, seed $seed): identical to batch"
done

echo "service_smoke: OK"
