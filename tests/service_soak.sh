#!/usr/bin/env bash
# Soak test for the analysis service (docs/SERVICE.md): a mixed workload
# against a real ats_serve daemon — well-formed, malformed, oversized and
# deadline-busting requests — plus a SIGKILL mid-run and a restart that
# must come back warm with no lost result and no double-simulated cell,
# then a graceful shutdown and a restart that must recover nothing and
# reload every cached row.
#
#   tests/service_soak.sh <path-to-ats_serve> <path-to-ats_client>
#
# Registered in ctest as `service_soak` (examples/CMakeLists.txt) and run
# by the service-soak CI job.
set -u

SERVE="${1:?usage: service_soak.sh <ats_serve> <ats_client>}"
CLIENT="${2:?usage: service_soak.sh <ats_serve> <ats_client>}"

WORK="$(mktemp -d /tmp/ats_soak.XXXXXX)"
SOCK="$WORK/ats.sock"
STATE="$WORK/state"
SERVE_PID=""
FAILED=0

cleanup() {
  [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  FAILED=1
}

check_exit() {  # check_exit <expected> <description> <client args...>
  local expected="$1" desc="$2"
  shift 2
  "$CLIENT" --socket "$SOCK" "$@" >/dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$expected" ]; then
    fail "$desc: expected exit $expected, got $got"
  fi
}

start_daemon() {
  rm -f "$SOCK"  # a stale socket file from a SIGKILL'd daemon
  "$SERVE" --socket "$SOCK" --state-dir "$STATE" --workers 2 \
           --deadline-ms 10000 "$@" 2>>"$WORK/serve.log" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    "$CLIENT" --socket "$SOCK" ping >/dev/null 2>&1 && return
    sleep 0.1
  done
  echo "daemon did not come up"
  cat "$WORK/serve.log"
  exit 1
}

stop_daemon() {  # graceful shutdown; fails if the daemon ignores it
  check_exit 0 "shutdown" shutdown
  for _ in $(seq 1 50); do
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$SERVE_PID" 2>/dev/null; then
    fail "daemon ignored shutdown"
  else
    SERVE_PID=""
  fi
}

status_field() {  # status_field <key>
  "$CLIENT" --socket "$SOCK" status 2>/dev/null |
    tr ' ' '\n' | sed -n "s/^$1=//p"
}

echo "== phase 1: mixed workload"
start_daemon
check_exit 0 "ping" ping
check_exit 0 "clean analyze" analyze prop=late_sender np=4
check_exit 0 "repeat analyze (cache hit)" analyze prop=late_sender np=4
check_exit 0 "parallel sweep" sweep prop=late_sender axis=np values=2,4,8
check_exit 0 "generate" generate prop=late_sender
check_exit 2 "malformed op" frobnicate prop=x
check_exit 2 "unknown property" analyze prop=no_such_thing np=2
check_exit 2 "bad np" analyze prop=late_sender np=banana
check_exit 4 "deadline-busting spec classified as hang" \
  analyze prop=pathological_hang np=1 deadline_ms=500
SIMS_BEFORE="$(status_field simulations)"
check_exit 0 "cache hit after the noise" analyze prop=late_sender np=4
SIMS_AFTER="$(status_field simulations)"
[ "$SIMS_BEFORE" = "$SIMS_AFTER" ] ||
  fail "cache hit re-simulated ($SIMS_BEFORE -> $SIMS_AFTER)"

echo "== phase 2: SIGKILL mid-sweep"
# Heavy cells (hundreds of ranks x 1000 repetitions each, ~0.2-0.5 s per
# cell) so the kill lands mid-sweep on any realistic machine; the phase-3
# assertions hold either way (completed-before-kill just means nothing
# needed recovery).
SWEEP_ARGS="prop=late_sender r=1000 axis=np values=96,112,128,144,160,176,192,208,224,240"
"$CLIENT" --socket "$SOCK" sweep $SWEEP_ARGS >/dev/null 2>&1 &
SWEEP_PID=$!
sleep 0.4
kill -9 "$SERVE_PID"
wait "$SWEEP_PID" 2>/dev/null  # the client loses its connection; that is fine
wait "$SERVE_PID" 2>/dev/null
SERVE_PID=""
[ -f "$STATE/cache.journal" ] || fail "no cache journal survived the kill"

echo "== phase 3: restart must be warm and exactly-once"
start_daemon
RECOVERED="$(status_field recovered)"
SIMS_AT_START="$(status_field simulations)"
echo "   recovered=$RECOVERED simulations(at start)=$SIMS_AT_START"
# The interrupted sweep, retried: every cell must come from the cache
# (completed before the kill, or re-simulated exactly once by recovery).
OUT="$("$CLIENT" --socket "$SOCK" sweep $SWEEP_ARGS 2>&1)"
[ $? -eq 0 ] || fail "sweep retry after restart failed: $OUT"
CACHED="$(echo "$OUT" | sed -n 's/.* \([0-9]*\) from cache.*/\1/p')"
[ "$CACHED" = "10" ] || fail "sweep retry not fully cached (cached=$CACHED)"
SIMS_NOW="$(status_field simulations)"
[ "$SIMS_AT_START" = "$SIMS_NOW" ] ||
  fail "retry double-simulated cells ($SIMS_AT_START -> $SIMS_NOW)"
# Pre-kill results also survived.
check_exit 0 "pre-kill analyze still cached" analyze prop=late_sender np=4
SIMS_FINAL="$(status_field simulations)"
[ "$SIMS_NOW" = "$SIMS_FINAL" ] || fail "pre-kill result was lost"

echo "== phase 4: graceful shutdown"
ENTRIES_BEFORE="$(status_field cache_entries)"
stop_daemon

echo "== phase 5: restart after a graceful shutdown"
# A clean stop leaves nothing in flight and every cached row on disk.
start_daemon
RECOVERED="$(status_field recovered)"
ENTRIES_AFTER="$(status_field cache_entries)"
echo "   recovered=$RECOVERED cache_entries=$ENTRIES_BEFORE -> $ENTRIES_AFTER"
[ "$RECOVERED" = "0" ] ||
  fail "graceful shutdown left work to recover (recovered=$RECOVERED)"
[ -n "$ENTRIES_BEFORE" ] && [ "$ENTRIES_BEFORE" = "$ENTRIES_AFTER" ] ||
  fail "cache entries changed across restart ($ENTRIES_BEFORE -> $ENTRIES_AFTER)"
stop_daemon

if [ "$FAILED" -ne 0 ]; then
  echo "== service soak FAILED"
  cat "$WORK/serve.log" >&2
  exit 1
fi
echo "== service soak OK"
