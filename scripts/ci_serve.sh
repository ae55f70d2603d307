#!/usr/bin/env bash
# Start/stop a repro allocation service for CI jobs, with readiness polling.
#
# Usage:
#   scripts/ci_serve.sh start [extra serve args...]   # e.g. --campaign-workers 2
#   scripts/ci_serve.sh port                          # print the bound port
#   scripts/ci_serve.sh stop
#
# The service binds an ephemeral port (--port 0 --port-file) and `start`
# returns only once GET /healthz answers, so callers never need nohup or
# sleep loops.  State (pid/port/log) lives under ${CI_SERVE_DIR:-.ci-serve}.
set -euo pipefail

STATE_DIR=${CI_SERVE_DIR:-.ci-serve}
PID_FILE="$STATE_DIR/serve.pid"
PORT_FILE="$STATE_DIR/serve.port"
LOG_FILE="$STATE_DIR/serve.log"

start() {
  mkdir -p "$STATE_DIR"
  rm -f "$PORT_FILE"
  PYTHONPATH=src python -m repro serve --port 0 --port-file "$PORT_FILE" \
    "$@" >"$LOG_FILE" 2>&1 &
  echo $! >"$PID_FILE"
  for _ in $(seq 1 100); do
    if [ -s "$PORT_FILE" ]; then
      port=$(cat "$PORT_FILE")
      if PYTHONPATH=src python -m repro.service.client --port "$port" health \
          >/dev/null 2>&1; then
        echo "allocation service ready on port $port"
        return 0
      fi
    fi
    sleep 0.2
  done
  echo "allocation service failed to become ready; log follows" >&2
  cat "$LOG_FILE" >&2 || true
  exit 1
}

stop() {
  if [ -f "$PID_FILE" ]; then
    kill "$(cat "$PID_FILE")" 2>/dev/null || true
    rm -f "$PID_FILE"
  fi
}

case "${1:-}" in
  start) shift; start "$@" ;;
  port) cat "$PORT_FILE" ;;
  stop) stop ;;
  *) echo "usage: $0 {start [serve args...]|port|stop}" >&2; exit 2 ;;
esac
