# Starts archline_serverd on an ephemeral port and waits until it is
# ready. Source it, so the caller's shell owns the server process:
#
#   . tools/ci/start_serverd.sh ./build/tools/archline_serverd [flags...]
#   ./build/bench/serve_loadgen --port "$SERVER_PORT" ...
#   kill -TERM "$SERVER_PID"; wait "$SERVER_PID"
#
# Readiness is the server's own "listening on 127.0.0.1:PORT" line on
# stderr (logged to $SERVER_LOG), not a sleep. Sets SERVER_PID and
# SERVER_PORT; fails after 30 s, or as soon as the server exits, with
# the log printed.
SERVER_LOG=$(mktemp)
"$1" --port 0 "${@:2}" 2> "$SERVER_LOG" &
SERVER_PID=$!
SERVER_PORT=
for _ in $(seq 300); do
  SERVER_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$SERVER_LOG" | head -n 1)
  if [ -n "$SERVER_PORT" ] || ! kill -0 "$SERVER_PID" 2> /dev/null; then
    break
  fi
  sleep 0.1
done
if [ -z "$SERVER_PORT" ]; then
  echo "archline_serverd did not report a port:" >&2
  cat "$SERVER_LOG" >&2
  kill "$SERVER_PID" 2> /dev/null
  false
fi
