#!/bin/sh
# End-to-end smoke test of the serving daemon: build a container with
# bin2atc (serial and on 4 threads, which must agree file for file),
# start atcserved on a kernel-assigned loopback port, drive it
# with atcclient (ping, open, seek, range, stat), ask it to shut down,
# and require a clean exit. Run by ctest as `serve_smoke`.
#
# Usage: serve_smoke.sh <dir-with-binaries> <scratch-dir>
set -e

BIN_DIR="$1"
WORK_DIR="$2"
[ -n "$BIN_DIR" ] && [ -n "$WORK_DIR" ] || {
    echo "usage: $0 <bin-dir> <work-dir>" >&2
    exit 2
}

rm -rf "$WORK_DIR"
mkdir -p "$WORK_DIR"
cd "$WORK_DIR"

# 16384 random u64 addresses; content doesn't matter, round-tripping does.
# 16 KiB codec blocks give the threaded writer several frames to spread.
dd if=/dev/urandom of=trace.bin bs=4096 count=32 2>/dev/null
"$BIN_DIR/bin2atc" -j 1 --block 16k tdir c < trace.bin
"$BIN_DIR/bin2atc" -j 4 --block 16k tdir4 c < trace.bin
[ "$(ls tdir | wc -l)" -eq "$(ls tdir4 | wc -l)" ]
for f in tdir/*; do
    cmp "$f" "tdir4/$(basename "$f")"
done

"$BIN_DIR/atcserved" --port 0 --port-file port.txt demo=tdir &
SERVER_PID=$!
trap 'kill $SERVER_PID 2>/dev/null || true' EXIT

i=0
while [ ! -s port.txt ] && [ $i -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
done
[ -s port.txt ] || { echo "server never wrote its port" >&2; exit 1; }
ADDR="127.0.0.1:$(cat port.txt)"

"$BIN_DIR/atcclient" "$ADDR" ping | grep -q pong
"$BIN_DIR/atcclient" "$ADDR" open demo | grep -q 'records:   16384'
"$BIN_DIR/atcclient" "$ADDR" seek demo 100 10 > seek.out
[ "$(wc -l < seek.out)" -eq 10 ]
"$BIN_DIR/atcclient" "$ADDR" range demo 100 110 > range.out
# Lossless seeks are exact, so both views of records [100,110) agree.
cmp seek.out range.out
"$BIN_DIR/atcclient" "$ADDR" stat | grep -q 'server.requests.read_range=1'
"$BIN_DIR/atcclient" "$ADDR" shutdown

trap - EXIT
wait $SERVER_PID # propagates the daemon's exit code; must be 0
echo "serve_smoke: OK"
