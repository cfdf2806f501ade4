#!/bin/sh
# End-to-end parity test of the sampling study's two backends: build a
# container with bin2atc, sample it locally with cache_study --sample,
# then sample the same container through atcserved on loopback, each
# with 1 and 4 worker threads — all four JSON reports must agree on
# every window's payload CRC and on the merged histogram CRC (same
# records fetched, same statistics merged, whichever worker was dealt
# which window). The 37-window plan divides evenly among no worker
# count. A plan whose window arithmetic would wrap must be refused
# with exit 1 inside a 1 GiB address-space limit, not exhaust memory.
# Run by ctest as `sample_smoke`.
#
# Usage: sample_smoke.sh <dir-with-binaries> <scratch-dir>
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

# 65536 random u64 addresses — parity is about bytes, not locality.
dd if=/dev/urandom of=trace.bin bs=4096 count=128 2>/dev/null
"$BIN_DIR/bin2atc" tdir c < trace.bin

PLAN='systematic:windows=37,len=1k,warmup=128'

"$BIN_DIR/cache_study" --sample tdir --plan "$PLAN" --sets 64,256 \
    --threads 1 --reference --json local1.json > /dev/null
grep -q '"atc_sample_study": 1' local1.json
grep -q '"backend": "local"' local1.json
# The sampled estimate of a fully referenced run carries error bounds.
grep -q '"max_error"' local1.json
"$BIN_DIR/cache_study" --sample tdir --plan "$PLAN" --sets 64,256 \
    --threads 4 --json local4.json > /dev/null

# 2^48 windows of 64k records: the product wraps to 0 in 64 bits. The
# plan must be refused before anything is allocated.
if (ulimit -v 1048576 && "$BIN_DIR/cache_study" --sample tdir \
        --plan 'systematic:windows=262144g,len=64k,warmup=0' \
        > /dev/null 2> overflow.err); then
    echo "overflowing plan was accepted" >&2
    exit 1
else
    code=$?
fi
[ "$code" -eq 1 ] || {
    echo "overflowing plan exited $code, not 1:" >&2
    cat overflow.err >&2
    exit 1
}
grep -q 'sample plan' overflow.err || {
    echo "overflowing plan failed without the plan error:" >&2
    cat overflow.err >&2
    exit 1
}

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

for t in 1 4; do
    "$BIN_DIR/cache_study" --sample --connect "$ADDR" --name demo \
        --plan "$PLAN" --sets 64,256 --threads $t \
        --json served$t.json > /dev/null
    grep -q '"backend": "served"' served$t.json
done

"$BIN_DIR/atcclient" "$ADDR" shutdown
trap - EXIT
wait $SERVER_PID # propagates the daemon's exit code; must be 0

# Backend and thread-count parity: byte-identical window records
# (per-window CRCs fold into windows_crc) and identical merged
# histograms (hist_crc).
for key in windows_crc hist_crc window_crcs; do
    L=$(grep "\"$key\"" local1.json)
    [ -n "$L" ] || { echo "$key missing from local1.json" >&2; exit 1; }
    for other in local4 served1 served4; do
        S=$(grep "\"$key\"" $other.json)
        [ "$L" = "$S" ] || {
            echo "mismatch on $key:" >&2
            echo "  local1:  $L" >&2
            echo "  $other: $S" >&2
            exit 1
        }
    done
done

echo "sample_smoke: OK"
