#!/bin/sh
# make reach: which non-test functions no production path runs. Builds
# every command and example once with -cover -coverpkg=./..., runs the
# drivers under GOCOVERDIR — all pcload suites with -check, pcbench
# -exp all, pcfeed with harvesting, the examples, and a CLI sequence
# after cli_integration_test.go (pcrun, pcextract, pctrace, pccompare,
# pcquery against a store and against a covered pcd, writes and a keyed
# diagnosis over the wire, pcfsck and its -repair of damaged copies) —
# and lists the functions `go tool covdata func` reads at 0 %. Each is
# keyed "path Recv.Func" (never by line) and looked up in
# testdata/reach.allow, one "path func  reason" line each. The report
# goes to testdata/reach.txt. Exits 1 when an unreached function is not
# allowed, 2 when a driver fails; an allowed function that was reached
# is only printed, since some paths are reached or not by timing alone.
# Environment: TMPDIR (binaries, counters and stores; removed at exit
# unless KEEP is set).
set -eu
export LC_ALL=C # one sort order for sort, comm and the allow list's test
root=$(git rev-parse --show-toplevel)
cd "$root"
allow=testdata/reach.allow
report=testdata/reach.txt
work=$(mktemp -d "${TMPDIR:-/tmp}/reach.XXXXXX")
pcd=
cleanup() {
	[ -z "$pcd" ] || kill "$pcd" 2>/dev/null || true
	[ -n "${KEEP:-}" ] || rm -rf "$work"
}
trap cleanup EXIT
bin=$work/bin
mkdir "$bin" "$work/cov" "$work/logs"
GOCOVERDIR=$work/cov
export GOCOVERDIR

echo "reach: building ./cmd/... ./examples/... with coverage" >&2
go build -cover -coverpkg=./... -o "$bin/" ./cmd/... ./examples/...

# step NAME CMD...: run one driver, its output to logs/NAME; a failed
# driver fails the run (a path that errors out proves nothing).
step() {
	name=$1
	shift
	echo "reach: $name" >&2
	if ! "$@" >"$work/logs/$name" 2>&1; then
		echo "reach: $name failed:" >&2
		tail -20 "$work/logs/$name" >&2
		exit 2
	fi
}

step pcload "$bin/pcload" -suites suites -check -out "$work/load.json"
step pcbench "$bin/pcbench" -exp all -trials 1
step pcfeed "$bin/pcfeed" -streams 8 -waves 2 -harvest -check -out "$work/feed.json" \
	-store "$work/sharded" -shards 2
for ex in examples/*/; do
	ex=$(basename "$ex")
	step "example-$ex" "$bin/$ex"
done

# The CLI sequence, over one store.
st=$work/store
step pcrun-A "$bin/pcrun" -app poisson -version A -store "$st" -run-id base
step pcrun-B "$bin/pcrun" -app poisson -version B -store "$st" -run-id base -node-offset 5
step pcextract-store "$bin/pcextract" -store "$st" -app poisson -version A -run-id base -map-to B:base -o "$work/dir.txt"
printf 'map /Code/exchng1.f /Code/nbexchng.f\n' >"$work/map.txt"
step pcrun-directed "$bin/pcrun" -app poisson -version B -node-offset 5 -directives "$work/dir.txt" \
	-mappings "$work/map.txt" -extended -depth-first -window 50 -shg -v
step pctrace "$bin/pctrace" -app poisson -version C -duration 60 -o "$work/trace.jsonl"
step pcextract-trace "$bin/pcextract" -trace "$work/trace.jsonl" -app poisson -version C -o "$work/pm.txt"
step pcrun-postmortem "$bin/pcrun" -app poisson -version C -directives "$work/pm.txt"
step pcrun-artifacts "$bin/pcrun" -app seismic -dot "$work/shg.dot" -timeline "$work/t.csv" -report "$work/r.html"
step pccompare "$bin/pccompare" -store "$st" -app poisson -a A:base -b B:base
# queries NAME ARGS...: pcquery's four kinds of query, ARGS naming the
# store or the server.
queries() {
	name=$1
	shift
	step "$name-list" "$bin/pcquery" "$@" -list
	step "$name-state" "$bin/pcquery" "$@" -app poisson -state true -min 0.3
	step "$name-persistent" "$bin/pcquery" "$@" -app poisson -persistent 1
	step "$name-specific" "$bin/pcquery" "$@" -app poisson -specific -ref A:base
}
queries pcquery -store "$st"

# The same queries against a covered pcd; its first stdout line names
# the address it bound. SIGTERM drains it, which writes its counters.
"$bin/pcd" -store "$st" -addr 127.0.0.1:0 >"$work/logs/pcd" 2>&1 &
pcd=$!
url=
for _ in $(seq 1 100); do
	url=$(sed -n 's/.*\(http:\/\/[^ ]*\) (store.*/\1/p' "$work/logs/pcd" | head -1)
	[ -n "$url" ] && break
	sleep 0.1
done
[ -n "$url" ] || { echo "reach: pcd did not start:" >&2; cat "$work/logs/pcd" >&2; exit 2; }
queries pcquery-server -server "$url" -json
step pccompare-server "$bin/pccompare" -server "$url" -app poisson -a A:base -b B:base -json
# Writes over the wire: the record put back under a new run id, a batch
# on one line (not the client's layout), a keyed diagnosis sent twice (the
# resend is answered from the session journal), and a delete.
step get curl -fsS -o "$work/rec.json" "$url/api/v1/run?app=poisson&ref=A:base"
sed 's/"run_id": "base"/"run_id": "reach"/' "$work/rec.json" >"$work/reach.json"
step put curl -fsS -X PUT --data-binary @"$work/reach.json" "$url/api/v1/run"
jq -cs '{runs: .}' "$work/rec.json" "$work/reach.json" >"$work/batch.json"
step put-batch curl -fsS -X POST --data-binary @"$work/batch.json" "$url/api/v1/runs/batch"
for i in 1 2; do
	step "diagnose-keyed-$i" curl -fsS -X POST -d '{"app": "tester", "max_time": 5000, "idempotency_key": "reach-1"}' "$url/api/v1/diagnose"
done
step delete curl -fsS -X DELETE "$url/api/v1/run?app=poisson&ref=A:reach"
kill -TERM "$pcd"
wait "$pcd" || { echo "reach: pcd exited non-zero after SIGTERM" >&2; exit 2; }
pcd=

# pcfsck grades both stores clean, then repairs damaged copies: a stray
# temp file and an unreadable record in the plain store (exit 2, the
# record quarantined), and a record moved off its home shard in the
# sharded one (pcfeed's; exit 1). The home shard's journal replay puts
# the record back at home, so the repair removes the stray copy, which
# holds the same bytes. Both copies grade clean after the repair.
step pcfsck "$bin/pcfsck" -store "$st"
step pcfsck-sharded "$bin/pcfsck" -store "$work/sharded"
cp -R "$st" "$work/damaged"
printf 'torn' >"$work/damaged/.put-reach.tmp"
printf '{ not json' >"$work/damaged/poisson-Z-torn.json"
cp -R "$work/sharded" "$work/misplaced"
mv "$(ls "$work"/misplaced/shards/00/*.json | head -1)" "$work/misplaced/shards/01/"
for d in damaged:2 misplaced:1; do
	rc=0
	"$bin/pcfsck" -repair -store "$work/${d%:*}" >"$work/logs/pcfsck-repair-${d%:*}" 2>&1 || rc=$?
	[ "$rc" = "${d#*:}" ] || { echo "reach: pcfsck -repair of ${d%:*} exit $rc, want ${d#*:}" >&2; cat "$work/logs/pcfsck-repair-${d%:*}" >&2; exit 2; }
done
step pcfsck-repaired "$bin/pcfsck" -store "$work/damaged"
step pcfsck-repaired-misplaced "$bin/pcfsck" -store "$work/misplaced"

# Unreached functions, "path Recv.Func" (covdata spells a method
# "*Recv.Func"), sorted.
go tool covdata func -i "$GOCOVERDIR" |
	awk -F'\t+' '$NF == "0.0%" { sub(/:[0-9]+:$/, "", $1); sub(/^repro\//, "", $1); sub(/^\*/, "", $2); print $1, $2 }' |
	sort -u >"$work/unreached"
total=$(go tool covdata func -i "$GOCOVERDIR" | awk '$1 == "total" { print $NF }')

# "path func" of each allow entry, and its reason.
awk 'NF && $1 !~ /^#/ { print $1, $2 }' "$allow" | sort -u >"$work/allowed"
missing=$(comm -23 "$work/unreached" "$work/allowed")
reached=$(comm -13 "$work/unreached" "$work/allowed")
{
	echo "# make reach: $(wc -l <"$work/unreached") non-test functions unreached ($total of statements run), $(echo "$missing" | grep -c . || true) not allowed, $(echo "$reached" | grep -c . || true) allowed but reached"
	echo "## unreached, with the reason each is allowed"
	awk 'FILENAME == ARGV[1] { if (NF && $1 !~ /^#/) { k = $1 " " $2; $1 = $2 = ""; sub(/^ +/, ""); why[k] = $0 }; next }
	     { k = $1 " " $2; print k "  " (k in why ? why[k] : "NOT ALLOWED") }' "$allow" "$work/unreached"
	echo "## allowed, but reached in this run"
	[ -z "$reached" ] || echo "$reached"
} >"$report"
cat "$report"
if [ -n "$missing" ]; then
	echo "reach: unreached and not in $allow:" >&2
	echo "$missing" >&2
	exit 1
fi
