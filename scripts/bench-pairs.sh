#!/bin/sh
# The ten-pair protocol as a command: REF and the working tree, PAIRS
# alternating pairs of `bash bench/run.sh --workload W --seed 1 --trace 0`
# per workload, and per workload x end-to-end metric both medians, the
# parent's inter-quartile distance, wins/pairs and a verdict against the
# bound the benchmark prints. Exits non-zero if any run fails its gate,
# reports failed ops or correct=false. Environment: REF (a commit),
# PAIRS (10), WORKLOADS (all five), TMPDIR (where REF's files and the run
# logs go; removed at exit unless KEEP is set).
set -eu
ref=${REF:?usage: REF=<commit> [PAIRS=10] [WORKLOADS="..."] sh scripts/bench-pairs.sh}
pairs=${PAIRS:-10}
workloads=${WORKLOADS:-write-durable write-replicated read-mixed diagnose stream}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
[ -n "${KEEP:-}" ] || trap 'rm -rf "$work"' EXIT

# REF's committed files in a directory of their own, as the driver runs
# them; each side builds itself on its first run (bench/run.sh).
mkdir "$work/ref"
git -C "$root" archive "$ref" | tar -x -C "$work/ref"
[ -f "$work/ref/bench/run.sh" ] || { echo "bench-pairs: $ref has no bench/run.sh" >&2; exit 2; }
echo "# parent $(git -C "$root" rev-parse --short "$ref") vs working tree at $(git -C "$root" rev-parse --short HEAD), $pairs alternating pairs, workloads: $workloads"

# one SIDE DIR WORKLOAD PAIR: run, then append "W SIDE PAIR METRIC VALUE
# BETTER BOUND" rows, or a "W SIDE PAIR BAD why" row.
one() {
	log="$work/$3.$1.$4.log"
	rc=0
	(cd "$2" && bash bench/run.sh --workload "$3" --seed 1 --trace 0) >"$log" 2>&1 || rc=$?
	awk -v w="$3" -v side="$1" -v pair="$4" -v rc="$rc" '
		/^== .* ops attempted, [0-9]+ failed, correct=/ {
			seen = 1
			for (i = 1; i <= NF; i++) if ($i == "failed,") failed = $(i - 1)
			if (failed > 0 || $NF != "correct=true") print w, side, pair, "BAD", failed "_failed_" $NF
		}
		/^ +[a-z0-9_.]+ +[-+0-9.e]+ +[^ ]+ +\((lower|higher) is better\) \[bound [0-9]+%\]/ {
			b = $0; sub(/.*\[bound /, "", b); sub(/%.*/, "", b)
			print w, side, pair, $1, $2, substr($4, 2), b
		}
		END { if (rc != 0 || !seen) print w, side, pair, "BAD", "exit_" rc (seen ? "" : "_no_result") }
	' "$log" >>"$work/rows"
}

: >"$work/rows"
for w in $workloads; do
	i=1
	while [ "$i" -le "$pairs" ]; do
		if [ $((i % 2)) -eq 1 ]; then
			one parent "$work/ref" "$w" "$i"; one change "$root" "$w" "$i"
		else
			one change "$root" "$w" "$i"; one parent "$work/ref" "$w" "$i"
		fi
		echo "# $w pair $i/$pairs done" >&2
		i=$((i + 1))
	done
done

awk '
	function sorted(src, n, dst,    i, j, v) {
		for (i = 1; i <= n; i++) {
			v = src[i]
			for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
			dst[j + 1] = v
		}
	}
	# at(s, n, q): the q-quantile of sorted s[1..n], interpolated.
	function at(s, n, q,    h, lo) {
		h = 1 + (n - 1) * q; lo = int(h)
		return lo >= n ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
	}
	$4 == "BAD" { bad++; print "BAD RUN: " $0; next }
	{
		k = $1 SUBSEP $4
		if (!(k in better)) { order[++nk] = k; better[k] = $6; bound[k] = $7 }
		val[k, $2, $3] = $5
		if ($3 > np[k]) np[k] = $3
	}
	END {
		printf "%-17s %-25s %12s %12s %10s %7s %6s  %s\n", "workload", "metric", "parent med", "change med", "parent IQR", "gain", "wins", "verdict (bound)"
		for (x = 1; x <= nk; x++) {
			k = order[x]; n = 0; wins = 0; losses = 0; clean = 1
			for (p = 1; p <= np[k]; p++) {
				if (!((k, "parent", p) in val) || !((k, "change", p) in val)) continue
				n++; a[n] = val[k, "parent", p]; c[n] = val[k, "change", p]
				d = (better[k] == "higher") ? c[n] - a[n] : a[n] - c[n]
				if (d > 0) wins++; else if (d < 0) losses++
			}
			if (n == 0) continue
			sorted(a, n, sa); sorted(c, n, sc)
			ma = at(sa, n, 0.5); mc = at(sc, n, 0.5); iqr = at(sa, n, 0.75) - at(sa, n, 0.25)
			gain = (better[k] == "higher") ? mc - ma : ma - mc
			rel = (ma != 0) ? gain / ma : 0
			# every run of the change better than every run of the parent?
			clear = (better[k] == "higher") ? sc[1] > sa[n] : sc[n] < sa[1]
			if (-rel > bound[k] / 100) { v = "WORSE"; worse++ }
			else if (ma != 0 && iqr / ma > bound[k] / 100 && !clear) v = "unresolved: parent spread exceeds the bound"
			else if (n >= 10 && wins * 10 >= n * 9 && gain > iqr) v = "better"
			else v = "within bound"
			split(k, kk, SUBSEP)
			printf "%-17s %-25s %12.4f %12.4f %10.4f %+6.1f%% %3d/%-2d  %s (%d%%)\n", kk[1], kk[2], ma, mc, iqr, 100 * rel, wins, n, v, bound[k]
		}
		if (bad) printf "%d run(s) failed the gate, reported failed ops or correct=false\n", bad
		if (worse) printf "%d metric(s) worse than the parent beyond the bound\n", worse
		exit (bad || worse) ? 1 : 0
	}
' "$work/rows"
