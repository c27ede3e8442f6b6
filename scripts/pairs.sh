#!/usr/bin/env bash
# Alternated parent/change pairs of one benchmark workload, with the verdict
# of section 8 of the choosing-metrics guide per end-to-end metric.
#
#   scripts/pairs.sh PARENT_REF WORKLOAD N      (or: make pairs PARENT=… WORKLOAD=… N=…)
#
# Both sides are unpacked into trees of their own under a temporary
# directory — the parent from git (git archive: nothing is registered in
# .git), the change as a copy of the working tree this script is run from
# (tracked and untracked files, ignored ones left out) — so that neither runs
# from a directory the other does not. Each side's bench binary is built in
# its own tree and RUN FROM THERE: the serve workloads `go build
# repro/cmd/sketchd` from the module of the working directory, so a parent
# binary run in the change's tree would measure the change's sketchd. Which
# side goes first alternates from pair to pair.
#
# Environment: SEED (default 1) is the benchmark's input seed — run the claim
# once more on a seed not used while writing the change; SECONDS_ARG (default:
# run_seconds of BENCHMARK.json) scales the work as bench's --seconds does;
# KEEP=1 keeps the temporary directory (the raw result lines are in it).
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: $0 PARENT_REF WORKLOAD N" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=$3
root=$(git rev-parse --show-toplevel)
seed=${SEED:-1}
seconds=${SECONDS_ARG:-$(awk -F'[:,]' '/"run_seconds"/ {gsub(/ /, "", $2); print $2}' "$root/BENCHMARK.json")}

work=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
cleanup() { [ "${KEEP:-0}" = 1 ] && echo "kept $work" >&2 || rm -rf "$work"; }
trap cleanup EXIT

mkdir "$work/parent" "$work/change"
git -C "$root" archive "$ref" | tar -x -C "$work/parent"
(cd "$root" && git ls-files -z -co --exclude-standard | tar --null -T - -cf -) | tar -x -C "$work/change"
for side in parent change; do
	(cd "$work/$side/bench" && go build -o "$work/$side.bench" .)
done

# run SIDE: one run of the workload from the side's own tree; the result is
# the last line of standard output.
run() {
	(cd "$work/$1/bench" && "$work/$1.bench" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null) |
		tail -n 1 >>"$work/$1.jsonl"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do run "$side"; done
	echo "pair $i/$pairs done ($order)" >&2
done

# One row per end-to-end metric of BENCHMARK.json: both medians and quartile
# pairs, the pairs each side won (ties count for neither), and the verdict.
#   better      the change won >= 9/10 of the pairs and the medians are
#               further apart than the parent's own quartile distance
#   WORSE       the change's median is worse than the parent's by more than
#               the metric's bound
#   unresolved  the parent's quartile distance exceeds the bound, so neither
#               of the above can be told (unless every run of the change beats
#               every run of the parent, which reads as better)
#   same        inside the bound
awk -v workload="$workload" -v ref="$ref" -v seed="$seed" -v seconds="$seconds" '
function field(line, name,    re, s) {
	re = "\"" name "\":\\{\"value\":[-+0-9.eE]+"
	if (!match(line, re)) return "nan"
	s = substr(line, RSTART, RLENGTH); sub(/.*:/, "", s); return s + 0
}
function sorted(src, n, dst,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
function quantile(s, n, q,    pos, lo, frac) {
	pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
	return lo >= n ? s[n] : s[lo] + frac * (s[lo + 1] - s[lo])
}
FILENAME ~ /BENCHMARK.json$/ {
	if ($0 ~ /"end_to_end"/) inE2E = 1
	else if ($0 ~ /"per_layer"/) inE2E = 0
	if (!inE2E) next
	if (match($0, /"name": *"[^"]+"/)) { cur = substr($0, RSTART, RLENGTH); gsub(/"name": *"|"/, "", cur); names[++nm] = cur }
	if (match($0, /"better": *"[^"]+"/)) { v = substr($0, RSTART, RLENGTH); gsub(/"better": *"|"/, "", v); better[cur] = v }
	if (match($0, /"bound": *[0-9.]+/)) { v = substr($0, RSTART, RLENGTH); sub(/.*: */, "", v); bound[cur] = v + 0 }
	next
}
{
	side = (FILENAME ~ /parent.jsonl$/) ? "p" : "c"
	cnt[side]++
	if ($0 !~ /"correct":true/) wrong[side]++
	if (match($0, /"failed":[0-9]+/)) { v = substr($0, RSTART, RLENGTH); sub(/.*:/, "", v); failed[side] += v }
	for (m = 1; m <= nm; m++) val[side, names[m], cnt[side]] = field($0, names[m])
}
END {
	N = cnt["p"] < cnt["c"] ? cnt["p"] : cnt["c"]
	printf "%s: %d pairs, parent %s vs working tree, seed %s, --seconds %s\n", workload, N, ref, seed, seconds
	printf "incorrect runs: parent %d, change %d; failed operations: parent %d, change %d\n", wrong["p"], wrong["c"], failed["p"], failed["c"]
	printf "%-20s %14s %27s %14s %27s %9s  %s\n", "metric", "parent median", "[q1, q3]", "change median", "[q1, q3]", "wins c:p", "verdict"
	for (m = 1; m <= nm; m++) {
		name = names[m]; sign = better[name] == "higher" ? -1 : 1
		winsC = winsP = 0; allBetter = 1
		for (i = 1; i <= N; i++) {
			P[i] = val["p", name, i]; C[i] = val["c", name, i]
			if (sign * C[i] < sign * P[i]) winsC++; else if (sign * C[i] > sign * P[i]) winsP++
		}
		sorted(P, N, SP); sorted(C, N, SC)
		# every run of the change better than every run of the parent
		if (sign > 0 ? SC[N] >= SP[1] : SC[1] <= SP[N]) allBetter = 0
		pm = quantile(SP, N, .5); p1 = quantile(SP, N, .25); p3 = quantile(SP, N, .75)
		cm = quantile(SC, N, .5); c1 = quantile(SC, N, .25); c3 = quantile(SC, N, .75)
		iqr = p3 - p1; gap = sign * (pm - cm) # > 0: the change is better
		base = pm < 0 ? -pm : pm
		if (allBetter || (winsC >= 0.9 * N && gap > iqr)) verdict = "better"
		else if (base > 0 && iqr / base > bound[name]) verdict = "unresolved"
		else if (base > 0 && -gap / base > bound[name]) verdict = "WORSE"
		else verdict = "same"
		pct = (base > 0) ? 100 * (cm - pm) / base : 0
		printf("%-20s %14.6g [%12.6g,%12.6g] %14.6g [%12.6g,%12.6g] %5d:%-3d  %s (%+.1f%%, bound %g%%)\n", name, pm, p1, p3, cm, c1, c3, winsC, winsP, verdict, pct, 100 * bound[name])
	}
}' "$root/BENCHMARK.json" "$work/parent.jsonl" "$work/change.jsonl"
