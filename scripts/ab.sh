#!/bin/sh
# Interleaved A/B of two revisions on one workload of the repository's
# benchmark — the only way to make a time claim on a host whose clock drifts
# (bench/AA.md): a diff against numbers committed earlier measures the host.
#
#   scripts/ab.sh REV_A REV_B WORKLOAD [PAIRS=10]
#   scripts/ab.sh HEAD~1 HEAD embed-magic
#   scripts/ab.sh HEAD WORKTREE serve-mixed     the uncommitted change
#
# REV_A is the parent, REV_B the change.  Each is checked out as a git
# worktree in a temporary directory — as a shared clone where the repository
# cannot take a worktree, and REV_B = WORKTREE is a copy of the working
# tree's tracked and unignored files as they are now — and run through its
# OWN unmodified
# bench/run.sh (which builds into that checkout's bench/out/), one run at a
# time, same seed on both sides of a pair, the side that goes first
# alternating per pair.  Per end-to-end metric of BENCHMARK.json it prints
# both medians, the parent's interquartile range and how many pairs each side
# won (ties count for neither).  A gain is B winning at least nine pairs in
# ten with the medians further apart than A's IQR; a regression is B's median
# worse than A's by more than the metric's bound.  Nothing else should be
# running on the box.
set -eu

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: scripts/ab.sh REV_A REV_B WORKLOAD [PAIRS=10]" >&2
	exit 2
fi
rev_a=$1 rev_b=$2 workload=$3 pairs=${4:-10}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/ldl1-ab.XXXXXX")

cleanup() {
	for side in a b; do
		git -C "$root" worktree remove --force "$tmp/$side" 2>/dev/null || true
	done
	rm -rf "$tmp"
	git -C "$root" worktree prune 2>/dev/null || true
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# checkout SIDE REV
checkout() {
	if [ "$2" = WORKTREE ]; then
		mkdir "$tmp/$1"
		(cd "$root" && git ls-files -co --exclude-standard -z |
			tar --null --ignore-failed-read -T - -cf -) | tar -C "$tmp/$1" -xf -
	elif ! git -C "$root" worktree add --detach "$tmp/$1" "$2" >/dev/null 2>&1; then
		sha=$(git -C "$root" rev-parse --verify "$2^{commit}")
		rm -rf "$tmp/$1"
		git clone -q --shared --no-checkout "$root" "$tmp/$1"
		git -C "$tmp/$1" checkout -q --detach "$sha"
	fi
}
checkout a "$rev_a"
checkout b "$rev_b"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$tmp/a/BENCHMARK.json")

# run SIDE SEED: one harness-mode run; the last stdout line is the result.
run() {
	if ! line=$(sh "$tmp/$1/bench/run.sh" --workload "$workload" --seed "$2" \
		--seconds "$seconds" --trace 0 2>"$tmp/$1.log" | tail -n 1) || [ -z "$line" ]; then
		echo "ab: side $1 (seed $2) produced no result:" >&2
		tail -n 20 "$tmp/$1.log" >&2
		exit 1
	fi
	printf '%s %s\n' "$1" "$line" >>"$tmp/results"
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run a "$i"
		run b "$i"
	else
		run b "$i"
		run a "$i"
	fi
	echo "ab: pair $i/$pairs done" >&2
	i=$((i + 1))
done

echo "A = $rev_a   B = $rev_b   workload = $workload   pairs = $pairs   seconds = $seconds"
awk '
function field(s, key,    re) {      # number after "key": in s
	re = "\"" key "\": *-?[0-9.eE+-]+"
	if (!match(s, re)) return ""
	s = substr(s, RSTART, RLENGTH)
	sub(/^[^:]*: */, "", s)
	return s + 0
}
function quantile(v, n, p,    h, lo) {      # v[1..n] sorted ascending
	h = 1 + p * (n - 1); lo = int(h)
	if (lo >= n) return v[n]
	return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function sorted(src, n, dst,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) {
		t = dst[i]
		for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
		dst[j + 1] = t
	}
}
# First file: BENCHMARK.json — names, directions and bounds of end_to_end.
FNR == NR {
	if ($0 ~ /"end_to_end"/) inside = 1
	else if (inside && $0 ~ /^  \]/) inside = 0
	if (inside && match($0, /"name": *"[^"]*"/)) {
		name = substr($0, RSTART, RLENGTH); gsub(/"name": *"|"/, "", name)
		names[++nm] = name
	}
	if (inside && $0 ~ /"better": *"higher"/) higher[name] = 1
	if (inside && $0 ~ /"bound"/) { b = $0; sub(/.*"bound": */, "", b); bound[name] = b + 0 }
	next
}
# Second file: "side {json}" per run, in the order the runs were made.
{
	side = $1; n[side]++
	attempted[side] += field($0, "attempted"); failed[side] += field($0, "failed")
	for (k = 1; k <= nm; k++) {
		s = $0; sub(".*\"" names[k] "\":", "", s)     # the metric object
		val[side, names[k], n[side]] = field(s, "value")
	}
}
END {
	printf "%-18s %12s %12s %9s %12s %8s  %s\n", "metric", "median A", "median B", "B vs A", "IQR A", "bound", "wins A/B"
	for (k = 1; k <= nm; k++) {
		m = names[k]; wa = wb = 0
		for (i = 1; i <= n["a"]; i++) {
			a[i] = val["a", m, i]; b2[i] = val["b", m, i]
			d = b2[i] - a[i]; if (m in higher) d = -d
			if (d < 0) wb++; else if (d > 0) wa++
		}
		sorted(a, n["a"], sa); sorted(b2, n["b"], sb)
		ma = quantile(sa, n["a"], 0.5); mb = quantile(sb, n["b"], 0.5)
		printf "%-18s %12.4f %12.4f %+8.1f%% %12.4f %8.2f  %d/%d\n", m, ma, mb,
			(ma ? 100 * (mb - ma) / ma : 0), quantile(sa, n["a"], 0.75) - quantile(sa, n["a"], 0.25), bound[m], wa, wb
	}
	printf "failed operations: A %d of %d, B %d of %d\n", failed["a"], attempted["a"], failed["b"], attempted["b"]
}' "$tmp/a/BENCHMARK.json" "$tmp/results"
