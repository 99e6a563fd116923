#!/usr/bin/env bash
# Interleaved A/B run of the repository benchmark: a base revision
# against HEAD, on the same machine, in alternating order so a drift in
# machine speed falls on both sides alike.
#
#   scripts/perfab.sh <base-rev> [pairs] [workload...]
#
# pairs defaults to 10 and the workloads to every workload BENCHMARK.json
# lists. Both revisions are checked out with `git worktree` into a
# temporary directory, and each run is `bash perfbench/run.sh` at seed 1
# and BENCHMARK.json's run_seconds. Pair i runs the base first when i is
# odd and HEAD first when it is even. For every workload and end-to-end
# metric the script prints each side's median and quartiles, the ratio
# HEAD/base of the medians, the median of the per-pair ratios
# HEAD_i/base_i with a distribution-free interval for it, and the pairs
# HEAD won (ties count for neither side); then every pair's ratio, in
# pair order. The interval is the sign test's: the k-th smallest and
# k-th largest pair ratio, with k the largest that keeps the coverage at
# 95% or more (for 10 pairs, the 2nd and 9th smallest: 97.9%); its
# coverage is printed next to it. A gain is met only when the interval
# lies wholly on the better side of 1. Every run's output stays in the
# printed results directory. It exits non-zero if any run failed its
# output check. Needs git, jq and awk.
set -euo pipefail

base_rev=${1:?usage: scripts/perfab.sh <base-rev> [pairs] [workload...]}
pairs=${2:-10}
shift $(($# < 2 ? $# : 2))

root=$(git rev-parse --show-toplevel)
cd "$root"
seconds=$(jq -r .run_seconds BENCHMARK.json)
if [ $# -gt 0 ]; then
	workloads=("$@")
else
	mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
fi
mapfile -t metrics < <(jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json)

tmp=$(mktemp -d "${TMPDIR:-/tmp}/perfab.XXXXXX")
results=$tmp/results
mkdir -p "$results"
cleanup() {
	git worktree remove --force "$tmp/base" 2>/dev/null || true
	git worktree remove --force "$tmp/head" 2>/dev/null || true
	rm -rf "$tmp/build"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tmp/base" "$base_rev"
git worktree add --quiet --detach "$tmp/head" HEAD
echo "base $(git -C "$tmp/base" rev-parse --short HEAD), head $(git rev-parse --short HEAD)," \
	"$pairs pairs at ${seconds}s per run; results in $results" >&2

# run <side> <workload> <pair>: one benchmark run, its result line kept
# as <workload>.<side>.<pair>.json.
run() {
	local log=$results/$2.$1.$3.log
	(cd "$tmp/$1" && CARGO_TARGET_DIR=$tmp/build/$1 \
		bash perfbench/run.sh --workload "$2" --seed 1 --seconds "$seconds" --trace 0) >"$log" 2>&1 || {
		echo "perfab: $1 run of $2 (pair $3) failed; see $log" >&2
		exit 1
	}
	tail -n 1 "$log" >"$results/$2.$1.$3.json"
}

# stats: median, first and third quartile of the numbers on stdin
# (linear interpolation between order statistics).
stats() {
	sort -g | awk '{ v[NR] = $1 }
		function q(p,   h, i) { h = (NR - 1) * p + 1; i = int(h); return v[i] + (h - i) * (v[i + 1 < NR ? i + 1 : NR] - v[i]) }
		END { printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

# interval: the median of the numbers on stdin and the sign-test
# interval for it, [k-th smallest, k-th largest], with the interval's
# coverage 1 - 2 P(Binomial(n, 1/2) < k) in percent.
interval() {
	sort -g | awk '{ v[NR] = $1 }
		END {
			n = NR; med = n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
			# cdf[j] = P(Binomial(n, 1/2) <= j)
			p = 0.5 ^ n; c = 0
			for (j = 0; j <= n; j++) { c += p; cdf[j] = c; p = p * (n - j) / (j + 1) }
			k = 1
			while (k + 1 <= n / 2 && 1 - 2 * cdf[k] >= 0.95) k++
			printf "%.6g %.6g %.6g %.1f\n", med, v[k], v[n + 1 - k], 100 * (1 - 2 * cdf[k - 1])
		}'
}

# values <workload> <side> <metric>: the metric of every pair, in order.
values() {
	for ((i = 1; i <= pairs; i++)); do
		jq -r ".metrics.$3.value" "$results/$1.$2.$i.json"
	done
}

bad=0
for w in "${workloads[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then order=(base head); else order=(head base); fi
		for side in "${order[@]}"; do
			run "$side" "$w" "$i"
		done
		echo "$w: pair $i of $pairs done" >&2
	done
	for side in base head; do
		n=$(cat "$results/$w.$side".*.json | jq -s 'map(select(.correct != true)) | length')
		if [ "$n" -gt 0 ]; then
			echo "perfab: $n $side runs of $w failed their output check" >&2
			bad=1
		fi
	done
	printf '%-10s %-14s %-28s %-28s %9s %-30s %6s\n' workload metric "base median [q1, q3]" \
		"head median [q1, q3]" head/base "pair ratio median [interval]" wins
	ratios=()
	for mb in "${metrics[@]}"; do
		read -r m better <<<"$mb"
		mapfile -t b < <(values "$w" base "$m")
		mapfile -t h < <(values "$w" head "$m")
		wins=0
		r=()
		for ((i = 0; i < pairs; i++)); do
			awk -v h="${h[i]}" -v b="${b[i]}" -v lower="$([ "$better" = lower ] && echo 1 || echo 0)" \
				'BEGIN { exit !(lower ? h < b : h > b) }' && wins=$((wins + 1))
			r+=("$(awk -v h="${h[i]}" -v b="${b[i]}" 'BEGIN { printf "%.4f", b == 0 ? 0 : h / b }')")
		done
		read -r bmed bq1 bq3 < <(printf '%s\n' "${b[@]}" | stats)
		read -r hmed hq1 hq3 < <(printf '%s\n' "${h[@]}" | stats)
		read -r rmed rlo rhi cover < <(printf '%s\n' "${r[@]}" | interval)
		printf '%-10s %-14s %-28s %-28s %9.3f %-30s %6s\n' "$w" "$m" \
			"$(printf '%.4g [%.4g, %.4g]' "$bmed" "$bq1" "$bq3")" \
			"$(printf '%.4g [%.4g, %.4g]' "$hmed" "$hq1" "$hq3")" \
			"$(awk -v h="$hmed" -v b="$bmed" 'BEGIN { print h / b }')" \
			"$(printf '%.3f [%.3f, %.3f] %s%%' "$rmed" "$rlo" "$rhi" "$cover")" "$wins/$pairs"
		ratios+=("$(printf '%-10s %-14s %s' "$w" "$m" "${r[*]}")")
	done
	echo "head/base per pair, in pair order:"
	printf '%s\n' "${ratios[@]}"
done
exit $bad
