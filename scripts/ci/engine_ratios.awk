# engine_ratios.awk — the execution-engine guarantees as same-run ratios.
#
# Usage:
#   go test -run '^$' -bench '^(BenchmarkInterpDispatch|BenchmarkTieredPipeline)$' \
#     -count=6 . > engine-bench.out
#   awk -f scripts/ci/engine_ratios.awk engine-bench.out
#
# Fails unless
#   median threaded Minst/s >= 2 x median switch Minst/s, and
#   median tiered ns/op     <= 1.10 x median full ns/op.
# Both sides of each ratio come from the same run on the same host, so no
# stored number is involved.

# metric returns the value printed before unit on a benchmark line, or -1.
function metric(unit,   i) {
	for (i = 3; i < NF; i++)
		if ($(i + 1) == unit)
			return $i + 0
	return -1
}

function median(v, n,   i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && v[j - 1] > v[j]; j--) {
			t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
		}
	return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
}

$1 ~ /^BenchmarkInterpDispatch\/threaded(-[0-9]+)?$/ { thr[++nthr] = metric("Minst/s") }
$1 ~ /^BenchmarkInterpDispatch\/switch(-[0-9]+)?$/   { sw[++nsw] = metric("Minst/s") }
$1 ~ /^BenchmarkTieredPipeline\/full(-[0-9]+)?$/     { full[++nfull] = metric("ns/op") }
$1 ~ /^BenchmarkTieredPipeline\/tiered(-[0-9]+)?$/   { tier[++ntier] = metric("ns/op") }

END {
	if (!nthr || !nsw || !nfull || !ntier) {
		print "FAIL: missing benchmark arms (threaded, switch, full, tiered)"
		exit 1
	}
	t = median(thr, nthr); s = median(sw, nsw)
	f = median(full, nfull); r = median(tier, ntier)
	if (t <= 0 || s <= 0 || f <= 0 || r <= 0) {
		print "FAIL: a benchmark line lacks its Minst/s or ns/op value"
		exit 1
	}
	printf "threaded %.2f vs switch %.2f Minst/s: %.2fx (need >= 2x)\n", t, s, t / s
	printf "tiered %.0f vs full %.0f ns/op: %.3fx (need <= 1.10x)\n", r, f, r / f
	if (t < 2 * s) {
		print "FAIL: the threaded engine is not 2x the switch interpreter"
		bad = 1
	}
	if (r > 1.10 * f) {
		print "FAIL: the tiered pipeline costs more than 1.10x the full one"
		bad = 1
	}
	exit bad
}
