package bench

import "testing"

func TestLatencyMetricsPopulated(t *testing.T) {
	res := run(t, DefaultConfig(ModeCDNA, NICRice, Tx))
	if res.LatencyP50us <= 0 || res.LatencyP90us < res.LatencyP50us {
		t.Fatalf("latency: p50=%.0f p90=%.0f", res.LatencyP50us, res.LatencyP90us)
	}
}
