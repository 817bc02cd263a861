package main

import "testing"

// TestAdaptiveAB runs the full A/B and relies on runAdaptive's own
// win checks: adaptive must take deepseq on the latency distribution,
// strict linear must take coldtail on hit ratio, tail, or waste, and
// both sides must respect their degree caps with zero strict
// violations. The margins are structural (the deepseq p50 gap is the
// store round-trip versus a cache hit; the coldtail waste gap is
// self-eviction in a cache smaller than the widened window), so the
// assertion holds on loaded machines too.
func TestAdaptiveAB(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live-engine A/B")
	}
	if err := runAdaptive(1); err != nil {
		t.Fatal(err)
	}
}
