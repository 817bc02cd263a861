package core

import (
	"testing"
)

func TestOBAPredictsNextSequentialBlock(t *testing.T) {
	o := NewOBA()
	cur := o.Observe(Request{Offset: 10, Size: 3}, 0)
	p, next, ok := o.Predict(cur)
	if !ok {
		t.Fatal("no prediction after observe")
	}
	if p.Offset != 13 || p.Size != 1 {
		t.Errorf("predicted %v, want [13,+1]", p.Request)
	}
	if p.Fallback {
		t.Error("OBA prediction must not be marked fallback")
	}
	// Chaining predictions walks sequentially: 14, 15, ...
	p2, next, ok := o.Predict(next)
	if !ok || p2.Offset != 14 {
		t.Errorf("chained prediction %v, want offset 14", p2.Request)
	}
	p3, _, _ := o.Predict(next)
	if p3.Offset != 15 {
		t.Errorf("third prediction %v, want offset 15", p3.Request)
	}
}

func TestOBAIgnoresPatternStructure(t *testing.T) {
	o := NewOBA()
	// A strided pattern: OBA still predicts last end + 1.
	o.Observe(Request{Offset: 0, Size: 2}, 1)
	cur := o.Observe(Request{Offset: 100, Size: 5}, 2)
	p, _, _ := o.Predict(cur)
	if p.Offset != 105 || p.Size != 1 {
		t.Errorf("predicted %v, want [105,+1]", p.Request)
	}
}

func TestOBAName(t *testing.T) {
	if NewOBA().Name() != "OBA" {
		t.Error("name wrong")
	}
}

func TestOBACursorIndependence(t *testing.T) {
	// Speculative cursors must not disturb the real state.
	o := NewOBA()
	cur := o.Observe(Request{Offset: 0, Size: 1}, 0)
	for i := 0; i < 5; i++ {
		_, cur, _ = o.Predict(cur)
	}
	real := o.Observe(Request{Offset: 50, Size: 2}, Tick(1))
	p, _, _ := o.Predict(real)
	if p.Offset != 52 {
		t.Errorf("real-stream prediction %v, want offset 52", p.Request)
	}
}
