package netmodel

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

func TestLocalCostFormula(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, machine.PM())
	// PM: 2us + 1us + 8192B/500MB/s = 3us + 16.384us = 19.384us.
	got := n.LocalCost(8192)
	want := sim.Microseconds(2) + sim.Microseconds(1) + sim.TransferTime(8192, 500)
	if got != want {
		t.Errorf("LocalCost(8192) = %v, want %v", got, want)
	}
}

func TestRemoteCostFormula(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, machine.NOW())
	// NOW: 100us + 50us + 8192B/19.4MB/s.
	got := n.RemoteCost(8192)
	want := sim.Microseconds(100) + sim.Microseconds(50) + sim.TransferTime(8192, 19.4)
	if got != want {
		t.Errorf("RemoteCost(8192) = %v, want %v", got, want)
	}
}

func TestRemoteSlowerThanLocal(t *testing.T) {
	e := sim.NewEngine(1)
	for _, cfg := range []machine.Config{machine.PM(), machine.NOW()} {
		n := New(e, cfg)
		if n.RemoteCost(8192) <= n.LocalCost(8192) {
			t.Errorf("%s: remote transfer not slower than local", cfg.Name)
		}
	}
}

func TestSendLocalArrivesAtLocalCost(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, machine.PM())
	var at sim.Time
	n.Send(3, 3, 8192, e.Bind(func(e *sim.Engine) { at = e.Now() }))
	e.Run()
	if at != sim.Time(0).Add(n.LocalCost(8192)) {
		t.Errorf("local send arrived at %v, want %v", at, n.LocalCost(8192))
	}
	if u := n.Utilization(); u != 0 {
		t.Errorf("local send used the network ports: utilization %v, want 0", u)
	}
}

func TestSendRemoteSerializesOnSenderPort(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, machine.PM())
	var first, second sim.Time
	n.Send(0, 1, 8192, e.Bind(func(e *sim.Engine) { first = e.Now() }))
	n.Send(0, 2, 8192, e.Bind(func(e *sim.Engine) { second = e.Now() }))
	e.Run()
	cost := n.RemoteCost(8192)
	if first != sim.Time(0).Add(cost) {
		t.Errorf("first remote arrived at %v, want %v", first, cost)
	}
	if second != sim.Time(0).Add(2*cost) {
		t.Errorf("second remote arrived at %v, want %v (port serialization)", second, 2*cost)
	}
}

func TestSendDifferentSendersRunInParallel(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, machine.PM())
	var a, b sim.Time
	n.Send(0, 2, 8192, e.Bind(func(e *sim.Engine) { a = e.Now() }))
	n.Send(1, 2, 8192, e.Bind(func(e *sim.Engine) { b = e.Now() }))
	e.Run()
	if a != b {
		t.Errorf("independent senders serialized: %v vs %v", a, b)
	}
}

func TestSendPanicsOnBadNode(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, machine.NOW())
	defer func() {
		if recover() == nil {
			t.Error("out-of-range node did not panic")
		}
	}()
	n.Send(0, 100, 1, e.Bind(func(*sim.Engine) {}))
}

// TestBytesMovedAccounting checks that every message is charged its
// own size: a local copy of 100 bytes and two remote messages of 200
// and 300 bytes from one port arrive when their sizes say.
func TestBytesMovedAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, machine.PM())
	var local, first, second sim.Time
	n.Send(0, 0, 100, e.Bind(func(e *sim.Engine) { local = e.Now() }))
	n.Send(0, 1, 200, e.Bind(func(e *sim.Engine) { first = e.Now() }))
	n.Send(0, 1, 300, e.Bind(func(e *sim.Engine) { second = e.Now() }))
	e.Run()
	if want := sim.Time(0).Add(n.LocalCost(100)); local != want {
		t.Errorf("100-byte local copy arrived at %v, want %v", local, want)
	}
	if want := sim.Time(0).Add(n.RemoteCost(200)); first != want {
		t.Errorf("200-byte message arrived at %v, want %v", first, want)
	}
	if want := first.Add(n.RemoteCost(300)); second != want {
		t.Errorf("300-byte message arrived at %v, want %v", second, want)
	}
}
