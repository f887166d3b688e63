package shard

// The dynamic half of the //mantra:hotpath contract on the shard path
// (see hotpath_gate_test.go at the repo root for the Monitor's gates):
// the worker's per-cycle commit bookkeeping is bounded with
// testing.AllocsPerRun, on a small internetwork and on one with four
// times the domains.

import (
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// TestCommitAllocGate: committing a cycle that is no target's
// checkpoint turn appends entries the core's WAL queue already holds to tails
// that have grown to their period, so it allocates a constant — zero —
// that does not grow with the route count.
func TestCommitAllocGate(t *testing.T) {
	var routes []int
	for _, domains := range []int{3, 12} {
		cfg := topo.DefaultInternetConfig()
		cfg.NumDomains = domains
		inet := topo.BuildInternet(cfg)
		n := netsim.New(inet, workload.New(workload.DefaultConfig(), inet.Topo), netsim.DefaultConfig())
		names := []string{"fixw", "ucsb-gw"}
		if err := n.Track(names...); err != nil {
			t.Fatal(err)
		}
		core, err := newCore(Config{Policy: collect.Policy{Sleep: func(time.Duration) {}}}.withDefaults(), "")
		if err != nil {
			t.Fatal(err)
		}
		w := &worker{core: core, ckpt: make(map[string]*targetCkpt)}
		var targets []collect.Target
		for _, name := range names {
			r := n.Router(name)
			r.Password = "pw"
			targets = append(targets, collect.Target{
				Name: name, Dialer: collect.PipeDialer{Router: r},
				Password: "pw", Prompt: name + "> ", Timeout: 5 * time.Second,
			})
		}
		// One full period grows every tail to its steady capacity.
		for cycle := 1; cycle <= ckptPeriod+1; cycle++ {
			n.Step()
			core.runCycle(n.Now(), targets)
			w.commit(n.Now())
			w.checkpointTurn(cycle, targets)
		}
		deltas := 0
		for _, e := range core.Pending() {
			if !e.Gap {
				deltas++
			}
		}
		if deltas != len(names) {
			t.Fatalf("%d domains: last cycle committed %d deltas, want %d", domains, deltas, len(names))
		}
		routes = append(routes, len(core.Engine.Latest("fixw").Routes))
		lens := make(map[string]int, len(names))
		for _, name := range names {
			lens[name] = len(w.ckpt[name].tail) - 1
		}
		allocGate(t, "worker.commit", 0, func() {
			for name, r := range w.ckpt {
				r.tail = r.tail[:lens[name]]
			}
			w.commit(n.Now())
		})
	}
	if routes[1] < 2*routes[0] {
		t.Fatalf("route counts %v: the larger internetwork should at least double fixw's table", routes)
	}
}

// allocGate runs fn under AllocsPerRun and fails if the average
// allocation count exceeds max.
func allocGate(t *testing.T, name string, max float64, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, fn); got > max {
		t.Errorf("%s: %.1f allocs/op, gate is %.0f", name, got, max)
	}
}
