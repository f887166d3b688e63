// Fleet-scale benchmark for the sharded collector. One ~5k-router
// internetwork (48 leaf domains of 101 routers each, PIM-DM interiors
// behind DVMRP borders) is monitored at its 50 management targets —
// FIXW, the campus mrouted, and every domain border — by a shard
// supervisor at 1, 4 and 16 shards. The measured number is the full
// supervised fleet cycle: dispatch, per-shard collect/parse/process,
// fan-in merge and view publication; the simulator's Step between
// cycles is not timed. `make bench-scale` captures five runs of the
// series in BENCH_scale.json.
package mantra_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/shard"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// scaleDomains x (scaleRoutersPerDomain+1) leaf routers plus the native
// and exchange cores come to ~4.9k routers.
const (
	scaleDomains          = 48
	scaleRoutersPerDomain = 100
)

// newScaleNetwork builds the 5k-router simulation once per sub-benchmark.
// Background faults are disabled so every shard count measures identical
// collection work.
func newScaleNetwork(b *testing.B) (*netsim.Network, []string, int) {
	b.Helper()
	cfg := topo.ScaleInternetConfig(scaleDomains, scaleRoutersPerDomain)
	inet := topo.BuildInternet(cfg)
	routers := len(inet.Topo.Routers())
	wl := workload.New(workload.DefaultConfig(), inet.Topo)
	ncfg := netsim.DefaultConfig()
	ncfg.FlapPerDomainPerCycle = 0
	ncfg.RestartPerCycle = 0
	n := netsim.New(inet, wl, ncfg)

	targets := []string{"fixw", "ucsb-r1"}
	for d := 0; d < scaleDomains; d++ {
		targets = append(targets, fmt.Sprintf("dom%02d-gw", d))
	}
	if err := n.Track(targets...); err != nil {
		b.Fatal(err)
	}
	return n, targets, routers
}

// BenchmarkScaleCycle measures one supervised fleet cycle over the
// 5k-router topology at each shard count. Shards collect concurrently,
// so cycle latency should fall as shards rise until per-shard overhead
// (engine spin-up, fan-in merge) dominates; routers/cycle pins the
// topology size the run actually covered.
func BenchmarkScaleCycle(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		// "=" rather than "-": benchjson (and go tooling generally) treats
		// a trailing -N as the GOMAXPROCS suffix.
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			n, targets, routers := newScaleNetwork(b)
			s, err := shard.New(shard.Config{
				Shards: shards,
				Policy: collect.Policy{
					MaxAttempts:      2,
					BreakerThreshold: 1 << 20,
					BreakerCooldown:  90 * time.Minute,
					Sleep:            func(time.Duration) {},
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for _, name := range targets {
				n.Router(name).Password = "pw"
				s.Register(collect.Target{
					Name:     name,
					Dialer:   collect.PipeDialer{Router: n.Router(name)},
					Password: "pw",
					Prompt:   name + "> ",
					Timeout:  5 * time.Second,
				})
			}

			// One warmup cycle so deltas and series exist before timing.
			n.Step()
			if _, err := s.RunCycle(n.Now()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The simulator's step is substrate, not monitor: it
				// stays outside the timed cycle.
				b.StopTimer()
				n.Step()
				b.StartTimer()
				res, err := s.RunCycle(n.Now())
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Blind) != 0 || len(res.Degraded) != 0 {
					b.Fatalf("degraded scale cycle: blind=%v degraded=%v", res.Blind, res.Degraded)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(routers), "routers")
			b.ReportMetric(float64(len(targets)), "targets")
			// Steady-state footprint after the measured cycles: how much
			// heap the fleet — series stores included — actually retains
			// at this shard count, not how much it allocated getting there.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc), "heap-bytes")
		})
	}
}
