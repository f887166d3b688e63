package mantra_test

import (
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	mantra "repro"
	"repro/internal/core/collect"
	"repro/internal/core/process"
	"repro/internal/core/shard"
	"repro/internal/netsim"
	"repro/internal/router"
)

// TestMonitorMatchesOneShard proves the Monitor and a shard worker run
// one pipeline wiring: the same fault-injected scenario, run through a
// Monitor with an archive and through a one-shard Supervisor with a
// data dir, yields the same per-target cycle statistics, series, health
// rows and anomaly episodes, and byte-identical WAL segments. Both run
// the serial schedule; checkpoints are off on the Monitor side so the
// WAL segments are the whole archive.
func TestMonitorMatchesOneShard(t *testing.T) {
	chaosProfile := router.FaultProfile{
		RefuseConn:  0.08,
		RejectLogin: 0.06,
		Truncate:    0.06,
		Garble:      0.06,
		Drop:        0.05,
	}
	cases := []struct {
		name   string
		build  func(t *testing.T) (*netsim.Network, []mantra.Target)
		policy collect.Policy
		// scenario, when set, is the library incident scheduled after
		// warmup cycles.
		scenario string
		warmup   int
		cycles   int
	}{
		{
			name: "chaos",
			build: func(t *testing.T) (*netsim.Network, []mantra.Target) {
				n, targets, _ := chaosNetwork(t, chaosProfile)
				return n, targets
			},
			policy: collect.Policy{
				MaxAttempts:      2,
				BreakerThreshold: 3,
				BreakerCooldown:  90 * time.Minute,
				Sleep:            func(time.Duration) {},
			},
			cycles: 60,
		},
		{
			name: "incident",
			build: func(t *testing.T) (*netsim.Network, []mantra.Target) {
				return incidentNetwork(t, &chaosProfile, "fixw")
			},
			policy: collect.Policy{
				MaxAttempts:      1,
				BreakerThreshold: 1 << 20,
				Sleep:            func(time.Duration) {},
			},
			scenario: "sa-storm",
			warmup:   8,
			cycles:   24,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nm, targets := tc.build(t)
			m := mantra.New()
			m.SetCollectPolicy(tc.policy)
			for _, tgt := range targets {
				m.AddTarget(tgt)
			}
			monDir := t.TempDir()
			if _, err := m.EnableArchive(archiveEquivCfg(monDir)); err != nil {
				t.Fatal(err)
			}

			ns, targets := tc.build(t)
			shardDir := t.TempDir()
			s, err := shard.New(shard.Config{Shards: 1, Policy: tc.policy, DataDir: shardDir, SyncEveryAppend: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			for _, tgt := range targets {
				s.Register(tgt)
			}

			for i := 0; i < tc.cycles; i++ {
				if tc.scenario != "" && i == tc.warmup {
					for _, n := range []*netsim.Network{nm, ns} {
						sc, err := netsim.LibraryScenario(tc.scenario, 1, 6)
						if err != nil {
							t.Fatal(err)
						}
						if err := n.ScheduleScenario(sc); err != nil {
							t.Fatal(err)
						}
					}
				}
				nm.Step()
				ns.Step()
				mst, _ := m.RunCycle(nm.Now())
				res, err := s.RunCycle(ns.Now())
				if err != nil {
					t.Fatal(err)
				}
				if len(mst) != len(res.Stats) || (len(mst) > 0 && !reflect.DeepEqual(mst, res.Stats)) {
					t.Fatalf("cycle %d stats diverge:\nmonitor: %+v\nshard:   %+v", i, mst, res.Stats)
				}
			}

			for _, tgt := range targets {
				for _, metric := range process.AllMetrics {
					if a, b := m.Series(tgt.Name, metric), s.TargetSeries(tgt.Name, metric); !reflect.DeepEqual(a, b) {
						t.Errorf("series %s/%s diverges", tgt.Name, metric)
					}
				}
			}

			mh, sh := m.HealthView().Targets, s.FleetHealth()
			if len(mh) != len(sh) {
				t.Fatalf("health rows: monitor %d, shard %d", len(mh), len(sh))
			}
			gaps := 0
			for i := range mh {
				if !reflect.DeepEqual(mh[i].TargetHealth, sh[i].TargetHealth) || mh[i].GapCount != sh[i].GapCount {
					t.Errorf("health row %d diverges:\nmonitor: %+v\nshard:   %+v", i, mh[i], sh[i])
				}
				gaps += mh[i].GapCount
			}
			if gaps == 0 {
				t.Fatal("no target ever failed; the comparison would not cover gap frames")
			}

			ma, sa := normAnomalies(m.Anomalies()), normAnomalies(s.FleetAnomalies())
			if tc.scenario != "" && len(ma) == 0 {
				t.Fatal("scenario produced no anomalies; the episode comparison would be vacuous")
			}
			if !reflect.DeepEqual(ma, sa) {
				t.Errorf("anomaly episodes diverge:\nmonitor: %+v\nshard:   %+v", ma, sa)
			}

			a, b := walBytes(t, monDir), walBytes(t, filepath.Join(shardDir, "shard-00"))
			if !reflect.DeepEqual(a, b) {
				t.Errorf("WAL bytes diverge (monitor %d bytes, shard %d bytes)", len(a), len(b))
			}
			t.Logf("%d cycles, %d gap cycles, %d anomaly episodes, %d WAL bytes", tc.cycles, gaps, len(ma), len(a))
		})
	}
}

// normAnomalies orders episodes as the fleet view does — by open time,
// target and kind — and clears the IDs, which the fleet view re-keys.
func normAnomalies(in []mantra.Anomaly) []mantra.Anomaly {
	out := append([]mantra.Anomaly(nil), in...)
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].At.Equal(out[j].At) {
			return out[i].At.Before(out[j].At)
		}
		if out[i].Target != out[j].Target {
			return out[i].Target < out[j].Target
		}
		return out[i].Kind < out[j].Kind
	})
	for i := range out {
		out[i].ID = 0
	}
	return out
}
