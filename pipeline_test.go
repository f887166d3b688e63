package mantra_test

// Equivalence tests for the cycle engine: the pipelined schedule must
// produce artifacts identical to the serial path — same
// series, same anomalies, same health ledger, same delta log, same
// archive WAL bytes — for the same fault-injected scenario. The reorder
// buffer is what makes this hold; these tests are what keep it honest.

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	mantra "repro"
	"repro/internal/core/collect"
	"repro/internal/core/process"
	"repro/internal/router"
	"repro/internal/sim"
)

// archiveEquivCfg disables checkpoints (their gob-encoded maps are not
// byte-deterministic) and fsyncs every append, so the WAL segments on
// disk are the complete, comparable archive of the run.
func archiveEquivCfg(dir string) mantra.ArchiveConfig {
	return mantra.ArchiveConfig{
		Dir:             dir,
		CheckpointEvery: 1 << 30,
		SyncEveryAppend: true,
	}
}

// walBytes concatenates a run's WAL segments in name order.
func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	if len(segs) == 0 {
		t.Fatalf("no WAL segments under %s", dir)
	}
	var out []byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

// TestPipelinedCycleMatchesSerial is the engine's golden equivalence
// test: the same fault-injected two-router scenario run serially and
// pipelined must agree on every artifact the monitor produces.
func TestPipelinedCycleMatchesSerial(t *testing.T) {
	profile := router.FaultProfile{
		RefuseConn:  0.08,
		RejectLogin: 0.06,
		Truncate:    0.06,
		Garble:      0.06,
		Drop:        0.05,
	}
	policy := collect.Policy{
		MaxAttempts:      2,
		BreakerThreshold: 3,
		BreakerCooldown:  90 * time.Minute,
		Sleep:            func(time.Duration) {},
	}

	type run struct {
		name  string
		cycle func(m *mantra.Monitor, now time.Time) ([]mantra.CycleStats, error)
	}
	runs := []run{
		{"serial", func(m *mantra.Monitor, now time.Time) ([]mantra.CycleStats, error) { return m.RunCycle(now) }},
		{"pipelined", func(m *mantra.Monitor, now time.Time) ([]mantra.CycleStats, error) { return m.RunCycleConcurrent(now) }},
	}

	const cycles = 60
	type outcome struct {
		dir     string
		mon     *mantra.Monitor
		stats   [][]mantra.CycleStats
		results [][]mantra.CollectResult
	}
	outcomes := make([]outcome, len(runs))
	for ri, r := range runs {
		// Identically seeded networks produce identical fault sequences,
		// so every run faces the same scenario.
		n, m, _ := chaosMonitor(t, profile, policy)
		m.SetConcurrency(2)
		dir := t.TempDir()
		if _, err := m.EnableArchive(archiveEquivCfg(dir)); err != nil {
			t.Fatal(err)
		}
		o := outcome{dir: dir, mon: m}
		for i := 0; i < cycles; i++ {
			n.Step()
			st, _ := r.cycle(m, n.Now())
			o.stats = append(o.stats, st)
			o.results = append(o.results, m.LastResults())
		}
		outcomes[ri] = o
	}

	ref := outcomes[0]
	for ri := 1; ri < len(outcomes); ri++ {
		name, o := runs[ri].name, outcomes[ri]

		// Per-cycle statistics and per-target outcomes, cycle by cycle.
		for i := 0; i < cycles; i++ {
			if !reflect.DeepEqual(ref.stats[i], o.stats[i]) {
				t.Fatalf("%s: cycle %d stats diverge:\nserial: %+v\n%s: %+v",
					name, i, ref.stats[i], name, o.stats[i])
			}
			if !resultsEqual(ref.results[i], o.results[i]) {
				t.Fatalf("%s: cycle %d results diverge:\nserial: %+v\n%s: %+v",
					name, i, ref.results[i], name, o.results[i])
			}
		}

		// Every series, point for point, gap for gap.
		for _, target := range []string{"fixw", "ucsb-r1"} {
			for _, metric := range process.AllMetrics {
				a := ref.mon.Series(target, metric)
				b := o.mon.Series(target, metric)
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s: series %s/%s diverges", name, target, metric)
				}
			}
		}

		// Anomaly feed, health ledger, delta log shape.
		if !reflect.DeepEqual(ref.mon.Anomalies(), o.mon.Anomalies()) {
			t.Errorf("%s: anomaly feeds diverge", name)
		}
		if !reflect.DeepEqual(ref.mon.Health(), o.mon.Health()) {
			t.Errorf("%s: health ledgers diverge:\nserial: %+v\n%s: %+v",
				name, ref.mon.Health(), name, o.mon.Health())
		}
		for _, target := range []string{"fixw", "ucsb-r1"} {
			if a, b := ref.mon.Log().Cycles(target), o.mon.Log().Cycles(target); a != b {
				t.Errorf("%s: %s logged cycles %d != %d", name, target, b, a)
			}
		}

		// The durable archive: byte-identical WAL segments.
		if a, b := walBytes(t, ref.dir), walBytes(t, o.dir); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: archive WAL bytes diverge (%d vs %d bytes)", name, len(a), len(b))
		}

		// Route-stability trackers observed the same history.
		a, b := ref.mon.RouteStability("ucsb-r1"), o.mon.RouteStability("ucsb-r1")
		if a == nil || b == nil || a.Cycles() != b.Cycles() || !reflect.DeepEqual(a.Summary(), b.Summary()) {
			t.Errorf("%s: stability trackers diverge", name)
		}
	}
}

// resultsEqual compares CollectResult slices, matching errors by string
// (errors.Is identity differs across monitors by construction).
func resultsEqual(a, b []mantra.CollectResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Target != b[i].Target || a[i].Status != b[i].Status || a[i].Attempts != b[i].Attempts {
			return false
		}
		ae, be := "", ""
		if a[i].Err != nil {
			ae = a[i].Err.Error()
		}
		if b[i].Err != nil {
			be = b[i].Err.Error()
		}
		if ae != be {
			return false
		}
		if (a[i].Stats == nil) != (b[i].Stats == nil) {
			return false
		}
		if a[i].Stats != nil && *a[i].Stats != *b[i].Stats {
			return false
		}
	}
	return true
}

// downDialer always fails to connect.
type downDialer struct{}

func (downDialer) Dial() (io.ReadWriteCloser, error) {
	return nil, errors.New("connection refused")
}

// TestSetCollectPolicyCarriesState is the regression test for the
// mid-run policy change: swapping the policy used to silently discard
// the per-target health ledger and breaker positions; it must carry
// them into the new collector. ResetCollectState keeps the old wipe as
// an explicit operation.
func TestSetCollectPolicyCarriesState(t *testing.T) {
	m := mantra.New()
	m.SetCollectPolicy(collect.Policy{
		MaxAttempts:      1,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
		Sleep:            func(time.Duration) {},
	})
	m.AddTarget(mantra.Target{
		Name:    "dead",
		Dialer:  downDialer{},
		Prompt:  "dead> ",
		Timeout: 50 * time.Millisecond,
	})

	now := sim.Epoch
	for i := 0; i < 3; i++ {
		now = now.Add(time.Minute)
		if _, err := m.RunCycle(now); err == nil {
			t.Fatal("all-failed cycle did not err")
		}
	}
	before := m.Health()[0]
	if before.Breaker != collect.BreakerOpen || before.ConsecutiveFailures != 3 {
		t.Fatalf("setup: health = %+v, want open breaker with 3 consecutive failures", before)
	}

	// The mid-run policy change: new thresholds, same history.
	m.SetCollectPolicy(collect.Policy{
		MaxAttempts:      2,
		BreakerThreshold: 10,
		BreakerCooldown:  time.Hour,
		Sleep:            func(time.Duration) {},
	})
	after := m.Health()[0]
	if after.Breaker != collect.BreakerOpen {
		t.Errorf("policy change dropped the open breaker: %+v", after)
	}
	if after.ConsecutiveFailures != before.ConsecutiveFailures ||
		after.TotalFailures != before.TotalFailures ||
		after.LastError != before.LastError {
		t.Errorf("policy change discarded the health ledger:\nbefore: %+v\nafter:  %+v", before, after)
	}

	// The carried breaker keeps cooling down under the new policy: the
	// next cycle inside the cooldown must still be skipped unprobed.
	now = now.Add(time.Minute)
	if _, err := m.RunCycle(now); err == nil {
		t.Fatal("all-failed cycle did not err")
	}
	if res := m.LastResults()[0]; res.Status != collect.StatusBreakerOpen || res.Attempts != 0 {
		t.Errorf("carried breaker did not skip: %+v", res)
	}

	// The deliberate wipe is still available, as an explicit call.
	m.ResetCollectState()
	wiped := m.Health()[0]
	if wiped.Breaker != collect.BreakerClosed || wiped.ConsecutiveFailures != 0 || wiped.TotalFailures != 0 {
		t.Errorf("ResetCollectState did not wipe: %+v", wiped)
	}
}

// TestEngineStatsExposed: the /stats instrumentation reflects the
// cycles run and carries per-stage observations for every target.
func TestEngineStatsExposed(t *testing.T) {
	n, m := newMonitoredNetwork(t)
	const cycles = 4
	for i := 0; i < cycles; i++ {
		n.Step()
		if _, err := m.RunCycleConcurrent(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	st := m.EngineStats()
	if st.Cycles != cycles {
		t.Errorf("stats cycles = %d", st.Cycles)
	}
	if st.Concurrency != 2 {
		t.Errorf("stats concurrency = %d, want min(8, 2 targets)", st.Concurrency)
	}
	if len(st.Targets) != 2 {
		t.Fatalf("stats targets = %d", len(st.Targets))
	}
	for _, ts := range st.Targets {
		if ts.Cycles != cycles || ts.Successes != cycles {
			t.Errorf("%s: %+v", ts.Target, ts)
		}
	}
	rep := m.LastCycleReport()
	if rep == nil || rep.Cycle != cycles || rep.Targets != 2 || rep.Failed != 0 {
		t.Fatalf("last report = %+v", rep)
	}
	if rep.Stages == nil || rep.Stages["collect"].Count != 2 {
		t.Errorf("last report stages = %+v", rep.Stages)
	}
}
